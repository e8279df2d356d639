"""Command-line interface.

Subcommands: solve, oracle, eval, approx, optimize, bench. Results go to
stdout, diagnostics to stderr. Exit codes: 0 satisfiable/solved, 1
unsatisfiable, 2 usage or input error, 3 internal error (notably a bt/fc
verdict mismatch in bench, which is a correctness alarm).

Options are declared once, in `COMMANDS`. A plain valid command line is
scanned against that table without building an argparse parser; help and
every usage error come from the parser `build_parser` makes from it, so
their bytes are argparse's (see `_parse_args`).

All probabilities print with 9 fixed decimal digits so golden outputs are
stable at the solver's 1e-9 tolerance. Identical invocations produce
byte-identical stdout/stderr; wall-clock times appear only in the bench
CSV file, never on a stream.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from types import SimpleNamespace

from . import __version__
from .errors import MalformedPolicyError, MismatchBetweenAlgorithmsError, StocsError
from .formats import _read, load_instance, parse_policy, serialize_policy
from .model import ORACLE_CAP, Instance
from .semantics import SearchStats, oracle_max_satisfaction, policy_satisfaction
from .solver import PruneRules, bt_decide, bt_max, fc_decide, fc_max

__all__ = ["main"]

# the counters in the STATS line and the bench CSV: column -> SearchStats.as_dict key
COUNTERS = {"nodes": "nodes_visited", "chance_prunes": "chance_prunes",
            "decision_prunes": "decision_prunes", "fc_wipeouts": "fc_wipeouts",
            "fc_mass_prunes": "fc_mass_prunes", "cache_hits": "cache_hits"}
CSV_HEADER = ("instance", "algorithm", "mode", "theta", "verdict", "probability",
              *COUNTERS, "ms", "version", "seed")


def _fmt(p: float) -> str:
    text = f"{p:.9f}"
    # a negative value that rounds to zero prints unsigned, as the "z" format
    # flag would, which Python 3.10 lacks
    return "0.000000000" if text == "-0.000000000" else text


# approx and extensions load on the first call of these, from `eval
# --samples`, `approx` and `optimize`, so other commands skip their import.
# The handlers call them through this module, where a caller may replace them.
def monte_carlo_policy_eval(instance, policy, n, seed):
    from .approx import monte_carlo_policy_eval
    return monte_carlo_policy_eval(instance, policy, n, seed)


def restricted_tree_bounds(instance, epsilon=None, top_k=None):
    from .approx import restricted_tree_bounds
    return restricted_tree_bounds(instance, epsilon=epsilon, top_k=top_k)


def optimize_expected(instance):
    from .extensions import optimize_expected
    return optimize_expected(instance)


def _load(path: str, renormalize: bool = False) -> Instance:
    # surface format/validation warnings on stderr, deterministically
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_instance(path, renormalize=renormalize)
        finally:
            # before the error a failed load raises, which they may explain
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _rules(args: SimpleNamespace) -> PruneRules:
    return PruneRules(
        decision_stop=not args.no_prune_decision_stop,
        chance_abort=not args.no_prune_chance_abort,
        fc_wipeout=not args.no_prune_fc_wipeout,
        fc_mass=not args.no_prune_fc_mass,
    )


def _print_stats(stats: SearchStats) -> None:
    counts = stats.as_dict()
    print("STATS " + " ".join(f"{column}={counts[key]}" for column, key in COUNTERS.items()))


def _write_policy(path: str, policy) -> None:
    # Overwrite in place, then cut off the tail of a longer old file. Opening
    # with O_TRUNC instead makes ext4 start writeback of the file on close
    # (its replace-via-truncate heuristic): 0.1-0.5 ms per write, disk-bound
    # and uneven from one write to the next, against about 5 us this way.
    data = (serialize_policy(policy) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old_size = os.fstat(fd).st_size  # 0 for a device or a pipe
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if old_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def cmd_solve(args: SimpleNamespace) -> int:
    instance = _load(args.instance, renormalize=args.renormalize)
    rules = _rules(args)
    if args.mode == "max":
        if args.theta is not None:
            print("warning: --theta has no effect in max mode", file=sys.stderr)
        result = (bt_max if args.algorithm == "bt" else fc_max)(instance, rules=rules)
        print(f"MAX p={_fmt(result.probability)}")
        found = True
    else:
        run_decide = bt_decide if args.algorithm == "bt" else fc_decide
        result = run_decide(instance, theta_override=args.theta, rules=rules)
        found = result.satisfiable
        theta = instance.theta if args.theta is None else args.theta
        print(f"SAT p>={_fmt(theta)}" if found else f"UNSAT max={_fmt(result.maximum)}")
    if args.policy_out and found:
        _write_policy(args.policy_out, result.policy)
    elif args.policy_out:
        print("warning: no policy written for an UNSAT verdict", file=sys.stderr)
    if args.stats:
        _print_stats(result.stats)
    return 0 if found else 1


def cmd_oracle(args: SimpleNamespace) -> int:
    instance = _load(args.instance)
    result = oracle_max_satisfaction(instance, cap=args.cap)
    print(f"MAX p={_fmt(result.probability)}")
    return 0


def cmd_eval(args: SimpleNamespace) -> int:
    instance = _load(args.instance)
    policy = parse_policy(_read(args.policy, MalformedPolicyError))
    if args.samples is None:
        print(f"EVAL p={_fmt(policy_satisfaction(instance, policy))}")
    else:
        est = monte_carlo_policy_eval(instance, policy, args.samples, args.seed)
        print(f"EST p={_fmt(est.estimate)} ci=[{_fmt(est.ci_low)},{_fmt(est.ci_high)}]"
              f" n={est.n} seed={est.seed}")
    return 0


def cmd_approx(args: SimpleNamespace) -> int:
    instance = _load(args.instance)
    bounds = restricted_tree_bounds(instance, epsilon=args.epsilon, top_k=args.top_k)
    print(f"BOUNDS lb={_fmt(bounds.lb)} ub={_fmt(bounds.ub)}")
    return 0


def cmd_optimize(args: SimpleNamespace) -> int:
    instance = _load(args.instance)
    result = optimize_expected(instance)
    print(f"OPT ev={_fmt(result.expected_value)} p={_fmt(result.satisfaction)}")
    return 0


def cmd_bench(args: SimpleNamespace) -> int:
    # only bench writes CSV and globs a directory; the other commands skip these imports
    import csv
    from pathlib import Path
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    rows: list[list[str]] = []  # one per solver run, in CSV_HEADER's columns
    mismatches: list[str] = []
    bad_files = 0
    for path in sorted(directory.glob("*.scsp"), key=lambda p: p.name):
        try:
            instance = _load(path)
        except StocsError as e:
            print(f"error: {path.name}: {e}", file=sys.stderr)
            bad_files += 1
            continue
        name = instance.name or path.stem
        verdicts = {}
        for algorithm, run in (("bt", bt_decide), ("fc", fc_decide)):
            start = time.perf_counter()
            result = run(instance)
            ms = (time.perf_counter() - start) * 1000.0
            verdict = "SAT" if result.satisfiable else "UNSAT"
            probability = ""
            if result.satisfiable:
                probability = _fmt(policy_satisfaction(instance, result.policy))
            verdicts[algorithm] = verdict
            counts = result.stats.as_dict()
            rows.append([name, algorithm, "decide", _fmt(instance.theta), verdict, probability,
                         *(str(counts[key]) for key in COUNTERS.values()),
                         f"{ms:.3f}", __version__, ""])
        if verdicts["bt"] != verdicts["fc"]:
            mismatches.append(
                f"{name}: bt={verdicts['bt']} fc={verdicts['fc']}"
            )
        print(f"{name}: bt={verdicts['bt']} fc={verdicts['fc']}")
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    if mismatches:
        raise MismatchBetweenAlgorithmsError(
            "bt and fc disagree on: " + "; ".join(mismatches)
        )
    return 2 if bad_files else 0


# subcommand -> (help line in the root parser's listing, handler, arguments).
# An argument is (positional name or long flag, `add_argument` keywords). A
# typed option has no string default: argparse would pass it through `type`,
# and `_scan` does not.
COMMANDS = {
    "solve": ("run the exact search on one instance", cmd_solve, (
        ("instance", {}),
        ("--algorithm", {"choices": ("bt", "fc"), "default": "bt"}),
        ("--mode", {"choices": ("decide", "max"), "default": "decide"}),
        ("--theta", {"type": float, "default": None, "help": "override the instance threshold"}),
        ("--policy-out", {"metavar": "FILE", "help": "write the witness policy as JSON"}),
        ("--no-prune-decision-stop", {"action": "store_true",
                                      "help": "disable stopping at a good-enough decision value"}),
        ("--no-prune-chance-abort", {"action": "store_true",
                                     "help": "disable early exits at chance nodes"}),
        ("--no-prune-fc-wipeout", {"action": "store_true",
                                   "help": "disable domain-wipeout backtracking"}),
        ("--no-prune-fc-mass", {"action": "store_true",
                                "help": "disable probability-mass bound pruning"}),
        ("--renormalize", {"action": "store_true",
                           "help": "rescale probability vectors to sum to 1"}),
        ("--stats", {"action": "store_true", "help": "print search counters after the verdict"}),
    )),
    "oracle": ("brute-force maximum by policy enumeration", cmd_oracle, (
        ("instance", {}),
        ("--cap", {"type": int, "default": ORACLE_CAP,
                   "help": "refuse instances with more policies than this"}),
    )),
    "eval": ("score a policy file against an instance", cmd_eval, (
        ("instance", {}),
        ("--policy", {"required": True, "metavar": "FILE"}),
        ("--samples", {"type": int, "default": None,
                       "help": "estimate by Monte Carlo instead of exactly"}),
        ("--seed", {"type": int, "default": 0}),
    )),
    "approx": ("bound the maximum with a restricted tree", cmd_approx, (
        ("instance", {}),
        ("--epsilon", {"type": float, "default": None,
                       "help": "ignore stochastic branches with probability below this"}),
        ("--top-k", {"type": int, "default": None,
                     "help": "keep only the k most probable branches"}),
    )),
    "optimize": ("maximize the expected objective value", cmd_optimize, (("instance", {}),)),
    "bench": ("solve every .scsp in a directory, write CSV", cmd_bench, (
        ("directory", {}),
        ("--out", {"required": True, "metavar": "FILE"}),
    )),
}


def build_parser():
    import argparse  # help and usage errors only; a valid call is scanned
    parser = argparse.ArgumentParser(
        prog="stocs",
        description="Solve stochastic constraint satisfaction problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, arguments) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        for name_or_flag, keywords in arguments:
            subparser.add_argument(name_or_flag, **keywords)
        subparser.set_defaults(func=func)
    return parser


def _scan(command: str, tokens: list[str]) -> SimpleNamespace | None:
    """The attributes `build_parser().parse_args([command, *tokens])` returns
    when the call is a plain valid one (see `_parse_args`), else None."""
    _, func, arguments = COMMANDS[command]
    unfilled = [name for name, _ in arguments if not name.startswith("-")]  # positionals
    options = {flag: keywords for flag, keywords in arguments if flag.startswith("-")}
    values: dict = {}  # positional name or flag -> value
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            if not unfilled:
                return None
            values[unfilled.pop(0)] = token
            continue
        keywords = options.get(token)
        if keywords is None or token in values:
            return None
        if keywords.get("action") == "store_true":
            values[token] = True
            continue
        value = next(tokens, "-")  # a missing value ends the scan as a dash does
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[token] = value
    if unfilled or any(k.get("required") and f not in values for f, k in options.items()):
        return None
    for flag, keywords in options.items():
        unset = False if keywords.get("action") == "store_true" else None
        values.setdefault(flag, keywords.get("default", unset))
    return SimpleNamespace(command=command, func=func, **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Parse a command line as `build_parser().parse_args(argv)` does.

    Building that parser costs more than the search of a small instance, so
    when `argv[0]` names a subcommand, the rest is first scanned against its
    `COMMANDS` entry. A token that does not start with "-" fills the next
    positional; an exact long flag is a store_true flag or takes the next
    token, which must not start with "-", through its `type` and `choices`.
    If then every positional is filled, every required option given, and
    no option given twice, the scan returns argparse's attributes, defaults,
    `func` and `command` included.
    Anything else goes to the full parser, which owns the bytes of help and
    of every error: help, "--opt=value", abbreviations, "--", values that
    start with "-", repeats, bad values and missing arguments. Raises
    `SystemExit` as argparse does.
    """
    if argv and argv[0] in COMMANDS:
        args = _scan(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv, SimpleNamespace())


def _dispatch(args: SimpleNamespace) -> int:
    """Run parsed arguments; map errors to exit codes, report them on stderr."""
    try:
        return args.func(args)
    except MismatchBetweenAlgorithmsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (StocsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug in this tool
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:  # argparse handles --help and usage errors
        return int(e.code or 0)
    return _dispatch(args)
