"""Command-line interface.

Subcommands: solve, oracle, eval, approx, optimize, bench. Results go to
stdout, diagnostics to stderr. Exit codes: 0 satisfiable/solved, 1
unsatisfiable, 2 usage or input error, 3 internal error (notably a bt/fc
verdict mismatch in bench, which is a correctness alarm).

All probabilities print with 9 fixed decimal digits so golden outputs are
stable at the solver's 1e-9 tolerance. Identical invocations produce
byte-identical stdout/stderr; wall-clock times appear only in the bench
CSV file, never on a stream.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .approx import monte_carlo_policy_eval, restricted_tree_bounds
from .errors import MalformedPolicyError, MismatchBetweenAlgorithmsError, StocsError
from .extensions import optimize_expected
from .formats import _read, load_instance, parse_policy, serialize_policy
from .model import Instance
from .semantics import (
    ORACLE_CAP,
    SearchStats,
    oracle_max_satisfaction,
    policy_satisfaction,
)
from .solver import PruneRules, bt_decide, bt_max, fc_decide, fc_max

__all__ = ["RunRecord", "main"]

# the counters in the STATS line and the bench CSV: column -> SearchStats.as_dict key
COUNTERS = {"nodes": "nodes_visited", "chance_prunes": "chance_prunes",
            "decision_prunes": "decision_prunes", "fc_wipeouts": "fc_wipeouts",
            "fc_mass_prunes": "fc_mass_prunes"}
CSV_HEADER = ("instance", "algorithm", "mode", "theta", "verdict", "probability",
              *COUNTERS, "ms", "version", "seed")


@dataclass
class RunRecord:
    """One solver run, as a bench CSV row."""

    instance: str
    algorithm: str
    mode: str
    theta: float
    verdict: str
    probability: str  # 9-digit fixed point, or empty when not applicable
    stats: SearchStats
    ms: float
    seed: str = ""

    def row(self) -> list[str]:
        counts = self.stats.as_dict()
        return [self.instance, self.algorithm, self.mode, _fmt(self.theta),
                self.verdict, self.probability,
                *(str(counts[key]) for key in COUNTERS.values()),
                f"{self.ms:.3f}", __version__, self.seed]


def _fmt(p: float) -> str:
    return f"{p:.9f}"


def _load(path: str, renormalize: bool = False) -> Instance:
    # surface format/validation warnings on stderr, deterministically
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instance = load_instance(path, renormalize=renormalize)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return instance


def _rules(args: argparse.Namespace) -> PruneRules:
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


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load(args.instance, renormalize=args.renormalize)
    rules = _rules(args)
    run_max = bt_max if args.algorithm == "bt" else fc_max
    run_decide = bt_decide if args.algorithm == "bt" else fc_decide

    if args.mode == "max":
        if args.theta is not None:
            print("warning: --theta has no effect in max mode", file=sys.stderr)
        result = run_max(instance, rules=rules)
        print(f"MAX p={_fmt(result.probability)}")
        if args.policy_out:
            _write_policy(args.policy_out, result.policy)
        if args.stats:
            _print_stats(result.stats)
        return 0

    result = run_decide(instance, theta_override=args.theta, rules=rules)
    theta = instance.theta if args.theta is None else args.theta
    if result.satisfiable:
        print(f"SAT p>={_fmt(theta)}")
        if args.policy_out:
            _write_policy(args.policy_out, result.policy)
        if args.stats:
            _print_stats(result.stats)
        return 0
    print(f"UNSAT max={_fmt(run_max(instance, rules=rules).probability)}")
    if args.policy_out:
        print("warning: no policy written for an UNSAT verdict", file=sys.stderr)
    if args.stats:
        _print_stats(result.stats)
    return 1


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    result = oracle_max_satisfaction(instance, cap=args.cap)
    print(f"MAX p={_fmt(result.probability)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    policy = parse_policy(_read(args.policy, MalformedPolicyError))
    if args.samples is None:
        print(f"EVAL p={_fmt(policy_satisfaction(instance, policy))}")
    else:
        est = monte_carlo_policy_eval(instance, policy, args.samples, args.seed)
        print(f"EST p={_fmt(est.estimate)} ci=[{_fmt(est.ci_low)},{_fmt(est.ci_high)}]"
              f" n={est.n} seed={est.seed}")
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    bounds = restricted_tree_bounds(instance, epsilon=args.epsilon, top_k=args.top_k)
    print(f"BOUNDS lb={_fmt(bounds.lb)} ub={_fmt(bounds.ub)}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    result = optimize_expected(instance)
    print(f"OPT ev={_fmt(result.expected_value)} p={_fmt(result.satisfaction)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    records: list[RunRecord] = []
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
            records.append(RunRecord(name, algorithm, "decide", instance.theta,
                                     verdict, probability, result.stats, ms))
        if verdicts["bt"] != verdicts["fc"]:
            mismatches.append(
                f"{name}: bt={verdicts['bt']} fc={verdicts['fc']}"
            )
        print(f"{name}: bt={verdicts['bt']} fc={verdicts['fc']}")
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.row())
    print(f"wrote {len(records)} rows to {args.out}")
    if mismatches:
        raise MismatchBetweenAlgorithmsError(
            "bt and fc disagree on: " + "; ".join(mismatches)
        )
    return 2 if bad_files else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stocs",
        description="Solve stochastic constraint satisfaction problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the exact search on one instance")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", choices=("bt", "fc"), default="bt")
    solve.add_argument("--mode", choices=("decide", "max"), default="decide")
    solve.add_argument("--theta", type=float, default=None,
                       help="override the instance threshold")
    solve.add_argument("--policy-out", metavar="FILE",
                       help="write the witness policy as JSON")
    solve.add_argument("--no-prune-decision-stop", action="store_true",
                       help="disable stopping at a good-enough decision value")
    solve.add_argument("--no-prune-chance-abort", action="store_true",
                       help="disable early exits at chance nodes")
    solve.add_argument("--no-prune-fc-wipeout", action="store_true",
                       help="disable domain-wipeout backtracking")
    solve.add_argument("--no-prune-fc-mass", action="store_true",
                       help="disable probability-mass bound pruning")
    solve.add_argument("--renormalize", action="store_true",
                       help="rescale probability vectors to sum to 1")
    solve.add_argument("--stats", action="store_true",
                       help="print search counters after the verdict")
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="brute-force maximum by policy enumeration")
    oracle.add_argument("instance")
    oracle.add_argument("--cap", type=int, default=ORACLE_CAP,
                        help="refuse instances with more policies than this")
    oracle.set_defaults(func=cmd_oracle)

    evaluate = sub.add_parser("eval", help="score a policy file against an instance")
    evaluate.add_argument("instance")
    evaluate.add_argument("--policy", required=True, metavar="FILE")
    evaluate.add_argument("--samples", type=int, default=None,
                          help="estimate by Monte Carlo instead of exactly")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=cmd_eval)

    approx = sub.add_parser("approx", help="bound the maximum with a restricted tree")
    approx.add_argument("instance")
    group = approx.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float, default=None,
                       help="ignore stochastic branches with probability below this")
    group.add_argument("--top-k", type=int, default=None,
                       help="keep only the k most probable branches")
    approx.set_defaults(func=cmd_approx)

    optimize = sub.add_parser("optimize",
                              help="maximize the expected objective value")
    optimize.add_argument("instance")
    optimize.set_defaults(func=cmd_optimize)

    bench = sub.add_parser("bench", help="solve every .scsp in a directory, write CSV")
    bench.add_argument("directory")
    bench.add_argument("--out", required=True, metavar="FILE")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles --help and usage errors
        return int(e.code or 0)
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


if __name__ == "__main__":
    sys.exit(main())
