"""The command line in fresh interpreters, as a user runs it.

Each command runs as ``python -X dev -W error -m stocs ...`` in its own
process, so import-time work, argument scanning, help and usage errors,
exit codes and the files one command writes for another are checked
outside the test process, and any warning fails the command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("solve", "oracle", "eval", "approx", "optimize", "bench")


def stocs(*args, timeout=60):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "stocs", *map(str, args)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        encoding="utf-8", timeout=timeout)


def assert_input_error(done):
    assert done.returncode == 2, done.stderr
    assert any(line.startswith("error: ") for line in done.stderr.splitlines()), done.stderr


@pytest.mark.parametrize("argv", [(), *((name,) for name in SUBCOMMANDS)],
                         ids=["root", *SUBCOMMANDS])
def test_help_exits_zero(argv):
    done = stocs(*argv, "--help")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.startswith("usage: ")


def test_unknown_subcommand_is_a_usage_error():
    done = stocs("bogus")
    assert done.returncode == 2
    assert "invalid choice" in done.stderr


def make_chain(n):
    return [{"name": f"x{i}", "kind": "decision", "domain": [0, 1]} if i % 2 == 0
            else {"name": f"s{i}", "kind": "stochastic", "domain": [0, 1],
                  "probabilities": [0.5, 0.5]} for i in range(n)]


@pytest.fixture(scope="module")
def faulty(tmp_path_factory):
    """Input files that must each fail with a typed error."""
    tmp_path = tmp_path_factory.mktemp("faulty")
    # Python converts at most 4,300 digits of an int to or from text, and the
    # 28-variable chain's policy count has 16,384 bits
    big = "1" + "0" * 5000
    (tmp_path / "big.scsp").write_text('{"theta": ' + big + ', "variables": []}')
    (tmp_path / "big.json").write_text('{"kind":"decision","variable":"x","value":' + big
                                       + ',"child":{"kind":"leaf"}}')
    chain = make_chain(28)
    (tmp_path / "chain.scsp").write_text(json.dumps({"theta": 0.5, "variables": chain}))
    # 1 = 2 fixes every value at 0, but eval must still check the policy
    (tmp_path / "constant.scsp").write_text(json.dumps({
        "theta": 0.5, "variables": chain[:2],
        "constraints": [{"type": "expr", "text": "1 = 2"}]}))
    (tmp_path / "leaf.json").write_text('{"kind":"leaf"}')
    # s = 1 violates x = s in a.scsp, so no walk goes below it; eval still checks it
    (tmp_path / "past_the_end.json").write_text(json.dumps({
        "kind": "decision", "variable": "x", "value": 0, "child": {
            "kind": "chance", "variable": "s", "children": [
                {"kind": "leaf"},
                {"kind": "decision", "variable": "x", "value": 0, "child": {"kind": "leaf"}}]}}))
    (tmp_path / "overflow.scsp").write_text(json.dumps({
        "theta": 0.5, "variables": chain[:1], "objective": {"text": "x0 * 1" + "0" * 400}}))
    # the duplicate-name check is linear, so this fails fast on its depth
    (tmp_path / "long_chain.scsp").write_text(json.dumps({"theta": 0.5, "variables": make_chain(20000)}))
    # int() reads ARABIC-INDIC DIGIT ONE as 1, but a literal is ASCII digits
    production = json.loads((ROOT / "instances" / "production.scsp").read_text(encoding="utf-8"))
    production["constraints"][0]["text"] += " or 1 = \u0661"
    (tmp_path / "digit.scsp").write_text(json.dumps(production), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ("solve", "{tmp}/big.scsp"),
    ("eval", "instances/a.scsp", "--policy", "{tmp}/big.json"),
    ("oracle", "{tmp}/chain.scsp"),
    ("eval", "{tmp}/constant.scsp", "--policy", "{tmp}/leaf.json"),
    ("eval", "instances/a.scsp", "--policy", "{tmp}/past_the_end.json"),
    ("optimize", "{tmp}/overflow.scsp"),
    ("solve", "{tmp}/digit.scsp"),
], ids=["big-theta", "big-policy-value", "oracle-past-cap", "malformed-policy-false-constant",
        "malformed-node-below-a-violated-branch", "objective-past-float-range",
        "non-ascii-digit"])
def test_input_errors_exit_two(faulty, argv):
    assert_input_error(stocs(*(a.format(tmp=faulty) for a in argv)))


def test_a_20000_variable_chain_fails_fast(faulty):
    assert_input_error(stocs("solve", faulty / "long_chain.scsp", timeout=20))


@pytest.mark.parametrize("full, scanned", [
    (("--theta=0.8",), ("--theta", "0.8")),
    (("--alg", "fc", "--mo", "max"), ("--algorithm", "fc", "--mode", "max")),
], ids=["equals-sign", "abbreviations"])
def test_spellings_only_the_full_parser_reads(full, scanned):
    # the scan reads the spelled-out options; argparse reads the others
    full = stocs("solve", "instances/production.scsp", *full)
    scanned = stocs("solve", "instances/production.scsp", *scanned)
    assert full.stdout
    assert (full.returncode, full.stdout, full.stderr) == (
        scanned.returncode, scanned.stdout, scanned.stderr)


@pytest.mark.parametrize("name", ["production", "conditional"])
def test_written_policies_evaluate_in_another_process(tmp_path, name):
    instance = f"instances/{name}.scsp"
    theta = json.loads((ROOT / instance).read_text(encoding="utf-8"))["theta"]
    done = stocs("solve", instance, "--algorithm", "fc", "--mode", "max",
                 "--policy-out", tmp_path / "p.json")
    evaluated = stocs("eval", instance, "--policy", tmp_path / "p.json")
    assert done.stdout.startswith("MAX p=")
    assert done.stdout.removeprefix("MAX p=") == evaluated.stdout.removeprefix("EVAL p=")
    # the decide witness meets theta
    done = stocs("solve", instance, "--policy-out", tmp_path / "w.json")
    witness = stocs("eval", instance, "--policy", tmp_path / "w.json")
    assert done.stdout == f"SAT p>={theta:.9f}\n"
    assert witness.stdout.startswith("EVAL p=")
    assert float(witness.stdout.removeprefix("EVAL p=")) >= theta


def test_unsat_prints_the_maximum_and_decide_counters():
    # the maximum comes from max mode on the decide search's own memo; the
    # STATS line holds decide's counters alone
    done = stocs("solve", "instances/a.scsp", "--theta", "0.6", "--stats")
    best = stocs("solve", "instances/a.scsp", "--mode", "max")
    assert (done.returncode, done.stderr, best.returncode) == (1, "", 0)
    unsat, stats = done.stdout.splitlines()
    assert unsat.removeprefix("UNSAT max=") == best.stdout.strip().removeprefix("MAX p=")
    assert unsat.startswith("UNSAT max=")
    assert stats == ("STATS nodes=5 chance_prunes=1 decision_prunes=0 fc_wipeouts=0"
                     " fc_mass_prunes=0 cache_hits=0")


def test_sampling_a_sure_witness_stops_early(tmp_path):
    # every sample of production's maximal witness satisfies the constraints,
    # so the sampler stops after its first batch of draws
    done = stocs("solve", "instances/production.scsp", "--algorithm", "fc", "--mode", "max",
                 "--policy-out", tmp_path / "p.json")
    assert done.stdout == "MAX p=1.000000000\n"
    done = stocs("eval", "instances/production.scsp", "--policy", tmp_path / "p.json",
                 "--samples", 100_000_000, "--seed", 1, timeout=20)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.startswith("EST p=1.000000000 ")
    assert done.stdout.endswith(" n=100000000 seed=1\n")
    assert_input_error(stocs("eval", "instances/production.scsp", "--policy", tmp_path / "p.json",
                             "--samples", "1" + "0" * 400, timeout=20))


# a module the interpreter's start-up loaded already (a `.pth` file may make
# `site` load `inspect`) does not count as one the import loaded
_NEW = "(set(sys.modules) - before)"


@pytest.mark.parametrize("flags, code, out", [
    # only `bench` writes CSV, so `csv` is imported inside cmd_bench; only
    # help and usage errors need the full parser, so `argparse` is imported
    # inside build_parser; approx and extensions load in the handlers that
    # call them, no record class needs `dataclasses`, and annotations name
    # `collections.abc`, not `typing`
    ((), "import sys; before = set(sys.modules); import stocs.cli; "
     "print(sorted({'argparse', 'csv', '_csv'} & set(sys.modules))); "
     f"print(sorted({{'dataclasses', 'inspect', 'typing', 'stocs.approx', 'stocs.extensions'}} & {_NEW}))",
     "[]\n[]\n"),
    # the package root loads a module on the first access of one of its names
    ((), "import sys; before = set(sys.modules); import stocs; "
     "print(sorted({'dataclasses', 'inspect', 'typing', 'stocs.approx', 'stocs.extensions', "
     f"'stocs.solver', 'stocs.cli'}} & {_NEW})); "
     "listed = set(dir(stocs)); bound = {}; exec('from stocs import *', bound); "
     "print(all(getattr(stocs, name) is bound[name] for name in stocs.__all__), "
     "sorted(bound.keys() - {'__builtins__'}) == sorted(stocs.__all__), "
     "set(stocs.__all__) <= listed, hasattr(stocs, 'no_such_name'))",
     "[]\nTrue True True False\n"),
    # every module, with no `site`: a `.pth` file cannot load `typing` first
    # and so hide an import of it
    (("-S",), "import sys; import stocs, stocs.cli, stocs.approx, stocs.extensions; "
     "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))); "
     "print(sorted(set(stocs.__all__) - set(dir(stocs))))",
     "[]\n[]\n"),
], ids=["cli", "package-root", "every-module-without-site"])
def test_importing_the_cli_leaves_csv_unloaded(flags, code, out):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *flags, "-X", "dev", "-W", "error", "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        encoding="utf-8", timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", out)


# each command's (exit code, stdout, stderr), run in turn by one interpreter
_RUN_EACH = """
import contextlib, io, json, sys
from stocs.cli import main
runs = [hash("stocs")]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_streams_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so set and dict-of-set orders, change with
    # PYTHONHASHSEED; no stream or written policy may
    commands = [["solve", f"instances/{name}.scsp", "--algorithm", algorithm, "--mode", mode,
                 "--stats", "--policy-out", f"{{out}}/{name}-{algorithm}-{mode}.json"]
                for name in ("production", "conditional")
                for algorithm in ("bt", "fc") for mode in ("max", "decide")]
    commands += [
        ["solve", "instances/a.scsp", "--theta", "0.6", "--stats"],
        ["eval", "instances/production.scsp", "--policy", "{out}/production-fc-max.json",
         "--samples", "20000", "--seed", "7"],
        ["eval", "instances/conditional.scsp", "--policy", "{out}/conditional-bt-decide.json",
         "--samples", "20000", "--seed", "7"],
        ["approx", "instances/b.scsp", "--epsilon", "0.1"],
        ["approx", "instances/production.scsp", "--top-k", "1"],
        ["optimize", "instances/objective.scsp"],
    ]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    seen = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        argvs = [[a.format(out=out) for a in argv] for argv in commands]
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", _RUN_EACH, json.dumps(argvs)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, encoding="utf-8", timeout=60)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        str_hash, *runs = json.loads(done.stdout)
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        seen.append((str_hash, runs, written))
    (hash0, runs0, written0), (hash1, runs1, written1) = seen
    assert hash0 != hash1
    assert [code for code, _, _ in runs0] == [0] * 8 + [1] + [0] * 5
    assert all(out for _, out, _ in runs0)
    assert len(written0) == 8
    assert (runs0, written0) == (runs1, written1)
