import argparse
import csv
import json
import os
import re
import shutil

import pytest

import stocs.cli
from stocs import (
    ChanceNode,
    DecisionNode,
    FormatError,
    Leaf,
    MalformedPolicyError,
    __version__,
    expr_constraint,
    load_instance,
    serialize_policy,
)
from stocs.expr import Binary, IntLiteral, VariableRef
from stocs.cli import CSV_HEADER, main
from stocs.semantics import SearchStats
from stocs.solver import DecideResult
from conftest import make_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_decide_sat(self, capsys, instances_dir):
        code, out, err = run(capsys, "solve", str(instances_dir / "a.scsp"),
                             "--algorithm", "fc", "--mode", "decide")
        assert (code, out, err) == (0, "SAT p>=0.500000000\n", "")

    def test_decide_unsat_reports_exact_max(self, capsys, instances_dir):
        code, out, err = run(capsys, "solve", str(instances_dir / "a.scsp"),
                             "--theta", "0.6")
        assert (code, out, err) == (1, "UNSAT max=0.500000000\n", "")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "missing.scsp")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_max_mode(self, capsys, instances_dir):
        code, out, err = run(capsys, "solve", str(instances_dir / "b.scsp"),
                             "--mode", "max")
        assert (code, out, err) == (0, "MAX p=1.000000000\n", "")

    def test_theta_ignored_in_max_mode(self, capsys, instances_dir):
        code, out, err = run(capsys, "solve", str(instances_dir / "a.scsp"),
                             "--mode", "max", "--theta", "0.9")
        assert code == 0
        assert out == "MAX p=0.500000000\n"
        assert "no effect" in err

    def test_stats_line(self, capsys, instances_dir):
        code, out, _ = run(capsys, "solve", str(instances_dir / "a.scsp"),
                           "--stats")
        assert code == 0
        assert re.fullmatch(
            r"SAT p>=0\.500000000\n"
            r"STATS nodes=\d+ chance_prunes=\d+ decision_prunes=\d+"
            r" fc_wipeouts=\d+ fc_mass_prunes=\d+\n",
            out,
        )

    def test_policy_out_round_trips(self, capsys, instances_dir, tmp_path):
        target = tmp_path / "witness.json"
        code, _, _ = run(capsys, "solve", str(instances_dir / "fc_demo.scsp"),
                         "--algorithm", "fc", "--policy-out", str(target))
        assert code == 0
        code, out, _ = run(capsys, "eval", str(instances_dir / "fc_demo.scsp"),
                           "--policy", str(target))
        assert code == 0
        # witness must meet the instance threshold of 0.6
        assert float(out.split("=")[1]) >= 0.6

    def test_policy_out_replaces_longer_file(self, capsys, instances_dir, tmp_path):
        target = tmp_path / "witness.json"
        fresh = tmp_path / "fresh.json"
        target.write_text("x" * 100_000, encoding="utf-8")
        for path in (target, fresh):
            code, _, _ = run(capsys, "solve", str(instances_dir / "fc_demo.scsp"),
                             "--algorithm", "fc", "--policy-out", str(path))
            assert code == 0
        assert target.read_bytes() == fresh.read_bytes()
        assert fresh.read_text(encoding="utf-8").endswith("}\n")

    def test_policy_out_to_device(self, capsys, instances_dir):
        code, out, err = run(capsys, "solve", str(instances_dir / "fc_demo.scsp"),
                             "--algorithm", "fc", "--policy-out", os.devnull)
        assert (code, out, err) == (0, "SAT p>=0.600000000\n", "")

    def test_no_policy_written_on_unsat(self, capsys, instances_dir, tmp_path):
        target = tmp_path / "witness.json"
        code, _, err = run(capsys, "solve", str(instances_dir / "a.scsp"),
                           "--theta", "0.6", "--policy-out", str(target))
        assert code == 1
        assert "no policy written" in err
        assert not target.exists()

    def test_prune_flags_accepted(self, capsys, instances_dir):
        code, out, _ = run(capsys, "solve", str(instances_dir / "fc_demo.scsp"),
                           "--algorithm", "fc",
                           "--no-prune-decision-stop", "--no-prune-chance-abort",
                           "--no-prune-fc-wipeout", "--no-prune-fc-mass")
        assert (code, out) == (0, "SAT p>=0.600000000\n")

    def test_renormalize_flag(self, capsys, tmp_path):
        doc = {
            "theta": 0.5,
            "variables": [
                {"name": "x", "kind": "decision", "domain": [0, 1]},
                {"name": "s", "kind": "stochastic", "domain": [0, 1],
                 "probabilities": [1, 1]},
            ],
            "constraints": [{"type": "expr", "text": "x = s"}],
        }
        path = tmp_path / "raw.scsp"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert err.startswith("error: ")
        code, out, _ = run(capsys, "solve", str(path), "--renormalize")
        assert (code, out) == (0, "SAT p>=0.500000000\n")

    def test_validation_warnings_reach_stderr(self, capsys, tmp_path):
        doc = {
            "theta": 0.5,
            "variables": [
                {"name": "x", "kind": "decision", "domain": [0, 1]},
                {"name": "s", "kind": "stochastic", "domain": [0, 1],
                 "probabilities": [0.5, 0.5]},
            ],
            "constraints": [{"type": "expr", "text": "x = s"}],
            "objective": {"text": "10 * (x = s)", "violation_value": 5},
        }
        path = tmp_path / "odd.scsp"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 0
        assert err.startswith("warning: ")


# (instance, algorithm, mode, prune rule switched off by --no-prune-<rule>,
# (nodes, chance_prunes, decision_prunes, fc_wipeouts, fc_mass_prunes)): the
# search's work on every shipped instance, so a refactor that changes what
# the search does shows here; fc with one rule off pins the wipeout and
# mass counters where the default rules do not reach them
GOLDEN_STATS = [
    ("a", "bt", "max", None, (6, 0, 0, 0, 0)),
    ("a", "bt", "decide", None, (2, 1, 1, 0, 0)),
    ("a", "fc", "max", None, (3, 0, 0, 0, 1)),
    ("a", "fc", "decide", None, (2, 1, 1, 0, 0)),
    ("b", "bt", "max", None, (5, 0, 1, 0, 0)),
    ("b", "bt", "decide", None, (2, 1, 1, 0, 0)),
    ("b", "fc", "max", None, (4, 0, 0, 0, 0)),
    ("b", "fc", "decide", None, (2, 1, 0, 0, 0)),
    ("conditional", "bt", "max", None, (14, 0, 0, 0, 0)),
    ("conditional", "bt", "decide", None, (10, 1, 1, 0, 0)),
    ("conditional", "fc", "max", None, (10, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", None, (8, 1, 1, 0, 0)),
    ("fc_demo", "bt", "max", None, (8, 0, 0, 0, 0)),
    ("fc_demo", "bt", "decide", None, (6, 1, 0, 0, 0)),
    ("fc_demo", "fc", "max", None, (6, 0, 0, 0, 0)),
    ("fc_demo", "fc", "decide", None, (4, 0, 0, 0, 1)),
    ("objective", "bt", "max", None, (5, 0, 1, 0, 0)),
    ("objective", "bt", "decide", None, (2, 1, 1, 0, 0)),
    ("objective", "fc", "max", None, (4, 0, 0, 0, 0)),
    ("objective", "fc", "decide", None, (2, 1, 0, 0, 0)),
    ("production", "bt", "max", None, (70, 0, 4, 0, 0)),
    ("production", "bt", "decide", None, (59, 3, 4, 0, 0)),
    ("production", "fc", "max", None, (50, 0, 4, 0, 0)),
    ("production", "fc", "decide", None, (37, 1, 4, 0, 3)),
    ("a", "fc", "max", "decision-stop", (3, 0, 0, 0, 1)),
    ("a", "fc", "max", "chance-abort", (3, 0, 0, 0, 1)),
    ("a", "fc", "max", "fc-wipeout", (3, 0, 0, 0, 1)),
    ("a", "fc", "max", "fc-mass", (4, 0, 0, 0, 0)),
    ("a", "fc", "decide", "decision-stop", (4, 1, 0, 0, 0)),
    ("a", "fc", "decide", "chance-abort", (2, 0, 1, 0, 0)),
    ("a", "fc", "decide", "fc-wipeout", (2, 1, 1, 0, 0)),
    ("a", "fc", "decide", "fc-mass", (2, 1, 1, 0, 0)),
    ("b", "fc", "max", "decision-stop", (4, 0, 0, 0, 0)),
    ("b", "fc", "max", "chance-abort", (4, 0, 0, 0, 0)),
    ("b", "fc", "max", "fc-wipeout", (4, 0, 0, 0, 0)),
    ("b", "fc", "max", "fc-mass", (4, 0, 0, 0, 0)),
    ("b", "fc", "decide", "decision-stop", (2, 1, 0, 0, 0)),
    ("b", "fc", "decide", "chance-abort", (4, 0, 0, 0, 0)),
    ("b", "fc", "decide", "fc-wipeout", (2, 1, 0, 0, 0)),
    ("b", "fc", "decide", "fc-mass", (2, 1, 0, 0, 0)),
    ("conditional", "fc", "max", "decision-stop", (10, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "chance-abort", (10, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "fc-wipeout", (10, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "fc-mass", (10, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", "decision-stop", (9, 2, 0, 0, 0)),
    ("conditional", "fc", "decide", "chance-abort", (8, 0, 1, 0, 0)),
    ("conditional", "fc", "decide", "fc-wipeout", (8, 1, 1, 0, 0)),
    ("conditional", "fc", "decide", "fc-mass", (8, 1, 1, 0, 0)),
    ("fc_demo", "fc", "max", "decision-stop", (6, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "chance-abort", (6, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "fc-wipeout", (6, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "fc-mass", (6, 0, 0, 0, 0)),
    ("fc_demo", "fc", "decide", "decision-stop", (4, 0, 0, 0, 1)),
    ("fc_demo", "fc", "decide", "chance-abort", (4, 0, 0, 0, 1)),
    ("fc_demo", "fc", "decide", "fc-wipeout", (4, 0, 0, 0, 1)),
    ("fc_demo", "fc", "decide", "fc-mass", (4, 1, 0, 0, 0)),
    ("objective", "fc", "max", "decision-stop", (4, 0, 0, 0, 0)),
    ("objective", "fc", "max", "chance-abort", (4, 0, 0, 0, 0)),
    ("objective", "fc", "max", "fc-wipeout", (4, 0, 0, 0, 0)),
    ("objective", "fc", "max", "fc-mass", (4, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "decision-stop", (2, 1, 0, 0, 0)),
    ("objective", "fc", "decide", "chance-abort", (4, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "fc-wipeout", (2, 1, 0, 0, 0)),
    ("objective", "fc", "decide", "fc-mass", (2, 1, 0, 0, 0)),
    ("production", "fc", "max", "decision-stop", (60, 0, 0, 0, 10)),
    ("production", "fc", "max", "chance-abort", (50, 0, 4, 0, 0)),
    ("production", "fc", "max", "fc-wipeout", (50, 0, 4, 0, 0)),
    ("production", "fc", "max", "fc-mass", (50, 0, 4, 0, 0)),
    ("production", "fc", "decide", "decision-stop", (53, 2, 0, 0, 13)),
    ("production", "fc", "decide", "chance-abort", (37, 0, 4, 0, 3)),
    ("production", "fc", "decide", "fc-wipeout", (37, 1, 4, 0, 3)),
    ("production", "fc", "decide", "fc-mass", (43, 3, 4, 0, 0)),
]


@pytest.mark.parametrize(
    "name, algorithm, mode, rule, counts", GOLDEN_STATS,
    ids=["-".join(g[:3]) + (f"-no-prune-{g[3]}" if g[3] else "") for g in GOLDEN_STATS])
def test_stats_match_golden(capsys, instances_dir, name, algorithm, mode, rule, counts):
    flags = (f"--no-prune-{rule}",) if rule else ()
    code, out, err = run(capsys, "solve", str(instances_dir / f"{name}.scsp"),
                         "--algorithm", algorithm, "--mode", mode, "--stats", *flags)
    assert (code, err) == (0, "")
    nodes, chance, decision, wipeouts, mass = counts
    assert out.splitlines()[-1] == (
        f"STATS nodes={nodes} chance_prunes={chance} decision_prunes={decision}"
        f" fc_wipeouts={wipeouts} fc_mass_prunes={mass}"
    )


class TestOtherCommands:
    def test_oracle(self, capsys, instances_dir):
        code, out, err = run(capsys, "oracle", str(instances_dir / "a.scsp"))
        assert (code, out, err) == (0, "MAX p=0.500000000\n", "")

    def test_oracle_cap(self, capsys, instances_dir):
        code, _, err = run(capsys, "oracle", str(instances_dir / "b.scsp"),
                           "--cap", "3")
        assert code == 2
        assert err.startswith("error: ")

    def test_eval_exact(self, capsys, instances_dir, tmp_path):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        path = tmp_path / "p.json"
        path.write_text(serialize_policy(policy), encoding="utf-8")
        code, out, _ = run(capsys, "eval", str(instances_dir / "a.scsp"),
                           "--policy", str(path))
        assert (code, out) == (0, "EVAL p=0.500000000\n")

    def test_eval_sampled_is_reproducible(self, capsys, instances_dir, tmp_path):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        path = tmp_path / "p.json"
        path.write_text(serialize_policy(policy), encoding="utf-8")
        argv = ("eval", str(instances_dir / "a.scsp"), "--policy", str(path),
                "--samples", "500", "--seed", "7")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        code, out, _ = first
        assert code == 0
        assert re.fullmatch(
            r"EST p=0\.\d{9} ci=\[0\.\d{9},0\.\d{9}\] n=500 seed=7\n", out)

    def test_approx_epsilon_zero_is_exact(self, capsys, instances_dir):
        code, out, _ = run(capsys, "approx", str(instances_dir / "fc_demo.scsp"),
                           "--epsilon", "0.0")
        assert (code, out) == (0, "BOUNDS lb=0.700000000 ub=0.700000000\n")

    def test_approx_top_k(self, capsys, instances_dir):
        code, out, _ = run(capsys, "approx", str(instances_dir / "b.scsp"),
                           "--top-k", "1")
        assert (code, out) == (0, "BOUNDS lb=0.500000000 ub=1.000000000\n")

    def test_approx_modes_are_exclusive(self, capsys, instances_dir):
        code, _, _ = run(capsys, "approx", str(instances_dir / "b.scsp"),
                         "--epsilon", "0.1", "--top-k", "1")
        assert code == 2
        code, _, _ = run(capsys, "approx", str(instances_dir / "b.scsp"))
        assert code == 2

    def test_optimize(self, capsys, instances_dir):
        code, out, _ = run(capsys, "optimize",
                           str(instances_dir / "objective.scsp"))
        assert (code, out) == (0, "OPT ev=10.000000000 p=1.000000000\n")

    def test_optimize_without_objective(self, capsys, instances_dir):
        code, _, err = run(capsys, "optimize", str(instances_dir / "a.scsp"))
        assert code == 2
        assert err.startswith("error: ")


class TestBench:
    def test_csv_and_stdout(self, capsys, instances_dir, tmp_path):
        workdir = tmp_path / "set"
        workdir.mkdir()
        for name in ("a.scsp", "b.scsp"):
            shutil.copy(instances_dir / name, workdir / name)
        out_csv = tmp_path / "runs.csv"
        code, out, err = run(capsys, "bench", str(workdir), "--out", str(out_csv))
        assert code == 0
        assert err == ""
        assert out == (
            "a: bt=SAT fc=SAT\n"
            "b: bt=SAT fc=SAT\n"
            f"wrote 4 rows to {out_csv}\n"
        )
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 5
        for row in rows[1:]:
            record = dict(zip(CSV_HEADER, row))
            assert record["mode"] == "decide"
            assert record["verdict"] == "SAT"
            # SAT rows carry the re-scored witness probability
            assert float(record["probability"]) >= float(record["theta"])
            assert re.fullmatch(r"\d+\.\d{3}", record["ms"])
            assert record["version"] == __version__
            assert record["seed"] == ""
        assert [r[1] for r in rows[1:]] == ["bt", "fc", "bt", "fc"]

    def test_empty_directory(self, capsys, tmp_path):
        out_csv = tmp_path / "runs.csv"
        code, out, _ = run(capsys, "bench", str(tmp_path), "--out", str(out_csv))
        assert code == 0
        assert out == f"wrote 0 rows to {out_csv}\n"
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [list(CSV_HEADER)]

    def test_malformed_file_skipped(self, capsys, instances_dir, tmp_path):
        workdir = tmp_path / "set"
        workdir.mkdir()
        shutil.copy(instances_dir / "a.scsp", workdir / "a.scsp")
        (workdir / "bad.scsp").write_text("{broken", encoding="utf-8")
        (workdir / "bytes.scsp").write_bytes(b"\xff\xfe{")  # not UTF-8
        shutil.copy(instances_dir / "b.scsp", workdir / "c.scsp")  # read after the bad ones
        out_csv = tmp_path / "runs.csv"
        code, out, err = run(capsys, "bench", str(workdir), "--out", str(out_csv))
        assert code == 2
        bad, binary = err.splitlines()
        assert bad.startswith("error: bad.scsp: not valid JSON")
        assert binary == "error: bytes.scsp: not UTF-8 text (invalid start byte at byte 0)"
        assert out.startswith("a: bt=SAT fc=SAT\nb: bt=SAT fc=SAT\n")
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5  # header + two algorithms for each good file

    def test_not_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "runs.csv"))
        assert code == 2
        assert "not a directory" in err

    def test_verdict_mismatch_is_an_internal_error(self, capsys, instances_dir,
                                                   tmp_path, monkeypatch):
        workdir = tmp_path / "set"
        workdir.mkdir()
        shutil.copy(instances_dir / "a.scsp", workdir / "a.scsp")

        def broken_fc(instance, **kwargs):
            return DecideResult(False, None, SearchStats())

        monkeypatch.setattr(stocs.cli, "fc_decide", broken_fc)
        out_csv = tmp_path / "runs.csv"
        code, out, err = run(capsys, "bench", str(workdir), "--out", str(out_csv))
        assert code == 3
        assert "disagree" in err
        # rows are still flushed so the disagreement can be inspected
        assert f"wrote 2 rows to {out_csv}\n" in out
        with open(out_csv, newline="", encoding="utf-8") as handle:
            assert len(list(csv.reader(handle))) == 3


class TestArgumentHandling:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "solve" in out and "bench" in out

    def test_no_arguments(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_flag(self, capsys, instances_dir):
        code, _, _ = run(capsys, "solve", str(instances_dir / "a.scsp"),
                         "--fast")
        assert code == 2

    def test_identical_invocations_match_byte_for_byte(self, capsys,
                                                       instances_dir):
        argv = ("solve", str(instances_dir / "conditional.scsp"),
                "--algorithm", "fc", "--theta", "0.9", "--stats")
        assert run(capsys, *argv) == run(capsys, *argv)


class TestBadInputIsTyped:
    """Bad input exits 2 with an error line, never 0 or 3."""

    @staticmethod
    def write(tmp_path, variables, constraints):
        path = tmp_path / "bad.scsp"
        doc = {"theta": 0.5, "variables": variables,
               "constraints": [{"type": "expr", "text": t} for t in constraints]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_nan_probability(self, capsys, tmp_path):
        path = self.write(tmp_path, [
            {"name": "x", "kind": "decision", "domain": [0, 1]},
            {"name": "s", "kind": "stochastic", "domain": [0, 1],
             "probabilities": [float("nan"), 1.0]},
        ], ["x = s"])
        for extra in ((), ("--renormalize",)):
            code, out, err = run(capsys, "solve", path, "--mode", "max", *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "finite" in err

    def test_nan_violation_value(self, capsys, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_text(json.dumps({
            "theta": 0.5,
            "variables": [{"name": "x", "kind": "decision", "domain": [0, 1]},
                          {"name": "s", "kind": "stochastic", "domain": [0, 1],
                           "probabilities": [0.5, 0.5]}],
            "constraints": [{"type": "expr", "text": "x = s"}],
            "objective": {"text": "x", "violation_value": float("nan")}}), encoding="utf-8")
        code, out, err = run(capsys, "optimize", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "finite" in err

    def test_huge_integer_theta(self, capsys, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_text('{"theta": 1' + "0" * 400 + ', "variables": '
                        '[{"name": "x", "kind": "decision", "domain": [0, 1]}]}',
                        encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: theta inf outside [0, 1]")

    def test_instance_too_deep_to_search(self, capsys, tmp_path):
        variables = [{"name": f"x{i}", "kind": "decision", "domain": [0, 1]}
                     for i in range(1200)]
        path = tmp_path / "deep.scsp"
        path.write_text(json.dumps({
            "theta": 0.5, "variables": variables,
            "constraints": [{"type": "expr", "text": "x0 = 1"}],
            "objective": {"text": "x0"}}), encoding="utf-8")
        leaf = tmp_path / "leaf.json"
        leaf.write_text(serialize_policy(Leaf()), encoding="utf-8")
        for argv in (("solve", "--mode", "max"), ("solve", "--mode", "decide"),
                     ("eval", "--policy", str(leaf)), ("approx", "--epsilon", "0.1"),
                     ("optimize",), ("oracle",)):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and "recursion limit" in err
        # a policy file as deep as the instance fails while it is read
        text = serialize_policy(Leaf())
        for i in reversed(range(1200)):
            text = f'{{"kind":"decision","variable":"x{i}","value":1,"child":{text}}}'
        deep = tmp_path / "deep.json"
        deep.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "--policy", str(deep))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too deeply" in err

    def test_bytes_that_are_not_utf8(self, capsys, instances_dir, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            load_instance(path)
        args = argparse.Namespace(instance=str(instances_dir / "a.scsp"), policy=str(path))
        with pytest.raises(MalformedPolicyError, match="not UTF-8 text"):
            stocs.cli.cmd_eval(args)
        for argv in (("solve", str(path)),
                     ("eval", str(instances_dir / "a.scsp"), "--policy", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == "error: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_redundant_parentheses_parse_and_solve(self, capsys, tmp_path):
        # about three stack frames per parenthesis: 200 fit under the limit of 1000
        path = self.write(tmp_path, [{"name": "x", "kind": "decision", "domain": [0, 1]}],
                          ["(" * 200 + "x" + ")" * 200 + " = 1"])
        code, out, err = run(capsys, "solve", path, "--mode", "max")
        assert (code, out, err) == (0, "MAX p=1.000000000\n", "")

    def test_expression_too_deep_to_parse(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"name": "x", "kind": "decision", "domain": [0, 1]}],
                          ["(" * 400 + "x" + ")" * 400 + " = 1"])
        code, out, err = run(capsys, "solve", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too deeply" in err

    def test_expression_too_deep_to_compile(self, capsys, monkeypatch):
        # a - (a - (...)) nests 249 parentheses, above CPython's limit of 200;
        # the text parser cannot read it back, so the instance is built here
        node = VariableRef("a")
        for _ in range(250):
            node = Binary("-", VariableRef("a"), node)
        inst = make_instance([("a", "d", (0, 1))],
                             [expr_constraint(Binary(">=", node, IntLiteral(0)))])
        monkeypatch.setattr(stocs.cli, "load_instance", lambda path, renormalize: inst)
        code, out, err = run(capsys, "solve", "deep.scsp", "--mode", "max")
        assert (code, out) == (2, "")
        assert err.startswith("error: expression nests too deeply to compile")
