import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stocs.cli
from stocs import (
    ChanceNode,
    DecisionNode,
    FormatError,
    Leaf,
    MalformedPolicyError,
    Objective,
    StocsError,
    __version__,
    bt_decide,
    bt_max,
    check_assignment,
    dump_instance,
    expr_constraint,
    fc_decide,
    fc_max,
    first_policy,
    load_instance,
    monte_carlo_policy_eval,
    most_probable_scenario_policy,
    optimize_chance_constrained,
    optimize_expected,
    oracle_max_satisfaction,
    parse_expression,
    parse_policy,
    policy_expected_value,
    policy_satisfaction,
    restricted_tree_bounds,
    serialize_policy,
)
from stocs.errors import NoHeuristicPolicyError
from stocs.expr import Binary, IntLiteral, VariableRef
from stocs.cli import CSV_HEADER, main
from stocs.semantics import SearchStats
from stocs.solver import DecideResult
from conftest import make_instance, same_tree
from gen import random_instance
from test_extensions import coin_chain


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

    def test_a_verdict_at_the_maximum_agrees_with_it(self, capsys, tmp_path):
        # the maximum is 0.4042342521905289, theta - PROB_TOL exactly, where
        # decide's window alone reads a miss by one ulp
        path = tmp_path / "boundary.scsp"
        path.write_text(dump_instance(random_instance(random.Random(2026))), encoding="utf-8")
        assert run(capsys, "solve", str(path), "--mode", "max") == (0, "MAX p=0.404234252\n", "")
        for algorithm in ("bt", "fc"):
            assert run(capsys, "solve", str(path), "--theta", "0.4042342531905289",
                       "--algorithm", algorithm) == (0, "SAT p>=0.404234253\n", "")

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
            r" fc_wipeouts=\d+ fc_mass_prunes=\d+ cache_hits=\d+\n",
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

    # max-mode witnesses that repeat no non-leaf node: written as plain trees
    TREE_FORM = {
        "a": '{"kind":"decision","variable":"x","value":0,"child":{"kind":"chance",'
             '"variable":"s","children":[{"kind":"leaf"},{"kind":"leaf"}]}}',
        "b": '{"kind":"chance","variable":"s","children":[{"kind":"decision",'
             '"variable":"x","value":0,"child":{"kind":"leaf"}},{"kind":"decision",'
             '"variable":"x","value":1,"child":{"kind":"leaf"}}]}',
        "conditional": '{"kind":"chance","variable":"s1","children":[{"kind":"decision",'
                       '"variable":"x","value":0,"child":{"kind":"chance","variable":"s2",'
                       '"children":[{"kind":"leaf"},{"kind":"leaf"}]}},{"kind":"decision",'
                       '"variable":"x","value":1,"child":{"kind":"chance","variable":"s2",'
                       '"children":[{"kind":"leaf"},{"kind":"leaf"}]}}]}',
        "fc_demo": '{"kind":"decision","variable":"x","value":1,"child":{"kind":"chance",'
                   '"variable":"s","children":[{"kind":"leaf"},{"kind":"leaf"},'
                   '{"kind":"leaf"}]}}',
    }
    TREE_FORM["objective"] = TREE_FORM["b"]

    @pytest.mark.parametrize("algorithm", ["bt", "fc"])
    @pytest.mark.parametrize("name", sorted(TREE_FORM))
    def test_policy_out_of_a_tree_is_written_as_a_tree(self, capsys, instances_dir,
                                                       tmp_path, name, algorithm):
        target = tmp_path / "witness.json"
        code, _, _ = run(capsys, "solve", str(instances_dir / f"{name}.scsp"), "--mode",
                         "max", "--algorithm", algorithm, "--policy-out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == self.TREE_FORM[name] + "\n"

    def test_policy_out_writes_shared_subtrees_once(self, capsys, instances_dir, tmp_path):
        # the four x2 decisions after s1 > 100 share one s2 node, node 3
        path = instances_dir / "production.scsp"
        target = tmp_path / "witness.json"
        code, _, _ = run(capsys, "solve", str(path), "--mode", "max", "--algorithm", "fc",
                         "--policy-out", str(target))
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert len(text) == 550  # 1,018 bytes written as a tree
        assert text.count('{"ref":3}') == 4
        assert same_tree(parse_policy(text), fc_max(load_instance(path)).policy)

    def test_long_chain_policy_file_is_not_a_tree(self, capsys, tmp_path):
        # fc_max's policy has 2^24 paths; written, read, scored or sampled as
        # a tree, each step would take minutes
        instance = tmp_path / "chain.scsp"
        instance.write_text(dump_instance(coin_chain(48)), encoding="utf-8")
        policy = tmp_path / "witness.json"
        steps = [("solve", str(instance), "--algorithm", "fc", "--mode", "max",
                  "--policy-out", str(policy)),
                 ("eval", str(instance), "--policy", str(policy)),
                 ("eval", str(instance), "--policy", str(policy), "--samples", "1000")]
        results = []
        for argv in steps:
            start = time.perf_counter()
            results.append(run(capsys, *argv))
            assert time.perf_counter() - start < 5.0
        (code, solved, _), (eval_code, evaluated, _), (mc_code, sampled, _) = results
        assert (code, eval_code, mc_code) == (0, 0, 0)
        assert solved.startswith("MAX p=")
        assert evaluated == solved.replace("MAX", "EVAL")
        assert re.fullmatch(r"EST p=0\.\d{9} ci=\[0\.\d{9},0\.\d{9}\] n=1000 seed=0\n",
                            sampled)
        assert policy.stat().st_size < 100_000

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

    def test_warnings_come_before_the_error_they_explain(self, capsys, instances_dir, tmp_path):
        path = tmp_path / "misspelt.scsp"
        text = (instances_dir / "a.scsp").read_text(encoding="utf-8")
        path.write_text(text.replace('"probabilities"', '"probabilites"'), encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err == ("warning: variables[1]: ignoring unknown key 'probabilites'\n"
                       "error: variable s: stochastic variable needs a distribution\n")


# (instance, algorithm, mode, prune rule switched off by --no-prune-<rule>,
# (nodes, chance_prunes, decision_prunes, fc_wipeouts, fc_mass_prunes,
# cache_hits)): the search's work on every shipped instance, so a refactor
# that changes what the search does shows here; fc with one rule off pins
# the wipeout and mass counters where the default rules do not reach them
GOLDEN_STATS = [
    ("a", "bt", "max", None, (6, 0, 0, 0, 0, 0)),
    ("a", "bt", "decide", None, (2, 1, 1, 0, 0, 0)),
    ("a", "fc", "max", None, (3, 0, 0, 0, 1, 0)),
    ("a", "fc", "decide", None, (2, 1, 1, 0, 0, 0)),
    ("b", "bt", "max", None, (5, 0, 1, 0, 0, 0)),
    ("b", "bt", "decide", None, (2, 1, 1, 0, 0, 0)),
    ("b", "fc", "max", None, (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "decide", None, (2, 1, 0, 0, 0, 0)),
    ("conditional", "bt", "max", None, (14, 0, 0, 0, 0, 0)),
    ("conditional", "bt", "decide", None, (13, 1, 0, 0, 0, 0)),
    ("conditional", "fc", "max", None, (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", None, (9, 1, 0, 0, 0, 0)),
    ("fc_demo", "bt", "max", None, (8, 0, 0, 0, 0, 0)),
    ("fc_demo", "bt", "decide", None, (6, 1, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", None, (6, 0, 0, 0, 0, 0)),
    ("fc_demo", "fc", "decide", None, (4, 0, 0, 0, 1, 0)),
    ("objective", "bt", "max", None, (5, 0, 1, 0, 0, 0)),
    ("objective", "bt", "decide", None, (2, 1, 1, 0, 0, 0)),
    ("objective", "fc", "max", None, (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "decide", None, (2, 1, 0, 0, 0, 0)),
    ("production", "bt", "max", None, (70, 0, 4, 0, 0, 20)),
    ("production", "bt", "decide", None, (59, 3, 4, 0, 0, 15)),
    ("production", "fc", "max", None, (50, 0, 4, 0, 0, 20)),
    ("production", "fc", "decide", None, (37, 1, 4, 0, 3, 9)),
    ("a", "fc", "max", "decision-stop", (3, 0, 0, 0, 1, 0)),
    ("a", "fc", "max", "chance-abort", (3, 0, 0, 0, 1, 0)),
    ("a", "fc", "max", "fc-wipeout", (3, 0, 0, 0, 1, 0)),
    ("a", "fc", "max", "fc-mass", (4, 0, 0, 0, 0, 0)),
    ("a", "fc", "decide", "decision-stop", (4, 1, 0, 0, 0, 0)),
    ("a", "fc", "decide", "chance-abort", (2, 0, 1, 0, 0, 0)),
    ("a", "fc", "decide", "fc-wipeout", (2, 1, 1, 0, 0, 0)),
    ("a", "fc", "decide", "fc-mass", (2, 1, 1, 0, 0, 0)),
    ("b", "fc", "max", "decision-stop", (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "max", "chance-abort", (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "max", "fc-wipeout", (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "max", "fc-mass", (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "decide", "decision-stop", (2, 1, 0, 0, 0, 0)),
    ("b", "fc", "decide", "chance-abort", (4, 0, 0, 0, 0, 0)),
    ("b", "fc", "decide", "fc-wipeout", (2, 1, 0, 0, 0, 0)),
    ("b", "fc", "decide", "fc-mass", (2, 1, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "decision-stop", (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "chance-abort", (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "fc-wipeout", (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "max", "fc-mass", (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", "decision-stop", (9, 1, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", "chance-abort", (10, 0, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", "fc-wipeout", (9, 1, 0, 0, 0, 0)),
    ("conditional", "fc", "decide", "fc-mass", (9, 1, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "decision-stop", (6, 0, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "chance-abort", (6, 0, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "fc-wipeout", (6, 0, 0, 0, 0, 0)),
    ("fc_demo", "fc", "max", "fc-mass", (6, 0, 0, 0, 0, 0)),
    ("fc_demo", "fc", "decide", "decision-stop", (4, 0, 0, 0, 1, 0)),
    ("fc_demo", "fc", "decide", "chance-abort", (4, 0, 0, 0, 1, 0)),
    ("fc_demo", "fc", "decide", "fc-wipeout", (4, 0, 0, 0, 1, 0)),
    ("fc_demo", "fc", "decide", "fc-mass", (4, 1, 0, 0, 0, 0)),
    ("objective", "fc", "max", "decision-stop", (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "max", "chance-abort", (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "max", "fc-wipeout", (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "max", "fc-mass", (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "decision-stop", (2, 1, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "chance-abort", (4, 0, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "fc-wipeout", (2, 1, 0, 0, 0, 0)),
    ("objective", "fc", "decide", "fc-mass", (2, 1, 0, 0, 0, 0)),
    ("production", "fc", "max", "decision-stop", (60, 0, 0, 0, 10, 20)),
    ("production", "fc", "max", "chance-abort", (50, 0, 4, 0, 0, 20)),
    ("production", "fc", "max", "fc-wipeout", (50, 0, 4, 0, 0, 20)),
    ("production", "fc", "max", "fc-mass", (50, 0, 4, 0, 0, 20)),
    ("production", "fc", "decide", "decision-stop", (53, 2, 0, 0, 13, 13)),
    ("production", "fc", "decide", "chance-abort", (37, 0, 4, 0, 3, 9)),
    ("production", "fc", "decide", "fc-wipeout", (37, 1, 4, 0, 3, 9)),
    ("production", "fc", "decide", "fc-mass", (43, 3, 4, 0, 0, 15)),
]


@pytest.mark.parametrize(
    "name, algorithm, mode, rule, counts", GOLDEN_STATS,
    ids=["-".join(g[:3]) + (f"-no-prune-{g[3]}" if g[3] else "") for g in GOLDEN_STATS])
def test_stats_match_golden(capsys, instances_dir, name, algorithm, mode, rule, counts):
    flags = (f"--no-prune-{rule}",) if rule else ()
    code, out, err = run(capsys, "solve", str(instances_dir / f"{name}.scsp"),
                         "--algorithm", algorithm, "--mode", mode, "--stats", *flags)
    assert (code, err) == (0, "")
    nodes, chance, decision, wipeouts, mass, hits = counts
    assert out.splitlines()[-1] == (
        f"STATS nodes={nodes} chance_prunes={chance} decision_prunes={decision}"
        f" fc_wipeouts={wipeouts} fc_mass_prunes={mass} cache_hits={hits}"
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

    def test_eval_sample_count_past_the_float_range(self, capsys, instances_dir, tmp_path):
        # a sure policy, whose sampling would stop after one chunk
        policy = ChanceNode("s", (DecisionNode("x", 0, Leaf()), DecisionNode("x", 1, Leaf())))
        path = tmp_path / "p.json"
        path.write_text(serialize_policy(policy), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(instances_dir / "b.scsp"), "--policy",
                             str(path), "--samples", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err == "error: sample count is past the float range\n"

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


class TestConstantConstraints:
    """A constraint over no variables holds at every leaf or at none: a true
    one changes no result, and under a false one every leaf violates."""

    @staticmethod
    def api_results(inst):
        policy = first_policy(inst)

        def outcome(run, *args, **kwargs):
            try:
                return run(*args, **kwargs)
            except StocsError as e:
                return type(e)

        best = optimize_expected(inst)
        bounds = restricted_tree_bounds(inst, epsilon=0.0)
        top_k = restricted_tree_bounds(inst, top_k=1)
        heuristic = outcome(most_probable_scenario_policy, inst)
        return {
            "bt_max": bt_max(inst).probability, "fc_max": fc_max(inst).probability,
            "bt_decide": bt_decide(inst).satisfiable, "fc_decide": fc_decide(inst).satisfiable,
            "oracle": oracle_max_satisfaction(inst).probability,
            "bounds": (bounds.lb, bounds.ub), "top_k": (top_k.lb, top_k.ub),
            "monte_carlo": monte_carlo_policy_eval(inst, policy, 20, seed=0).estimate,
            "check_assignment": check_assignment(inst, {v.name: v.domain[0]
                                                        for v in inst.variables}),
            "satisfaction": policy_satisfaction(inst, policy),
            "expected_value": policy_expected_value(inst, policy),
            "optimize_expected": (best.expected_value, best.satisfaction),
            "chance_constrained": optimize_chance_constrained(inst, theta=0.0).expected_value,
            "heuristic": getattr(heuristic, "exact_satisfaction", heuristic),
        }

    @staticmethod
    def cli_outputs(capsys, tmp_path, inst):
        directory = tmp_path / "set"
        directory.mkdir(exist_ok=True)
        path, policy, out_csv = directory / "c.scsp", tmp_path / "p.json", tmp_path / "runs.csv"
        path.write_text(dump_instance(inst), encoding="utf-8")
        policy.write_text(serialize_policy(first_policy(inst)), encoding="utf-8")
        commands = [("solve", path, "--algorithm", algorithm, "--mode", mode)
                    for algorithm in ("bt", "fc") for mode in ("decide", "max")]
        commands += [("oracle", path), ("eval", path, "--policy", policy),
                     ("eval", path, "--policy", policy, "--samples", "20"),
                     ("approx", path, "--epsilon", "0"), ("optimize", path),
                     ("bench", directory, "--out", out_csv)]
        return [run(capsys, *map(str, argv)) for argv in commands]

    @pytest.mark.parametrize("constant", ["1 = 2", "1 = 1"])
    @pytest.mark.parametrize("variables", [True, False], ids=["x-s", "no-variables"])
    def test_every_walker_and_command(self, capsys, tmp_path, constant, variables):
        if variables:
            specs = [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))]
            constraints = [expr_constraint("x = s")]
        else:
            specs, constraints = [], []
        objective = Objective(parse_expression("3"), -1.0)
        base = make_instance(specs, constraints, objective=objective)
        inst = make_instance(specs, constraints + [expr_constraint(constant)],
                             objective=objective)
        if constant == "1 = 1":
            assert self.api_results(inst) == self.api_results(base)
            assert (self.cli_outputs(capsys, tmp_path, inst)
                    == self.cli_outputs(capsys, tmp_path, base))
            return
        assert self.api_results(inst) == {
            "bt_max": 0.0, "fc_max": 0.0, "bt_decide": False, "fc_decide": False,
            "oracle": 0.0, "bounds": (0.0, 0.0), "top_k": (0.0, 0.0), "monte_carlo": 0.0,
            "check_assignment": False, "satisfaction": 0.0, "expected_value": -1.0,
            "optimize_expected": (-1.0, 0.0), "chance_constrained": -1.0,
            "heuristic": NoHeuristicPolicyError,
        }
        est = monte_carlo_policy_eval(inst, first_policy(inst), 20, seed=0)
        assert self.cli_outputs(capsys, tmp_path, inst) == [
            (1, "UNSAT max=0.000000000\n", ""), (0, "MAX p=0.000000000\n", ""),
            (1, "UNSAT max=0.000000000\n", ""), (0, "MAX p=0.000000000\n", ""),
            (0, "MAX p=0.000000000\n", ""), (0, "EVAL p=0.000000000\n", ""),
            (0, f"EST p=0.000000000 ci=[0.000000000,{est.ci_high:.9f}] n=20 seed=0\n", ""),
            (0, "BOUNDS lb=0.000000000 ub=0.000000000\n", ""),
            (0, "OPT ev=-1.000000000 p=0.000000000\n", ""),
            (0, f"c: bt=UNSAT fc=UNSAT\nwrote 2 rows to {tmp_path / 'runs.csv'}\n", ""),
        ]

    def test_eval_of_a_malformed_policy_fails(self, capsys, tmp_path):
        # the false constant fixes the value, but the policy is still checked
        inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                             [expr_constraint("1 = 2")])
        path, policy = tmp_path / "c.scsp", tmp_path / "leaf.json"
        path.write_text(dump_instance(inst), encoding="utf-8")
        policy.write_text('{"kind":"leaf"}', encoding="utf-8")
        assert run(capsys, "eval", str(path), "--policy", str(policy)) == (
            2, "", "error: expected a decision node for x at depth 0, got Leaf()\n")


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


def declared(command):
    """Long flag -> `add_argument` keywords, from `stocs.cli.COMMANDS`."""
    return {flag: keywords for argument in stocs.cli.COMMANDS[command][2]
            for flag, keywords in ((argument,) if isinstance(argument[0], str) else argument)
            if flag.startswith("-")}


ALL_FLAGS = sorted({flag for command in stocs.cli.COMMANDS for flag in declared(command)})
# every subcommand, declared flag and choice, values of each type, and what
# only the full parser handles: flag prefixes, "--opt=value", "--", help,
# dashes and negative numbers
TOKENS = [*stocs.cli.COMMANDS, *ALL_FLAGS, "bt", "fc", "decide", "max", "0.5", "3", " 2 ",
          "1e400", "x", "a.scsp", "", "-", "-0.5", "--", "-h", "--help", "--alg", "--mo",
          "--th", "--no-prune", "--to", "--theta=0.5", "bogus"]


@st.composite
def command_lines(draw):
    """A subcommand, a positional and some of its flags in any order, each
    with a value of its type or choices or a bad one, then up to two edits:
    a token inserted, replaced or deleted."""
    command = draw(st.sampled_from(list(stocs.cli.COMMANDS)))
    options = declared(command)
    pieces = [["a.scsp"]]
    chosen = draw(st.lists(st.booleans(), min_size=len(options), max_size=len(options)))
    for (flag, keywords), use in zip(options.items(), chosen):
        if not use:
            continue
        if keywords.get("action") == "store_true":
            pieces.append([flag])
            continue
        values = keywords.get("choices") or {float: ("0.5", "1e400", " 2 "),
                                             int: ("3", " 2 ")}.get(keywords.get("type"), ("f",))
        pieces.append([flag, draw(st.sampled_from([*values, "x", "", "-0.5"]))])
    argv = [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(TOKENS)))
        elif at < len(argv) and edit == "replace":
            argv[at] = draw(st.sampled_from(TOKENS))
        elif at < len(argv):
            del argv[at]
    return argv


class TestArgumentHandling:
    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch,
                                                       instances_dir):
        def broken(instance, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(stocs.cli, "bt_max", broken)
        assert run(capsys, "solve", str(instances_dir / "a.scsp"), "--mode", "max") == (
            3, "", "internal error: RuntimeError('boom')\n")

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

    # help, usage errors and valid runs of every subcommand; "{a}" and the
    # other fields are filled in by `fill`
    PARSE_CASES = [
        [], ["-h"], ["--help"], ["bogus"], ["Solve"], ["-x", "solve"], ["-h", "solve"],
        ["solve", "-h"], ["oracle", "-h"], ["eval", "-h"], ["approx", "-h"],
        ["optimize", "-h"], ["bench", "-h"], ["solve", "{a}", "extra", "-h"],
        ["solve"], ["solve", "--theta", "0.5"], ["solve", "{a}", "--bogus"],
        ["solve", "{a}", "extra"], ["solve", "{a}", "extra", "--bogus"], ["solve", "{a}", "{b}"],
        ["solve", "{a}", "--theta", "x"], ["solve", "{a}", "--theta"],
        ["oracle", "{a}", "--cap", "x"], ["eval", "{a}", "--policy", "{policy}", "--samples", "x"],
        ["solve", "{a}", "--algorithm", "zz"], ["solve", "{a}", "--alg", "fc", "--mo", "max"],
        ["solve", "{a}", "--theta=0.5"], ["solve", "{a}", "--", "stray"], ["solve", "--", "{a}"],
        ["approx", "{b}", "--epsilon", "0.1", "--top-k", "1"], ["approx", "{b}"],
        ["approx", "{b}", "--top-k", "x"], ["eval", "{a}"], ["eval", "{a}", "--policy"],
        ["bench", "{dir}"], ["oracle", "{b}", "--cap", "3"],
        ["solve", "{a}", "--algorithm", "fc", "--mode", "max", "--policy-out", "{out}"],
        ["solve", "{a}", "--theta", "0.6", "--policy-out", "{out}", "--stats"],
        ["solve", "{a}", "--renormalize", "--no-prune-decision-stop", "--no-prune-chance-abort",
         "--no-prune-fc-wipeout", "--no-prune-fc-mass"],
        ["oracle", "{a}"], ["eval", "{a}", "--policy", "{policy}"],
        ["eval", "{a}", "--policy", "{policy}", "--samples", "200", "--seed", "3"],
        ["approx", "{b}", "--epsilon", "0.1"], ["approx", "{b}", "--top-k", "1"],
        ["optimize", "{objective}"], ["bench", "{dir}", "--out", "{csv}"],
        ["solve", "{a}", "--theta", "0.5", "--theta", "0.6"], ["solve", "{a}", "--theta", "-0.5"],
        ["solve", "{a}", "--stats", "--stats"],
        ["approx", "{b}", "--epsilon", "0.1", "--epsilon", "0.2"],
        ["solve", "", "--mode", "max"], ["solve", "{a}", "--mode", "max", "--policy-out", ""],
        ["solve", "-", "--mode", "max"], ["oracle", "{a}", "--cap", " 3 "],
    ]

    @staticmethod
    def fill(argv, instances_dir, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text(serialize_policy(DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))),
                          encoding="utf-8")
        bench_dir = tmp_path / "set"
        bench_dir.mkdir(exist_ok=True)
        shutil.copy(instances_dir / "a.scsp", bench_dir / "a.scsp")
        fields = {"a": instances_dir / "a.scsp", "b": instances_dir / "b.scsp",
                  "objective": instances_dir / "objective.scsp", "policy": policy,
                  "dir": bench_dir, "out": tmp_path / "out.json", "csv": tmp_path / "runs.csv"}
        return [arg.format(**{k: str(v) for k, v in fields.items()}) for arg in argv]

    @staticmethod
    def reference(argv):
        """`main` with the full parser built for every call."""
        try:
            args = stocs.cli.build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        return stocs.cli._dispatch(args)

    @pytest.mark.parametrize("columns", ["80", "40"])
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_same_result_as_the_full_parser(self, capsys, monkeypatch, instances_dir,
                                            tmp_path, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        argv = self.fill(argv, instances_dir, tmp_path)
        expected = self.reference(argv), *capsys.readouterr()
        assert run(capsys, *argv) == expected

    # every op shape the benchmark runs, then one valid call of each subcommand
    VALID_CASES = [
        ["solve", "{a}", "--algorithm", "bt", "--mode", "decide"],
        ["solve", "{a}", "--algorithm", "fc", "--mode", "decide", "--theta", "0.6",
         "--policy-out", "{out}"],
        ["solve", "{a}", "--algorithm", "fc", "--mode", "max", "--policy-out", "{out}"],
        ["eval", "{a}", "--policy", "{policy}"],
        ["eval", "{a}", "--policy", "{policy}", "--samples", "200", "--seed", "3"],
        ["approx", "{b}", "--epsilon", "0.1"], ["approx", "{b}", "--top-k", "1"],
        ["optimize", "{objective}"], ["oracle", "{a}"], ["bench", "{dir}", "--out", "{csv}"],
    ]

    @pytest.mark.parametrize("argv", VALID_CASES, ids=" ".join)
    def test_a_valid_call_builds_no_full_parser(self, capsys, monkeypatch, instances_dir,
                                                tmp_path, argv):
        argv = self.fill(argv, instances_dir, tmp_path)
        expected = run(capsys, *argv)

        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(stocs.cli, "build_parser", refuse)
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", VALID_CASES, ids=" ".join)
    def test_a_valid_call_constructs_no_argparse_parser(self, capsys, monkeypatch,
                                                        instances_dir, tmp_path, argv):
        argv = self.fill(argv, instances_dir, tmp_path)
        expected = run(capsys, *argv)

        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert run(capsys, *argv) == expected

    @staticmethod
    def outcome(parse, argv):
        """vars() of the parse, or the SystemExit code; then stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parse(argv))
            except SystemExit as e:
                result = e.code
        return result, out.getvalue(), err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_the_scan_agrees_with_the_full_parser(self, argv):
        assert (self.outcome(stocs.cli._parse_args, argv)
                == self.outcome(lambda a: stocs.cli.build_parser().parse_args(a), argv))

    @pytest.mark.parametrize("argv, code", [(["solve", "{a}"], 0), (["bogus"], 2)])
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, instances_dir,
                                           tmp_path, argv, code):
        argv = self.fill(argv, instances_dir, tmp_path)
        expected = self.reference(argv), *capsys.readouterr()
        monkeypatch.setattr("sys.argv", ["stocs", *argv])
        assert (main(), *capsys.readouterr()) == expected
        assert expected[0] == code


# Python converts at most 4,300 digits of an int to or from text
BIG = "1" + "0" * 5000
# x0, s1, x2, ...: its policy count has 16,384 bits
CHAIN_28 = [{"name": f"x{i}", "kind": "decision", "domain": [0, 1]} if i % 2 == 0
            else {"name": f"s{i}", "kind": "stochastic", "domain": [0, 1],
                  "probabilities": [0.5, 0.5]} for i in range(28)]


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

    def test_objective_past_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.scsp"
        path.write_text(json.dumps({
            "theta": 0.5, "variables": [{"name": "x", "kind": "decision", "domain": [0, 1]}],
            "objective": {"text": "x * 1" + "0" * 400}}), encoding="utf-8")
        code, out, err = run(capsys, "optimize", str(path))
        assert (code, out) == (2, "")
        assert err == "error: objective: a value past the float range\n"

    def test_huge_integer_theta(self, capsys, tmp_path):
        path = tmp_path / "bad.scsp"
        path.write_text('{"theta": 1' + "0" * 400 + ', "variables": '
                        '[{"name": "x", "kind": "decision", "domain": [0, 1]}]}',
                        encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: theta inf outside [0, 1]")

    @pytest.mark.parametrize("command, text", [
        ("solve", '{"theta": ' + BIG + ', "variables": []}'),
        ("eval", '{"kind":"decision","variable":"x","value":' + BIG + ',"child":{"kind":"leaf"}}'),
        ("solve", json.dumps({"theta": 0.5,
                              "variables": [{"name": "x", "kind": "decision", "domain": [0, 1]}],
                              "constraints": [{"type": "expr", "text": "x < " + BIG}]})),
        ("oracle", json.dumps({"theta": 0.5, "variables": CHAIN_28})),
    ], ids=["instance", "policy", "expression", "oracle"])
    def test_integers_past_the_digit_limit(self, capsys, instances_dir, tmp_path, command, text):
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        argv = (command, str(path))
        if command == "eval":
            argv = (command, str(instances_dir / "a.scsp"), "--policy", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err) < 200

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

    @pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic-indic", "fullwidth"])
    def test_a_non_ascii_digit_is_a_syntax_error(self, capsys, instances_dir, tmp_path, digit):
        # int() reads both as 1, so `1 = <digit>` once made this constraint true
        doc = json.loads((instances_dir / "production.scsp").read_text(encoding="utf-8"))
        text = doc["constraints"][0]["text"] + " or 1 = " + digit
        doc["constraints"][0]["text"] = text
        path = tmp_path / "digit.scsp"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {digit!r} (at position {len(text) - 1})\n"

    def test_a_long_chain_fails_fast(self, capsys, tmp_path):
        # the duplicate-name check counts the names in one pass; counting each
        # name anew took 7.6 s for this chain on a 2-vCPU host, against 0.3 s
        chain = [{"name": f"x{i}", "kind": "decision", "domain": [0, 1]} if i % 2 == 0
                 else {"name": f"s{i}", "kind": "stochastic", "domain": [0, 1],
                       "probabilities": [0.5, 0.5]} for i in range(20000)]
        path = tmp_path / "chain.scsp"
        path.write_text(json.dumps({"theta": 0.5, "variables": chain}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(path))
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: 20000 variables need about")

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
