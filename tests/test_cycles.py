"""No valid call leaves a reference cycle.

Each case collects, disables the cyclic collector, runs its call and then
requires that a collection finds nothing: every object the call made was
freed by reference counting when it returned. A recursive closure that
refers to itself (function -> closure cell -> function) would keep its
memo, its points and often the whole Instance alive until the collector
ran. A failure names the functions among the garbage, kept for inspection
by ``gc.DEBUG_SAVEALL``.

``dump_instance`` is exempt: with ``indent``, ``json.dumps`` runs the
standard library's pure-Python encoder, whose nested closures make cycles
of their own.
"""

import contextlib
import gc
import io
import random
import types

import pytest

import stocs.cli
from conftest import INSTANCES_DIR
from gen import (
    inventory_instance,
    random_cpt_instance,
    random_instance,
    random_linear_instance,
    random_policy,
)
from stocs import (
    bt_decide,
    bt_max,
    enumerate_policies,
    fc_decide,
    fc_max,
    format_expression,
    load_instance,
    monte_carlo_policy_eval,
    most_probable_scenario_policy,
    optimize_chance_constrained,
    optimize_expected,
    oracle_max_satisfaction,
    parse_policy,
    policy_expected_value,
    policy_satisfaction,
    restricted_tree_bounds,
    serialize_policy,
)
from stocs.errors import StocsError

INSTANCES = sorted(INSTANCES_DIR.glob("*.scsp"))


def assert_no_cycles(call) -> None:
    """Run ``call`` with the collector off; fail if it left unreachable objects."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        names = sorted({o.__qualname__ for o in gc.garbage if isinstance(o, types.FunctionType)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"{found} unreachable objects; functions among them: {names}"


def run_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = stocs.cli.main([str(a) for a in argv])
    assert code in (0, 1), argv  # 1 is an UNSAT verdict


def cli_calls(path, policy):
    """Every valid subcommand on one instance file; ``policy`` is a file of
    one of its policies."""
    calls = [("solve", path, "--algorithm", algorithm, "--mode", mode,
              "--policy-out", policy.with_suffix(".out"), "--stats")
             for algorithm in ("bt", "fc") for mode in ("max", "decide")]
    calls += [("oracle", path), ("eval", path, "--policy", policy),
              ("eval", path, "--policy", policy, "--samples", "500", "--seed", "3"),
              ("approx", path, "--epsilon", "0.2"), ("approx", path, "--top-k", "1")]
    if load_instance(path).objective is not None:
        calls.append(("optimize", path))
    return calls


@pytest.mark.parametrize("path", INSTANCES, ids=[p.stem for p in INSTANCES])
def test_no_cli_subcommand_leaves_a_cycle(path, tmp_path):
    policy = tmp_path / "policy.json"
    run_cli("solve", path, "--mode", "max", "--policy-out", policy)
    for argv in cli_calls(path, policy):
        assert_no_cycles(lambda: run_cli(*argv))


def test_bench_leaves_no_cycle(tmp_path):
    assert_no_cycles(lambda: run_cli("bench", INSTANCES_DIR, "--out", tmp_path / "bench.csv"))


def generated_instances():
    rng = random.Random(39)
    return ([random_instance(rng) for _ in range(3)] + [random_cpt_instance(rng) for _ in range(3)]
            + [random_linear_instance(rng) for _ in range(3)] + [inventory_instance(3)])


def walker_calls(instance, rng):
    policy = random_policy(rng, instance)
    calls = [lambda: bt_max(instance), lambda: fc_max(instance),
             lambda: bt_decide(instance), lambda: fc_decide(instance),
             lambda: oracle_max_satisfaction(instance),
             lambda: sum(1 for _ in enumerate_policies(instance)),
             lambda: policy_satisfaction(instance, policy),
             lambda: monte_carlo_policy_eval(instance, policy, 300, 1),
             lambda: restricted_tree_bounds(instance, epsilon=0.3),
             lambda: restricted_tree_bounds(instance, top_k=1),
             lambda: parse_policy(serialize_policy(policy))]
    calls += [lambda c=c: format_expression(c.expression)
              for c in instance.constraints if c.expression is not None]
    if instance.objective is not None:
        calls += [lambda: optimize_expected(instance),
                  lambda: optimize_chance_constrained(instance, 0.2),
                  lambda: policy_expected_value(instance, policy)]
    return calls + [lambda: most_probable_scenario_policy(instance)]


def test_no_public_walker_leaves_a_cycle():
    rng = random.Random(7)
    for instance in generated_instances():
        for call in walker_calls(instance, rng):
            assert_no_cycles(lambda: refused_or_run(call))


def refused_or_run(call) -> None:
    """Run ``call``; a typed refusal (no heuristic or feasible policy, too
    many policies for the oracle) is checked as a return is."""
    try:
        call()
    except StocsError:
        pass
