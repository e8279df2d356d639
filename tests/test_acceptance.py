"""End-to-end acceptance gates.

One test per release criterion. Each prints an ``ACCEPTANCE <n> <label>:
PASS|FAIL`` line outside pytest's capture so a plain log scan shows the
verdicts; the assertions carry the actual contract. Criteria 1-4 share one
500-instance random suite built (and timed) once per session.
"""

import contextlib
import csv
import itertools
import random
import shutil
import time
from dataclasses import dataclass, field

import pytest

from conftest import make_instance, uncached
from gen import (
    inventory_instance,
    random_cpt_instance,
    random_instance,
    random_policy,
    swap_pair,
)
from stocs import (
    ChanceNode,
    DecisionNode,
    Instance,
    Leaf,
    PruneRules,
    bt_decide,
    bt_max,
    dump_instance,
    expr_constraint,
    fc_decide,
    fc_max,
    load_instance,
    oracle_max_satisfaction,
    parse_instance,
    parse_policy,
    policy_satisfaction,
    restricted_tree_bounds,
    scenario_probability,
    serialize_policy,
    validate_instance,
)
from stocs.approx import monte_carlo_policy_eval
from stocs.cli import main as cli_main

TOL = 1e-9
THETA_GRID = tuple(i / 10 for i in range(11))
SUITE_SEED = 20260814

# Exact maximal satisfaction of instances/production.scsp, computed once by
# exhaustive policy enumeration (`stocs oracle instances/production.scsp`)
# and frozen here: printing 500 units in both quarters covers every demand.
PRODUCTION_GOLDEN = 1.0


@contextlib.contextmanager
def announce(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: PASS")


@dataclass
class SuiteEntry:
    instance: Instance
    oracle: object
    bt: object
    fc: object
    grid: dict  # theta -> (bt DecideResult, fc DecideResult)


@dataclass
class SuiteRun:
    entries: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def suite1() -> SuiteRun:
    """500 random instances with oracle, max-mode, and decide-grid results."""
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    run = SuiteRun()
    for _ in range(500):
        inst = random_instance(rng)
        grid = {
            theta: (bt_decide(inst, theta_override=theta),
                    fc_decide(inst, theta_override=theta))
            for theta in THETA_GRID
        }
        run.entries.append(SuiteEntry(inst, oracle_max_satisfaction(inst),
                                      bt_max(inst), fc_max(inst), grid))
    run.elapsed = time.perf_counter() - start
    return run


def test_criterion_1_search_matches_oracle_on_500_instances(suite1, capsys):
    with announce(capsys, 1, "oracle equivalence"):
        for e in suite1.entries:
            assert abs(e.bt.probability - e.oracle.probability) <= TOL
            assert abs(e.fc.probability - e.oracle.probability) <= TOL
            for theta in THETA_GRID:
                expected = e.oracle.probability >= theta - TOL
                bt_run, fc_run = e.grid[theta]
                assert bt_run.satisfiable == expected
                assert fc_run.satisfiable == expected
        assert suite1.elapsed < 120.0


def test_criterion_2_every_reported_policy_rescores(suite1, capsys):
    with announce(capsys, 2, "witness validity"):
        for e in suite1.entries:
            for result in (e.oracle, e.bt, e.fc):
                rescored = policy_satisfaction(e.instance, result.policy)
                assert abs(rescored - result.probability) <= TOL
            for theta in THETA_GRID:
                for run in e.grid[theta]:
                    if run.satisfiable:
                        score = policy_satisfaction(e.instance, run.policy)
                        assert score >= theta - TOL
                    else:
                        assert run.policy is None


# which algorithms consult each rule; the fc_* rules never touch plain bt
RULE_OFF = (
    (PruneRules(decision_stop=False), (bt_decide, fc_decide)),
    (PruneRules(chance_abort=False), (bt_decide, fc_decide)),
    (PruneRules(fc_wipeout=False), (fc_decide,)),
    (PruneRules(fc_mass=False), (fc_decide,)),
)


def test_criterion_3_prune_rules_sound_and_fc_cheaper(suite1, instances_dir,
                                                      capsys):
    with announce(capsys, 3, "pruning soundness and benefit"):
        for e in suite1.entries:
            for theta in THETA_GRID:
                bt_run, fc_run = e.grid[theta]
                baseline = {bt_decide: bt_run.satisfiable,
                            fc_decide: fc_run.satisfiable}
                for rules, algorithms in RULE_OFF:
                    for algorithm in algorithms:
                        redo = algorithm(e.instance, theta_override=theta,
                                         rules=rules)
                        assert redo.satisfiable == baseline[algorithm]
                for algorithm, verdict in baseline.items():
                    redo = uncached(algorithm, e.instance, theta_override=theta)
                    assert redo.satisfiable == verdict
            # forward checking only ever skips parts of the exact search
            # tree, so the full max-mode sweep can never expand more nodes
            assert e.fc.stats.nodes_visited <= e.bt.stats.nodes_visited
        demo = load_instance(instances_dir / "fc_demo.scsp")
        assert (fc_decide(demo).stats.nodes_visited
                < bt_decide(demo).stats.nodes_visited)
        # each inventory context is one stock variable: the cache pays
        inventory = inventory_instance(4)
        for algorithm in (bt_max, fc_max, bt_decide, fc_decide):
            cached = algorithm(inventory).stats
            assert cached.cache_hits > 0
            assert cached.nodes_visited < uncached(algorithm, inventory).stats.nodes_visited
        assert (fc_max(inventory).stats.nodes_visited
                <= bt_max(inventory).stats.nodes_visited)


def test_criterion_4_bounds_sandwich_the_true_maximum(suite1, capsys):
    with announce(capsys, 4, "restricted-tree bound sandwich"):
        for e in suite1.entries:
            truth = e.oracle.probability
            for eps in (0.0, 0.1, 0.25, 0.5):
                bounds = restricted_tree_bounds(e.instance, epsilon=eps)
                assert bounds.lb <= bounds.ub + TOL
                assert bounds.lb - TOL <= truth <= bounds.ub + TOL
                if eps == 0.0:
                    assert abs(bounds.lb - truth) <= TOL
                    assert abs(bounds.ub - truth) <= TOL


def test_criterion_5_wilson_intervals_are_calibrated(capsys):
    with announce(capsys, 5, "confidence interval calibration"):
        for p in (0.25, 0.5, 0.9):
            inst = make_instance(
                [("x", "d", (0, 1)), ("s", "s", (0, 1), (p, 1.0 - p))],
                [expr_constraint("s = 0")], theta=0.5)
            policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
            assert policy_satisfaction(inst, policy) == pytest.approx(p, abs=TOL)
            runs = [monte_carlo_policy_eval(inst, policy, 1000, seed)
                    for seed in range(200)]
            covered = sum(1 for est in runs
                          if est.ci_low - TOL <= p <= est.ci_high + TOL)
            assert covered >= 180
            again = [monte_carlo_policy_eval(inst, policy, 1000, seed)
                     for seed in range(200)]
            assert again == runs  # same seeds, bit-identical estimates


def test_criterion_6_conditional_tables_reduce_and_normalize(suite1, capsys):
    with announce(capsys, 6, "conditional tables"):
        # without tables the conditional routines must match the base ones
        for e in suite1.entries[:60]:
            got = bt_max(e.instance)
            assert abs(got.probability - e.oracle.probability) <= TOL
        rng = random.Random(6060)
        for _ in range(100):
            inst = random_cpt_instance(rng)
            decisions = [v for v in inst.variables if v.kind == "decision"]
            stochastics = [v for v in inst.variables if v.kind == "stochastic"]
            for combo in itertools.product(*(v.domain for v in decisions)):
                chosen = dict(zip((v.name for v in decisions), combo))
                total = 0.0
                for outcome in itertools.product(*(v.domain
                                                   for v in stochastics)):
                    scenario = dict(zip((v.name for v in stochastics), outcome))
                    total += scenario_probability(inst, scenario, chosen)
                assert abs(total - 1.0) <= TOL


def rigid_policy(instance: Instance, choices: dict, depth: int = 0):
    """Policy taking the same decision values on every observation branch."""
    if depth == instance.n:
        return Leaf()
    var = instance.variables[depth]
    if var.kind == "decision":
        return DecisionNode(var.name, choices[var.name],
                            rigid_policy(instance, choices, depth + 1))
    return ChanceNode(var.name, tuple(rigid_policy(instance, choices, depth + 1)
                                      for _ in var.domain))


def test_criterion_7_production_plan_hits_frozen_value(instances_dir, capsys):
    with announce(capsys, 7, "production planning example"):
        inst = load_instance(instances_dir / "production.scsp")
        start = time.perf_counter()
        bt = bt_max(inst)
        fc = fc_max(inst)
        elapsed = time.perf_counter() - start
        assert abs(bt.probability - PRODUCTION_GOLDEN) <= TOL
        assert abs(fc.probability - PRODUCTION_GOLDEN) <= TOL
        assert abs(policy_satisfaction(inst, bt.policy)
                   - PRODUCTION_GOLDEN) <= TOL
        assert elapsed < 10.0
        assert bt_decide(inst).satisfiable  # theta = 0.8
        assert fc_decide(inst).satisfiable


def best_rigid(instance: Instance) -> float:
    grid = instance.variables[0].domain
    return max(policy_satisfaction(instance, rigid_policy(instance, {"x1": a, "x2": b}))
               for a in grid for b in grid)


def test_criterion_7_adaptive_plan_strictly_beats_rigid(instances_dir, capsys):
    with announce(capsys, 7, "recourse strict dominance"):
        inst = load_instance(instances_dir / "production.scsp")
        # printing 500 units in both quarters covers every demand, so on
        # production itself a rigid plan already ties the adaptive optimum
        assert bt_max(inst).probability == best_rigid(inst) == 1.0
        # with at most 200 units left in stock at the end, the second
        # quarter's plan must follow the first quarter's demand
        storage = validate_instance(Instance(
            variables=inst.variables, theta=inst.theta, name="production-storage",
            constraints=(*inst.constraints, expr_constraint("x1 - s1 + x2 - s2 <= 200"))))
        oracle = oracle_max_satisfaction(storage)
        assert oracle.stats.nodes_visited == storage.policy_count == 15_625
        adaptive = bt_max(storage)
        for got in (adaptive, fc_max(storage), oracle):
            assert abs(got.probability - 0.6) <= TOL
        rigid = best_rigid(storage)
        assert abs(rigid - 0.52) <= TOL
        assert adaptive.probability > rigid + TOL


def test_criterion_8_later_decisions_never_hurt(capsys):
    with announce(capsys, 8, "recourse dominance"):
        rng = random.Random(8808)
        for _ in range(200):
            inst, swapped = swap_pair(rng)
            before = oracle_max_satisfaction(inst).probability
            after = oracle_max_satisfaction(swapped).probability
            assert after >= before - TOL
            bt_before = bt_max(inst).probability
            bt_after = bt_max(swapped).probability
            assert abs(bt_before - before) <= TOL
            assert abs(bt_after - after) <= TOL
            assert bt_after >= bt_before - TOL


def test_criterion_9_round_trips_and_cli_contract(instances_dir, tmp_path,
                                                  capsys):
    with announce(capsys, 9, "round-trips and exit codes"):
        for path in sorted(instances_dir.glob("*.scsp")):
            inst = load_instance(path)
            assert parse_instance(dump_instance(inst)) == inst
        rng = random.Random(909)
        for _ in range(100):
            inst = random_instance(rng)
            assert parse_instance(dump_instance(inst)) == inst
            policy = random_policy(rng, inst)
            assert parse_policy(serialize_policy(policy)) == policy
        assert serialize_policy(Leaf()) == '{"kind":"leaf"}'

        def run(*argv):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        a = str(instances_dir / "a.scsp")
        assert run("solve", a, "--algorithm", "fc", "--mode", "decide") == \
            (0, "SAT p>=0.500000000\n", "")
        assert run("solve", a, "--theta", "0.6") == \
            (1, "UNSAT max=0.500000000\n", "")
        code, out, err = run("solve", str(instances_dir / "missing.scsp"))
        assert code == 2 and out == "" and err.startswith("error: ")

        policy_file = tmp_path / "rigid.json"
        policy_file.write_text(serialize_policy(
            DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))) + "\n",
            encoding="utf-8")
        goldens = [
            ("solve", a),
            ("solve", str(instances_dir / "production.scsp"), "--algorithm",
             "fc", "--mode", "max", "--stats"),
            ("solve", str(instances_dir / "conditional.scsp"), "--theta",
             "0.9"),
            ("oracle", str(instances_dir / "b.scsp")),
            ("eval", a, "--policy", str(policy_file)),
            ("eval", a, "--policy", str(policy_file), "--samples", "400",
             "--seed", "11"),
            ("approx", str(instances_dir / "fc_demo.scsp"), "--epsilon",
             "0.1"),
            ("approx", str(instances_dir / "b.scsp"), "--top-k", "1"),
            ("optimize", str(instances_dir / "objective.scsp")),
        ]
        for argv in goldens:
            assert run(*argv) == run(*argv)

        # bench twice: streams byte-identical, CSV stable up to timings
        workdir = tmp_path / "set"
        workdir.mkdir()
        for name in ("a.scsp", "b.scsp", "fc_demo.scsp"):
            shutil.copy(instances_dir / name, workdir / name)

        out_csv = tmp_path / "runs.csv"

        def bench_rows():
            result = run("bench", str(workdir), "--out", str(out_csv))
            with open(out_csv, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            ms_col = rows[0].index("ms")
            for row in rows[1:]:
                row[ms_col] = ""
            return result, rows

        first = bench_rows()
        second = bench_rows()
        assert first == second
        assert first[0][0] == 0
