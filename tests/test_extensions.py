import dataclasses
import itertools
import random
import time

import pytest

from gen import random_cpt_instance, random_instance
from stocs import (
    ChanceNode,
    ConditionalTable,
    DecisionNode,
    Leaf,
    Objective,
    bt_decide,
    bt_max,
    enumerate_policies,
    expr_constraint,
    fc_max,
    load_instance,
    optimize_chance_constrained,
    optimize_expected,
    parse_expression,
    policy_expected_value,
    policy_satisfaction,
    scenario_probability,
    scenarios,
    validate_instance,
)
from stocs.errors import (
    InstanceValidationError,
    MissingParentValueError,
    NoFeasiblePolicyError,
    NoObjectiveError,
    ThetaOutOfRangeError,
)
from stocs import expr
from conftest import make_instance

TOL = 1e-9


def chain_instance():
    # P(s2=1 | s1=1) = 0.9, P(s2=1 | s1=0) = 0.2
    cpt = ConditionalTable("s2", ("s1",), {(0,): (0.8, 0.2), (1,): (0.1, 0.9)})
    return make_instance(
        [("s1", "s", (0, 1), (0.5, 0.5)),
         ("x", "d", (0, 1)),
         ("s2", "s", (0, 1), cpt)],
        [expr_constraint("x = s2")], theta=0.8)


def coin_chain(n):
    # x0, s1, x2, s3, ...: each decision may cover the coin after it, at a
    # cost, under one constraint over the whole chain
    names = [f"x{i}" if i % 2 == 0 else f"s{i}" for i in range(n)]
    variables = [(v, "d", (0, 1)) if v[0] == "x" else (v, "s", (0, 2), (0.5, 0.5))
                 for v in names]
    chain = names[0] + "".join((" - " if v[0] == "s" else " + ") + v for v in names[1:])
    cost = " + ".join(names[::2])
    return make_instance(variables, [expr_constraint(chain + " >= 0")],
                         objective=Objective(parse_expression(f"0 - ({cost})"), -n))


def with_objective(instance, text, violation=0.0):
    objective = Objective(parse_expression(text), violation_value=violation)
    return validate_instance(dataclasses.replace(instance, objective=objective))


class TestConditionalScenarioProbability:
    def test_chain_rule(self):
        inst = chain_instance()
        got = scenario_probability(inst, {"s1": 1, "s2": 1}, decisions={"x": 0})
        assert got == pytest.approx(0.45, abs=TOL)
        got = scenario_probability(inst, {"s1": 0, "s2": 0}, decisions={"x": 0})
        assert got == pytest.approx(0.40, abs=TOL)

    def test_missing_parent_value(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (0.9, 0.1), (1,): (0.2, 0.8)})
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), cpt)],
            [expr_constraint("x = s")])
        with pytest.raises(MissingParentValueError):
            scenario_probability(inst, {"s": 1})

    def test_sums_to_one_per_decision_assignment(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_cpt_instance(rng)
            decision_domains = [v.domain for v in inst.variables
                                if v.kind == "decision"]
            decision_names = [v.name for v in inst.variables
                              if v.kind == "decision"]
            for combo in itertools.product(*decision_domains):
                decisions = dict(zip(decision_names, combo))
                total = sum(
                    scenario_probability(inst, sc, decisions=decisions)
                    for sc in scenarios(inst))
                assert total == pytest.approx(1.0, abs=TOL)


class TestConditionalSolve:
    def test_reduces_to_the_base_solver(self):
        # tables whose rows all equal the variable's own distribution change
        # nothing: same maximum, same argmax
        rng = random.Random(11)
        for _ in range(15):
            inst = random_instance(rng)
            first = inst.variables[0]
            variables = tuple(
                dataclasses.replace(v, probabilities=None, cpt=ConditionalTable(
                    v.name, (first.name,),
                    {(w,): v.probabilities for w in first.domain}))
                if v.kind == "stochastic" and v is not first else v
                for v in inst.variables)
            tabled = validate_instance(dataclasses.replace(inst, variables=variables))
            base = bt_max(inst)
            got = bt_max(tabled)
            assert got.probability == pytest.approx(base.probability, abs=TOL)
            assert got.policy == base.policy

    def test_concentrated_outcome_restores_certainty(self):
        # s2 always equals s1, so matching x to s1 satisfies both equalities
        cpt = ConditionalTable("s2", ("s1",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        inst = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)),
             ("x", "d", (0, 1)),
             ("s2", "s", (0, 1), cpt)],
            [expr_constraint("x = s1 and x = s2")], theta=0.5)
        assert bt_max(inst).probability == pytest.approx(1.0, abs=TOL)
        independent = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)),
             ("x", "d", (0, 1)),
             ("s2", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x = s1 and x = s2")], theta=0.5)
        assert bt_max(independent).probability == pytest.approx(0.5)

    def test_theta_zero_still_satisfiable(self):
        inst = chain_instance()
        assert bt_decide(inst, theta_override=0.0).satisfiable

    def test_matches_enumeration_scored_by_the_chain_rule(self):
        rng = random.Random(13)
        for _ in range(15):
            inst = random_cpt_instance(rng)
            best = max(policy_satisfaction(inst, p)
                       for p in enumerate_policies(inst))
            assert bt_max(inst).probability == pytest.approx(
                best, abs=TOL)

    def test_forward_checking_agrees_without_mass_pruning(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_cpt_instance(rng)
            assert fc_max(inst).probability == pytest.approx(
                bt_max(inst).probability, abs=TOL)


class TestOptimizeExpected:
    def test_recourse_collects_the_full_reward(self, instance_b):
        got = optimize_expected(with_objective(instance_b, "10 * (x = s)"))
        assert got.expected_value == pytest.approx(10.0, abs=TOL)
        assert got.satisfaction == pytest.approx(1.0, abs=TOL)

    def test_blind_decision_halves_the_reward(self, instance_a):
        got = optimize_expected(with_objective(instance_a, "10 * (x = s)"))
        assert got.expected_value == pytest.approx(5.0, abs=TOL)
        assert got.satisfaction == pytest.approx(0.5, abs=TOL)

    def test_constant_objective_on_a_sure_instance(self, instance_b):
        got = optimize_expected(with_objective(instance_b, "7"))
        assert got.expected_value == pytest.approx(7.0, abs=TOL)

    def test_violation_value_is_paid_on_failing_leaves(self, instance_a):
        got = optimize_expected(with_objective(instance_a, "1", violation=-2.0))
        # best is still 0.5 satisfied: 0.5*1 + 0.5*(-2)
        assert got.expected_value == pytest.approx(-0.5, abs=TOL)

    def test_zero_probability_value_gets_the_rigid_subpolicy(self):
        # s = 1 never happens, so its branch is not searched: x keeps its
        # first value there, though x = 1 would satisfy x = s
        inst = make_instance([("s", "s", (0, 1), (1.0, 0.0)), ("x", "d", (0, 1))],
                             [expr_constraint("x = s")],
                             objective=Objective(parse_expression("5")))
        got = optimize_expected(inst)
        assert (got.expected_value, got.satisfaction) == (5.0, 1.0)
        assert got.policy == ChanceNode("s", (DecisionNode("x", 0, Leaf()),) * 2)

    def test_objective_required(self, instance_a):
        with pytest.raises(NoObjectiveError):
            optimize_expected(instance_a)

    def test_objective_past_the_float_range_is_typed(self):
        inst = make_instance([("x", "d", (0, 1))],
                             objective=Objective(parse_expression("x * 1" + "0" * 400)))
        with pytest.raises(InstanceValidationError, match="float range"):
            optimize_expected(inst)
        with pytest.raises(InstanceValidationError, match="float range"):
            policy_expected_value(inst, DecisionNode("x", 1, Leaf()))
        assert policy_expected_value(inst, DecisionNode("x", 0, Leaf())) == 0.0

    def test_constant_one_objective_recovers_satisfaction(self):
        rng = random.Random(19)
        for _ in range(20):
            inst = with_objective(random_instance(rng), "1")
            got = optimize_expected(inst)
            assert got.expected_value == pytest.approx(
                bt_max(inst).probability, abs=TOL)

    def test_reported_fields_are_self_consistent(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = with_objective(random_instance(rng), "1", violation=0.0)
            got = optimize_expected(inst)
            assert policy_expected_value(inst, got.policy) == pytest.approx(
                got.expected_value, abs=TOL)
            assert policy_satisfaction(inst, got.policy) == pytest.approx(
                got.satisfaction, abs=TOL)

    def test_chain_satisfaction_is_the_policy_satisfaction(self):
        for n in (12, 24):
            inst = coin_chain(n)
            got = optimize_expected(inst)
            assert 0.5 < got.satisfaction < 1.0
            assert got.satisfaction == policy_satisfaction(inst, got.policy)

    def test_long_chain_satisfaction_is_not_a_tree_walk(self):
        # the returned policy has 2^24 paths, so walking it as a tree to
        # score its satisfaction would take minutes
        start = time.perf_counter()
        got = optimize_expected(coin_chain(48))
        assert time.perf_counter() - start < 10.0
        assert 0.5 < got.satisfaction < 1.0

    def test_matches_enumeration_by_expected_value(self):
        rng = random.Random(29)
        for _ in range(15):
            inst = with_objective(random_instance(rng, max_vars=4), "v0 + 1")
            best = max(policy_expected_value(inst, p)
                       for p in enumerate_policies(inst))
            assert optimize_expected(inst).expected_value == pytest.approx(
                best, abs=TOL)


class TestChanceConstrainedOptimize:
    def test_threshold_filters_the_feasible_set(self, instance_b):
        inst = with_objective(instance_b, "10 * (x = s)")
        got = optimize_chance_constrained(inst, theta=1.0)
        assert got.expected_value == pytest.approx(10.0, abs=TOL)
        assert got.satisfaction >= 1.0 - TOL

    @pytest.mark.parametrize("theta", [1.5, -0.5, float("nan"), 10**400],
                             ids=["1.5", "-0.5", "nan", "10**400"])
    def test_theta_outside_the_unit_interval(self, instances_dir, theta):
        inst = load_instance(instances_dir / "objective.scsp")
        with pytest.raises(ThetaOutOfRangeError):
            optimize_chance_constrained(inst, theta=theta)

    def test_objective_compiles_once_per_call(self, instance_b, monkeypatch):
        inst = with_objective(instance_b, "10 * (x = s)")
        compiled = []
        compile_expression = expr.compile_expression

        def counting(node, index_of):
            compiled.append(node)
            return compile_expression(node, index_of)

        monkeypatch.setattr(expr, "compile_expression", counting)
        optimize_chance_constrained(inst, theta=0.0)
        assert len(list(enumerate_policies(inst))) == 4
        assert compiled.count(inst.objective.expression) == 1

    def test_infeasible_threshold(self, instance_a):
        inst = with_objective(instance_a, "10 * (x = s)")
        with pytest.raises(NoFeasiblePolicyError):
            optimize_chance_constrained(inst, theta=0.9)

    def test_constraint_can_bind_away_from_the_unconstrained_best(self):
        # the reward tempts x=0, which only satisfies half the time
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x >= s")], theta=0.9,
            objective=Objective(parse_expression("10 * (1 - x)"),
                                violation_value=0.0))
        unconstrained = optimize_expected(inst)
        assert unconstrained.expected_value == pytest.approx(5.0, abs=TOL)
        assert unconstrained.satisfaction == pytest.approx(0.5, abs=TOL)
        constrained = optimize_chance_constrained(inst)
        assert constrained.expected_value == pytest.approx(0.0, abs=TOL)
        assert constrained.satisfaction == pytest.approx(1.0, abs=TOL)
