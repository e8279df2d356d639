import ast
import random
import re
import time
from pathlib import Path

import pytest

from gen import random_instance, random_policy
import stocs
from stocs import (
    ChanceNode,
    DecisionNode,
    Leaf,
    Objective,
    bt_max,
    check_assignment,
    enumerate_policies,
    expr_constraint,
    fc_decide,
    first_policy,
    induced_assignment,
    is_satisfiable_oracle,
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
    scenario_probability,
    scenarios,
    serialize_policy,
)
from stocs.errors import (
    InstanceValidationError,
    MalformedPolicyError,
    MissingAssignmentError,
    OracleCapExceededError,
    OutOfDomainValueError,
    PartialAssignmentError,
    ThetaOutOfRangeError,
)
from stocs.semantics import _rigid_policies
from conftest import make_instance

TOL = 1e-9


def rigid_a(value):
    return DecisionNode("x", value, ChanceNode("s", (Leaf(), Leaf())))


def scored_a(*extra, probabilities=(0.5, 0.5)):
    # instance a with an objective, so that both walks can score it
    return make_instance(
        [("x", "d", (0, 1)), ("s", "s", (0, 1), probabilities)],
        [expr_constraint("x = s"), *extra],
        objective=Objective(parse_expression("10 * x")))


def scored_pairs(*extra, probabilities=(0.5, 0.5)):
    """Each walk over a given policy, on scored_a and on scored_a with a
    false constant constraint, under which every leaf violates."""
    instances = (scored_a(*extra, probabilities=probabilities),
                 scored_a(*extra, expr_constraint("1 = 2"), probabilities=probabilities))
    return [(score, inst) for score in SCORES for inst in instances]


def sampled(instance, policy):
    return monte_carlo_policy_eval(instance, policy, 50, seed=1)


def induced(instance, policy):
    return induced_assignment(instance, policy, {"s": 0})


SCORES = (policy_satisfaction, policy_expected_value, sampled, induced)


def alternating(n):
    # x0, s1, x2, ...: binary decisions, each followed by a fair binary coin
    return make_instance([(f"x{i}", "d", (0, 1)) if i % 2 == 0
                          else (f"s{i}", "s", (0, 1), (0.5, 0.5)) for i in range(n)])


def recourse_b():
    return ChanceNode("s", (DecisionNode("x", 0, Leaf()),
                            DecisionNode("x", 1, Leaf())))


class TestScenarioProbability:
    def test_product_of_branch_probabilities(self):
        inst = make_instance([("s1", "s", (0, 1), (0.5, 0.5)),
                              ("s2", "s", (0, 1), (0.3, 0.7))])
        assert scenario_probability(inst, {"s1": 0, "s2": 1}) == pytest.approx(0.35)

    def test_empty_product_is_one(self):
        inst = make_instance([("x", "d", (0, 1))])
        assert scenario_probability(inst, {}) == 1.0

    def test_zero_probability_value(self):
        inst = make_instance([("s", "s", (0, 1), (1.0, 0.0))])
        assert scenario_probability(inst, {"s": 1}) == 0.0

    def test_missing_assignment(self):
        inst = make_instance([("s", "s", (0, 1), (0.5, 0.5))])
        with pytest.raises(MissingAssignmentError):
            scenario_probability(inst, {})

    def test_out_of_domain_value(self):
        inst = make_instance([("s", "s", (0, 1), (0.5, 0.5))])
        with pytest.raises(OutOfDomainValueError):
            scenario_probability(inst, {"s": 7})

    def test_an_earlier_out_of_domain_decision_is_named_first(self):
        inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))])
        with pytest.raises(OutOfDomainValueError, match=r"^x=9 not in domain \(0, 1\)$"):
            scenario_probability(inst, {"s": 7}, decisions={"x": 9})

    def test_domain_faults_come_before_a_missing_value(self):
        inst = make_instance([("s", "s", (0, 1), (0.5, 0.5)), ("x", "d", (0, 1))])
        with pytest.raises(OutOfDomainValueError, match=r"^x=9 not in domain \(0, 1\)$"):
            scenario_probability(inst, {}, decisions={"x": 9})

    @pytest.mark.parametrize("scenario, decisions, message", [
        (None, None, "^stochastic values must come in a mapping, got NoneType$"),
        ({"s": 0}, [("x", 0)], "^decision values must come in a mapping, got list$"),
    ], ids=["no-scenario", "list-of-decisions"])
    def test_values_must_come_in_a_mapping(self, scenario, decisions, message):
        inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))])
        with pytest.raises(MissingAssignmentError, match=message):
            scenario_probability(inst, scenario, decisions)

    def test_probabilities_sum_to_one_over_all_scenarios(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng)
            total = sum(scenario_probability(inst, sc) for sc in scenarios(inst))
            assert total == pytest.approx(1.0, abs=TOL)


class TestCheckAssignment:
    def test_satisfying(self, instance_a):
        assert check_assignment(instance_a, {"x": 1, "s": 1}) is True

    def test_violating(self, instance_a):
        assert check_assignment(instance_a, {"x": 1, "s": 0}) is False

    def test_no_constraints_is_vacuously_true(self):
        inst = make_instance([("x", "d", (0, 1))])
        assert check_assignment(inst, {"x": 0}) is True

    def test_partial_assignment_rejected(self, instance_a):
        with pytest.raises(PartialAssignmentError):
            check_assignment(instance_a, {"x": 1})

    def test_out_of_domain_value(self, instance_a):
        with pytest.raises(OutOfDomainValueError, match=r"^x=7 not in domain \(0, 1\)$"):
            check_assignment(instance_a, {"x": 7, "s": 0})

    def test_the_first_fault_in_variable_order_is_reported(self, instance_a):
        with pytest.raises(PartialAssignmentError, match="^no value for variable x$"):
            check_assignment(instance_a, {"s": 7})

    def test_values_must_come_in_a_mapping(self, instance_a):
        with pytest.raises(MissingAssignmentError,
                           match="^decision values must come in a mapping, got NoneType$"):
            check_assignment(instance_a, None)


class TestPolicySatisfaction:
    def test_rigid_policy_half(self, instance_a):
        assert policy_satisfaction(instance_a, rigid_a(0)) == pytest.approx(0.5)

    def test_recourse_policy_full(self, instance_b):
        assert policy_satisfaction(instance_b, recourse_b()) == pytest.approx(1.0)

    def test_complement_constraint(self):
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x != s")])
        assert policy_satisfaction(inst, rigid_a(0)) == pytest.approx(0.5)

    # malformed policies fail in every walk over a given policy, even where
    # a false constant constraint fixes the answer
    def test_wrong_variable_order(self):
        bad = ChanceNode("s", (DecisionNode("x", 0, Leaf()),
                               DecisionNode("x", 0, Leaf())))
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError):
                score(inst, bad)

    def test_decision_node_where_a_chance_node_belongs(self):
        bad = DecisionNode("x", 0, DecisionNode("s", 0, Leaf()))
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a chance node for s at depth 1, got DecisionNode"):
                score(inst, bad)

    def test_wrong_branch_count(self):
        bad = DecisionNode("x", 0, ChanceNode("s", (Leaf(),)))
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError):
                score(inst, bad)

    def test_chosen_value_outside_domain(self):
        bad = DecisionNode("x", 5, ChanceNode("s", (Leaf(), Leaf())))
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError):
                score(inst, bad)

    def test_chosen_value_past_the_digit_limit(self):
        # Python prints at most 4,300 digits of an int: the message leaves it out
        for bad in (DecisionNode("x", 10**5000, Leaf()),
                    ChanceNode("s", (DecisionNode("x", 10**5000, Leaf()),) * 2)):
            for score, inst in scored_pairs():
                with pytest.raises(MalformedPolicyError, match="an integer too long to print$"):
                    score(inst, bad)

    def test_node_past_the_last_variable(self):
        bad = DecisionNode("x", 0, ChanceNode("s", (DecisionNode("x", 0, Leaf()), Leaf())))
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a leaf at depth 2, got DecisionNode"):
                score(inst, bad)

    def test_node_below_a_violated_constraint(self):
        # x = 0 violates x = 1, so no walk goes below the decision
        for score, inst in scored_pairs(expr_constraint("x = 1")):
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a chance node for s at depth 1, got Leaf\(\)$"):
                score(inst, DecisionNode("x", 0, Leaf()))

    def test_node_below_a_zero_probability_value(self):
        # s = 1 has no mass, so no walk goes below it
        bad = DecisionNode("x", 0, ChanceNode("s", (Leaf(), DecisionNode("x", 0, Leaf()))))
        for score, inst in scored_pairs(probabilities=(1.0, 0.0)):
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a leaf at depth 2, got DecisionNode"):
                score(inst, bad)

    def test_the_shallowest_fault_is_reported(self, instance_b):
        # the first branch holds a fault at depth 2, the second one at depth 1
        bad = ChanceNode("s", (DecisionNode("x", 0, DecisionNode("x", 0, Leaf())), Leaf()))
        for score in (policy_satisfaction, sampled, induced):
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a decision node for x at depth 1, got Leaf\(\)$"):
                score(instance_b, bad)

    def test_leaf_for_the_whole_policy(self):
        for score, inst in scored_pairs():
            with pytest.raises(MalformedPolicyError,
                               match=r"^expected a decision node for x at depth 0, got Leaf\(\)$"):
                score(inst, Leaf())

    def test_shared_subtree_is_scored_once_per_key(self):
        # both values of s0 reach one x1 node with one key at depth 1
        inst = make_instance([("s0", "s", (0, 1), (0.5, 0.5)), ("x1", "d", (0, 1)),
                              ("s2", "s", (0, 1), (0.5, 0.5))], [expr_constraint("x1 = s2")])
        assert inst.key_at[1] is not None
        calls = []
        test = inst.check_at[2]

        def counting(env):
            calls.append(tuple(env))
            return test(env)

        inst.__dict__["check_at"] = (None, None, counting)
        shared = DecisionNode("x1", 1, ChanceNode("s2", (Leaf(), Leaf())))
        assert policy_satisfaction(inst, ChanceNode("s0", (shared, shared))) == 0.5
        assert calls == [(0, 1, 0), (0, 1, 1)]

    def test_matches_scenario_sum_formulation(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng)
            policy = random_policy(rng, inst)
            by_walk = policy_satisfaction(inst, policy)
            by_sum = sum(
                scenario_probability(inst, sc)
                * check_assignment(inst, induced_assignment(inst, policy, sc))
                for sc in scenarios(inst))
            assert by_walk == pytest.approx(by_sum, abs=TOL)
            assert 0.0 <= by_walk <= 1.0


class TestInducedAssignment:
    @pytest.mark.parametrize("scenario, error, message", [
        ({}, MissingAssignmentError, "^scenario misses stochastic variable s$"),
        ({"s": 7}, OutOfDomainValueError, r"^s=7 not in domain \(0, 1\)$"),
        ({"s": 10**5000}, OutOfDomainValueError, "^s: an integer too long to print$"),
        (None, MissingAssignmentError, "^stochastic values must come in a mapping, got NoneType$"),
    ], ids=["missing", "out-of-domain", "past-the-digit-limit", "no-mapping"])
    def test_bad_scenario(self, instance_b, scenario, error, message):
        with pytest.raises(error, match=message):
            induced_assignment(instance_b, recourse_b(), scenario)

    def test_the_first_fault_in_variable_order_is_reported(self):
        inst = make_instance([("s1", "s", (0, 1), (0.5, 0.5)), ("s2", "s", (0, 1), (0.5, 0.5))])
        with pytest.raises(MissingAssignmentError, match="^scenario misses stochastic variable s1$"):
            induced_assignment(inst, first_policy(inst), {"s2": 7})

    def test_node_past_the_last_variable(self, instance_b):
        bad = ChanceNode("s", (DecisionNode("x", 0, Leaf()),
                               DecisionNode("x", 1, DecisionNode("x", 0, Leaf()))))
        with pytest.raises(MalformedPolicyError,
                           match=r"^expected a leaf at depth 2, got DecisionNode"):
            induced_assignment(instance_b, bad, {"s": 1})


COIN_JSON = '{"kind": "chance", "variable": "s", "children": [{"kind": "leaf"}, {"kind": "leaf"}]}'
COIN = ChanceNode("s", (Leaf(), Leaf()))


def _decision_json(fields: str, child: str = COIN_JSON) -> str:
    return f'{{"kind": "decision", {fields}"child": {child}}}'


# each fault of a policy on instance a, as a file and as API nodes, and the one message for both
POLICY_FAULTS = {
    "bool": (_decision_json('"variable": "x", "value": true, '), DecisionNode("x", True, COIN),
             r"^decision x=True not in domain \(0, 1\)$"),
    "float": (_decision_json('"variable": "x", "value": 1.0, '), DecisionNode("x", 1.0, COIN),
              r"^decision x=1.0 not in domain \(0, 1\)$"),
    "out-of-domain": (_decision_json('"variable": "x", "value": 5, '), DecisionNode("x", 5, COIN),
                      r"^decision x=5 not in domain \(0, 1\)$"),
    "missing-variable": (_decision_json('"value": 0, '), DecisionNode(None, 0, COIN),
                         "^expected a decision node for x at depth 0, got DecisionNode"
                         r"\(variable=None, "),
    "wrong-variable": (_decision_json('"variable": "y", "value": 0, '), DecisionNode("y", 0, COIN),
                       "^expected a decision node for x at depth 0, got DecisionNode"
                       r"\(variable='y', "),
    "wrong-child-count": (
        _decision_json('"variable": "x", "value": 0, ',
                       '{"kind": "chance", "variable": "s", "children": [{"kind": "leaf"}]}'),
        DecisionNode("x", 0, ChanceNode("s", (Leaf(),))),
        "^chance node for s has 1 children, domain has 2$"),
    "empty-children": (
        _decision_json('"variable": "x", "value": 0, ',
                       '{"kind": "chance", "variable": "s", "children": []}'),
        DecisionNode("x", 0, ChanceNode("s", ())),
        "^chance node for s has 0 children, domain has 2$"),
    "leaf-too-early": (_decision_json('"variable": "x", "value": 0, ', '{"kind": "leaf"}'),
                       DecisionNode("x", 0, Leaf()),
                       r"^expected a chance node for s at depth 1, got Leaf\(\)$"),
    "past-depth-n": (
        _decision_json('"variable": "x", "value": 0, ',
                       '{"kind": "chance", "variable": "s", "children": ['
                       + _decision_json('"variable": "x", "value": 0, ', '{"kind": "leaf"}')
                       + ', {"kind": "leaf"}]}'),
        DecisionNode("x", 0, ChanceNode("s", (DecisionNode("x", 0, Leaf()), Leaf()))),
        "^expected a leaf at depth 2, got DecisionNode"),
}

WALKERS = (policy_satisfaction, sampled, induced)


def _refusal(walk, instance, policy):
    """The class and message a walk raises for a policy, or None if it accepts it."""
    try:
        walk(instance, policy)
    except MalformedPolicyError as e:
        return type(e), str(e)
    return None


class TestOneCheckOneAnswer:
    """_check_policy is the one check of a policy's values, for files and API nodes alike."""

    @pytest.mark.parametrize("fault", POLICY_FAULTS)
    def test_a_file_and_its_nodes_get_one_answer(self, fault, instance_a):
        text, nodes, message = POLICY_FAULTS[fault]
        parsed = parse_policy(text)
        for walk in WALKERS:
            answer = _refusal(walk, instance_a, nodes)
            assert answer is not None and re.search(message, answer[1])
            assert _refusal(walk, instance_a, parsed) == answer

    @pytest.mark.parametrize("children, kind", [
        (lambda: None, "NoneType"), (lambda: 2, "int"),
        (lambda: (Leaf() for _ in range(2)), "generator"), (lambda: "ab", "str"),
        (lambda: {0: Leaf(), 1: Leaf()}, "dict"),
    ], ids=["none", "int", "generator", "str", "dict"])
    def test_children_must_be_a_tuple_or_list(self, children, kind, instance_a):
        message = f"^chance node for s: children must be a tuple or list, got {kind}$"
        for walk in (*WALKERS, lambda _, policy: serialize_policy(policy)):
            with pytest.raises(MalformedPolicyError, match=message):
                walk(instance_a, DecisionNode("x", 0, ChanceNode("s", children())))

    def test_list_children_are_read_as_a_tuple(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", [Leaf(), Leaf()]))
        assert [walk(instance_a, policy) for walk in WALKERS] == \
            [walk(instance_a, rigid_a(0)) for walk in WALKERS]

    def test_a_round_trip_keeps_the_verdict(self):
        rng = random.Random(61)
        verdicts = set()
        for _ in range(200):
            inst = random_instance(rng)
            policy = random_policy(rng, inst, extra=(True, False, 1.0))
            answer = _refusal(policy_satisfaction, inst, policy)
            again = parse_policy(serialize_policy(policy))
            assert _refusal(policy_satisfaction, inst, again) == answer
            if answer is None:
                assert again == policy
            verdicts.add(answer is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0], ids=["true", "false", "1.0", "0.0"])
    def test_assignment_and_scenario_values_are_ints(self, value, instance_a):
        message = rf"^(x|s)={value!r} not in domain \(0, 1\)$"
        for check in (lambda: check_assignment(instance_a, {"x": value, "s": 0}),
                      lambda: check_assignment(instance_a, {"x": 0, "s": value}),
                      lambda: scenario_probability(instance_a, {"s": value}),
                      lambda: scenario_probability(instance_a, {"s": 0}, {"x": value}),
                      lambda: induced_assignment(instance_a, rigid_a(0), {"s": value})):
            with pytest.raises(OutOfDomainValueError, match=message):
                check()


@pytest.mark.parametrize("call", [
    lambda: monte_carlo_policy_eval("x", Leaf(), 10, 1),
    lambda: restricted_tree_bounds("x", epsilon=0.1),
    lambda: most_probable_scenario_policy("x"),
    lambda: bt_max("x"),
    lambda: fc_decide("x"),
    lambda: policy_satisfaction("x", Leaf()),
    lambda: policy_expected_value("x", Leaf()),
    lambda: optimize_expected("x"),
    lambda: optimize_chance_constrained("x", 0.5),
], ids=["monte-carlo", "bounds", "heuristic", "bt-max", "fc-decide", "satisfaction",
        "expected-value", "optimize-expected", "optimize-chance-constrained"])
def test_a_non_instance_raises_a_typed_error(call):
    # each entry checks its instance before it reads one
    with pytest.raises(InstanceValidationError, match="^not an Instance: str$"):
        call()


class TestEnumeration:
    def test_unconditional_decision_has_two_policies(self, instance_a):
        assert instance_a.policy_count == 2
        assert len(list(enumerate_policies(instance_a))) == 2

    def test_observed_branch_squares_the_choices(self, instance_b):
        assert instance_b.policy_count == 4
        assert len(list(enumerate_policies(instance_b))) == 4

    def test_three_choices_in_two_branches(self):
        inst = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)),
             ("x", "d", (0, 1, 2)),
             ("s2", "s", (0, 1), (0.5, 0.5))])
        assert inst.policy_count == 9
        assert len(list(enumerate_policies(inst))) == 9

    def test_policies_are_distinct(self):
        rng = random.Random(31)
        for _ in range(15):
            inst = random_instance(rng, max_vars=4)
            # frozen nodes hash and compare as trees
            seen = set(enumerate_policies(inst))
            assert len(seen) == inst.policy_count

    def test_cap_is_enforced(self, instance_b):
        with pytest.raises(OracleCapExceededError) as info:
            list(enumerate_policies(instance_b, cap=3))
        assert info.value.policy_count == 4

    def test_cap_check_stops_counting_past_the_cap(self):
        # x0, s1, x2, ...: 16,384 bits of policy count, too many digits to print
        inst = make_instance([(f"x{i}", "d", (0, 1)) if i % 2 == 0
                              else (f"s{i}", "s", (0, 1), (0.5, 0.5)) for i in range(28)])
        start = time.perf_counter()
        with pytest.raises(OracleCapExceededError,
                           match=r"^instance has more than 1000000 policies, the oracle cap$"):
            enumerate_policies(inst)
        assert time.perf_counter() - start < 1.0

    def test_policy_count_stops_past_the_oracle_cap(self):
        # exact below the cap; counted from s47 up, the count first passes
        # 10**6 at s39: 2**30, where the whole count has 2**24 bits
        assert alternating(8).policy_count == 2 ** 15
        assert alternating(48).policy_count == 2 ** 30

    def test_cap_past_the_digit_limit(self, instance_b):
        with pytest.raises(OracleCapExceededError,
                           match="^instance has more policies than the oracle cap$"):
            oracle_max_satisfaction(instance_b, cap=-10**5000)

    def test_empty_instance_has_one_policy(self):
        inst = make_instance([])
        assert inst.policy_count == 1
        assert list(enumerate_policies(inst, cap=1)) == [Leaf()]
        with pytest.raises(OracleCapExceededError):
            enumerate_policies(inst, cap=0)


class TestOracle:
    def test_instance_a(self, instance_a):
        assert oracle_max_satisfaction(instance_a).probability == pytest.approx(0.5)

    def test_instance_b(self, instance_b):
        assert oracle_max_satisfaction(instance_b).probability == pytest.approx(1.0)

    def test_instance_c(self, instance_c):
        assert oracle_max_satisfaction(instance_c).probability == pytest.approx(0.5)

    def test_argmax_ties_break_to_first_enumerated(self, instance_a):
        # both rigid policies score 0.5; enumeration starts at x=0
        assert oracle_max_satisfaction(instance_a).policy == rigid_a(0)

    def test_satisfiable_at_its_threshold(self, instance_a):
        assert is_satisfiable_oracle(instance_a) is True

    def test_not_satisfiable_above_the_maximum(self, instance_a):
        assert is_satisfiable_oracle(instance_a, theta=0.6) is False

    @pytest.mark.parametrize("theta", [1.5, -0.5, float("nan"), 10**400],
                             ids=["1.5", "-0.5", "nan", "10**400"])
    def test_theta_outside_the_unit_interval(self, instances_dir, theta):
        inst = load_instance(instances_dir / "objective.scsp")
        with pytest.raises(ThetaOutOfRangeError):
            is_satisfiable_oracle(inst, theta=theta)

    def test_theta_zero_is_always_satisfiable(self):
        rng = random.Random(5)
        for _ in range(10):
            assert is_satisfiable_oracle(random_instance(rng), theta=0.0)

    def test_reported_policy_rescores_to_the_maximum(self):
        rng = random.Random(41)
        for _ in range(20):
            inst = random_instance(rng)
            got = oracle_max_satisfaction(inst)
            assert policy_satisfaction(inst, got.policy) == pytest.approx(
                got.probability, abs=TOL)


def test_first_policy_takes_first_domain_values(instance_a):
    assert first_policy(instance_a) == rigid_a(0)


def test_rigid_policy_table_shares_subtrees(instances_dir):
    def fresh(inst, depth):  # one tree per depth, built from the definition
        tree = Leaf()
        for var in reversed(inst.variables[depth:]):
            if var.kind == "decision":
                tree = DecisionNode(var.name, var.domain[0], tree)
            else:
                tree = ChanceNode(var.name, (tree,) * len(var.domain))
        return tree

    for path in sorted(instances_dir.glob("*.scsp")):
        inst = load_instance(path)
        table = _rigid_policies(inst)
        assert len(table) == inst.n + 1
        assert table[0] == first_policy(inst)
        for depth, tree in enumerate(table):
            assert tree == fresh(inst, depth)
        for tree, below in zip(table, table[1:]):
            children = tree.children if isinstance(tree, ChanceNode) else (tree.child,)
            assert all(child is below for child in children)


def test_walkers_import_nothing_from_the_search():
    # layers: model -> semantics -> {solver, approx, extensions} -> cli
    for name in ("semantics", "approx", "extensions"):
        tree = ast.parse((Path(stocs.__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "solver" for m in modules), (name, node.lineno)
