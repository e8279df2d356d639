"""The objective walks of ``extensions`` against the walks they replaced
(``optimize_reference.py``) and against exact rationals (``exact.py``).

The corpus is the generated part of ``search_corpus.instances()`` (gen.py's
random, CPT and linear families), ``inventory_instance(2..5)`` and
``coin_chain(4..16)``, each under a linear objective, ``10 * (x = s)`` and
``0 - (x + y) + 3 * (x = 1)`` (x a decision, s a stochastic variable), and,
for the linear family, its own objective; each objective once with a
violation value below, inside and above its range.

Float results are judged in units in the last place of ``max(|exact|, M)``,
M the largest magnitude among the violation value and the ends of the
objective's interval range: each leaf scores at most M, and an expectation
of such leaves can lose about that much to each rounding whatever its own
size. Over this corpus and three times as many gen instances the frontier
walks and the walks they replaced both stayed under 3.5 such ulps, so
``ULPS`` = 8 leaves room for longer sums without hiding a lost term, which
costs at least the probability of a leaf times its value.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest

import optimize_reference as reference
from conftest import make_instance, same_tree
from exact import exact_max_satisfaction, exact_optimum, exact_policy_value, ulps
from gen import (
    inventory_instance,
    random_cpt_instance,
    random_instance,
    random_linear_instance,
    random_policy,
)
from search_corpus import instances
from stocs import (
    PROB_TOL,
    ChanceNode,
    DecisionNode,
    Instance,
    Objective,
    bt_decide,
    bt_max,
    expr_constraint,
    fc_decide,
    fc_max,
    optimize_chance_constrained,
    optimize_expected,
    parse_expression,
    policy_expected_value,
    policy_satisfaction,
    validate_instance,
)
from stocs.errors import FrontierCapExceededError, InstanceValidationError, NoFeasiblePolicyError
from stocs.expr import interval_range
from stocs.semantics import LEAF
from test_extensions import coin_chain

ULPS = 8


def _objectives(inst, rng):
    names = [v.name for v in inst.variables]
    decisions = [v.name for v in inst.variables if v.kind == "decision"] or names
    chances = [v.name for v in inst.variables if v.kind == "stochastic"] or names
    x, y = (decisions + names)[:2]
    terms = [f"{rng.choice((1, 2, -1, -3))} * {name}" for name in rng.sample(names, min(3, len(names)))]
    texts = [" + ".join(terms), f"10 * ({x} = {chances[0]})", f"0 - ({x} + {y}) + 3 * ({x} = 1)"]
    own = [] if inst.objective is None else [inst.objective.expression]
    return own + [parse_expression(text) for text in texts]


def _corpus():
    rng = random.Random(31)
    named = [(name, inst) for name, inst, _ in instances()]
    named += [(f"coin-{n}", coin_chain(n)) for n in (4, 8, 12, 16)]
    for name, inst in named:
        for expression in _objectives(inst, rng):
            low, high = interval_range(expression, {v.name: v.domain for v in inst.variables})
            for violation in (low - 3, (low + high) / 2, high + 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a violation above the range warns
                    yield name, validate_instance(Instance(
                        inst.variables, inst.constraints, inst.theta,
                        Objective(expression, violation), inst.name)), max(
                            abs(violation), abs(low), abs(high))


CORPUS = list(_corpus())


def _close(value, want, scale) -> bool:
    """Whether two results lie within 2 * ULPS of each other: each within
    ULPS of the exact value."""
    return abs(value - want) <= 2 * ULPS * math.ulp(max(abs(want), scale))


def test_the_corpus_covers_every_family():
    families = {name.split("-")[0] for name, _, _ in CORPUS}
    assert families == {"random", "cpt", "linear", "inventory", "coin"}
    assert len(CORPUS) > 1000


def test_optimize_expected_matches_the_objective_keyed_walk():
    ties = 0
    for name, inst, scale in CORPUS:
        got, want = optimize_expected(inst), reference.optimize_expected(inst)
        assert got.satisfaction == policy_satisfaction(inst, got.policy), name
        assert _close(got.expected_value, want.expected_value, scale), name
        # the policy re-scores to the value reported, by the same arithmetic
        assert policy_expected_value(inst, got.policy) == got.expected_value, name
        assert _close(reference.policy_value(inst, got.policy), want.expected_value, scale), name
        ties += not same_tree(got.policy, want.policy)
    # a policy differs only where another policy reaches the same value
    assert ties < len(CORPUS) // 10


def test_policy_expected_value_matches_the_gain_form():
    rng = random.Random(37)
    for name, inst, scale in CORPUS[::3]:
        for policy in (fc_max(inst).policy, random_policy(rng, inst)):
            want = reference.policy_value(inst, policy)
            assert _close(policy_expected_value(inst, policy), want, scale), name


def test_values_and_witnesses_lie_within_the_bound_of_the_exact_values():
    worst = 0.0
    for name, inst, scale in CORPUS:
        if name.startswith(("inventory", "coin")):
            continue
        got = optimize_expected(inst)
        exact = exact_optimum(inst)
        # the policy is optimal: another can tie with it, but not beat it
        assert ulps(exact_policy_value(inst, got.policy), exact, scale) <= ULPS, name
        for value in (got.expected_value, policy_expected_value(inst, got.policy)):
            worst = max(worst, ulps(value, exact, scale))
            assert ulps(value, exact, scale) <= ULPS, name
    assert worst > 0.0  # the sums do round


def test_the_maximum_satisfaction_lies_within_the_bound_of_the_exact_one():
    for name, inst, _ in CORPUS[::9]:
        exact = exact_max_satisfaction(inst)
        for run in (bt_max, fc_max):
            assert ulps(run(inst).probability, exact, 1.0) <= ULPS, name


def test_decide_verdicts_follow_the_exact_maximum():
    # A verdict compares float sums with the float threshold theta - PROB_TOL,
    # and those sums lie within ULPS ulps of 1.0 of the exact maximum (the
    # test above), so a verdict may differ from `exact >= theta - PROB_TOL`
    # only where the exact maximum lies within that band of the threshold.
    # theta at x + PROB_TOL, x the maximum, puts that edge at the search's
    # rounding; x + k * PROB_TOL / 2 for the other k in 0..4 lie a half or a
    # whole tolerance to either side of it, so a tolerance read wider or
    # narrower fails. Over 300 instances of each family at three seeds, about 2% of
    # the runs disagreed, every one of them at x + PROB_TOL and within 0.25
    # ulps of 1.0 of the threshold: the band is the value bound, which the
    # data stays well inside, and a verdict wrong beyond it is a wrong search.
    runs = near = 0
    for make in (random_instance, random_cpt_instance, random_linear_instance):
        rng = random.Random(41)
        for _ in range(300):
            inst = make(rng)
            exact = exact_max_satisfaction(inst)
            x = float(exact)
            for theta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, *(x + k * PROB_TOL / 2 for k in range(5))):
                if theta > 1.0:
                    continue
                if ulps(theta - PROB_TOL, exact, 1.0) <= ULPS:
                    near += 1
                    continue
                for run in (bt_decide, fc_decide):
                    runs += 1
                    assert run(inst, theta).satisfiable == (exact >= theta - PROB_TOL), (
                        make.__name__, theta)
    assert runs > 12000 and near > 500  # theta at the edge for most instances


def test_chance_constrained_optimum_matches_policy_enumeration():
    ties = 0
    for name, inst, scale in CORPUS[::4]:
        if inst.policy_count > 2000:
            continue
        for theta in (0.3, 0.8):
            try:
                want = reference.optimize_chance_constrained(inst, theta, 2000)
            except NoFeasiblePolicyError:
                with pytest.raises(NoFeasiblePolicyError):
                    optimize_chance_constrained(inst, theta)
                continue
            got = optimize_chance_constrained(inst, theta)
            assert got.satisfaction == policy_satisfaction(inst, got.policy), name
            assert got.satisfaction >= theta - 1e-9, name
            assert _close(got.expected_value, want.expected_value, scale), name
            assert policy_expected_value(inst, got.policy) == got.expected_value, name
            ties += not same_tree(got.policy, want.policy)
    assert ties < len(CORPUS) // 10


def test_a_frontier_past_the_cap_is_a_typed_error():
    # 0 - (x1 + x2 + x3) trades production for satisfaction, so below
    # theta = 1 a frontier keeps points of several sizes
    base = inventory_instance(3)
    inst = validate_instance(Instance(base.variables, base.constraints, base.theta, Objective(
        parse_expression("0 - (x1 + x2 + x3)"), -3), base.name))
    cap = 1
    while True:
        try:
            got = optimize_chance_constrained(inst, theta=0.5, cap=cap)
            break
        except FrontierCapExceededError as error:
            assert error.size > error.cap == cap
            assert str(error) == f"a frontier holds {error.size} points, above the cap of {cap}"
            cap = error.size
    assert cap > 1
    assert got == optimize_chance_constrained(inst, theta=0.5)


@pytest.mark.parametrize("text", ["x * 1" + "0" * 400, "1" + "0" * 400 + " + x",
                                  "(x = s) * 1" + "0" * 400])
def test_an_objective_past_the_float_range_is_typed(text):
    inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                         [expr_constraint("x <= s")], objective=Objective(parse_expression(text)))
    policy = DecisionNode("x", 1, ChanceNode("s", (LEAF, LEAF)))  # x = s = 1 satisfies
    for run in (optimize_expected, optimize_chance_constrained,
                lambda inst: policy_expected_value(inst, policy)):
        with pytest.raises(InstanceValidationError, match="^objective: a value past the float range$"):
            run(inst)


@pytest.mark.parametrize("variables, constraint, text", [
    # x = 1 fails the constraint, so no leaf scores 10**309
    ([("x", "d", (0, 1))], "x = 0", "1" + "0" * 309 + " * x"),
    # s = 1 has probability 0
    ([("x", "d", (0, 1)), ("s", "s", (0, 1), (1.0, 0.0))], "x <= s", "1" + "0" * 309 + " * s"),
    # each term is in range, and no leaf reaches their sum
    ([("x", "d", (0, 1)), ("y", "d", (0, 1))], "x + y <= 1", "1" + "0" * 308 + " * (x + y)"),
], ids=["cut-by-a-constraint", "probability-0", "sum-of-terms"])
def test_a_value_no_walk_reaches_is_not_scored(variables, constraint, text):
    inst = make_instance(variables, [expr_constraint(constraint)],
                         objective=Objective(parse_expression(text)))
    want = reference.optimize_expected(inst)
    got = optimize_expected(inst)
    assert (got.expected_value, got.satisfaction) == (want.expected_value, want.satisfaction) == (
        float(want.expected_value), 1.0)
    assert policy_expected_value(inst, got.policy) == reference.policy_value(inst, got.policy)
    assert optimize_chance_constrained(inst, theta=1.0) == got


@pytest.mark.parametrize("violation", [-1000, -10 ** 6, 10 ** 6])
def test_a_mass_below_one_is_not_charged_the_violation_value(violation):
    # the probabilities sum to 1 - 5e-10, which validation accepts as given,
    # and every leaf satisfies, so the value is the objective's alone
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a violation above the range warns
        inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.4999999995))],
                             [expr_constraint("x + s <= 2")],
                             objective=Objective(parse_expression("x"), violation))
    exact = exact_optimum(inst)
    assert exact == Fraction(0.5) + Fraction(0.4999999995)
    for value in (optimize_expected(inst).expected_value,
                  optimize_chance_constrained(inst, theta=0.9).expected_value,
                  policy_expected_value(inst, optimize_expected(inst).policy),
                  reference.optimize_expected(inst).expected_value):
        assert ulps(value, exact, 1.0) <= ULPS
