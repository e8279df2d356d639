import math
import random
import struct
import sys
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, islice
from operator import length_hint

import pytest

from gen import (
    inventory_instance,
    random_cpt_instance,
    random_instance,
    random_linear_instance,
    random_policy,
)
from stocs import (
    ChanceNode,
    ConditionalTable,
    DecisionNode,
    Leaf,
    SampleEstimate,
    approx,
    expr_constraint,
    fc_max,
    monte_carlo_policy_eval,
    most_probable_scenario_policy,
    oracle_max_satisfaction,
    policy_satisfaction,
    restricted_tree_bounds,
    semantics,
    serialize_policy,
)
from stocs.errors import (
    BadEpsilonError,
    BadKError,
    BadSampleCountError,
    MalformedPolicyError,
    NoHeuristicPolicyError,
    StocsError,
)
from stocs.model import CompiledConstraint
from conftest import make_instance

TOL = 1e-9


class TestRestrictedTreeBounds:
    def test_epsilon_zero_collapses_to_the_exact_maximum(self, instance_a):
        got = restricted_tree_bounds(instance_a, epsilon=0.0)
        assert got.lb == pytest.approx(0.5, abs=TOL)
        assert got.ub == pytest.approx(0.5, abs=TOL)

    def test_dropped_branch_widens_the_interval(self):
        inst = make_instance(
            [("s", "s", (0, 1, 2), (0.6, 0.3, 0.1)), ("x", "d", (0, 1))],
            [expr_constraint("x = s")])
        got = restricted_tree_bounds(inst, epsilon=0.2)
        assert got.lb == pytest.approx(0.9, abs=TOL)
        assert got.ub == pytest.approx(1.0, abs=TOL)
        # the skipped 0.1 branch is exactly the looseness: true max is 0.9
        assert oracle_max_satisfaction(inst).probability == pytest.approx(0.9)

    def test_epsilon_one_degenerates_to_vacuity(self, instance_a):
        got = restricted_tree_bounds(instance_a, epsilon=1.0)
        assert got.lb == 0.0
        assert got.ub == 1.0

    def test_exactly_one_mode_must_be_given(self, instance_a):
        with pytest.raises(BadEpsilonError):
            restricted_tree_bounds(instance_a)
        with pytest.raises(BadEpsilonError):
            restricted_tree_bounds(instance_a, epsilon=0.1, top_k=2)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.1, float("nan"), "abc", 10**400, [0.1],
                                         True, False, "0.5", 1j, [10**5000]])
    def test_epsilon_range(self, instance_a, epsilon):
        with pytest.raises(BadEpsilonError):
            restricted_tree_bounds(instance_a, epsilon=epsilon)

    @pytest.mark.parametrize("k", [0, -3, True, 1.0, "2"])
    def test_k_must_be_positive(self, instance_a, k):
        with pytest.raises(BadKError):
            restricted_tree_bounds(instance_a, top_k=k)

    def test_k_past_the_digit_limit(self, instance_a):
        # Python prints at most 4,300 digits of an int: the message leaves it out
        with pytest.raises(BadKError, match="^top_k: an integer too long to print$"):
            restricted_tree_bounds(instance_a, top_k=-10**5000)

    def test_top_k_covering_the_domain_is_exact(self, fc_demo):
        got = restricted_tree_bounds(fc_demo, top_k=3)
        assert got.lb == pytest.approx(0.7, abs=TOL)
        assert got.ub == pytest.approx(0.7, abs=TOL)

    def test_top_one_keeps_the_heaviest_branch(self, fc_demo):
        got = restricted_tree_bounds(fc_demo, top_k=1)
        assert got.lb == pytest.approx(0.5, abs=TOL)
        assert got.ub == pytest.approx(1.0, abs=TOL)

    def test_top_k_ties_break_in_domain_order(self):
        inst = make_instance(
            [("s", "s", (0, 1, 2), (0.4, 0.4, 0.2)), ("x", "d", (0, 1, 2))],
            [expr_constraint("x = s")])
        got = restricted_tree_bounds(inst, top_k=1)
        # keeps s=0 (first of the tied pair): lb 0.4, ub 0.4 + 0.6
        assert got.lb == pytest.approx(0.4, abs=TOL)
        assert got.ub == pytest.approx(1.0, abs=TOL)

    def test_sandwich_and_monotone_in_epsilon(self):
        rng = random.Random(13)
        grid = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5]
        for _ in range(20):
            inst = random_instance(rng)
            exact = oracle_max_satisfaction(inst).probability
            intervals = [restricted_tree_bounds(inst, epsilon=e) for e in grid]
            for got in intervals:
                assert got.lb - TOL <= exact <= got.ub + TOL
                assert 0.0 <= got.lb <= got.ub <= 1.0
            for tight, loose in zip(intervals, intervals[1:]):
                assert loose.lb <= tight.lb + TOL
                assert loose.ub >= tight.ub - TOL


class TestMostProbableScenarioPolicy:
    def test_ties_pick_the_smallest_value(self, instance_a):
        got = most_probable_scenario_policy(instance_a)
        # pins s=0, so the deterministic core solves to x=0
        assert got.policy == DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        assert got.exact_satisfaction == pytest.approx(0.5)

    def test_rigid_policy_can_miss_the_recourse_maximum(self, instance_b):
        got = most_probable_scenario_policy(instance_b)
        assert got.exact_satisfaction == pytest.approx(0.5)
        assert oracle_max_satisfaction(instance_b).probability == pytest.approx(1.0)

    def test_unsatisfiable_core(self):
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x != x")])
        with pytest.raises(NoHeuristicPolicyError):
            most_probable_scenario_policy(inst)

    def test_self_consistent_and_below_the_maximum(self):
        rng = random.Random(37)
        for _ in range(25):
            inst = random_instance(rng)
            try:
                got = most_probable_scenario_policy(inst)
            except NoHeuristicPolicyError:
                continue
            rescored = policy_satisfaction(inst, got.policy)
            assert got.exact_satisfaction == pytest.approx(rescored, abs=TOL)
            best = oracle_max_satisfaction(inst).probability
            assert got.exact_satisfaction <= best + TOL

    def test_decision_parent_selects_the_row(self):
        cpt = ConditionalTable("s", ("x",), {(0,): (0.9, 0.1), (1,): (0.2, 0.8)})
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), cpt)],
            [expr_constraint("x = s")])
        got = most_probable_scenario_policy(inst)
        # x = 0 makes s = 0 likeliest, which meets x = s
        assert got.policy == DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        assert got.exact_satisfaction == 0.9

    @pytest.mark.parametrize("make", [random_instance, random_cpt_instance,
                                      random_linear_instance])
    def test_matches_pinning_first_without_decision_parents(self, make):
        rng = random.Random(41)
        compared = 0
        for _ in range(300):
            inst = make(rng)
            if any(inst.variables[inst.index_of[p]].kind == "decision"
                   for var in inst.variables if var.cpt is not None for p in var.cpt.parents):
                continue
            compared += 1
            got, want = (_heuristic_outcome(run, inst)
                         for run in (most_probable_scenario_policy, _pinned_then_backtracked))
            assert got == want
        assert compared >= 50  # the CPT family gives 76 of 300


def _heuristic_outcome(run, instance):
    try:
        got = run(instance)
    except StocsError as e:
        return type(e), str(e)
    return serialize_policy(got.policy), got.exact_satisfaction


def _pinned_then_backtracked(instance):
    """The heuristic in two passes: pin every stochastic variable to its
    likeliest value (the first of equals) given the values pinned before
    it, then backtrack over the decisions alone. Defined where no table has
    a decision parent."""
    pinned: list = [None] * instance.n
    for i, var in enumerate(instance.variables):
        if var.kind == "stochastic":
            best_q = -1.0
            for w, q in zip(var.domain, instance.distribution(i, pinned)):
                if q > best_q:
                    best_q, pinned[i] = q, w
    env: list = [None] * instance.n
    if instance.constant_false:
        raise NoHeuristicPolicyError("a constant constraint is false")

    def solve(depth):
        if depth == instance.n:
            return True
        var, test = instance.variables[depth], instance.check_at[depth]
        for w in var.domain if var.kind == "decision" else (pinned[depth],):
            env[depth] = w
            if (test is None or test(env)) and solve(depth + 1):
                return True
        return False

    if not solve(0):
        raise NoHeuristicPolicyError("the most probable scenario admits no satisfying decisions")
    policy = semantics._rigid_policies(instance, env)[0]
    return approx.HeuristicPolicy(policy, policy_satisfaction(instance, policy))


class TestMonteCarlo:
    def test_sure_policy_estimates_one(self, instance_b):
        policy = ChanceNode("s", (DecisionNode("x", 0, Leaf()),
                                  DecisionNode("x", 1, Leaf())))
        got = monte_carlo_policy_eval(instance_b, policy, 500, seed=1)
        assert got.estimate == 1.0
        assert got.ci_high == 1.0

    def test_hopeless_policy_estimates_zero(self):
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x != x")])
        got = monte_carlo_policy_eval(
            inst, DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf()))),
            500, seed=1)
        assert got.estimate == 0.0
        assert got.ci_low == 0.0

    def test_same_seed_reproduces_bit_identical_estimates(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        first = monte_carlo_policy_eval(instance_a, policy, 2000, seed=99)
        second = monte_carlo_policy_eval(instance_a, policy, 2000, seed=99)
        assert first == second

    def test_interval_orders_and_brackets(self):
        rng = random.Random(43)
        for _ in range(15):
            inst = random_instance(rng)
            policy = random_policy(rng, inst)
            got = monte_carlo_policy_eval(inst, policy, 400, seed=7)
            assert 0.0 <= got.ci_low <= got.estimate <= got.ci_high <= 1.0
            assert got.n == 400

    def test_estimates_concentrate_near_the_exact_value(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        hits = sum(
            abs(monte_carlo_policy_eval(instance_a, policy, 10000,
                                        seed=seed).estimate - 0.5) <= 0.02
            for seed in range(100))
        assert hits >= 95

    def test_conditional_distributions_are_sampled(self):
        cpt = ConditionalTable("s2", ("s1",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        inst = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)),
             ("x", "d", (0, 1)),
             ("s2", "s", (0, 1), cpt)],
            [expr_constraint("x = s2")])
        # matching x to s1 matches s2 with certainty
        policy = ChanceNode("s1", (
            DecisionNode("x", 0, ChanceNode("s2", (Leaf(), Leaf()))),
            DecisionNode("x", 1, ChanceNode("s2", (Leaf(), Leaf()))),
        ))
        got = monte_carlo_policy_eval(inst, policy, 300, seed=5)
        assert got.estimate == 1.0

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_count_must_be_positive(self, instance_a, n):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        with pytest.raises(BadSampleCountError):
            monte_carlo_policy_eval(instance_a, policy, n, seed=1)

    def test_sample_count_past_the_digit_limit(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        with pytest.raises(BadSampleCountError,
                           match="^sample count: an integer too long to print$"):
            monte_carlo_policy_eval(instance_a, policy, -10**5000, seed=1)

    @pytest.mark.parametrize("seed", ["x", None, 1.7, 1.0, True, False, "1", [10**5000]])
    def test_seed_must_be_an_int(self, instance_a, seed):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        with pytest.raises(StocsError, match="seed"):
            monte_carlo_policy_eval(instance_a, policy, 10, seed=seed)

    def test_negative_seed_reduces_mod_2_64(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        got = monte_carlo_policy_eval(instance_a, policy, 50, seed=-1)
        assert got.seed == 18446744073709551615
        assert got == monte_carlo_policy_eval(instance_a, policy, 50, seed=2 ** 64 - 1)


def _cpt_case():
    cpt = ConditionalTable("s2", ("s1",), {(0,): (0.7, 0.2, 0.1), (1,): (0.1, 0.3, 0.6),
                                           (2,): (0.25, 0.25, 0.5)})
    inst = make_instance(
        [("s1", "s", (0, 1, 2), (0.5, 0.3, 0.2)), ("x", "d", (0, 1, 2)),
         ("s2", "s", (0, 1, 2), cpt)],
        [expr_constraint("x = s2 or x + s1 = 3")])
    return inst, fc_max(inst).policy


def _zero_case():
    # zero mass on the first s1 value and on the last s2 value: no sample
    # walks the branch behind s1 = 0 (x = 2) or s2 = 2
    inst = make_instance(
        [("s1", "s", (0, 1, 2), (0.0, 0.3, 0.7)), ("x", "d", (0, 1, 2)),
         ("s2", "s", (0, 1, 2), (0.25, 0.75, 0.0))],
        [expr_constraint("x = s2")])
    tail = ChanceNode("s2", (Leaf(), Leaf(), Leaf()))
    policy = ChanceNode("s1", (DecisionNode("x", 2, tail),
                               DecisionNode("x", 0, tail), DecisionNode("x", 1, tail)))
    return inst, policy


def _shared_case():
    # fc_max fills dead branches with one shared default subtree
    inst = inventory_instance(3)
    return inst, fc_max(inst).policy


def _chance_paths(instance, node, depth=0):
    """Chance nodes counted once per path from the root, and once per object."""
    if depth == instance.n:
        return 0, set()
    if isinstance(node, DecisionNode):
        return _chance_paths(instance, node.child, depth + 1)
    paths, ids = 1, {id(node)}
    for child in node.children:
        more, more_ids = _chance_paths(instance, child, depth + 1)
        paths += more
        ids |= more_ids
    return paths, ids


def _keyed_states(instance, node, depth=0, env=None, ok=True, out=None):
    """The (chance node, key, ok) triples that the paths from the root reach;
    the key is the whole prefix where the depth has none (in this helper's
    cases, only above the first keyed chance depth)."""
    env = [None] * instance.n if env is None else env
    out = set() if out is None else out
    if depth == instance.n:
        return out
    test = instance.check_at[depth]
    if isinstance(node, DecisionNode):
        env[depth] = node.chosen_value
        ok = ok and (test is None or test(env))
        return _keyed_states(instance, node.child, depth + 1, env, ok, out)
    get = instance.key_at[depth]
    out.add((id(node), tuple(env[:depth]) if get is None else get(env), ok))
    for value, child in zip(instance.variables[depth].domain, node.children):
        env[depth] = value
        branch_ok = ok and (test is None or test(env))
        _keyed_states(instance, child, depth + 1, env, branch_ok, out)
    env[depth] = None
    return out


def _record_grown(monkeypatch):
    """Record the (depth, value index) of every branch the sampler builds."""
    grown = []
    grow = approx._PathTrie.grow

    def recording(trie, state, i):
        grown.append((state.depth, i))
        return grow(trie, state, i)

    monkeypatch.setattr(approx._PathTrie, "grow", recording)
    return grown


class TestSampledWalkGoldens:
    """Estimates pinned bit for bit; they predate the per-path compiled walk."""

    @pytest.mark.parametrize("case, n, seed, want", [
        (_cpt_case, 1000, 3, (0.859, 0.8360535139205308, 0.8791988734436608)),
        (_cpt_case, 2500, 2 ** 64 + 11, (0.86, 0.8458452567781073, 0.8730501004400096)),
        (_zero_case, 1000, 3, (0.607, 0.5763739066807299, 0.6368071669904916)),
        (_zero_case, 2500, 2 ** 64 + 11, (0.5856, 0.5661727654447772, 0.6047645750493083)),
        (_zero_case, 1, 3, (0.0, 0.0, 0.7934506882081973)),
        (_zero_case, 1, 2, (1.0, 0.2065493117918027, 1.0)),
        (_shared_case, 1000, 3, (0.916, 0.8971749504561966, 0.9316411864337859)),
        (_shared_case, 2500, 2 ** 64 + 11, (0.9272, 0.9163470257984593, 0.9367421314337062)),
        (_shared_case, 1, 4, (0.0, 0.0, 0.7934506882081973)),
        (_shared_case, 1, 5, (1.0, 0.2065493117918027, 1.0)),
    ])
    def test_estimate_is_bit_identical(self, case, n, seed, want):
        inst, policy = case()
        got = monte_carlo_policy_eval(inst, policy, n, seed)
        assert got == SampleEstimate(want[0], n, want[1], want[2], seed & (2 ** 64 - 1))

    @pytest.mark.parametrize("n, seed", [(1000, 3), (2500, 2 ** 64 + 11)])
    def test_zero_case_never_walks_a_zero_mass_branch(self, monkeypatch, n, seed):
        grown = _record_grown(monkeypatch)
        monte_carlo_policy_eval(*_zero_case(), n, seed)
        assert {(0, 1), (0, 2), (2, 0), (2, 1)} <= set(grown)
        assert (0, 0) not in grown and (2, 2) not in grown

    def test_shared_case_really_shares_subtrees(self):
        inst, policy = _shared_case()
        paths, ids = _chance_paths(inst, policy)
        assert len(ids) < paths


class TestSampledWalkTrie:
    def test_malformed_node_below_a_violated_constraint_still_raises(self):
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5)), ("y", "d", (0, 1))],
            [expr_constraint("x = 1")])
        # x = 0 violates the constraint at depth 0; the check covers what is below
        policy = DecisionNode("x", 0, ChanceNode("s", (DecisionNode("y", 0, Leaf()),
                                                       DecisionNode("y", 5, Leaf()))))
        with pytest.raises(MalformedPolicyError,
                           match=r"^decision y=5 not in domain \(0, 1\)$"):
            monte_carlo_policy_eval(inst, policy, 200, seed=1)

    @pytest.mark.parametrize("case", [_cpt_case, _zero_case, _shared_case])
    def test_states_never_exceed_the_chance_paths(self, case):
        inst, policy = case()
        one = approx._PathTrie(inst, policy)
        one.wins(1, 9)
        # one sample walks one path: a state per stochastic variable
        assert one.states == len(inst.stochastic_indices)
        many = approx._PathTrie(inst, policy)
        many.wins(4000, 9)
        paths, _ = _chance_paths(inst, policy)
        assert many.states <= paths

    def test_shared_subtrees_get_one_state_per_node_key_and_ok(self):
        inst, policy = _shared_case()
        trie = approx._PathTrie(inst, policy)
        trie.wins(4000, 9)
        paths, _ = _chance_paths(inst, policy)
        # every path of this policy has positive probability and gets sampled
        assert trie.states == len(_keyed_states(inst, policy)) < paths

    def test_a_failed_path_gets_its_own_state(self):
        # both values of s1 reach the shared s2 node with one key, ()
        inst = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)), ("s2", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("s1 = 0")])
        shared = ChanceNode("s2", (Leaf(), Leaf()))
        policy = ChanceNode("s1", (shared, shared))
        assert inst.key_at[1]([0, None]) == inst.key_at[1]([1, None]) == ()
        trie = approx._PathTrie(inst, policy)
        assert trie.wins(400, 5) == _reference_wins(inst, policy, 400, 5)
        assert trie.states == 3

    def test_largest_draw_takes_the_last_positive_value(self):
        # the probabilities add up to 0.9999999999999999, so the largest draws
        # fall in the rounding gap past the total
        probs = (0.7, 0.2, 0.1, 0.0)
        assert math.ceil(list(accumulate(probs))[-1] * 2 ** 53) == 2 ** 53 - 1
        inst = make_instance(
            [("s", "s", (0, 1, 2, 3), probs), ("x", "d", (0, 1, 2, 3))],
            [expr_constraint("x = s")])
        policy = ChanceNode("s", tuple(DecisionNode("x", v, Leaf()) for v in (0, 1, 2, 3)))
        trie = approx._PathTrie(inst, policy)
        state, _ = trie.root
        i = bisect_right(state.cum, 2 ** 53 - 1)
        assert i == 2  # s = 2, not the zero-mass s = 3
        branch = trie.grow(state, i)
        assert branch == (None, True)
        assert state.branches == [None, None, branch, None]


MASK64 = 2 ** 64 - 1
CHUNK = approx._CHUNK


def _splitmix64(seed):
    """Scalar splitmix64: the words 1, 2, ... from ``seed``, one at a time."""
    word = seed
    while True:
        word = (word + 0x9E3779B97F4A7C15) & MASK64
        z = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def _reference_wins(instance, policy, n, seed):
    """The sampler's spec as a plain per-sample loop: one scalar word per
    stochastic variable in variable order, u = (word >> 11) * 2**-53, the
    first value whose cumulative probability exceeds u, or the last value
    of positive probability when u is past the total."""
    words = _splitmix64(seed)
    wins = 0
    for _ in range(n):
        env = [None] * instance.n
        node = policy
        for depth, var in enumerate(instance.variables):
            if var.kind == "decision":
                env[depth] = node.chosen_value
                node = node.child
                continue
            probs = instance.distribution(depth, env)
            u = (next(words) >> 11) * 2.0 ** -53
            i = next((k for k, c in enumerate(accumulate(probs)) if c > u),
                     max(k for k, q in enumerate(probs) if q > 0.0))
            env[depth] = var.domain[i]
            node = node.children[i]
        wins += all(c.fn(env) for c in instance.compiled)
    return wins


class TestBatchedDraws:
    @pytest.mark.parametrize("seed", [0, 5, MASK64])
    @pytest.mark.parametrize("total", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_draws_match_scalar_splitmix64(self, seed, total):
        # unpacked as the walk unpacks them: little-endian, a draw per lane
        batches = list(approx._words(seed, total, CHUNK))
        assert all(1 <= count <= CHUNK for count, _ in batches)
        got = [x for count, z in batches
               for x in struct.unpack("<" + "Q8x" * count, (z >> 11).to_bytes(16 * count, "little"))]
        want = [word >> 11 for word, _ in zip(_splitmix64(seed), range(total))]
        assert got == want

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_wins_match_the_per_sample_loop(self, monkeypatch, chunk):
        # small chunks make samples straddle batch boundaries
        if chunk is not None:
            monkeypatch.setattr(approx, "_CHUNK", chunk)
        rng = random.Random(61)
        cases = [_cpt_case(), _zero_case(), _shared_case()]
        for make in (random_instance, random_cpt_instance) * 6:
            inst = make(rng)
            cases.append((inst, random_policy(rng, inst)))
        for inst, policy in cases:
            for n, seed in ((1, 3), (250, 17), (301, MASK64)):
                assert (approx._PathTrie(inst, policy).wins(n, seed)
                        == _reference_wins(inst, policy, n, seed))

    def test_integer_thresholds_pick_what_u_picks(self):
        # near each threshold, bisecting the integer draw x picks the value
        # that bisecting u = x * 2**-53 into the probabilities picks
        probs = (0.1, 0.2, 0.3, 0.15, 0.25)
        inst = make_instance([("s", "s", tuple(range(5)), probs)])
        state, _ = approx._PathTrie(inst, ChanceNode("s", (Leaf(),) * 5)).root
        cum = list(accumulate(probs))
        for c in cum:
            for x in range(math.floor(c * 2 ** 53) - 2, math.ceil(c * 2 ** 53) + 3):
                assert bisect_right(state.cum, x) == bisect_right(cum, x * 2.0 ** -53)


def _count_chunks(monkeypatch):
    """Record the length of every batch of words the sampler mixes, whether
    it walks them draw by draw or counts them by class."""
    chunks = []
    words = approx._words

    def counted(*args):
        for count, z in words(*args):
            chunks.append(count)
            yield count, z

    monkeypatch.setattr(approx, "_words", counted)
    return chunks


# instance_b's recourse policy x = s: every sample satisfies
SURE_B = ChanceNode("s", (DecisionNode("x", 0, Leaf()), DecisionNode("x", 1, Leaf())))


def _hopeless_case():
    inst = make_instance(
        [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
        [expr_constraint("x != x")])
    return inst, DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))


class TestSettledStop:
    """Sampling stops after the first batch that leaves every reachable
    branch built and every leaf reached with one outcome."""

    def test_sure_and_hopeless_policies_draw_one_chunk(self, monkeypatch, instance_b):
        chunks = _count_chunks(monkeypatch)
        got = monte_carlo_policy_eval(instance_b, SURE_B, 10 ** 6, seed=1)
        assert (got.estimate, got.ci_high, chunks) == (1.0, 1.0, [CHUNK])
        chunks.clear()
        got = monte_carlo_policy_eval(*_hopeless_case(), 10 ** 6, seed=1)
        assert (got.estimate, got.ci_low, chunks) == (0.0, 0.0, [CHUNK])

    def test_a_sure_witness_stops_inside_its_batch(self, monkeypatch, instance_b):
        # the walk stops at the end of the sample that builds the last branch
        chunks = _count_chunks(monkeypatch)
        left = []
        walk = approx._PathTrie._walk_draws

        def recording(trie, draws):
            wins = walk(trie, draws)
            left.append(length_hint(draws))  # the batch's draws not walked
            return wins

        monkeypatch.setattr(approx._PathTrie, "_walk_draws", recording)
        n = 3 * CHUNK
        assert (approx._PathTrie(instance_b, SURE_B).wins(n, 1)
                == _reference_wins(instance_b, SURE_B, n, 1) == n)
        assert chunks == [CHUNK] and len(left) == 1 and left[0] > CHUNK // 2

    def test_mixed_outcomes_draw_every_chunk(self, monkeypatch):
        chunks = _count_chunks(monkeypatch)
        inst, policy = _shared_case()
        n = 5000
        wins = approx._PathTrie(inst, policy).wins(n, 3)
        assert 0 < wins < n
        assert sum(chunks) == n * len(inst.stochastic_indices)

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_sure_witnesses_match_the_per_sample_loop(self, monkeypatch, chunk):
        # small chunks make the stop fall inside a sample
        if chunk is not None:
            monkeypatch.setattr(approx, "_CHUNK", chunk)
        chunks = _count_chunks(monkeypatch)
        rng = random.Random(71)
        stopped = 0
        for make in (random_instance, random_cpt_instance) * 25:
            inst = make(rng)
            found = fc_max(inst)
            if found.probability != 1.0:
                continue
            for n, seed in ((1, 3), (250, 17), (301, MASK64), (4000, 5)):
                chunks.clear()
                assert (approx._PathTrie(inst, found.policy).wins(n, seed)
                        == _reference_wins(inst, found.policy, n, seed))
                stopped += sum(chunks) < n * len(inst.stochastic_indices)
        assert stopped >= 5

    @pytest.mark.parametrize("probs, i", [
        # 0.5 + 1e-300 rounds to 0.5, so s = 1 owns no u
        ((0.5, 1e-300, 0.5), 1),
        # the sum passes 1 within PROB_TOL, so s = 2 starts past every u
        ((0.5, 0.5, 1e-10), 2),
    ])
    def test_a_branch_no_draw_reaches_holds_no_stop_back(self, monkeypatch, probs, i):
        # the value has positive mass, but no sample walks its branch
        c = [0.0, *accumulate(probs)]
        assert probs[i] > 0.0 and c[i] >= min(c[i + 1], 1.0)
        inst = make_instance([("s", "s", (0, 1, 2), probs), ("x", "d", (0, 1))])
        policy = ChanceNode("s", tuple(DecisionNode("x", v, Leaf()) for v in (0, 1, 1)))
        chunks = _count_chunks(monkeypatch)
        grown = _record_grown(monkeypatch)
        got = monte_carlo_policy_eval(inst, policy, 10 ** 4, seed=2)
        assert got.estimate == _reference_wins(inst, policy, 10 ** 4, 2) / 10 ** 4 == 1.0
        assert chunks == [CHUNK]
        assert sorted(grown) == [(0, k) for k in range(3) if k != i]

    def test_sample_count_past_the_float_range(self, monkeypatch, instance_b):
        chunks = _count_chunks(monkeypatch)
        largest = int(sys.float_info.max)
        assert monte_carlo_policy_eval(instance_b, SURE_B, largest, seed=1).estimate == 1.0
        chunks.clear()
        for n in (largest + 1, 10 ** 400):
            with pytest.raises(BadSampleCountError, match="float range"):
                monte_carlo_policy_eval(instance_b, SURE_B, n, seed=1)
        assert chunks == []


def _record_counted(monkeypatch):
    """Record the word count of every batch the counting path classifies."""
    counted = []
    count = approx._PathTrie._count

    def recording(trie, counts, words, classes):
        counted.append(len(words) // 16)
        return count(trie, counts, words, classes)

    monkeypatch.setattr(approx._PathTrie, "_count", recording)
    return counted


THIRDS = (1 / 3, 1 / 3, 1 / 3)


def _table_case(probs):
    # recourse x = s, then a fair t: s > 0 or t = 1 wins, so both outcomes show
    values = tuple(range(len(probs)))
    inst = make_instance(
        [("s", "s", values, probs), ("x", "d", values), ("t", "s", (0, 1), (0.5, 0.5))],
        [expr_constraint("x = s and (s > 0 or t = 1)")])
    tail = ChanceNode("t", (Leaf(), Leaf()))
    return inst, ChanceNode("s", tuple(DecisionNode("x", v, tail) for v in values))


def _one_variable_case():
    inst = make_instance([("s", "s", (0, 1, 2), THIRDS)], [expr_constraint("s != 1")])
    return inst, ChanceNode("s", (Leaf(),) * 3)


def _many_rows_case(rows, gap_row=None, reached=2):
    # s1 puts mass on its first ``reached`` values only; s2's table has two
    # distinct thresholds per row, one for the row without a middle value
    def row(v):
        p = 0.1 + v / 1000
        return (p, 0.0, 1 - p) if v == gap_row else (p, 0.4, 0.6 - p)

    cpt = ConditionalTable("s2", ("s1",), {(v,): row(v) for v in range(rows)})
    inst = make_instance(
        [("s1", "s", tuple(range(rows)), (1 / reached,) * reached + (0.0,) * (rows - reached)),
         ("s2", "s", (0, 1, 2), cpt)],
        [expr_constraint("s2 != 2")])
    return inst, ChanceNode("s1", (ChanceNode("s2", (Leaf(),) * 3),) * rows)


def _complete_trie(inst, policy):
    """A trie whose sampling walk has built every branch some draw reaches."""
    trie = approx._PathTrie(inst, policy)
    trie.wins(3000, 3)
    assert trie.open == 0
    return trie


class TestCountingPath:
    """Once the trie is complete and its leaves show both outcomes, the
    remaining samples are counted by the intervals their draws fall in."""

    @pytest.mark.parametrize("probs", [
        (0.5, 0.5),  # the threshold 2**52 starts a top-byte bucket
        THIRDS,  # thresholds inside a bucket
        (0.7, 0.2, 0.1, 0.0),  # the draw 2**53 - 1 falls past the total
        (0.1, 0.2, 0.3, 0.15, 0.25),
    ])
    def test_class_tables_pick_what_bisecting_picks(self, probs):
        (table, lows, radix), (_, t_lows, t_radix) = \
            _complete_trie(*_table_case(probs))._classes(10 ** 9)
        assert (radix, t_radix) == (1, len(lows)) and len(t_lows) == 2
        cum = approx._cum(probs)
        probes = {0, 2 ** 53 - 1}
        for t in cum:
            probes |= {x for x in range(t - 2, t + 3) if 0 <= x < 2 ** 53}
            b = min(t >> 45, 255)
            probes |= {b << 45, ((b + 1) << 45) - 1}
        for x in probes:
            k = table[x >> 45]
            if k == approx._STRADDLE:
                k = bisect_right(lows, x) - 1
            assert bisect_right(cum, lows[k]) == bisect_right(cum, x), x
        assert (approx._STRADDLE in table) == (probs != (0.5, 0.5))
        if probs[-1] == 0.0:
            assert bisect_right(cum, lows[table[255]]) == 2

    @pytest.mark.parametrize("probs", [(0.5, 0.5), THIRDS, (0.7, 0.2, 0.1, 0.0)])
    def test_counts_match_the_per_sample_loop(self, monkeypatch, probs):
        counted = _record_counted(monkeypatch)
        inst, policy = _table_case(probs)
        m = len(inst.stochastic_indices)
        for n, seed in ((3000, 3), (4001, MASK64)):
            counted.clear()
            trie = approx._PathTrie(inst, policy)
            assert trie.wins(n, seed) == _reference_wins(inst, policy, n, seed)
            # the walk takes the first batches and the count the rest, in whole samples
            assert 0 < sum(counted) < n * m and all(c % m == 0 for c in counted)

    @pytest.mark.parametrize("case", [lambda: _table_case(THIRDS), _cpt_case, _shared_case])
    def test_counting_starts_at_the_sample_after_completion(self, monkeypatch, case):
        # the first counted slice is the rest of the first batch, in whole samples
        chunks = _count_chunks(monkeypatch)
        counted = _record_counted(monkeypatch)
        inst, policy = case()
        m = len(inst.stochastic_indices)
        for n, seed in ((3000, 3), (4001, MASK64)):
            chunks.clear()
            counted.clear()
            trie = approx._PathTrie(inst, policy)
            assert trie.wins(n, seed) == _reference_wins(inst, policy, n, seed)
            assert 0 < counted[0] < chunks[0] and counted[0] % m == 0
            assert counted[1:] == chunks[1:]

    def test_a_conditional_position_unites_its_rows(self, monkeypatch):
        counted = _record_counted(monkeypatch)
        inst, policy = _cpt_case()
        rows = inst.variables[2].cpt.rows.values()
        assert len({tuple(approx._cum(probs)) for probs in rows}) == 3
        _, (_, lows, _) = _complete_trie(inst, policy)._classes(10 ** 9)
        assert len(lows) == 7  # six distinct thresholds below 2**53
        for n, seed in ((3000, 3), (5000, 2 ** 64 + 11)):
            counted.clear()
            assert (approx._PathTrie(inst, policy).wins(n, seed)
                    == _reference_wins(inst, policy, n, seed & MASK64))
            assert counted

    def test_rows_no_draw_reaches_cut_no_intervals(self, monkeypatch):
        # s1 reaches 2 of s2's 127 rows: 4 thresholds and 5 intervals, not 255
        counted = _record_counted(monkeypatch)
        inst, policy = _many_rows_case(127)
        trie = approx._PathTrie(inst, policy)
        assert trie.wins(4000, 7) == _reference_wins(inst, policy, 4000, 7)
        assert counted
        (_, s1_lows, _), (_, s2_lows, _) = trie._classes(10 ** 9)
        assert (len(s1_lows), len(s2_lows)) == (2, 5)

    def test_a_full_count_table_is_scored_and_emptied(self, monkeypatch):
        # with room for two tuples, nearly every batch scores its table
        monkeypatch.setattr(semantics, "CACHE_ENTRIES", 2)
        counted = _record_counted(monkeypatch)
        scored = []
        score = approx._PathTrie._score
        monkeypatch.setattr(approx._PathTrie, "_score", lambda trie, counts, classes:
                            scored.append(len(counts)) or score(trie, counts, classes))
        inst, policy = _cpt_case()
        assert (approx._PathTrie(inst, policy).wins(3000, 3)
                == _reference_wins(inst, policy, 3000, 3))
        assert counted
        # every counted batch scores its full table, and the end scores the rest
        assert len(scored) == len(counted) + 1 and min(scored[:-1]) > 2

    @pytest.mark.parametrize("gap_row, counts", [(None, False), (126, True)])
    def test_more_than_254_intervals_keep_the_walk_by_draw(self, monkeypatch, gap_row, counts):
        # s1 reaches every row; 127 * 254 tuples need 129,032 remaining samples
        counted = _record_counted(monkeypatch)
        inst, policy = _many_rows_case(127, gap_row, reached=127)
        intervals = len({t for probs in inst.variables[1].cpt.rows.values()
                         for t in approx._cum(probs) if t < 2 ** 53}) + 1
        assert intervals == (254 if counts else 255)
        trie = approx._PathTrie(inst, policy)
        n = 140_000
        assert trie.wins(n, 7) == _reference_wins(inst, policy, n, 7)
        classes = trie._classes(4 * 127 * 254)
        assert bool(classes) == counts
        if counts:  # 32,258 tuples: each sample's index takes a 2-byte lane
            (_, lows, radix), = classes[1:]
            assert radix * len(lows) == 127 * 254
        # the trie is complete with both outcomes: only the limit decides
        assert (trie.open, len(trie.outcomes), bool(counted)) == (0, 2, counts)

    def test_rare_tuples_keep_the_walk_by_draw(self, monkeypatch):
        # 2 * 7 possible tuples: counting needs four remaining samples each
        counted = _record_counted(monkeypatch)
        inst, policy = _table_case((0.1, 0.2, 0.3, 0.05, 0.15, 0.1, 0.1))
        trie = _complete_trie(inst, policy)
        assert trie._classes(4 * 14) and not trie._classes(4 * 14 - 1)
        # seed 1's stream completes the trie at its sample ``done``
        counted.clear()
        approx._PathTrie(inst, policy).wins(CHUNK, 1)
        done = CHUNK - sum(counted) // 2
        for n, want in ((done + 55, False), (done + 56, True)):
            counted.clear()
            trie = approx._PathTrie(inst, policy)
            assert trie.wins(n, 1) == _reference_wins(inst, policy, n, 1)
            assert (trie.open, bool(counted)) == (0, want)

    def test_four_byte_lanes_count_what_the_walk_counts(self):
        # 41 ** 3 = 68,921 tuples pass 2**16, so each sample's index takes a
        # 4-byte lane; the thresholds k / 41 fall inside top bytes
        values = tuple(range(41))
        inst = make_instance([(f"s{j}", "s", values, (1 / 41,) * 41) for j in range(3)],
                             [expr_constraint("s2 != 0")])
        policy = ChanceNode("s0", (ChanceNode("s1", (ChanceNode("s2", (Leaf(),) * 41),) * 41),) * 41)
        trie = _complete_trie(inst, policy)
        # counting needs four samples per tuple, so the classes are built for
        # a stream that long and applied to a short one
        classes = trie._classes(4 * 41 ** 3)
        assert [radix for _, _, radix in classes] == [1, 41, 41 ** 2]
        assert all(approx._STRADDLE in table for table, _, _ in classes)
        n = 1500
        for seed in (5, MASK64):
            counts = Counter()
            for count, z in approx._words(seed, 3 * n, 3 * 200):
                trie._count(counts, z.to_bytes(16 * count, "little"), classes)
            assert sum(counts.values()) == n and max(counts) > 2 ** 16
            assert trie._score(counts, classes) == _reference_wins(inst, policy, n, seed)

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_samples_past_a_whole_batch_match_the_per_sample_loop(self, monkeypatch, chunk):
        # n * m is no multiple of the batch, and at 1 and 2 the inventory
        # case's samples are longer than _CHUNK, so a batch holds one sample
        if chunk is not None:
            monkeypatch.setattr(approx, "_CHUNK", chunk)
        counted = _record_counted(monkeypatch)
        for case in (_one_variable_case, lambda: _table_case(THIRDS), _cpt_case, _shared_case):
            inst, policy = case()
            for n, seed in ((2999, 5), (3001, 17)):
                counted.clear()
                assert (approx._PathTrie(inst, policy).wins(n, seed)
                        == _reference_wins(inst, policy, n, seed))
                assert counted

    @pytest.mark.parametrize("width", [1, 3, CHUNK - 1, CHUNK])
    def test_words_at_any_width_and_start_match_scalar_splitmix64(self, width):
        # the stream starts at word 1, and each batch where the last one ended
        seed, total = 5, 2 * width + 3
        got = []
        for count, z in approx._words(seed, total, width):
            assert count <= width
            raw = z.to_bytes(16 * count, "little")
            got += [int.from_bytes(raw[16 * k:16 * k + 8], "little") for k in range(count)]
        assert got == list(islice(_splitmix64(seed), total))


def test_constant_constraint_runs_once_per_instance():
    # four built leaves, two sampling runs and every other walker: one call
    inst = make_instance([("s0", "s", (0, 1), (0.5, 0.5)), ("s1", "s", (0, 1), (0.5, 0.5)),
                          ("x", "d", (0, 1))], [expr_constraint("1 = 1")])
    calls = []

    def counted(fn):
        def counting(env):
            calls.append(1)
            return fn(env)
        return counting

    inst.__dict__["compiled"] = tuple(
        CompiledConstraint(c.source, c.scope_idx, c.last_idx, c.second_last_idx, counted(c.fn))
        for c in inst.compiled)
    policy = ChanceNode("s0", tuple(ChanceNode("s1", (DecisionNode("x", 0, Leaf()),) * 2)
                                    for _ in range(2)))
    for seed in (1, 2):
        assert monte_carlo_policy_eval(inst, policy, 1000, seed).estimate == 1.0
    assert len(calls) == 1
    assert policy_satisfaction(inst, policy) == 1.0
    assert fc_max(inst).probability == 1.0
    assert restricted_tree_bounds(inst, epsilon=0.0) == approx.Interval(1.0, 1.0)
    assert most_probable_scenario_policy(inst).exact_satisfaction == 1.0
    assert len(calls) == 1
