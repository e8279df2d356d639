import itertools
import math
import random

import pytest

from gen import (
    inventory_instance,
    random_cpt_instance,
    random_instance,
    random_linear_instance,
    random_policy,
)
from stocs import (
    ConditionalTable,
    Constraint,
    DecisionNode,
    Leaf,
    Objective,
    PROB_TOL,
    PruneRules,
    bt_decide,
    bt_max,
    enumerate_policies,
    expr_constraint,
    fc_decide,
    fc_max,
    first_policy,
    is_satisfiable_oracle,
    load_instance,
    monte_carlo_policy_eval,
    most_probable_scenario_policy,
    optimize_chance_constrained,
    optimize_expected,
    oracle_max_satisfaction,
    parse_expression,
    policy_expected_value,
    policy_satisfaction,
    restricted_tree_bounds,
)
from stocs.errors import (
    InstanceTooDeepError,
    StocsError,
    ThetaOutOfRangeError,
)
from stocs import semantics, solver
from stocs.cli import main
from stocs.formats import dump_instance
from stocs.extensions import _split_objective
from stocs.solver import _Search
from conftest import make_instance, same_tree, uncached

TOL = 1e-9
ALL_RULES = [PruneRules(*bits) for bits in itertools.product((True, False), repeat=4)]


class _CheckedSearch(_Search):
    """A search that checks its forward-checking state on entering every
    subtree, where env[depth:] is still unassigned."""

    checks = 0

    def value(self, depth, lo=None, hi=1.0):
        self._check(depth)
        return super().value(depth, lo, hi)

    def _check(self, depth):
        self.checks += 1
        assert self.env[depth:] == [None] * (self.n - depth)
        for j, var in enumerate(self.inst.variables):
            live = self.live[j]
            full = tuple(range(len(var.domain)))
            assert isinstance(live, tuple) and set(live) <= set(full)
            assert list(live) == sorted(set(live))
            if self.use_mass and var.kind == "stochastic" and live != full:
                assert self.mass[j] == sum(var.probabilities[pos] for pos in live)
            else:
                assert self.mass[j] == 1.0


class TestMaxMode:
    def test_known_maxima(self, instance_a, instance_b, instance_c):
        for inst, expected in ((instance_a, 0.5), (instance_b, 1.0),
                               (instance_c, 0.5)):
            assert bt_max(inst).probability == pytest.approx(expected, abs=TOL)
            assert fc_max(inst).probability == pytest.approx(expected, abs=TOL)

    def test_policy_rescores_to_reported_maximum(self):
        rng = random.Random(3)
        for _ in range(40):
            inst = random_instance(rng)
            for solve in (bt_max, fc_max):
                got = solve(inst)
                assert policy_satisfaction(inst, got.policy) == pytest.approx(
                    got.probability, abs=TOL)

    def test_agrees_with_oracle(self):
        # zero_prob: some stochastic values have probability 0
        for zero_prob in (False, True):
            rng = random.Random(17)
            for _ in range(40):
                inst = random_instance(rng, zero_prob=zero_prob)
                expected = oracle_max_satisfaction(inst).probability
                assert bt_max(inst).probability == pytest.approx(expected, abs=TOL)
                assert fc_max(inst).probability == pytest.approx(expected, abs=TOL)

    def test_argmax_matches_oracle_tie_breaking(self):
        for zero_prob in (False, True):
            rng = random.Random(29)
            for _ in range(25):
                inst = random_instance(rng, max_vars=4, zero_prob=zero_prob)
                expected = oracle_max_satisfaction(inst).policy
                assert bt_max(inst).policy == expected
                assert fc_max(inst).policy == expected

    def test_stops_at_one_like_the_oracle(self):
        # x=0 fails only on s=0, which has probability 1e-10; x=1 always
        # holds and sums to 1.0000000001. Every method stops at x=0.
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1, 2), (1e-10, 0.5, 0.5))],
            [expr_constraint("x = 1 or s != 0")])
        expected = oracle_max_satisfaction(inst).policy
        assert expected.chosen_value == 0
        assert bt_max(inst).policy == expected
        assert fc_max(inst).policy == expected

    def test_production_stops_at_one_with_fewer_nodes(self, instances_dir):
        inst = load_instance(instances_dir / "production.scsp")
        full = PruneRules(decision_stop=False)
        # node counts without the stop: bt 100, fc 60
        for solve, nodes in ((bt_max, 70), (fc_max, 50)):
            got = solve(inst)
            assert got.probability == 1.0
            assert got.stats.nodes_visited == nodes
            assert got.stats.decision_prunes > 0
            assert got.policy == solve(inst, rules=full).policy
        unstopped = bt_max(inst, rules=full)
        assert unstopped.stats.nodes_visited == 100
        assert unstopped.stats.decision_prunes == 0


class TestDecideMode:
    def test_satisfiable_at_the_maximum(self, instance_a):
        got = bt_decide(instance_a)
        assert got.satisfiable
        assert policy_satisfaction(instance_a, got.policy) >= 0.5 - TOL

    def test_unsatisfiable_above_the_maximum(self, instance_a):
        assert not bt_decide(instance_a, theta_override=0.6).satisfiable
        assert not fc_decide(instance_a, theta_override=0.6).satisfiable

    def test_theta_zero_returns_the_first_depth_first_policy(self):
        rng = random.Random(47)
        for _ in range(15):
            inst = random_instance(rng)
            for solve in (bt_decide, fc_decide):
                got = solve(inst, theta_override=0.0)
                assert got.satisfiable
                assert got.policy == first_policy(inst)

    def test_theta_override_validated(self, instance_a):
        with pytest.raises(ThetaOutOfRangeError):
            bt_decide(instance_a, theta_override=1.5)

    def test_huge_integer_theta_override_is_out_of_range(self, instance_a):
        with pytest.raises(ThetaOutOfRangeError):
            fc_decide(instance_a, theta_override=10**400)

    def test_witnesses_meet_the_threshold(self):
        rng = random.Random(53)
        for _ in range(30):
            inst = random_instance(rng)
            for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
                for solve in (bt_decide, fc_decide):
                    got = solve(inst, theta_override=theta)
                    if got.satisfiable:
                        score = policy_satisfaction(inst, got.policy)
                        assert score >= theta - TOL
                    else:
                        assert got.policy is None

    def test_verdicts_match_the_oracle_across_thetas(self):
        rng = random.Random(59)
        for _ in range(30):
            inst = random_instance(rng)
            best = oracle_max_satisfaction(inst).probability
            for theta in [k / 10 for k in range(11)]:
                expected = best >= theta - TOL
                assert bt_decide(inst, theta_override=theta).satisfiable == expected
                assert fc_decide(inst, theta_override=theta).satisfiable == expected

    def test_verdicts_agree_with_the_maximum_at_the_boundary(self):
        # theta at the maximum m plus PROB_TOL and its two float neighbours:
        # a window bound there can round one ulp above a branch that meets it
        # exactly, and the verdict must still be m >= theta - PROB_TOL
        rng = random.Random(2026)
        makers = (random_instance, random_cpt_instance, random_linear_instance)
        runs = 0
        for i in range(600):
            inst = makers[i % 3](rng)
            best = bt_max(inst).probability
            near = best + PROB_TOL
            for theta in (near, math.nextafter(near, 0.0), math.nextafter(near, 2.0)):
                if theta > 1.0:
                    continue
                verdicts = []
                for solve in (bt_decide, fc_decide):
                    got = solve(inst, theta)
                    runs += 1
                    assert got.satisfiable == (best >= theta - PROB_TOL)
                    if got.satisfiable:
                        assert policy_satisfaction(inst, got.policy) >= theta - PROB_TOL
                    verdicts.append(got.satisfiable)
                assert verdicts[0] == verdicts[1]
        assert runs > 2000

    def test_theta_monotone(self):
        rng = random.Random(61)
        for _ in range(20):
            inst = random_instance(rng)
            verdicts = [fc_decide(inst, theta_override=k / 10).satisfiable
                        for k in range(11)]
            # once unsatisfiable, stays unsatisfiable as theta grows
            assert verdicts == sorted(verdicts, reverse=True)

    def test_window_contract(self):
        # value(depth, lo, hi) -> (v, policy): v < lo says the maximum
        # is below lo, v >= hi that the policy scores at least v, and any v in
        # between is max mode's value, bit for bit, with a policy attaining it.
        # A bound exactly on the maximum may go either way by rounding (hence
        # decide's theta - PROB_TOL), so bounds near it sit 1e-12 off or more.
        rng = random.Random(67)
        makers = (random_instance, random_cpt_instance, random_linear_instance,
                  lambda r: random_instance(r, max_vars=7, zero_prob=True))
        exact = 0
        for i in range(120):
            inst = makers[i % 4](rng)
            for fc, rules in itertools.product((False, True), ALL_RULES[i % 4::4]):
                probe = _Search(inst, fc, rules)
                if probe.root_dead:
                    continue
                best = probe.value(0)[0]
                for _ in range(2):
                    near = (best - 1e-12, best + 1e-12, best - 1e-9, best + 1e-9)
                    lo, hi = sorted(rng.sample((rng.random(), rng.random(), *near), 2))
                    value, policy = _Search(inst, fc, rules).value(0, lo, hi)
                    if value < lo:
                        assert best < lo
                    elif value >= hi:
                        assert policy_satisfaction(inst, policy) >= value - 1e-12
                    else:
                        exact += 1
                        assert value == best
                        assert policy_satisfaction(inst, policy) == pytest.approx(value, abs=1e-12)
        assert exact >= 500

    def test_early_stopped_siblings_cannot_hide_mass(self):
        # x must cover the s1=1 half by matching the yet-unseen s2; the
        # s1=0 half satisfies for free. True max 0.75: a solver that
        # forgets the free half's surplus wrongly reports 0.7 UNSAT.
        inst = make_instance(
            [("s1", "s", (0, 1), (0.5, 0.5)),
             ("x", "d", (0, 1)),
             ("s2", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("s1 = 0 or x = s2")], theta=0.7)
        assert oracle_max_satisfaction(inst).probability == pytest.approx(0.75)
        for solve in (bt_decide, fc_decide):
            got = solve(inst)
            assert got.satisfiable
            assert policy_satisfaction(inst, got.policy) >= 0.7 - TOL

    def test_a_chance_branch_floor_is_capped_at_one(self):
        # with chance_abort off, (lo - total - suffix) / q passes 1.0 on a
        # branch here; capped, fc's mass bound (1.0) lets the branch be
        # searched (uncapped: 5 nodes and one mass prune, the same verdict)
        inst = random_instance(random.Random(2026))
        got = fc_decide(inst, 0.5, PruneRules(chance_abort=False))
        assert got.stats.as_dict() == {
            "nodes_visited": 6, "chance_prunes": 0, "decision_prunes": 3,
            "fc_wipeouts": 1, "fc_mass_prunes": 0, "cache_hits": 1}


class TestForwardChecking:
    def test_mass_bound_abandons_the_weak_branch(self, fc_demo):
        # x=0 leaves only 0.5 of s's mass, below 0.6: cut before expanding
        # s; x=1 keeps 0.7 of it
        got = fc_decide(fc_demo)
        assert got.satisfiable
        assert policy_satisfaction(fc_demo, got.policy) == pytest.approx(0.7)
        assert got.stats.fc_mass_prunes >= 1

    def test_strictly_fewer_nodes_than_backtracking(self, fc_demo):
        bt_nodes = bt_decide(fc_demo).stats.nodes_visited
        fc_nodes = fc_decide(fc_demo).stats.nodes_visited
        assert fc_nodes < bt_nodes

    def test_never_more_nodes_than_backtracking(self):
        rng = random.Random(67)
        for _ in range(40):
            inst = random_instance(rng)
            assert (fc_max(inst).stats.nodes_visited
                    <= bt_max(inst).stats.nodes_visited)
            assert (fc_decide(inst).stats.nodes_visited
                    <= bt_decide(inst).stats.nodes_visited)

    def test_unconstrained_future_decision_prunes_nothing(self):
        inst = make_instance(
            [("s", "s", (0, 1), (0.5, 0.5)), ("x", "d", (0, 1)),
             ("y", "d", (0, 1))],
            [expr_constraint("x = s")], theta=0.5)
        bt_got = bt_max(inst)
        fc_got = fc_max(inst)
        assert fc_got.stats.fc_wipeouts == 0
        assert fc_got.probability == pytest.approx(bt_got.probability, abs=TOL)
        assert fc_got.policy == bt_got.policy

    def test_wipeout_of_a_future_decision(self):
        # any s value forbids both x values
        inst = make_instance(
            [("s", "s", (0, 1), (0.5, 0.5)), ("x", "d", (0, 1))],
            [expr_constraint("x + s < 0")], theta=0.5)
        got = fc_decide(inst)
        assert not got.satisfiable
        assert got.stats.fc_wipeouts >= 1

    def test_a_failed_probe_counts_once(self):
        # x=0 keeps half of s's mass, too little to stop the scan, so x=1
        # is tried next; its forward check wipes out y and counts once
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5)), ("y", "d", (0, 1))],
            [expr_constraint("x = 1 or s = 1"), expr_constraint("x = 0 or y = 2")])
        for got in (fc_max(inst), fc_decide(inst, 0.6)):
            assert got.stats.fc_wipeouts == 1
        assert fc_max(inst).probability == 0.5


class TestPruneRules:
    @pytest.mark.parametrize("rule", ["decision_stop", "chance_abort",
                                      "fc_wipeout", "fc_mass"])
    def test_each_rule_only_changes_stats(self, rule):
        rng = random.Random(71)
        rules = PruneRules(**{rule: False})
        for _ in range(25):
            inst = random_instance(rng)
            assert fc_max(inst, rules=rules).probability == pytest.approx(
                fc_max(inst).probability, abs=TOL)
            assert bt_max(inst, rules=rules).probability == pytest.approx(
                bt_max(inst).probability, abs=TOL)
            for theta in (0.2, 0.6, 1.0):
                assert (fc_decide(inst, theta_override=theta, rules=rules).satisfiable
                        == fc_decide(inst, theta_override=theta).satisfiable)
                assert (bt_decide(inst, theta_override=theta, rules=rules).satisfiable
                        == bt_decide(inst, theta_override=theta).satisfiable)

    def test_all_rules_off_still_exact(self, instance_c, monkeypatch):
        monkeypatch.setattr(semantics, "CACHE_ENTRIES", 0)
        rules = PruneRules(decision_stop=False, chance_abort=False,
                           fc_wipeout=False, fc_mass=False)
        assert fc_max(instance_c, rules=rules).probability == pytest.approx(0.5)
        assert fc_decide(instance_c, rules=rules).satisfiable


def _bad_arguments():
    for entry in (enumerate_policies, oracle_max_satisfaction, is_satisfiable_oracle,
                  optimize_chance_constrained):
        for cap in (None, "x", 2.5, math.nan, True, 1j):
            yield pytest.param(entry, "cap", cap, id=f"{entry.__name__}-{cap!r}")
    for entry in (bt_max, fc_max, bt_decide, fc_decide):
        for rules in ("x", 1):
            yield pytest.param(entry, "rules", rules, id=f"{entry.__name__}-{rules!r}")


@pytest.mark.parametrize("entry, name, value", _bad_arguments())
def test_a_bad_cap_or_rules_is_a_typed_error(entry, name, value):
    # a NaN cap would compare false with every count and turn the cap off
    inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                         [expr_constraint("x = s")], objective=Objective(parse_expression("x")))
    what = "an integer" if name == "cap" else "a PruneRules"
    with pytest.raises(StocsError, match=f"^{name} .* is not {what}$"):
        entry(inst, **{name: value})


class TestDepthLimit:
    @staticmethod
    def chain(n):
        # a fair coin, then n - 1 decisions, the first of which copies it
        variables = [("s", "s", (0, 1), (0.5, 0.5))]
        variables += [(f"x{i}", "d", (0, 1)) for i in range(n - 1)]
        return make_instance(variables, [expr_constraint("x0 = s")],
                             objective=Objective(parse_expression("x0")))

    def test_too_deep_is_a_typed_error(self):
        inst = self.chain(1200)
        policy = first_policy(inst)
        # the searches, then every other recursive walk
        for run in (bt_max, fc_max, bt_decide, fc_decide,
                    lambda inst: policy_satisfaction(inst, policy),
                    lambda inst: policy_expected_value(inst, policy),
                    lambda inst: restricted_tree_bounds(inst, epsilon=0.1),
                    most_probable_scenario_policy, optimize_expected,
                    oracle_max_satisfaction):
            with pytest.raises(InstanceTooDeepError):
                run(inst)

    def test_within_the_limit_solves(self, capsys, tmp_path):
        # one frame per variable: 800 variables fit under the default limit
        # of 1000 with the margin the caller's own stack needs
        inst = self.chain(800)
        for solve in (bt_max, fc_max):
            assert solve(inst).probability == 1.0
        for solve in (bt_decide, fc_decide):
            assert solve(inst).satisfiable
        path = tmp_path / "chain.scsp"
        path.write_text(dump_instance(inst), encoding="utf-8")
        for mode, want in (("max", "MAX p=1.000000000\n"), ("decide", "SAT p>=0.500000000\n")):
            for algorithm in ("bt", "fc"):
                code = main(["solve", str(path), "--mode", mode, "--algorithm", algorithm])
                assert (code, capsys.readouterr()) == (0, (want, ""))


class TestSearchState:
    def test_trail_restores_domains_exactly(self, fc_demo):
        search = _Search(fc_demo, fc=True, rules=PruneRules())
        live_before = list(search.live)
        mass_before = list(search.mass)
        search.value(0)
        assert search.live == live_before
        assert search.mass == mass_before
        assert search.trail == []
        assert search.env == [None, None]

    def test_trail_restores_after_decide(self, production):
        search = _Search(production, fc=True, rules=PruneRules())
        search.value(0, production.theta, production.theta)
        assert search.live == [tuple(range(len(v.domain))) for v in production.variables]
        assert search.mass == [1.0] * production.n
        assert search.trail == []

    def test_live_positions_and_mass_stay_consistent(self):
        rng = random.Random(59)
        instances = [random_instance(rng, zero_prob=i % 2 == 0) for i in range(24)]
        instances += [random_cpt_instance(rng) for _ in range(12)]
        searches = checks = 0
        for inst, rules, mode in itertools.product(instances, ALL_RULES, ("max", "decide")):
            search = _CheckedSearch(inst, fc=True, rules=rules)
            if search.root_dead:
                continue
            after_unary = (list(search.live), list(search.mass))
            assert search.trail == []
            if mode == "max":
                search.value(0)
            else:
                required = max(0.0, inst.theta - 1e-9)
                search.value(0, required, required)
            assert search.checks >= 1
            searches, checks = searches + 1, checks + search.checks
            assert (search.live, search.mass) == after_unary
            assert search.trail == []
            assert search.env == [None] * inst.n
        # the checks also ran inside the recursion, not only at each root
        assert checks > searches

    def test_searches_do_not_leak_between_runs(self, instance_c):
        first = fc_max(instance_c)
        second = fc_max(instance_c)
        assert first.probability == second.probability
        assert first.policy == second.policy
        assert first.stats.as_dict() == second.stats.as_dict()


def _table(scope, rows):
    return Constraint(scope=scope, allowed=frozenset(rows))


class TestForwardCheckingArgmax:
    """Forward checking returns the argmax of backtracking and the oracle."""

    def test_fc_argmax_is_the_bt_argmax(self):
        rng = random.Random(83)
        instances = [random_instance(rng, zero_prob=i % 2 == 0) for i in range(30)]
        instances += [random_cpt_instance(rng) for _ in range(10)]
        for inst in instances:
            for rules in ALL_RULES:
                plain = bt_max(inst, rules=rules)
                ordered = fc_max(inst, rules=rules)
                assert ordered.probability == plain.probability
                assert ordered.policy == plain.policy

    def test_equal_scores_go_to_the_lower_value(self):
        # x=0 leaves half of s's mass and x=1 all of it; both score exactly
        # 0.5 and domain order picks x=0
        inst = make_instance(
            [("x", "d", (0, 1)), ("s", "s", (0, 1, 2), (0.25, 0.25, 0.5)),
             ("y", "d", (0, 1)), ("t", "s", (0, 1), (0.5, 0.5))],
            [expr_constraint("x = 1 or s = 2"), expr_constraint("x = 0 or t = y")])
        got = fc_max(inst)
        assert got.probability == 0.5
        assert got.policy.chosen_value == 0
        assert got.policy == bt_max(inst).policy == oracle_max_satisfaction(inst).policy

    def test_bound_rounding_below_its_score_keeps_the_lower_value(self):
        # Reduced from a random instance. v2=1 keeps only v7=3, so its bound
        # is 0.8099307040328204, one ulp below the 0.8099307040328205 both
        # v2=1 and v2=4 score. A search that tried v2=4 first and pruned
        # v2=1 on bound <= best would return v2=4.
        inst = make_instance(
            [("v2", "d", (1, 2, 4)), ("v3", "d", (3, 4)),
             ("v5", "s", (2, 3, 4),
              (0.05618855976413179, 0.3013619661915633, 0.642449474044305)),
             ("v6", "s", (1, 4), (0.4594565809670797, 0.5405434190329202)),
             ("v7", "s", (3, 5), (0.8099307040328204, 0.19006929596717964))],
            [_table(("v2", "v7"), {(1, 3), (2, 3), (2, 5), (4, 3), (4, 5)}),
             _table(("v7", "v6", "v2"), {(3, 1, 1), (3, 1, 4), (3, 4, 1), (3, 4, 4),
                                         (5, 1, 1), (5, 1, 2), (5, 4, 1)}),
             _table(("v3", "v7"), {(3, 3), (4, 3)})])
        got = fc_max(inst)
        assert got.probability == 0.8099307040328205
        assert got.policy.chosen_value == 1
        assert got.policy == bt_max(inst).policy

    def test_values_that_may_reach_one_keep_domain_order(self):
        # x=1 drops the zero-probability s=1, so its bound sums the other two
        # to 1.0000000000000002, above x=0's untouched 1.0. Both score that
        # sum, so the scan must stop at x=0.
        inst = make_instance(
            [("x", "d", (0, 1)),
             ("s", "s", (0, 1, 2), (2.7976789021724163e-10, 0.0, 0.9999999997202322))],
            [expr_constraint("x = 0 or s != 1")])
        expected = oracle_max_satisfaction(inst).policy
        assert expected.chosen_value == 0
        assert fc_max(inst).policy == bt_max(inst).policy == expected


class TestContextCache:
    """Reusing subtree results by their context changes work, never answers."""

    def test_cache_never_changes_results(self):
        rng = random.Random(71)
        instances = [random_instance(rng, max_vars=8, zero_prob=i % 2 == 0) for i in range(20)]
        instances += [random_cpt_instance(rng) for _ in range(10)]
        instances.append(inventory_instance(2))
        hits = 0
        for inst, rules in itertools.product(instances, ALL_RULES):
            for run_max, run_decide in ((bt_max, bt_decide), (fc_max, fc_decide)):
                got, want = run_max(inst, rules=rules), uncached(run_max, inst, rules=rules)
                assert got.probability == want.probability
                assert same_tree(got.policy, want.policy)
                hits += got.stats.cache_hits
                for theta in (0.2, 0.5, 0.8, want.probability):
                    got = run_decide(inst, theta, rules=rules)
                    assert got.satisfiable == uncached(run_decide, inst, theta, rules=rules).satisfiable
                    if got.satisfiable:
                        assert policy_satisfaction(inst, got.policy) >= theta - TOL
                    hits += got.stats.cache_hits
        assert hits > 0

    def test_cache_never_changes_linear_results(self):
        # linear constraints and objectives key on the assigned part of each
        # sum, so all three walkers reuse subtrees where raw values differ
        rng = random.Random(29)
        instances = [random_linear_instance(rng, max_vars=7) for _ in range(80)]
        hits = 0
        for inst in instances:
            for run_max, run_decide in ((bt_max, bt_decide), (fc_max, fc_decide)):
                got, want = run_max(inst), uncached(run_max, inst)
                assert got.probability == want.probability
                assert same_tree(got.policy, want.policy)
                hits += got.stats.cache_hits
                for theta in (0.2, 0.5, 0.8, want.probability):
                    got = run_decide(inst, theta)
                    assert got.satisfiable == uncached(run_decide, inst, theta).satisfiable
                    if got.satisfiable:
                        assert policy_satisfaction(inst, got.policy) >= theta - TOL
            got, want = optimize_expected(inst), uncached(optimize_expected, inst)
            assert (got.expected_value, got.satisfaction) == (want.expected_value, want.satisfaction)
            assert same_tree(got.policy, want.policy)
            # the walks of one given policy: shared subtrees once per key, or once per path
            for policy in (got.policy, fc_max(inst).policy, random_policy(rng, inst)):
                for walk in (policy_satisfaction, policy_expected_value):
                    assert walk(inst, policy) == uncached(walk, inst, policy)
                assert (monte_carlo_policy_eval(inst, policy, 200, 3)
                        == uncached(monte_carlo_policy_eval, inst, policy, 200, 3))
            for mode in ({"epsilon": 0.1}, {"epsilon": 0.3}, {"top_k": 1}, {"top_k": 2}):
                assert (restricted_tree_bounds(inst, **mode)
                        == uncached(restricted_tree_bounds, inst, **mode))
        assert hits > 0
        assert any(key is not None for inst in instances for key in _split_objective(inst).key_at)

    def test_keys_fold_the_assigned_part_of_each_sum(self, instances_dir):
        def keys(inst, env):
            return [None if key is None else key(env) for key in inst.key_at]

        # x1 s1 x2 s2 under x1 >= s1 and x1 - s1 + x2 >= s2: below depth 2
        # the subtree reads the prefix only through x1 - s1 (+ x2)
        production = load_instance(instances_dir / "production.scsp")
        assert keys(production, [500, 200, 300, None]) == [None, None, 300, 600]
        # x1 s1 k1 | x2 s2 k2 | x3 s3 k3 under k_t = k_(t-1) + x_t - s_t, read
        # as k_t - k_(t-1) - x_t + s_t: a period keys the stock before it,
        # then the assigned part of its sum
        chain = inventory_instance(3)
        assert keys(chain, [1, 2, 0, 0, 1, 3, 1, 0, None]) == [None, None, 1, 0, 0, 1, 3, -4, -4]

    def test_objective_keys_its_value_once_assigned(self):
        # x1 and x2 are scored at every leaf but constrain nothing: a key
        # that dropped the objective once assigned would hand every (x1, x2)
        # the subtree value that x1 = x2 = 0 found first
        inst = make_instance(
            [("x1", "d", (0, 1)), ("x2", "d", (0, 1)),
             ("s", "s", (0, 1), (0.5, 0.5)), ("y", "d", (0, 1))],
            [expr_constraint("y = s")],
            objective=Objective(parse_expression("0 - (x1 + x2) + 3 * (x1 = 1)"), -10))
        got = optimize_expected(inst)
        assert got.expected_value == 2.0
        assert (got.policy.chosen_value, got.policy.child.chosen_value) == (1, 0)
        want = uncached(optimize_expected, inst)
        assert (got.expected_value, got.policy) == (want.expected_value, want.policy)

    def test_cpt_parents_belong_to_the_context(self):
        # c reaches s only through s's table, never through a constraint. A
        # key without CPT parents would key x on nothing and hand c=1 the
        # x=0 that c=0 chose.
        table = ConditionalTable("s", ("c",), {(0,): (0.9, 0.1), (1,): (0.3, 0.7)})
        inst = make_instance(
            [("c", "s", (0, 1), (0.5, 0.5)), ("x", "d", (0, 1)), ("s", "s", (0, 1), table)],
            [expr_constraint("x = s")])
        assert inst.key_at == (None, None, None)  # every depth keys its whole prefix
        expected = oracle_max_satisfaction(inst)
        assert expected.probability == pytest.approx(0.8, abs=TOL)
        for solve in (bt_max, fc_max):
            got = solve(inst)
            assert got.probability == pytest.approx(expected.probability, abs=TOL)
            assert got.policy == expected.policy

    def test_decide_answers_keyed_depths_exactly(self):
        # at a keyed depth decide mode solves the subtree in max mode, so the
        # memo holds only exact (value, policy) entries, each of which serves
        # every requirement; inventory keys every depth from k1 (depth 2) on
        inst = inventory_instance(3)
        assert [d for d, get in enumerate(inst.key_at) if get is None] == [0, 1]

        def assign(search, depth, value):
            # the search's own assignment step: bt checks, fc fires
            search.env[depth] = value
            test, fire = search.check_at[depth], search.fire_at[depth]
            return (test is None or test(search.env)) and (not fire or search._forward_check(fire))

        def entered(fc):
            search = _Search(inst, fc, PruneRules())
            assert assign(search, 0, 1) and assign(search, 1, 0)  # x1=1, s1=0
            return search

        for fc in (False, True):
            for theta in (0.3, 0.87, 0.97):
                search = _Search(inst, fc, PruneRules())
                search.value(0, theta, theta)
                assert search.memo
                assert all(len(entry) == 2 for entry in search.memo.values())
            want = entered(fc).value(2)
            search = entered(fc)
            assert search.value(2, 0.5, 0.5) == want
            nodes, hits = search.stats.nodes_visited, search.stats.cache_hits
            for required in (0.1, 0.9, 1.0):
                assert search.value(2, required, required) == want
            # the later requirements read the first one's entry and search nothing
            assert search.stats.nodes_visited == nodes
            assert search.stats.cache_hits == hits + 3

    def test_decide_keeps_its_threshold_search_where_nothing_is_keyed(self):
        # products of decisions and coins key every depth on the whole
        # prefix, so no depth caches and decide mode prunes against theta
        # where max mode must search on: far fewer nodes below the maximum
        variables = []
        for i in range(0, 10, 2):
            variables += [(f"x{i}", "d", (0, 1)), (f"s{i + 1}", "s", (0, 1), (0.5, 0.5))]
        total = " + ".join(f"x{i} * s{i + 1}" for i in range(0, 10, 2))
        inst = make_instance(variables, [expr_constraint(f"{total} >= 2")])
        assert all(get is None for get in inst.key_at)
        assert bt_max(inst).probability == fc_max(inst).probability == 0.8125
        assert bt_decide(inst, 0.3).stats.nodes_visited == 434
        assert fc_decide(inst, 0.3).stats.nodes_visited == 254
        assert bt_max(inst).stats.nodes_visited == 1734
        assert fc_max(inst).stats.nodes_visited == 1086

    def test_entry_cap_holds(self, monkeypatch):
        # a walk stores each key once and stops storing at the cap, so a
        # capped search holds exactly min(cap, keys an uncapped search stores)
        inst = inventory_instance(3)
        thetas = (None, 0.87, 0.97)

        def stored(fc, theta):
            search = _Search(inst, fc, PruneRules())
            if theta is None:
                search.value(0)
            else:
                search.value(0, theta, theta)
            return len(search.memo)

        full = {(fc, theta): stored(fc, theta) for fc in (False, True) for theta in thetas}
        for cap in (5, 20):
            monkeypatch.setattr(semantics, "CACHE_ENTRIES", cap)
            for (fc, theta), keys in full.items():
                assert stored(fc, theta) == min(cap, keys)
            for run_max, run_decide in ((bt_max, bt_decide), (fc_max, fc_decide)):
                got, want = run_max(inst), uncached(run_max, inst)
                assert (got.probability, got.policy) == (want.probability, want.policy)
                for theta in thetas[1:]:
                    assert (run_decide(inst, theta).satisfiable
                            == uncached(run_decide, inst, theta).satisfiable)


class TestUnsatMaximum:
    """An UNSAT verdict carries the maximum, from max mode on decide's own search."""

    def test_maximum_is_a_fresh_max_bit_for_bit(self):
        rng = random.Random(89)
        makers = (random_instance, random_cpt_instance, random_linear_instance,
                  lambda r: random_instance(r, max_vars=7, zero_prob=True))
        unsat = 0
        for i in range(60):
            inst = makers[i % 4](rng)
            for rules in ALL_RULES:
                for run_max, run_decide in ((bt_max, bt_decide), (fc_max, fc_decide)):
                    best = run_max(inst, rules=rules).probability
                    for theta in (0.1, 0.5, 0.9, best, max(0.0, best - 1e-6),
                                  min(1.0, best + 1e-6)):
                        got = run_decide(inst, theta, rules=rules)
                        if got.satisfiable:
                            assert got.maximum is None
                        else:
                            unsat += 1
                            assert got.maximum == best
        assert unsat > 3000

    def test_a_false_constant_gives_zero(self):
        inst = make_instance([("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
                             [expr_constraint("1 = 2")])
        for run_decide in (bt_decide, fc_decide):
            got = run_decide(inst, 0.5)
            assert (got.satisfiable, got.maximum) == (False, 0.0)

    def test_the_second_pass_reads_decide_memo(self, monkeypatch):
        # decide keeps its own counters; the max pass after a miss counts
        # apart and visits a fraction of a fresh max's nodes
        made = []

        class Recorded(solver.SearchStats):
            def __init__(self):
                super().__init__()
                made.append(self)

        inst = inventory_instance(4)
        best = bt_max(inst).probability
        fresh = {run: run(inst).stats.nodes_visited for run in (bt_max, fc_max)}
        assert fresh == {bt_max: 141, fc_max: 78}
        monkeypatch.setattr(solver, "SearchStats", Recorded)
        for run_decide, decide_stats, second_nodes in (
                (bt_decide, (136, 1, 9, 0, 0, 27), 12), (fc_decide, (77, 1, 3, 9, 0, 24), 8)):
            made.clear()
            got = run_decide(inst, 0.9)
            assert (got.satisfiable, got.maximum) == (False, best)
            assert got.stats is made[0]
            assert tuple(got.stats.as_dict().values()) == decide_stats
            assert [s.nodes_visited for s in made[1:]] == [second_nodes]
