"""Complete search: backtracking and forward checking over policy trees.

Both algorithms walk the variable order depth-first, maximizing over
decision values and weighting stochastic branches by probability. One
recursive method, value, runs both modes at one stack frame per variable:

  max    - value(depth): the exact maximal satisfaction and an argmax policy.
  decide - value(depth, lo, hi): answer "is some policy >= theta" with a
           witness, by backtracking within a lower and an upper threshold.

The modes share the memo, the decision loop and its normalization; a chance
node has one body per mode, so max mode does no window work. A decision
node stops scanning its values once one suffices: in decide mode once a
value reaches the upper threshold, in max mode once a value reaches
satisfaction 1.0. The latter is the oracle's own stop rule, so the argmax
stays the oracle's first depth-first optimum.

Forward checking additionally prunes future variables after each
assignment: every constraint with exactly one unassigned scope variable
filters that variable's values. Each variable j keeps live[j], the
ascending domain positions still allowed, and mass[j], their probability
mass (1.0 until a prune, then summed once in domain order). A prune
pushes (j, old live, old mass) on one trail and backtracking pops it back.
A wiped-out future decision domain kills the branch; the product of the
future masses bounds any policy's satisfaction and abandons hopeless
branches. Under conditional tables the masses stay 1.0 (pruned mass is no
longer branch-independent) and only domain wipeout remains. A value left
in a domain has passed every constraint that ends at its variable, so
forward checking never checks those constraints again on assignment.

At unkeyed depths decide mode searches a window (lo, hi), the paper's
BT(theta_l, theta_h) and the chance-node form of alpha-beta, and returns
one value per subtree (see value). A decision value must beat the best so
far. Chance branch i of probability q must reach the floor (lo - total -
suffix[i + 1]) / q and need not pass (hi - total) / q, where total sums the
exact values of the branches before it and suffix[i + 1] the probabilities
after it. The root window is theta - PROB_TOL on both sides.

Max mode caches subtree results by key (AND/OR search with caching).
The key of depth d (Instance.key_at) holds what the subtree below d reads
of the assigned prefix: raw values for tables and CPT parents, the assigned
part of each linear sum. Equal keys mean an identical subproblem, its live
domains and masses included, so one key serves bt and fc; depths keyed on
the whole prefix never repeat a key and skip the cache. A hit is the
first-found optimum of an identical subproblem, so values and argmax
policies do not change. At a keyed depth decide mode answers from max
mode, so every entry is exact and serves every window: after a miss at the
root, max mode runs on the same search and memo, and its maximum settles
the verdict. A walk stores each key once, and at most
semantics.CACHE_ENTRIES keys (0 turns caching off).

Prune rules can be disabled independently; verdicts and values never
change, only the work done (and the witness in decide mode).
"""

from __future__ import annotations

import math

from ._record import record
from .errors import StocsError
from .model import PROB_TOL, CompiledConstraint, Instance, _check_theta, _repr, _total
from .semantics import (
    LEAF,
    ChanceNode,
    DecisionNode,
    PolicyNode,
    SatisfactionResult,
    SearchStats,
    _check_depth,
    _remember,
    _rigid_policies,
    first_policy,
)

__all__ = [
    "PruneRules", "DecideResult",
    "bt_max", "fc_max", "bt_decide", "fc_decide",
]

@record
class PruneRules:
    decision_stop: bool = True   # stop scanning decision values once one suffices
    chance_abort: bool = True    # cut a chance node when settled either way
    fc_wipeout: bool = True      # cut on future decision domain wipeout
    fc_mass: bool = True         # use the probability-mass upper bound


@record
class DecideResult:
    satisfiable: bool
    policy: PolicyNode | None  # witness when satisfiable
    stats: SearchStats
    maximum: float | None = None  # the maximal satisfaction when unsatisfiable


class _Search:
    """One search over one instance; owns all mutable state."""

    def __init__(self, instance: Instance, fc: bool, rules: PruneRules):
        _check_depth(instance)
        self.inst = instance
        self.n = n = instance.n
        self.rules = rules
        self.use_mass = fc and not instance.has_cpts
        self.stats = SearchStats()
        self.env: list = [None] * n
        self.live = [tuple(range(len(v.domain))) for v in instance.variables]
        self.mass = [1.0] * n
        self.trail: list[tuple[int, tuple[int, ...], float]] = []
        self.first = _rigid_policies(instance)
        self.key_at = instance.key_at
        # Each depth's assignment test, picked once: bt checks the constraints
        # completed there, fc fires the ones left one variable short and checks
        # nothing. Under fc the completed ones need no check: each fired when
        # its second-to-last variable was assigned (unary ones were pruned up
        # front) and removed every value that violates it, so a value still
        # in the domain satisfies them all.
        self.check_at = (None,) * n if fc else instance.check_at
        self.fire_at = instance.fc_fire_at if fc else ((),) * n
        self.memo: dict = {}
        self.root_dead = instance.constant_false
        if fc and not self.root_dead:
            # unary prunes hold for the whole search: drop them from the trail
            self.root_dead = not self._forward_check(instance.unary_compiled)
            self.trail.clear()

    # ------------------------------------------------------------------
    # forward-checking bookkeeping
    # ------------------------------------------------------------------

    def _ub(self, depth: int) -> float:
        """Upper bound on any policy's satisfaction below ``depth``."""
        return math.prod(self.mass[depth + 1:])

    def _forward_check(self, constraints: tuple[CompiledConstraint, ...]) -> bool:
        """Prune the last scope variable of each constraint, on the trail.

        Called with the constraints that a new assignment leaves one
        variable short (fc_fire_at), and once up front with the unary ones.
        False when a future decision domain empties (fc_wipeout) or a
        future stochastic variable loses all its probability mass (fc_mass).
        """
        env = self.env
        for c in constraints:
            j = c.last_idx
            var = self.inst.variables[j]
            old = self.live[j]
            kept = []
            for pos in old:
                env[j] = var.domain[pos]
                if c.fn(env):
                    kept.append(pos)
            env[j] = None
            if len(kept) == len(old):
                continue
            self.trail.append((j, old, self.mass[j]))
            self.live[j] = kept = tuple(kept)
            if var.kind == "decision":
                if not kept and self.rules.fc_wipeout:
                    self.stats.fc_wipeouts += 1
                    return False
                continue
            if self.use_mass:
                self.mass[j] = _total(var.probabilities[pos] for pos in kept)
            # an empty domain has zero mass under any distribution
            if self.rules.fc_mass and (not kept or self.mass[j] <= 0.0):
                self.stats.fc_mass_prunes += 1
                return False
        return True

    def _undo(self, mark: int) -> None:
        """Pop the trail back to ``mark``; only fc pushes, so bt never calls it."""
        trail = self.trail
        while len(trail) > mark:
            j, live, mass = trail.pop()
            self.live[j], self.mass[j] = live, mass

    # ------------------------------------------------------------------
    # the search
    # ------------------------------------------------------------------
    #
    # value(depth) is max mode: the subtree's exact maximum and an argmax
    # policy. value(depth, lo, hi) is decide mode and returns (v, policy), with:
    #   v < lo:  the subtree's maximum is below lo
    #   v >= hi: the policy scores at least v
    #   else:    v is the subtree's maximum, bit-equal to max mode's, and
    #            the policy attains it

    def value(self, depth: int, lo: float | None = None,
              hi: float = 1.0) -> tuple[float, PolicyNode]:
        if depth == self.n:
            return 1.0, LEAF
        env, trail, stats = self.env, self.trail, self.stats
        get_key = self.key_at[depth]
        key = None
        if get_key is not None:
            lo, hi = None, 1.0  # keyed depths run max mode: every entry is exact
            key = depth, get_key(env)
            hit = self.memo.get(key)
            if hit is not None:
                stats.cache_hits += 1
                return hit
        var = self.inst.variables[depth]
        test, fire = self.check_at[depth], self.fire_at[depth]
        if var.kind == "decision":
            best = -1.0
            best_pos = -1
            best_child: PolicyNode | None = None
            live = self.live[depth]
            stop = hi if hi < 1.0 else 1.0  # nothing scores above 1.0
            prune_mass = self.use_mass and self.rules.fc_mass
            for k, pos in enumerate(live):
                if lo is not None:
                    # a value must beat the best so far: that is its floor
                    floor = min(hi, max(lo, best))
                stats.nodes_visited += 1
                env[depth] = var.domain[pos]
                mark = len(trail)
                if not ((test is None or test(env)) and (not fire or self._forward_check(fire))):
                    score, child = 0.0, None
                elif prune_mass and (
                        best >= 0.0 and self._ub(depth) <= best if lo is None
                        else self._ub(depth) < floor):
                    # cannot beat the best so far (max mode keeps the earlier
                    # value on a tie) or cannot reach the floor
                    stats.fc_mass_prunes += 1
                    score, child = -1.0, None
                elif lo is None:
                    score, child = self.value(depth + 1)
                else:
                    score, child = self.value(depth + 1, floor, hi)
                if len(trail) > mark:
                    self._undo(mark)
                env[depth] = None
                if score > best:
                    best, best_pos, best_child = score, pos, child
                if best >= stop and self.rules.decision_stop:
                    # in max mode the oracle stops at 1.0 the same way
                    if k + 1 < len(live):
                        stats.decision_prunes += 1
                    break
            if best <= 0.0:
                # nothing scores: normalize to the first depth-first subtree so
                # the argmax matches plain backtracking and the oracle exactly;
                # below a positive lo this is a miss
                result = 0.0, DecisionNode(var.name, var.domain[0], self.first[depth + 1])
            else:
                # a positive best came from value, which always returns a child
                result = best, DecisionNode(var.name, var.domain[best_pos], best_child)
            return _remember(self.memo, key, result)
        probs = self.inst.distribution(depth, env)
        children = [self.first[depth + 1]] * len(probs)
        total = 0.0
        if lo is None:
            for i in self.live[depth]:
                q = probs[i]
                if q == 0.0:
                    continue
                stats.nodes_visited += 1
                env[depth] = var.domain[i]
                mark = len(trail)
                if (test is None or test(env)) and (not fire or self._forward_check(fire)):
                    score, children[i] = self.value(depth + 1)
                    total += q * score
                if len(trail) > mark:
                    self._undo(mark)
                env[depth] = None
            return _remember(self.memo, key, (total, ChanceNode(var.name, tuple(children))))
        k = len(var.domain)
        suffix = [0.0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] + probs[i]
        missed = False
        live = self.live[depth]
        for i, (w, q) in enumerate(zip(var.domain, probs)):
            if self.rules.chance_abort and (missed or total >= hi or total + suffix[i] < lo):
                # settled either way; the rest keep the default subtree
                stats.chance_prunes += 1
                break
            if q == 0.0 or i not in live:
                continue  # exact 0 contribution, default child stands
            floor = min(1.0, (lo - total - suffix[i + 1]) / q)  # nothing scores above 1.0
            stats.nodes_visited += 1
            env[depth] = w
            mark = len(trail)
            if not ((test is None or test(env)) and (not fire or self._forward_check(fire))):
                score = 0.0
            elif self.use_mass and self.rules.fc_mass and self._ub(depth) < floor:
                stats.fc_mass_prunes += 1
                score = -1.0
            else:
                score, children[i] = self.value(depth + 1, floor, (hi - total) / q)
            if len(trail) > mark:
                self._undo(mark)
            env[depth] = None
            if score < floor:
                missed = True  # this branch's maximum cannot lift the node to lo
            else:
                total += q * score
        return -1.0 if missed else total, ChanceNode(var.name, tuple(children))


def _check_rules(rules: PruneRules | None) -> PruneRules:
    if rules is None or isinstance(rules, PruneRules):
        return rules or PruneRules()
    raise StocsError(f"rules {_repr(rules, StocsError, 'rules')} is not a PruneRules")


def _run_max(instance: Instance, fc: bool, rules: PruneRules | None) -> SatisfactionResult:
    search = _Search(instance, fc, _check_rules(rules))
    if search.root_dead:
        return SatisfactionResult(0.0, search.first[0], search.stats)
    value, policy = search.value(0)
    return SatisfactionResult(min(1.0, value), policy, search.stats)


def _run_decide(instance: Instance, fc: bool, theta_override: float | None,
                rules: PruneRules | None) -> DecideResult:
    rules = _check_rules(rules)
    _check_depth(instance)
    theta = instance.theta if theta_override is None else _check_theta(theta_override)
    required = max(0.0, theta - PROB_TOL)
    if required <= 0.0:
        # every policy qualifies; hand back the first depth-first one
        return DecideResult(True, first_policy(instance), SearchStats())
    search = _Search(instance, fc, rules)
    if search.root_dead:
        return DecideResult(False, None, search.stats, 0.0)
    value, policy = search.value(0, required, required)
    if value >= required:
        return DecideResult(True, policy, search.stats)
    # max mode finishes on decide's memo of exact entries, counted apart. It
    # has the last word: a window bound can round one ulp above a branch
    # value that meets it exactly (see the floor in value's chance body).
    stats, search.stats = search.stats, SearchStats()
    maximum, policy = search.value(0)
    if maximum >= required:
        return DecideResult(True, policy, stats)
    return DecideResult(False, None, stats, min(1.0, maximum))


def bt_max(instance: Instance, rules: PruneRules | None = None) -> SatisfactionResult:
    """Exact maximal satisfaction by plain depth-first recursion, CPTs included."""
    return _run_max(instance, False, rules)


def fc_max(instance: Instance, rules: PruneRules | None = None) -> SatisfactionResult:
    """Exact maximal satisfaction with forward checking."""
    return _run_max(instance, True, rules)


def bt_decide(instance: Instance, theta_override: float | None = None,
              rules: PruneRules | None = None) -> DecideResult:
    """Threshold decision by backtracking with threshold pruning."""
    return _run_decide(instance, False, theta_override, rules)


def fc_decide(instance: Instance, theta_override: float | None = None,
              rules: PruneRules | None = None) -> DecideResult:
    """Threshold decision with forward checking."""
    return _run_decide(instance, True, theta_override, rules)
