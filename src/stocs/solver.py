"""Complete search: backtracking and forward checking over policy trees.

Both algorithms walk the variable order depth-first, maximizing over
decision values and weighting stochastic branches by probability. They
run in two modes:

  max    - compute the exact maximal satisfaction and an argmax policy.
  decide - answer "is some policy >= theta" with a witness, pruning
           against locally required thresholds.

A decision node stops scanning its values once one suffices: in decide
mode once a value meets the local requirement, in max mode once a value
reaches satisfaction 1.0. The latter is the oracle's own stop rule, so
the argmax stays the oracle's first depth-first optimum.

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

At unkeyed depths decide mode keeps a lower and an upper accumulator per
chance node. The locally required threshold only caps how much of a
child's exact value gets computed, so a child may report an interval
rather than a point; when the accumulated intervals straddle the
threshold, straddling children are re-scored exactly (max mode) until
the verdict is settled. A naive single-accumulator scheme is unsound
there: an early-stopped sibling's surplus above its local requirement
can be exactly what a later shortfall needs.

Max mode caches subtree results by key (AND/OR search with caching).
The key of depth d (Instance.key_at) holds what the subtree below d reads
of the assigned prefix: raw values for tables and CPT parents, the assigned
part of each linear sum. Equal keys mean an identical subproblem, its live
domains and masses included, so one key serves bt and fc; depths keyed on
the whole prefix never repeat a key and skip the cache. A hit is the
first-found optimum of an identical subproblem, so values and argmax
policies do not change. At a keyed depth decide mode answers (v, v, policy)
from max mode, so every entry is exact and serves every requirement. A walk
stores each key once, and at most CACHE_ENTRIES keys (0 turns caching off).

Prune rules can be disabled independently; verdicts and values never
change, only the work done (and the witness in decide mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveBranchProbabilityError
from .model import PROB_TOL, CompiledConstraint, Instance, VariableSpec, _check_theta
from .semantics import (
    LEAF,
    ChanceNode,
    DecisionNode,
    PolicyNode,
    SatisfactionResult,
    SearchStats,
    _check_depth,
    _rigid_policies,
    first_policy,
)

__all__ = [
    "PruneRules", "DecideResult",
    "bt_max", "fc_max", "bt_decide", "fc_decide",
    "required_threshold",
]

# keys one walk stores at most; past it the walk caches nothing more
CACHE_ENTRIES = 100_000


def _remember(memo: dict, key: tuple | None, result: tuple) -> tuple:
    """Store a subtree result under its key (None: not cached) while there is room."""
    if key is not None and len(memo) < CACHE_ENTRIES:
        memo[key] = result
    return result


@dataclass(frozen=True)
class PruneRules:
    decision_stop: bool = True   # stop scanning decision values once one suffices
    chance_abort: bool = True    # cut a chance node when settled either way
    fc_wipeout: bool = True      # cut on future decision domain wipeout
    fc_mass: bool = True         # use the probability-mass upper bound


@dataclass(frozen=True)
class DecideResult:
    satisfiable: bool
    policy: PolicyNode | None  # witness when satisfiable
    stats: SearchStats


def required_threshold(parent_required: float, branch_probability: float | None = None,
                       accumulated: float = 0.0, remaining: float = 0.0) -> float:
    """Threshold a child branch must reach for its parent to reach its own.

    A decision branch passes the requirement through. A chance branch of
    probability p, with mass `accumulated` already secured and mass
    `remaining` still unexplored on other branches, must reach
    (parent_required - accumulated - remaining) / p, clamped to [0, 1].
    """
    if branch_probability is None:
        return parent_required
    if branch_probability <= 0.0:
        raise NonpositiveBranchProbabilityError(
            f"chance branch probability {branch_probability!r} must be positive"
        )
    needed = (parent_required - accumulated - remaining) / branch_probability
    return min(1.0, max(0.0, needed))


class _Search:
    """One search over one instance; owns all mutable state."""

    def __init__(self, instance: Instance, fc: bool, rules: PruneRules):
        # two frames per variable: the value and its decision or chance step
        _check_depth(instance, frames_per_variable=2)
        self.inst = instance
        self.n = n = instance.n
        self.fc = fc
        self.rules = rules
        self.use_mass = fc and not instance.has_cpts
        self.stats = SearchStats()
        self.env: list = [None] * n
        self.live = [tuple(range(len(v.domain))) for v in instance.variables]
        self.mass = [1.0] * n
        self.trail: list[tuple[int, tuple[int, ...], float]] = []
        self.first = _rigid_policies(instance)
        self.key_at = instance.key_at
        self.memo: dict = {}
        self.root_dead = any(not c.fn(self.env) for c in instance.constant_compiled)
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
                self.mass[j] = sum(var.probabilities[pos] for pos in kept)
            # an empty domain has zero mass under any distribution
            if self.rules.fc_mass and (not kept or self.mass[j] <= 0.0):
                self.stats.fc_mass_prunes += 1
                return False
        return True

    def _undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            j, live, mass = trail.pop()
            self.live[j], self.mass[j] = live, mass

    def _enter(self, depth: int, value: int) -> bool:
        """Assign env[depth]=value, check completed constraints, fire FC.

        Under forward checking the constraints completed here need no
        check: each fired when its second-to-last variable was assigned
        (unary ones were pruned up front) and removed every value that
        violates it, so a value still in the domain satisfies them all.
        """
        self.stats.nodes_visited += 1
        self.env[depth] = value
        if self.fc:
            return self._forward_check(self.inst.fc_fire_at[depth])
        for c in self.inst.check_at[depth]:
            if not c.fn(self.env):
                return False
        return True

    # ------------------------------------------------------------------
    # max mode
    # ------------------------------------------------------------------

    def max_value(self, depth: int) -> tuple[float, PolicyNode]:
        if depth == self.n:
            return 1.0, LEAF
        var = self.inst.variables[depth]
        get_key = self.key_at[depth]
        if get_key is None:
            if var.kind == "decision":
                return self._max_decision(depth, var)
            return self._max_chance(depth, var)
        key = depth, get_key(self.env)
        hit = self.memo.get(key)
        if hit is not None:
            self.stats.cache_hits += 1
            return hit
        return _remember(self.memo, key, self._max_decision(depth, var)
                         if var.kind == "decision" else self._max_chance(depth, var))

    def _max_decision(self, depth: int, var: VariableSpec) -> tuple[float, PolicyNode]:
        best = -1.0
        best_pos = -1
        best_child: PolicyNode | None = None
        live = self.live[depth]
        for k, pos in enumerate(live):
            mark = len(self.trail)
            if not self._enter(depth, var.domain[pos]):
                score, child = 0.0, None
            elif (self.use_mass and self.rules.fc_mass and best >= 0.0
                    and self._ub(depth) <= best):
                # cannot beat the best so far; ties keep the earlier value
                self.stats.fc_mass_prunes += 1
                score, child = -1.0, None
            else:
                score, child = self.max_value(depth + 1)
            self._undo(mark)
            self.env[depth] = None
            if score > best:
                best, best_pos, best_child = score, pos, child
            if best >= 1.0 and self.rules.decision_stop:
                # nothing scores higher; the oracle stops at 1.0 the same way
                if k + 1 < len(live):
                    self.stats.decision_prunes += 1
                break
        if best <= 0.0:
            # nothing scores: normalize to the first depth-first subtree so
            # the argmax matches plain backtracking and the oracle exactly
            return 0.0, DecisionNode(var.name, var.domain[0], self.first[depth + 1])
        # a positive best came from max_value, which always returns a child
        return best, DecisionNode(var.name, var.domain[best_pos], best_child)

    def _max_chance(self, depth: int, var: VariableSpec) -> tuple[float, PolicyNode]:
        probs = self.inst.distribution(depth, self.env)
        children = [self.first[depth + 1]] * len(probs)
        total = 0.0
        for i in self.live[depth]:
            q = probs[i]
            if q == 0.0:
                continue
            mark = len(self.trail)
            if self._enter(depth, var.domain[i]):
                score, children[i] = self.max_value(depth + 1)
                total += q * score
            self._undo(mark)
            self.env[depth] = None
        return total, ChanceNode(var.name, tuple(children))

    # ------------------------------------------------------------------
    # decide mode
    # ------------------------------------------------------------------
    #
    # decide_value returns (lo, hi, policy), max mode's (v, v, policy) if keyed, with:
    #   lo <= true subtree max <= hi
    #   the policy's exact satisfaction is >= lo
    #   conclusiveness: lo >= required or hi < required

    def decide_value(self, depth: int, required: float) -> tuple[float, float, PolicyNode]:
        if depth == self.n:
            return 1.0, 1.0, LEAF
        if self.key_at[depth] is not None:
            value, policy = self.max_value(depth)
            return value, value, policy
        var = self.inst.variables[depth]
        if var.kind == "decision":
            return self._decide_decision(depth, var, required)
        return self._decide_chance(depth, var, required)

    def _decide_decision(self, depth: int, var: VariableSpec,
                         required: float) -> tuple[float, float, PolicyNode]:
        best_lo = -1.0
        best_pos = -1
        best_child: PolicyNode | None = None
        node_hi = 0.0
        stopped = False
        live = self.live[depth]
        for k, pos in enumerate(live):
            mark = len(self.trail)
            if not self._enter(depth, var.domain[pos]):
                lo, hi, child = 0.0, 0.0, None
            else:
                bound = self._ub(depth)
                if self.use_mass and self.rules.fc_mass and bound < required:
                    self.stats.fc_mass_prunes += 1
                    lo, hi, child = 0.0, bound, None
                else:
                    lo, hi, child = self.decide_value(depth + 1, required)
                    hi = min(hi, bound)
            self._undo(mark)
            self.env[depth] = None
            if lo > best_lo:
                best_lo, best_pos, best_child = lo, pos, child
            node_hi = max(node_hi, hi)
            if lo >= required and self.rules.decision_stop:
                if k + 1 < len(live):
                    self.stats.decision_prunes += 1
                    stopped = True
                break
        if best_pos < 0:
            return 0.0, 0.0, DecisionNode(var.name, var.domain[0], self.first[depth + 1])
        if best_child is None:
            best_child = self.first[depth + 1]
        hi = 1.0 if stopped else max(node_hi, best_lo)
        return best_lo, hi, DecisionNode(var.name, var.domain[best_pos], best_child)

    def _decide_chance(self, depth: int, var: VariableSpec,
                       required: float) -> tuple[float, float, PolicyNode]:
        probs = self.inst.distribution(depth, self.env)
        k = len(var.domain)
        suffix = [0.0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] + probs[i]
        children: list[PolicyNode] = [self.first[depth + 1]] * k
        bounds: list[tuple[float, float]] = [(0.0, 0.0)] * k
        a_lo = 0.0
        a_hi = 0.0
        abort_hi = None
        live = self.live[depth]
        for i, (w, q) in enumerate(zip(var.domain, probs)):
            if self.rules.chance_abort:
                if a_lo >= required:
                    # settled satisfiable; leave the rest at the default subtree
                    self.stats.chance_prunes += 1
                    return a_lo, a_hi + suffix[i], ChanceNode(var.name, tuple(children))
                if a_hi + suffix[i] < required:
                    self.stats.chance_prunes += 1
                    abort_hi = a_hi + suffix[i]
                    break
            if q == 0.0 or i not in live:
                continue  # exact 0 contribution, default child stands
            child_required = required_threshold(required, q, a_hi, suffix[i + 1])
            mark = len(self.trail)
            if not self._enter(depth, w):
                lo, hi = 0.0, 0.0
            else:
                bound = self._ub(depth)
                if self.use_mass and self.rules.fc_mass and bound < child_required:
                    self.stats.fc_mass_prunes += 1
                    lo, hi = 0.0, bound
                else:
                    lo, hi, child = self.decide_value(depth + 1, child_required)
                    hi = min(hi, bound)
                    children[i] = child
            self._undo(mark)
            self.env[depth] = None
            bounds[i] = (lo, hi)
            a_lo += q * lo
            a_hi += q * min(hi, 1.0)
        node = ChanceNode(var.name, tuple(children))
        if abort_hi is not None:
            return a_lo, abort_hi, node
        if a_lo >= required or a_hi < required:
            return a_lo, a_hi, node
        # The intervals straddle the requirement: settle straddling branches
        # exactly, in domain order, until either accumulator crosses it.
        for i, (w, q) in enumerate(zip(var.domain, probs)):
            lo, hi = bounds[i]
            if q == 0.0 or lo >= hi:
                continue
            mark = len(self.trail)
            entered = self._enter(depth, w)
            assert entered, "straddling branch was explored before"
            exact, child = self.max_value(depth + 1)
            self._undo(mark)
            self.env[depth] = None
            children[i] = child
            a_lo += q * (exact - lo)
            a_hi += q * (exact - min(hi, 1.0))
            bounds[i] = (exact, exact)
            node = ChanceNode(var.name, tuple(children))
            if a_lo >= required or a_hi < required:
                return a_lo, a_hi, node
        # every branch exact: collapse the accumulators' rounding gap
        return a_lo, a_lo, node


def _run_max(instance: Instance, fc: bool, rules: PruneRules | None) -> SatisfactionResult:
    search = _Search(instance, fc, rules or PruneRules())
    if search.root_dead:
        return SatisfactionResult(0.0, search.first[0], search.stats)
    value, policy = search.max_value(0)
    return SatisfactionResult(min(1.0, max(value, 0.0)), policy, search.stats)


def _run_decide(instance: Instance, fc: bool, theta_override: float | None,
                rules: PruneRules | None) -> DecideResult:
    theta = instance.theta if theta_override is None else _check_theta(theta_override)
    required = max(0.0, theta - PROB_TOL)
    if required <= 0.0:
        # every policy qualifies; hand back the first depth-first one
        return DecideResult(True, first_policy(instance), SearchStats())
    search = _Search(instance, fc, rules or PruneRules())
    if search.root_dead:
        return DecideResult(False, None, search.stats)
    lo, _, policy = search.decide_value(0, required)
    if lo >= required:
        return DecideResult(True, policy, search.stats)
    return DecideResult(False, None, search.stats)


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
