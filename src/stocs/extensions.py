"""Extensions: dependent stochastic variables and objective optimization.

Conditional tables drop the independence assumption; scenario
probabilities become chain products of table rows selected by earlier
values (semantics.scenario_probability). The solvers read branch weights
through Instance.distribution, so bt_max and the others handle tables
as they are (forward checking then keeps only its wipeout prune, since
pruned mass is no longer branch-independent).

The objective walks score a subtree below depth d by points (S, T): S is
the satisfied mass of a subpolicy, and T its probability-weighted
objective less the objective's linear part sum(c_i * v_i) over the
variables assigned above d, each leaf that violates a constraint scoring
the objective's violation_value. Under a prefix whose assigned linear part
is A a point scores A * S + T. A point depends on the prefix only through
the constraint key (Instance.key_at) and the assigned operands of the
objective's non-linear terms, so the walks key on those alone; a value w
of variable d shears its child's points by T += c_d * w * S. This is
multi-objective AND/OR search (Marinescu, CP 2009) over the AND/OR graph
of Dechter and Mateescu (AIJ 2007).

policy_expected_value scores one point per policy node and key.
optimize_expected keeps per key the upper convex hull of the points (a
Minkowski sum at chance nodes, a union at decisions), trimmed to the
vertices that are best for some A the depth can reach.
optimize_chance_constrained keeps per key the points that no other point
beats both in S and in value over that range of A, and takes the best
point with S >= theta at the root; its cap bounds the size of a frontier.
Only the chosen point's policy is built, from back-pointers.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import itemgetter

from . import expr as _expr
from ._record import record
from .errors import (
    FrontierCapExceededError,
    InstanceValidationError,
    NoFeasiblePolicyError,
    NoObjectiveError,
)
from .model import ORACLE_CAP, PROB_TOL, Instance, _as_float, _check_theta
from .semantics import (
    ChanceNode,
    DecisionNode,
    PolicyNode,
    _check_cap,
    _check_depth,
    _check_policy,
    _remember,
    _rigid_policies,
)

__all__ = [
    "OptimizeResult",
    "policy_expected_value", "optimize_expected", "optimize_chance_constrained",
]

_PAST_RANGE = "objective: a value past the float range"


@record
class OptimizeResult:
    policy: PolicyNode
    expected_value: float
    satisfaction: float


@record
class _Split:
    """The objective as the walks read it: ``leaf(env)``, the objective less
    its linear part on a full assignment; ``gains[d]``, which maps each value
    w of variable d to c_d * w; ``slopes[d]``, the least and the greatest
    linear part A of a prefix of length d; ``key_at``, the key table of the
    constraints and the non-linear terms; and the violation value."""
    leaf: Callable
    gains: list
    slopes: list
    key_at: tuple
    violation: float


def _split_objective(instance: Instance) -> _Split:
    """The objective's _Split. A linear term whose gains would take a slope
    past the float range is scored at the leaves with the non-linear terms,
    so only a value that a walk reaches can raise."""
    if instance.objective is None:
        raise NoObjectiveError("instance has no objective")
    coefs, terms = _expr._linear(instance.index_of, (1, instance.objective.expression))
    gains, slopes = [], [(0.0, 0.0)]
    for d, var in enumerate(instance.variables):
        gain = {w: _as_float(coefs.get(d, 0) * w) for w in var.domain}
        low, high = slopes[-1][0] + min(gain.values()), slopes[-1][1] + max(gain.values())
        if not (math.isfinite(low) and math.isfinite(high)):
            terms.append(_expr.VariableRef(var.name))
            coefs[d] = 0
            gain = dict.fromkeys(var.domain, 0.0)
            low, high = slopes[-1]
        gains.append(gain)
        slopes.append((low, high))
    fn = _expr.compile_expression(instance.objective.expression, instance.index_of)
    linear = [(i, c) for i, c in coefs.items() if c]

    def leaf(env) -> float:
        return float(fn(env) - sum([c * env[i] for i, c in linear]))

    key_at = instance._key_table(tuple(terms)) if terms else instance.key_at
    return _Split(leaf, gains, slopes, key_at, float(instance.objective.violation_value))


def _value(t: float) -> float:
    """The expected objective of a root point: T, as A = 0."""
    if not math.isfinite(t):
        raise InstanceValidationError(_PAST_RANGE)
    return t


def policy_expected_value(instance: Instance, policy: PolicyNode) -> float:
    """Expected objective value of a policy, violation_value on bad leaves."""
    split = _split_objective(instance)
    _check_depth(instance)
    _check_policy(instance, policy)
    (point,) = _frontier(instance, split, lambda points, depth: points, policy)
    return _value(point[1])


def _frontier(instance: Instance, split: _Split, prune, policy: PolicyNode | None = None) -> list:
    """The root's points (S, T, back), each depth's list of points passed
    through ``prune(points, depth)``: of every policy, or of ``policy`` (one
    that _check_policy passes) alone. ``back`` is the value and the child
    point at a decision, the child points at a chance node (None where the
    branch fails or has probability 0) and None at a leaf. A value that
    fails a constraint adds (0, violation) at a decision and (0, q *
    violation) at a chance node, for its probability q. Constraints are
    checked as soon as their last scope variable gets a value, so subtrees
    below a violated constraint are not walked; a keyed depth is walked once
    per key (and policy node), from its first visit. Under a constant false
    constraint the root's one point is (0, violation)."""
    if instance.constant_false:
        return [(0.0, split.violation, None)]
    leaf, gains, key_at, violation = split.leaf, split.gains, split.key_at, split.violation
    n, variables, check_at = instance.n, instance.variables, instance.check_at
    env: list = [None] * n
    memo: dict = {}

    def walk(depth: int, node: PolicyNode | None) -> list:
        if depth == n:
            return [(1.0, leaf(env), None)]
        key = None if key_at[depth] is None else (depth, id(node), key_at[depth](env))
        if key in memo:
            return memo[key]
        var, test, gain = variables[depth], check_at[depth], gains[depth]
        if var.kind == "decision":
            points = []
            for w in var.domain if node is None else (node.chosen_value,):
                env[depth] = w
                if test is None or test(env):
                    g, child = gain[w], walk(depth + 1, node and node.child)
                    points += [(p[0], p[1] + g * p[0], (w, p)) for p in child]
                else:
                    points.append((0.0, violation, (w, None)))
        else:
            points = [(0.0, 0.0, ())]
            for j, (w, q) in enumerate(zip(var.domain, instance.distribution(depth, env))):
                env[depth] = w
                if q == 0.0 or not (test is None or test(env)):
                    points = [(s, t + q * violation, back + (None,)) for s, t, back in points]
                    continue
                g, child = gain[w], walk(depth + 1, node and node.children[j])
                points = prune([(s + q * p[0], t + q * (p[1] + g * p[0]), back + (p,))
                                for s, t, back in points for p in child], depth)
        env[depth] = None
        return _remember(memo, key, prune(points, depth))

    try:
        return walk(0, policy)
    except OverflowError:
        raise InstanceValidationError(_PAST_RANGE) from None


def _hull(points: list, lo: float, hi: float) -> list:
    """The points best by A * S + T for some A in [lo, hi]: for one A, the
    first best point; else, by S, the vertices of the points' upper convex
    hull that are best somewhere in the range, of equal points the first."""
    if len(points) == 1:
        return points
    if lo == hi:
        return [max(points, key=lambda p: lo * p[0] + p[1])]
    hull: list = []
    for p in sorted(points, key=itemgetter(0)):
        s, t = p[0], p[1]
        if hull and hull[-1][0] == s:
            if t <= hull[-1][1]:
                continue
            hull.pop()
        # drop the last vertex unless it lies strictly above the chord to p
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (s - hull[-2][0])
                                 <= (t - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    first, last = 0, len(hull) - 1
    while first < last and (lo * hull[first][0] + hull[first][1]
                            <= lo * hull[first + 1][0] + hull[first + 1][1]):
        first += 1
    while first < last and (hi * hull[last][0] + hull[last][1]
                            <= hi * hull[last - 1][0] + hull[last - 1][1]):
        last -= 1
    return hull[first:last + 1]


def _pareto(points: list, lo: float, cap: int) -> list:
    """The points that no other point beats in S and in lo * S + T, of equal
    points the first. A larger S gains more as A grows, so such a point is
    beaten at every A >= lo. FrontierCapExceededError past ``cap`` points."""
    if len(points) > 1:
        front, best = [], -math.inf
        for p in sorted(points, key=lambda p: (-p[0], -(lo * p[0] + p[1]))):
            if (value := lo * p[0] + p[1]) > best:
                front.append(p)
                best = value
        points = front
    if len(points) > cap:
        raise FrontierCapExceededError(len(points), cap)
    return points


def _result(instance: Instance, point: tuple) -> OptimizeResult:
    """The root point's value, satisfaction and policy. The policy is built
    from the back-pointers, one node per point; a failed or zero-probability
    branch, and a point without back-pointers, gets the rigid subpolicy."""
    variables = instance.variables
    first = _rigid_policies(instance)
    nodes: dict = {}

    def build(depth: int, point: tuple) -> PolicyNode:
        if point is None or point[2] is None:
            return first[depth]
        if id(point) in nodes:
            return nodes[id(point)]
        var, back = variables[depth], point[2]
        if var.kind == "decision":
            node = DecisionNode(var.name, back[0], build(depth + 1, back[1]))
        else:
            children = []
            for child in back:
                children.append(build(depth + 1, child))
            node = ChanceNode(var.name, tuple(children))
        nodes[id(point)] = node
        return node

    return OptimizeResult(build(0, point), _value(point[1]), point[0])


def optimize_expected(instance: Instance) -> OptimizeResult:
    """Maximize the expected (violation-penalized) objective over policies.

    Where a depth can reach one value of a only, a tie goes to the point
    found first in domain order; elsewhere to a hull vertex. Also reports
    the winning policy's satisfaction probability.
    """
    split = _split_objective(instance)
    _check_depth(instance)
    (point,) = _frontier(instance, split,
                         lambda points, depth: _hull(points, *split.slopes[depth]))
    return _result(instance, point)


def optimize_chance_constrained(instance: Instance, theta: float | None = None,
                                cap: int = ORACLE_CAP) -> OptimizeResult:
    """Best expected objective among policies with satisfaction >= theta.

    Exact; ``cap`` bounds the points a frontier may keep, and
    FrontierCapExceededError reports a larger frontier.
    """
    threshold = instance.theta if theta is None else _check_theta(theta)
    split = _split_objective(instance)
    _check_cap(cap)
    _check_depth(instance)
    points = _frontier(instance, split,
                       lambda points, depth: _pareto(points, split.slopes[depth][0], cap))
    feasible = [p for p in points if p[0] >= threshold - PROB_TOL]
    if not feasible:
        raise NoFeasiblePolicyError(f"no policy reaches satisfaction {threshold}")
    return _result(instance, max(feasible, key=itemgetter(1)))
