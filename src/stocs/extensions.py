"""Extensions: dependent stochastic variables and objective optimization.

Conditional tables drop the independence assumption; scenario
probabilities become chain products of table rows selected by earlier
values (semantics.scenario_probability). The solvers read branch weights
through Instance.distribution, so bt_max and the others handle tables
as they are (forward checking then keeps only its wipeout prune, since
pruned mass is no longer branch-independent).

optimize_expected maximizes the expected objective value, where leaves
violating a constraint score the objective's violation_value. That
penalized expectation decomposes over the tree (max at decisions,
weighted sum at chance nodes), so equal subtrees are solved once, keyed as
in the search plus the objective's assigned part. Maximizing expectation
subject to satisfaction >= theta does not decompose;
optimize_chance_constrained does it by exhaustive policy enumeration and
is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as _expr
from .errors import InstanceValidationError, NoFeasiblePolicyError, NoObjectiveError
from .model import ORACLE_CAP, PROB_TOL, Instance, _check_theta
from .semantics import (
    LEAF,
    ChanceNode,
    DecisionNode,
    PolicyNode,
    _check_depth,
    _check_policy,
    _policy_value,
    _remember,
    _rigid_policies,
    enumerate_policies,
)

__all__ = [
    "OptimizeResult",
    "policy_expected_value", "optimize_expected", "optimize_chance_constrained",
]


@dataclass(frozen=True)
class OptimizeResult:
    policy: PolicyNode
    expected_value: float
    satisfaction: float


def _compiled_objective(instance: Instance):
    if instance.objective is None:
        raise NoObjectiveError("instance has no objective")
    fn = _expr.compile_expression(instance.objective.expression, instance.index_of)
    return fn, float(instance.objective.violation_value)


def policy_expected_value(instance: Instance, policy: PolicyNode) -> float:
    """Expected objective value of a policy, violation_value on bad leaves."""
    objective, violation = _compiled_objective(instance)
    _check_depth(instance)
    _check_policy(instance, policy)
    return _policy_value(instance, policy, objective, violation,
                         instance._key_table(instance.objective))


def optimize_expected(instance: Instance) -> OptimizeResult:
    """Maximize the expected (violation-penalized) objective over policies.

    Ties go to the first policy in domain-order depth-first discovery.
    Also reports the winning policy's satisfaction probability.
    """
    objective, violation = _compiled_objective(instance)
    _check_depth(instance)
    first = _rigid_policies(instance)
    if instance.constant_false:
        return OptimizeResult(first[0], violation, 0.0)
    n = instance.n
    env: list = [None] * n
    key_at = instance._key_table(instance.objective)
    memo: dict = {}

    def walk(depth: int) -> tuple[float, float, PolicyNode]:
        """(expected value, satisfaction, policy) of the best subtree."""
        if depth == n:
            return float(objective(env)), 1.0, LEAF
        key = None if key_at[depth] is None else (depth, key_at[depth](env))
        if key in memo:
            return memo[key]
        var = instance.variables[depth]
        test = instance.check_at[depth]
        if var.kind == "decision":
            best = None
            for w in var.domain:
                env[depth] = w
                if test is None or test(env):
                    value, sat, child = walk(depth + 1)
                else:
                    value, sat, child = violation, 0.0, first[depth + 1]
                env[depth] = None
                if best is None or value > best:
                    best, best_sat, best_value, best_child = value, sat, w, child
            return _remember(memo, key, (best, best_sat,
                                         DecisionNode(var.name, best_value, best_child)))
        probs = instance.distribution(depth, env)
        total = 0.0
        # summed in policy_satisfaction's order, so the result is bit-identical
        total_sat = 0.0
        children = []
        for w, q in zip(var.domain, probs):
            if q == 0.0:
                children.append(first[depth + 1])
                continue
            env[depth] = w
            if test is None or test(env):
                value, sat, child = walk(depth + 1)
                total += q * value
                total_sat += q * sat
                children.append(child)
            else:
                total += q * violation
                children.append(first[depth + 1])
            env[depth] = None
        return _remember(memo, key, (total, total_sat, ChanceNode(var.name, tuple(children))))

    try:
        expected, satisfaction, policy = walk(0)
    except OverflowError:
        raise InstanceValidationError("objective: a value past the float range") from None
    return OptimizeResult(policy, expected, satisfaction)


def optimize_chance_constrained(instance: Instance, theta: float | None = None,
                                cap: int = ORACLE_CAP) -> OptimizeResult:
    """Best expected objective among policies with satisfaction >= theta.

    Exhaustive policy enumeration (the threshold does not decompose over
    the tree); exponential and guarded by the oracle cap. Ties go to the
    first feasible policy in enumeration order.
    """
    threshold = instance.theta if theta is None else _check_theta(theta)
    objective, violation = _compiled_objective(instance)  # fails fast without one
    key_at = instance._key_table(instance.objective)
    best: OptimizeResult | None = None
    for policy in enumerate_policies(instance, cap=cap):
        satisfaction = _policy_value(instance, policy, None, 0.0, instance.key_at)
        if satisfaction < threshold - PROB_TOL:
            continue
        value = _policy_value(instance, policy, objective, violation, key_at)
        if best is None or value > best.expected_value:
            best = OptimizeResult(policy, value, satisfaction)
    if best is None:
        raise NoFeasiblePolicyError(f"no policy reaches satisfaction {threshold}")
    return best
