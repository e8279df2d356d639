"""The objective walks as they were before the (S, T) frontier, kept as the
reference that ``test_optimize_reference.py`` diffs the frontier walks
against.

``optimize_expected`` keys each subtree on the constraint key plus the
objective's assigned part, so each partial objective value is its own
subproblem, and returns (expected value, satisfaction, policy) per key;
``optimize_chance_constrained`` enumerates every policy; ``policy_value``
scores one policy in the gain form, summing each leaf's objective.
"""

from stocs import OptimizeResult, compile_expression, enumerate_policies
from stocs.errors import InstanceValidationError, NoFeasiblePolicyError
from stocs.expr import key_getters
from stocs.model import PROB_TOL
from stocs.semantics import LEAF, ChanceNode, DecisionNode, _policy_value, _remember, _rigid_policies


def objective_keys(instance) -> tuple:
    """Per depth, the constraint key together with the key of the whole
    objective (None where either is the whole prefix)."""
    objective = key_getters(instance.n, instance.index_of, [],
                            [(instance.objective.expression, range(instance.n))])
    return tuple(None if a is None or b is None else (lambda env, a=a, b=b: (a(env), b(env)))
                 for a, b in zip(instance.key_at, objective))


def _objective(instance):
    fn = compile_expression(instance.objective.expression, instance.index_of)
    return fn, float(instance.objective.violation_value)


def optimize_expected(instance) -> OptimizeResult:
    """The best expected objective; ties go to the first policy in
    domain-order depth-first discovery."""
    objective, violation = _objective(instance)
    first = _rigid_policies(instance)
    if instance.constant_false:
        return OptimizeResult(first[0], violation, 0.0)
    n = instance.n
    env: list = [None] * n
    key_at = objective_keys(instance)
    memo: dict = {}

    def walk(depth):
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
        total = total_sat = 0.0
        children = []
        for w, q in zip(var.domain, instance.distribution(depth, env)):
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


def policy_value(instance, policy) -> float:
    """Expected objective of a policy: each satisfying leaf's objective and
    violation_value on the rest, summed over the tree."""
    objective, violation = _objective(instance)
    if instance.constant_false:
        return violation
    env: list = [None] * instance.n
    key_at = objective_keys(instance)
    memo: dict = {}

    def walk(depth, node):
        if depth == instance.n:
            return float(objective(env))
        key = None if key_at[depth] is None else (depth, id(node), key_at[depth](env))
        if key in memo:
            return memo[key]
        var = instance.variables[depth]
        test = instance.check_at[depth]
        if var.kind == "decision":
            env[depth] = node.chosen_value
            value = walk(depth + 1, node.child) if test is None or test(env) else violation
        else:
            value = 0.0
            for w, q, child in zip(var.domain, instance.distribution(depth, env), node.children):
                if q == 0.0:
                    continue
                env[depth] = w
                value += q * (walk(depth + 1, child) if test is None or test(env) else violation)
            env[depth] = None
        return _remember(memo, key, value)

    try:
        return walk(0, policy)
    except OverflowError:
        raise InstanceValidationError("objective: a value past the float range") from None


def optimize_chance_constrained(instance, theta, cap) -> OptimizeResult:
    """The best expected objective among policies with satisfaction >=
    theta, by enumeration; ties go to the first feasible policy."""
    best = None
    for policy in enumerate_policies(instance, cap=cap):
        satisfaction = _policy_value(instance, policy)
        if satisfaction < theta - PROB_TOL:
            continue
        value = policy_value(instance, policy)
        if best is None or value > best.expected_value:
            best = OptimizeResult(policy, value, satisfaction)
    if best is None:
        raise NoFeasiblePolicyError(f"no policy reaches satisfaction {theta}")
    return best
