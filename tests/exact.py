"""Exact-rational reference values: one ``fractions.Fraction`` walk that
takes each float probability exactly as the instance holds it.

``exact_optimum`` is the exact maximum of the expected objective over all
policies (leaves that violate a constraint score the violation value), and
``exact_policy_value`` the exact expected objective of one given policy.
With the objective 1 and violation 0 both score satisfaction:
``exact_max_satisfaction``. Subtrees are remembered under the constraint
key together with the whole objective's key, which is exact. The float
probabilities of a distribution need not sum to exactly 1, and the walk
does not renormalize them.
"""

import math
from fractions import Fraction

from optimize_reference import objective_keys
from stocs import compile_expression


def _walk(instance, policy, objective, violation) -> Fraction:
    """The exact expected ``objective(env)``: the maximum over decision
    values where ``policy`` is None, else the policy's own value."""
    violation = Fraction(violation)
    if instance.constant_false:
        return violation
    n = instance.n
    env: list = [None] * n
    key_at = objective_keys(instance) if instance.objective is not None else instance.key_at
    memo: dict = {}

    def walk(depth, node):
        if depth == n:
            return Fraction(objective(env))
        key = None if key_at[depth] is None else (depth, id(node), key_at[depth](env))
        if key in memo:
            return memo[key]
        var = instance.variables[depth]
        test = instance.check_at[depth]
        if var.kind == "decision":
            best = None
            for w in var.domain if node is None else (node.chosen_value,):
                env[depth] = w
                child = None if node is None else node.child
                value = walk(depth + 1, child) if test is None or test(env) else violation
                best = value if best is None else max(best, value)
            result = best
        else:
            result = Fraction(0)
            for j, (w, q) in enumerate(zip(var.domain, instance.distribution(depth, env))):
                if q == 0.0:
                    continue
                env[depth] = w
                child = None if node is None else node.children[j]
                value = walk(depth + 1, child) if test is None or test(env) else violation
                result += Fraction(q) * value
        env[depth] = None
        if key is not None:
            memo[key] = result
        return result

    return walk(0, policy)


def _objective(instance):
    return (compile_expression(instance.objective.expression, instance.index_of),
            instance.objective.violation_value)


def exact_optimum(instance) -> Fraction:
    return _walk(instance, None, *_objective(instance))


def exact_policy_value(instance, policy) -> Fraction:
    return _walk(instance, policy, *_objective(instance))


def exact_max_satisfaction(instance) -> Fraction:
    return _walk(instance, None, lambda env: 1, 0)


def ulps(value: float, exact: Fraction, scale: float = 0.0) -> float:
    """|value - exact| in units in the last place of max(|exact|, scale)."""
    unit = math.ulp(max(abs(float(exact)), scale))
    error = abs(Fraction(value) - exact) / Fraction(unit)
    return float(error) if error < 2 ** 1000 else math.inf
