"""Approximation procedures: interval bounds, a scenario heuristic, sampling.

restricted_tree_bounds explores only high-probability stochastic branches
and turns the skipped mass into an interval around the true maximum.
most_probable_scenario_policy solves the deterministic problem obtained by
pinning every stochastic variable to its likeliest value and lifts the
result into a rigid policy. monte_carlo_policy_eval estimates a given
policy's satisfaction from seeded scenario samples.

The sampler is fully specified so results are reproducible: a splitmix64
generator produces 64-bit words from the seed, each word becomes a uniform
u in [0,1) via (word >> 11) * 2**-53, and each stochastic value is drawn
by inverse CDF over the domain in domain order (first value whose
cumulative probability exceeds u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BadEpsilonError,
    BadKError,
    BadSampleCountError,
    NoHeuristicPolicyError,
    UnsupportedConditionalParentsError,
)
from .model import Instance
from .semantics import (
    PolicyNode,
    _check_depth,
    _expect_chance,
    _expect_decision,
    _rigid_policies,
    policy_satisfaction,
)

__all__ = [
    "Interval", "SampleEstimate", "HeuristicPolicy", "WILSON_Z",
    "restricted_tree_bounds", "most_probable_scenario_policy",
    "monte_carlo_policy_eval",
]

WILSON_Z = 1.959964  # 95% two-sided normal quantile, fixed for reproducibility


@dataclass(frozen=True)
class Interval:
    lb: float
    ub: float


@dataclass(frozen=True)
class SampleEstimate:
    estimate: float
    n: int
    ci_low: float
    ci_high: float
    seed: int


@dataclass(frozen=True)
class HeuristicPolicy:
    policy: PolicyNode
    exact_satisfaction: float


def restricted_tree_bounds(instance: Instance, epsilon: float | None = None,
                           top_k: int | None = None) -> Interval:
    """Bounds on the maximal satisfaction from a restricted policy tree.

    At each chance node only branches with probability >= epsilon (or the
    top_k most probable, ties toward smaller values) are expanded; the
    skipped mass counts 0 toward the lower and fully toward the upper
    bound. epsilon=0, or top_k at least the largest domain size, collapses
    the interval onto the exact maximum.
    """
    if (epsilon is None) == (top_k is None):
        raise BadEpsilonError("give exactly one of epsilon or top_k")
    if epsilon is not None:
        epsilon = float(epsilon)
        if not 0.0 <= epsilon <= 1.0 or math.isnan(epsilon):
            raise BadEpsilonError(f"epsilon {epsilon!r} outside [0, 1]")
    else:
        if not isinstance(top_k, int) or top_k < 1:
            raise BadKError(f"top_k {top_k!r} must be a positive integer")

    _check_depth(instance)
    if any(not c.fn([]) for c in instance.constant_compiled):
        return Interval(0.0, 0.0)
    env: list = [None] * instance.n

    def violated(depth: int) -> bool:
        return any(not c.fn(env) for c in instance.check_at[depth])

    def walk(depth: int) -> tuple[float, float]:
        if depth == instance.n:
            return 1.0, 1.0
        var = instance.variables[depth]
        if var.kind == "decision":
            lb = ub = 0.0
            for w in var.domain:
                env[depth] = w
                if not violated(depth):
                    child_lb, child_ub = walk(depth + 1)
                    lb = max(lb, child_lb)
                    ub = max(ub, child_ub)
                env[depth] = None
            return lb, ub

        probs = instance.distribution(depth, env)
        if epsilon is not None:
            expanded = {i for i, q in enumerate(probs) if q > 0.0 and q >= epsilon}
        else:
            ranked = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
            expanded = {i for i in ranked[:top_k] if probs[i] > 0.0}
        lb = ub = 0.0
        unexplored = 0.0
        for i, (w, q) in enumerate(zip(var.domain, probs)):
            if i not in expanded:
                unexplored += q
                continue
            env[depth] = w
            if not violated(depth):
                child_lb, child_ub = walk(depth + 1)
                lb += q * child_lb
                ub += q * child_ub
            env[depth] = None
        return lb, ub + unexplored

    lb, ub = walk(0)
    lb = min(1.0, max(0.0, lb))
    ub = min(1.0, max(lb, ub))
    return Interval(lb, ub)


def _most_probable_values(instance: Instance) -> list[int | None]:
    """Likeliest value per stochastic variable, ties toward smaller values.

    Conditional variables take the row selected by their parents' pinned
    values, so parents must be stochastic themselves.
    """
    pinned: list[int | None] = [None] * instance.n
    env: list = [None] * instance.n
    for i, var in enumerate(instance.variables):
        if var.kind != "stochastic":
            continue
        if var.cpt is not None:
            for p in var.cpt.parents:
                if instance.variables[instance.index_of[p]].kind == "decision":
                    raise UnsupportedConditionalParentsError(
                        f"{var.name} depends on decision variable {p}; the most "
                        "probable scenario is undefined before decisions are made"
                    )
        probs = instance.distribution(i, env)
        best_q = -1.0
        best_w = var.domain[0]
        for w, q in zip(var.domain, probs):
            if q > best_q:
                best_q, best_w = q, w
        pinned[i] = best_w
        env[i] = best_w
    return pinned


def most_probable_scenario_policy(instance: Instance) -> HeuristicPolicy:
    """Rigid policy from solving the most probable scenario's CSP.

    Stochastic variables are pinned to their likeliest values, the
    remaining deterministic problem is solved by plain backtracking, and
    the decisions are kept regardless of observations. The reported
    satisfaction is exact (recomputed on the full tree).
    """
    _check_depth(instance)
    pinned = _most_probable_values(instance)
    env: list = [None] * instance.n
    if any(not c.fn(env) for c in instance.constant_compiled):
        raise NoHeuristicPolicyError("a constant constraint is false")

    def solve(depth: int) -> bool:
        if depth == instance.n:
            return True
        var = instance.variables[depth]
        values = var.domain if var.kind == "decision" else (pinned[depth],)
        for w in values:
            env[depth] = w
            if all(c.fn(env) for c in instance.check_at[depth]) and solve(depth + 1):
                return True
            env[depth] = None
        return False

    if not solve(0):
        raise NoHeuristicPolicyError(
            "the most probable scenario admits no satisfying decisions"
        )

    policy = _rigid_policies(instance, env)[0]
    return HeuristicPolicy(policy, policy_satisfaction(instance, policy))


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _wilson(wins: int, n: int) -> tuple[float, float]:
    if wins == 0:
        low = 0.0
    else:
        low = None
    if wins == n:
        high = 1.0
    else:
        high = None
    p = wins / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    if low is None:
        low = max(0.0, center - half)
    if high is None:
        high = min(1.0, center + half)
    return low, high


def monte_carlo_policy_eval(instance: Instance, policy: PolicyNode, n: int,
                            seed: int) -> SampleEstimate:
    """Estimate a policy's satisfaction from n sampled scenarios.

    Deterministic in (instance, policy, n, seed): same inputs give
    bit-identical estimates. The 95% interval uses the Wilson score.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadSampleCountError(f"sample count {n!r} must be a positive integer")
    seed = int(seed) & _MASK64
    words = _splitmix64(seed)
    env: list = [None] * instance.n
    wins = 0
    for _ in range(n):
        node = policy
        satisfied = True
        for depth, var in enumerate(instance.variables):
            if var.kind == "decision":
                dec = _expect_decision(instance, depth, node)
                env[depth] = dec.chosen_value
                node = dec.child
            else:
                chance = _expect_chance(instance, depth, node)
                probs = instance.distribution(depth, env)
                u = (next(words) >> 11) * 2.0 ** -53
                cumulative = 0.0
                index = max(i for i, q in enumerate(probs) if q > 0.0)
                for i, q in enumerate(probs):
                    cumulative += q
                    if q > 0.0 and u < cumulative:
                        index = i
                        break
                env[depth] = var.domain[index]
                node = chance.children[index]
            if satisfied and any(not c.fn(env) for c in instance.check_at[depth]):
                satisfied = False  # keep walking so every sample draws one word per stochastic variable
        if satisfied and all(c.fn(env) for c in instance.constant_compiled):
            wins += 1
        env = [None] * instance.n
    estimate = wins / n
    ci_low, ci_high = _wilson(wins, n)
    return SampleEstimate(estimate, n, ci_low, ci_high, seed)
