"""Policy-tree semantics and the brute-force oracle.

A policy fixes each decision variable's value as a function of the
stochastic outcomes observed before it in the variable order. Its
satisfaction is the probability mass of the leaves whose complete
assignments satisfy every constraint. An instance is satisfiable when
some policy reaches satisfaction >= theta (non-strict, with 1e-9 slack).
Scenario probabilities follow the chain rule (a plain product without
conditional tables), and one walker scores any given policy. Policies
built by the searches share equal subtrees, so the walker scores a subtree
once per node object and key (Instance.key_at), not once per path. A given
policy's shape is checked once, in full, where it enters the API
(_check_policy); the walkers trust it, so no walk scores a malformed tree.

The oracle enumerates every policy and is the ground truth the search
algorithms are tested against. It is deliberately naive and guarded by a
policy-count cap.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence

from ._record import record
from .errors import (
    InstanceTooDeepError,
    MalformedPolicyError,
    MissingAssignmentError,
    MissingParentValueError,
    OracleCapExceededError,
    OutOfDomainValueError,
    PartialAssignmentError,
    StocsError,
)
from .model import ORACLE_CAP, PROB_TOL, Instance, _check_theta, _count_policies, _repr

__all__ = [
    "Leaf", "DecisionNode", "ChanceNode", "PolicyNode",
    "SearchStats", "SatisfactionResult",
    "scenario_probability", "check_assignment", "policy_satisfaction",
    "enumerate_policies", "oracle_max_satisfaction", "is_satisfiable_oracle",
    "scenarios", "induced_assignment", "first_policy",
]

_FRAME_MARGIN = 100  # stack frames for a recursion's caller and helpers
# keys one walk stores at most; past it the walk caches nothing more
CACHE_ENTRIES = 100_000


@record
class Leaf:
    pass


@record
class DecisionNode:
    variable: str
    chosen_value: int
    child: "PolicyNode"


@record
class ChanceNode:
    variable: str
    children: tuple["PolicyNode", ...]  # one child per domain value, in domain order


PolicyNode = Leaf | DecisionNode | ChanceNode

LEAF = Leaf()  # the one leaf every policy builder shares


@record(frozen=False)
class SearchStats:
    nodes_visited: int = 0
    chance_prunes: int = 0
    decision_prunes: int = 0
    fc_wipeouts: int = 0
    fc_mass_prunes: int = 0
    cache_hits: int = 0  # subtree results reused from the context cache

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__match_args__}


@record
class SatisfactionResult:
    probability: float
    policy: PolicyNode | None
    stats: SearchStats


def _not_in_domain(error: type[StocsError], label: str, value, domain) -> StocsError:
    return error(f"{label}={_repr(value, error, label)} not in domain {domain}")


def _misplaced(expected: str, node) -> MalformedPolicyError:
    where = f"expected {expected}"
    return MalformedPolicyError(f"{where}, got {_repr(node, MalformedPolicyError, where)}")


def _missing(name: str) -> MissingAssignmentError:
    return MissingAssignmentError(f"scenario misses stochastic variable {name}")


def _env(instance: Instance, by_kind: Mapping[str, Mapping[str, int]],
         missing: Callable[[str], StocsError] | None) -> list:
    """The environment list of the values ``by_kind[var.kind]`` gives, read
    in variable order: a value outside its domain raises
    OutOfDomainValueError, and a variable it lacks ``missing(name)``, or
    stays None without ``missing`` or where its kind has no mapping."""
    env: list = [None] * instance.n
    for i, var in enumerate(instance.variables):
        source = by_kind.get(var.kind, ())
        if var.name in source:
            value = source[var.name]
            if value not in var.domain:
                raise _not_in_domain(OutOfDomainValueError, var.name, value, var.domain)
            env[i] = value
        elif missing is not None and var.kind in by_kind:
            raise missing(var.name)
    return env


def scenario_probability(instance: Instance, scenario: Mapping[str, int],
                         decisions: Mapping[str, int] | None = None) -> float:
    """Chain-rule probability of a complete stochastic outcome.

    Conditional variables read their parents from the scenario and, for
    decision parents, from ``decisions``. Without tables this is the
    product of the outcome's independent probabilities.
    """
    env = _env(instance, {"stochastic": scenario, "decision": decisions or {}}, None)
    product = 1.0
    for i in instance.stochastic_indices:
        var = instance.variables[i]
        if env[i] is None:
            raise _missing(var.name)
        if var.cpt is not None:
            for p in var.cpt.parents:
                if env[instance.index_of[p]] is None:
                    raise MissingParentValueError(
                        f"{var.name} needs a value for its parent {p}"
                    )
        probs = instance.distribution(i, env)
        product *= probs[var.domain.index(env[i])]
    return product


def check_assignment(instance: Instance, assignment: Mapping[str, int]) -> bool:
    """True iff the complete assignment satisfies every constraint."""
    env = _env(instance, {"decision": assignment, "stochastic": assignment},
               lambda name: PartialAssignmentError(f"no value for variable {name}"))
    return not instance.constant_false and all(
        test(env) for test in instance.check_at if test is not None)


def _check_policy(instance: Instance, policy: PolicyNode) -> None:
    """Raise MalformedPolicyError unless ``policy`` is a policy tree of the
    instance. The check goes depth by depth over the distinct node objects
    at each depth, in the order they are first reached, so it sees every
    node once per depth, also below a violated constraint or a
    zero-probability value, and reports a shallowest fault."""
    level = {id(policy): policy}
    for depth, var in enumerate(instance.variables):
        below: dict = {}
        for node in level.values():
            if var.kind == "decision":
                if not isinstance(node, DecisionNode) or node.variable != var.name:
                    raise _misplaced(f"a decision node for {var.name} at depth {depth}", node)
                if node.chosen_value not in var.domain:
                    raise _not_in_domain(MalformedPolicyError, f"decision {var.name}",
                                         node.chosen_value, var.domain)
                below[id(node.child)] = node.child
            else:
                if not isinstance(node, ChanceNode) or node.variable != var.name:
                    raise _misplaced(f"a chance node for {var.name} at depth {depth}", node)
                if len(node.children) != len(var.domain):
                    raise MalformedPolicyError(f"chance node for {var.name} has "
                                               f"{len(node.children)} children, "
                                               f"domain has {len(var.domain)}")
                below.update((id(child), child) for child in node.children)
        level = below
    for node in level.values():
        if not isinstance(node, Leaf):
            raise _misplaced(f"a leaf at depth {instance.n}", node)


def _remember(memo: dict, key: tuple | None, result):
    """Store a subtree result under its key (None: not cached) while there is room."""
    if key is not None and len(memo) < CACHE_ENTRIES:
        memo[key] = result
    return result


def _check_depth(instance: Instance) -> None:
    """Raise InstanceTooDeepError when a recursion taking one frame per
    variable would pass the recursion limit (never raised here)."""
    frames = instance.n + _FRAME_MARGIN
    limit = sys.getrecursionlimit()
    if frames > limit:
        raise InstanceTooDeepError(
            f"{instance.n} variables need about {frames} stack frames, "
            f"above the recursion limit of {limit}"
        )


def _policy_value(instance: Instance, policy: PolicyNode) -> float:
    """Satisfied mass of a policy that _check_policy passes.

    Constraints are checked as soon as their last scope variable gets a
    value, so subtrees below a violated constraint are not walked, and
    under a false constant constraint nothing is. At a keyed depth a node
    object is scored once per key, from its first visit, as the sampler
    does: ``Instance.key_at[depth]`` holds all that the walk below reads of
    the assigned prefix.
    """
    if instance.constant_false:
        return 0.0
    key_at = instance.key_at
    env: list = [None] * instance.n
    memo: dict = {}

    def walk(depth: int, node: PolicyNode) -> float:
        if depth == instance.n:
            return 1.0
        key = None if key_at[depth] is None else (depth, id(node), key_at[depth](env))
        if key in memo:
            return memo[key]
        var = instance.variables[depth]
        test = instance.check_at[depth]
        if var.kind == "decision":
            env[depth] = node.chosen_value
            value = walk(depth + 1, node.child) if test is None or test(env) else 0.0
        else:
            probs = instance.distribution(depth, env)
            value = 0.0
            for w, q, child in zip(var.domain, probs, node.children):
                if q == 0.0:
                    continue
                env[depth] = w
                value += q * (walk(depth + 1, child) if test is None or test(env) else 0.0)
            env[depth] = None
        return _remember(memo, key, value)

    return walk(0, policy)


def policy_satisfaction(instance: Instance, policy: PolicyNode) -> float:
    """Probability mass of the policy's satisfying leaves."""
    _check_depth(instance)
    _check_policy(instance, policy)
    return _policy_value(instance, policy)


def _subpolicies(instance: Instance, depth: int) -> Iterator[PolicyNode]:
    if depth == instance.n:
        yield LEAF
        return
    var = instance.variables[depth]
    if var.kind == "decision":
        for value in var.domain:
            for child in _subpolicies(instance, depth + 1):
                yield DecisionNode(var.name, value, child)
    else:
        # materializing the subtree pool is fine under the cap; the product
        # shares child trees between policies
        pool = list(_subpolicies(instance, depth + 1))
        for combo in itertools.product(pool, repeat=len(var.domain)):
            yield ChanceNode(var.name, combo)


def enumerate_policies(instance: Instance, cap: int = ORACLE_CAP) -> Iterator[PolicyNode]:
    """Yield every distinct policy once, in domain-order depth-first order.

    Earlier variables vary slowest, so the stream order matches the
    tie-breaking rule used by the search algorithms.
    """
    _check_depth(instance)
    _check_cap(cap)
    count = _count_policies(instance.variables, cap)
    if count > cap:
        raise OracleCapExceededError(count, cap)
    return _subpolicies(instance, 0)


def _check_cap(cap) -> None:
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise StocsError(f"cap {_repr(cap, StocsError, 'cap')} is not an integer")


def oracle_max_satisfaction(instance: Instance, cap: int = ORACLE_CAP) -> SatisfactionResult:
    """Exact maximum satisfaction by exhaustive policy enumeration.

    Ties go to the first policy in enumeration order. nodes_visited counts
    scored policies.
    """
    best = -1.0
    best_policy: PolicyNode | None = None
    stats = SearchStats()
    for policy in enumerate_policies(instance, cap=cap):
        stats.nodes_visited += 1
        score = _policy_value(instance, policy)
        if score > best:
            best = score
            best_policy = policy
            if best >= 1.0:
                break
    return SatisfactionResult(best, best_policy, stats)


def is_satisfiable_oracle(instance: Instance, theta: float | None = None,
                          cap: int = ORACLE_CAP) -> bool:
    threshold = instance.theta if theta is None else _check_theta(theta)
    return oracle_max_satisfaction(instance, cap=cap).probability >= threshold - PROB_TOL


def scenarios(instance: Instance) -> Iterator[dict[str, int]]:
    """All complete stochastic outcomes, in domain order per variable."""
    names = [instance.variables[i].name for i in instance.stochastic_indices]
    domains = [instance.variables[i].domain for i in instance.stochastic_indices]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def induced_assignment(instance: Instance, policy: PolicyNode,
                       scenario: Mapping[str, int]) -> dict[str, int]:
    """Complete assignment obtained by running the policy on a scenario."""
    _check_policy(instance, policy)
    env = _env(instance, {"stochastic": scenario}, _missing)
    node = policy
    for i, var in enumerate(instance.variables):
        if var.kind == "decision":
            env[i] = node.chosen_value
            node = node.child
        else:
            node = node.children[var.domain.index(env[i])]
    return {var.name: value for var, value in zip(instance.variables, env)}


def _rigid_policies(instance: Instance,
                    values: Sequence[int | None] | None = None) -> list[PolicyNode]:
    """The rigid policy from every depth 0..n down, in one backward pass:
    decision variable i takes ``values[i]`` (default: its first domain value)
    whatever was observed, and entry d + 1 is every child of entry d."""
    table: list[PolicyNode] = [LEAF]
    for depth in range(instance.n - 1, -1, -1):
        var = instance.variables[depth]
        if var.kind == "decision":
            value = var.domain[0] if values is None else values[depth]
            table.append(DecisionNode(var.name, value, table[-1]))
        else:
            table.append(ChanceNode(var.name, (table[-1],) * len(var.domain)))
    table.reverse()
    return table


def first_policy(instance: Instance) -> PolicyNode:
    """The first policy in enumeration order: decision variables take their
    first domain value, and chance nodes repeat one subtree per value."""
    return _rigid_policies(instance)[0]
