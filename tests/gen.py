"""Seeded random generators for instances, policies and scenarios.

Sizes are capped so the enumeration oracle stays cheap: suites of several
hundred generated instances must solve in seconds.
"""

import functools
import itertools
import operator
import random

from stocs import (
    ChanceNode,
    ConditionalTable,
    Constraint,
    DecisionNode,
    Instance,
    Leaf,
    Objective,
    VariableSpec,
    compile_expression,
    expr_constraint,
    parse_expression,
    validate_instance,
)
from stocs.expr import interval_range

MAX_POLICIES = 2000
MAX_WORK = 20000  # policy count times scenario count


def distribution(rng: random.Random, k: int) -> tuple[float, ...]:
    weights = [rng.random() + 0.05 for _ in range(k)]
    total = functools.reduce(operator.add, weights)  # left to right: sum() is compensated since 3.12
    return tuple(w / total for w in weights)


def _policy_and_scenario_count(kinds, sizes):
    policies = 1
    scenarios = 1
    for kind, size in zip(reversed(kinds), reversed(sizes)):
        if kind == "decision":
            policies *= size
        else:
            policies = policies ** size
            scenarios *= size
        if policies > MAX_POLICIES:
            return policies, scenarios
    return policies, scenarios


def random_table(rng: random.Random, variables) -> Constraint:
    arity = rng.randint(1, min(3, len(variables)))
    scoped = rng.sample(list(variables), arity)
    keep = rng.uniform(0.25, 0.85)
    allowed = set()
    for combo in itertools.product(*(v.domain for v in scoped)):
        if rng.random() < keep:
            allowed.add(combo)
    # an empty table is legal (plain unsatisfiable), but rare is plenty
    if not allowed and rng.random() < 0.8:
        allowed.add(tuple(rng.choice(v.domain) for v in scoped))
    return Constraint(scope=tuple(v.name for v in scoped),
                      allowed=frozenset(allowed))


def random_instance(rng: random.Random, min_vars: int = 3, max_vars: int = 6,
                    max_domain: int = 3, zero_prob: bool = False) -> Instance:
    while True:
        n = rng.randint(min_vars, max_vars)
        kinds = [rng.choice(("decision", "stochastic")) for _ in range(n)]
        sizes = [rng.randint(2, max_domain) for _ in range(n)]
        policies, scenarios = _policy_and_scenario_count(kinds, sizes)
        if policies > MAX_POLICIES or policies * scenarios > MAX_WORK:
            continue
        variables = []
        for i, (kind, size) in enumerate(zip(kinds, sizes)):
            domain = tuple(range(size))
            if kind == "decision":
                variables.append(VariableSpec(f"v{i}", kind, domain))
                continue
            probs = list(distribution(rng, size))
            if zero_prob and size > 1 and rng.random() < 0.5:
                dead = rng.randrange(size)
                rest = functools.reduce(operator.add, probs) - probs[dead]
                probs = [0.0 if j == dead else p / rest for j, p in enumerate(probs)]
            variables.append(VariableSpec(f"v{i}", kind, domain,
                                          probabilities=tuple(probs)))
        constraints = tuple(random_table(rng, variables)
                            for _ in range(rng.randint(1, 4)))
        return validate_instance(Instance(
            variables=tuple(variables),
            constraints=constraints,
            theta=round(rng.random(), 3),
        ))


def random_cpt_instance(rng: random.Random, min_vars: int = 3,
                        max_vars: int = 5) -> Instance:
    """Like random_instance but some stochastic variables get parent tables."""
    while True:
        base = random_instance(rng, min_vars, max_vars)
        if not base.stochastic_indices:
            continue
        variables = list(base.variables)
        attached = False
        for i in base.stochastic_indices:
            if i == 0 or rng.random() < 0.4:
                continue
            pool = list(range(i))
            rng.shuffle(pool)
            parents = []
            product = 1
            for j in pool[:2]:
                product *= len(variables[j].domain)
                if product > 9:
                    break
                parents.append(j)
            if not parents:
                continue
            parents.sort()
            child = variables[i]
            rows = {
                given: distribution(rng, len(child.domain))
                for given in itertools.product(*(variables[j].domain for j in parents))
            }
            cpt = ConditionalTable(child.name,
                                   tuple(variables[j].name for j in parents), rows)
            variables[i] = VariableSpec(child.name, "stochastic", child.domain,
                                        cpt=cpt)
            attached = True
        if not attached:
            continue
        return validate_instance(Instance(
            variables=tuple(variables),
            constraints=base.constraints,
            theta=base.theta,
        ))


def inventory_instance(periods: int, theta: float = 0.5) -> Instance:
    """Order x_t in {0, 1}, see demand s_t in {0, 1, 2}, keep stock
    k_t = k_(t-1) + x_t - s_t in {0, ..., 3}, starting from 1.

    Each constraint links neighbouring periods only, so from the second
    period on every context is one stock variable.
    """
    variables, constraints = [], []
    for t in range(1, periods + 1):
        variables += [VariableSpec(f"x{t}", "decision", (0, 1)),
                      VariableSpec(f"s{t}", "stochastic", (0, 1, 2),
                                   probabilities=(0.3, 0.5, 0.2)),
                      VariableSpec(f"k{t}", "decision", (0, 1, 2, 3))]
        before = "1" if t == 1 else f"k{t - 1}"
        constraints.append(expr_constraint(f"k{t} = {before} + x{t} - s{t}"))
    return validate_instance(Instance(tuple(variables), tuple(constraints), theta))


def _linear_text(rng: random.Random, names: list[str]) -> str:
    """A sum of 1-4 terms over ``names``: variables with literal
    coefficients, negations, products of two variables and 0/1 atoms."""
    text = ""
    for name in rng.sample(names, rng.randint(1, min(4, len(names)))):
        term = rng.choice((name, name, f"{name} * {rng.choice(names)}",
                           f"({name} = {rng.randint(0, 2)})", f"-{name}"))
        c = rng.choice((1, 1, 2, 3))
        term = rng.choice((term, f"{c} * {term}", f"{term} * {c}")) if c > 1 else term
        text += f" {rng.choice('+-')} {term}" if text else term
    return text


def _linear_constraint_text(rng: random.Random, names: list[str], env: dict) -> str:
    """A comparison of a sum with a constant that ``env`` meets or nearly
    meets, now and then joined to another by ``or``/``and`` or negated."""
    def comparison() -> str:
        lhs = _linear_text(rng, names)
        value = compile_expression(parse_expression(lhs), {name: i for i, name in enumerate(env)})
        target = value(list(env.values())) + rng.randint(-1, 1)
        return f"{lhs} {rng.choice(('<=', '>=', '>=', '<=', '!=', '=', '<', '>'))} {target}"

    roll = rng.random()
    if roll < 0.15:
        return f"{comparison()} or {comparison()}"
    if roll < 0.25:
        return f"{comparison()} and {comparison()}"
    if roll < 0.3:
        return f"not ({comparison()})"
    return comparison()


def random_linear_instance(rng: random.Random, min_vars: int = 3,
                           max_vars: int = 6) -> Instance:
    """Like random_instance, with linear expression constraints and a linear
    objective over small integer domains; about one in three also keeps a
    random table."""
    while True:
        base = random_instance(rng, min_vars, max_vars)
        shifts = [rng.choice((-1, 0, 0, 1, 5)) for _ in base.variables]
        variables = tuple(VariableSpec(v.name, v.kind, tuple(w + shift for w in v.domain),
                                       probabilities=v.probabilities)
                          for v, shift in zip(base.variables, shifts))
        names = [v.name for v in variables]
        env = {v.name: rng.choice(v.domain) for v in variables}
        constraints = [expr_constraint(_linear_constraint_text(rng, names, env))
                       for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            constraints.append(random_table(rng, variables))
        objective = parse_expression(_linear_text(rng, names))
        low, _ = interval_range(objective, {v.name: v.domain for v in variables})
        return validate_instance(Instance(
            variables=variables,
            constraints=tuple(constraints),
            theta=base.theta,
            objective=Objective(objective, low - rng.randint(1, 5)),
        ))


def random_policy(rng: random.Random, instance: Instance, depth: int = 0,
                  extra: tuple = ()):
    """A policy tree; each decision takes a value of its domain or of ``extra``."""
    if depth == instance.n:
        return Leaf()
    var = instance.variables[depth]
    if var.kind == "decision":
        return DecisionNode(var.name, rng.choice(var.domain + extra),
                            random_policy(rng, instance, depth + 1, extra))
    return ChanceNode(var.name, tuple(
        random_policy(rng, instance, depth + 1, extra) for _ in var.domain
    ))


def random_scenario(rng: random.Random, instance: Instance) -> dict:
    return {
        var.name: rng.choice(var.domain)
        for var in instance.variables if var.kind == "stochastic"
    }


def swap_decision_later(instance: Instance) -> Instance | None:
    """Move one decision variable past the stochastic variable after it."""
    for i in range(instance.n - 1):
        first, second = instance.variables[i], instance.variables[i + 1]
        if first.kind == "decision" and second.kind == "stochastic":
            if second.cpt is not None:
                continue
            variables = list(instance.variables)
            variables[i], variables[i + 1] = second, first
            return validate_instance(Instance(
                variables=tuple(variables),
                constraints=instance.constraints,
                theta=instance.theta,
            ))
    return None


def swap_pair(rng: random.Random) -> tuple[Instance, Instance]:
    """An instance plus its decision-moved-later twin, both enumeration-sized.

    Swapping grows the policy tree (the moved decision sees one more
    observation), so the swapped order gets its own cap check.
    """
    while True:
        instance = random_instance(rng)
        swapped = swap_decision_later(instance)
        if swapped is None:
            continue
        kinds = [v.kind for v in swapped.variables]
        sizes = [len(v.domain) for v in swapped.variables]
        policies, scenarios = _policy_and_scenario_count(kinds, sizes)
        if policies > MAX_POLICIES or policies * scenarios > MAX_WORK:
            continue
        return instance, swapped
