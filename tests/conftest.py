from pathlib import Path

import pytest

from stocs import (
    ChanceNode,
    DecisionNode,
    Instance,
    VariableSpec,
    expr_constraint,
    semantics,
    validate_instance,
)

INSTANCES_DIR = Path(__file__).resolve().parent.parent / "instances"


def make_instance(variables, constraints=(), theta=0.5, name="", objective=None):
    """Build and validate an instance from (name, kind, domain[, dist]) tuples.

    kind is "d" for decision or "s" for stochastic; dist is either a
    probability tuple or a ConditionalTable.
    """
    specs = []
    for entry in variables:
        var_name, kind, domain = entry[0], entry[1], tuple(entry[2])
        kind = {"d": "decision", "s": "stochastic"}[kind]
        probabilities = None
        cpt = None
        if len(entry) > 3:
            if isinstance(entry[3], tuple):
                probabilities = entry[3]
            else:
                cpt = entry[3]
        specs.append(VariableSpec(var_name, kind, domain,
                                  probabilities=probabilities, cpt=cpt))
    return validate_instance(Instance(
        variables=tuple(specs),
        constraints=tuple(constraints),
        theta=theta,
        objective=objective,
        name=name,
    ))


def uncached(run, *args, **kwargs):
    """Call a search, optimize_expected, restricted_tree_bounds or a walk of
    one given policy with the subtree cache off: it may store no entry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "CACHE_ENTRIES", 0)
        return run(*args, **kwargs)


def same_tree(a, b) -> bool:
    """Whether two policies expand to equal trees. ``==`` compares shared
    subtrees once per path; this compares each pair of node objects once."""
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if type(x) is not type(y):
            return False
        if isinstance(x, DecisionNode):
            if (x.variable, x.chosen_value) != (y.variable, y.chosen_value):
                return False
            stack.append((x.child, y.child))
        elif isinstance(x, ChanceNode):
            if x.variable != y.variable or len(x.children) != len(y.children):
                return False
            stack.extend(zip(x.children, y.children))
    return True


@pytest.fixture
def instances_dir():
    return INSTANCES_DIR


@pytest.fixture
def instance_a():
    # decide x before observing uniform s; x = s holds half the time
    return make_instance(
        [("x", "d", (0, 1)), ("s", "s", (0, 1), (0.5, 0.5))],
        [expr_constraint("x = s")],
        theta=0.5, name="a")


@pytest.fixture
def instance_b():
    # observe s, then decide x; recourse x(s)=s always satisfies
    return make_instance(
        [("s", "s", (0, 1), (0.5, 0.5)), ("x", "d", (0, 1))],
        [expr_constraint("x = s")],
        theta=0.5, name="b")


@pytest.fixture
def instance_c():
    # x must match s1 (seen) and s2 (unseen): best is 0.5
    return make_instance(
        [("s1", "s", (0, 1), (0.5, 0.5)),
         ("x", "d", (0, 1)),
         ("s2", "s", (0, 1), (0.5, 0.5))],
        [expr_constraint("x = s1 and x = s2")],
        theta=0.5, name="c")


@pytest.fixture
def fc_demo():
    # assigning x=0 prunes s=0, leaving mass 0.5 < 0.6
    return make_instance(
        [("x", "d", (0, 1)), ("s", "s", (0, 1, 2), (0.5, 0.3, 0.2))],
        [expr_constraint("x != s")],
        theta=0.6, name="fc_demo")


@pytest.fixture
def production():
    grid = (100, 200, 300, 400, 500)
    uniform = (0.2, 0.2, 0.2, 0.2, 0.2)
    return make_instance(
        [("x1", "d", grid), ("s1", "s", grid, uniform),
         ("x2", "d", grid), ("s2", "s", grid, uniform)],
        [expr_constraint("x1 >= s1"), expr_constraint("x1 - s1 + x2 >= s2")],
        theta=0.8, name="production")
