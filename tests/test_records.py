"""The record classes' contract: constructor, repr, equality, hash, immutability.

One record of each class, built with every field given positionally, must
print, compare and hash as the `dataclasses` versions of these classes did;
the reprs below were printed by them.
"""

import dataclasses
import hashlib

import pytest

from conftest import INSTANCES_DIR
from stocs import (
    ChanceNode,
    ConditionalTable,
    Constraint,
    DecideResult,
    DecisionNode,
    Expr,
    HeuristicPolicy,
    Instance,
    Interval,
    Leaf,
    Objective,
    OptimizeResult,
    PruneRules,
    SampleEstimate,
    SatisfactionResult,
    SearchStats,
    VariableSpec,
    fc_max,
    load_instance,
    parse_policy,
    serialize_policy,
)
from stocs.expr import Binary, IntLiteral, Unary, VariableRef
from stocs.model import CompiledConstraint

X = VariableRef("x")
CASES = [
    (Expr, (), "Expr()"),
    (IntLiteral, (3,), "IntLiteral(value=3)"),
    (VariableRef, ("x",), "VariableRef(name='x')"),
    (Unary, ("-", IntLiteral(3)), "Unary(op='-', operand=IntLiteral(value=3))"),
    (Binary, ("+", X, IntLiteral(1)),
     "Binary(op='+', left=VariableRef(name='x'), right=IntLiteral(value=1))"),
    (ConditionalTable, ("s", ("x",), {(0,): (0.5, 0.5), (1,): (0.25, 0.75)}),
     "ConditionalTable(child='s', parents=('x',), rows={(0,): (0.5, 0.5), (1,): (0.25, 0.75)})"),
    (VariableSpec, ("s", "stochastic", (0, 1), (0.5, 0.5), None),
     "VariableSpec(name='s', kind='stochastic', domain=(0, 1), probabilities=(0.5, 0.5),"
     " cpt=None)"),
    (Constraint, (("x",), frozenset({(1,)}), None),
     "Constraint(scope=('x',), allowed=frozenset({(1,)}), expression=None)"),
    (Objective, (X, -1.5), "Objective(expression=VariableRef(name='x'), violation_value=-1.5)"),
    (CompiledConstraint, (Constraint(("x",), None, X), (0,), 0, -1, abs),
     "CompiledConstraint(source=Constraint(scope=('x',), allowed=None,"
     " expression=VariableRef(name='x')), scope_idx=(0,), last_idx=0, second_last_idx=-1,"
     " fn=<built-in function abs>)"),
    (Instance, ((VariableSpec("x", "decision", (0, 1)),), (Constraint(("x",), None, X),), 0.5,
                None, "tiny"),
     "Instance(variables=(VariableSpec(name='x', kind='decision', domain=(0, 1),"
     " probabilities=None, cpt=None),), constraints=(Constraint(scope=('x',), allowed=None,"
     " expression=VariableRef(name='x')),), theta=0.5, objective=None, name='tiny')"),
    (Leaf, (), "Leaf()"),
    (DecisionNode, ("x", 1, Leaf()), "DecisionNode(variable='x', chosen_value=1, child=Leaf())"),
    (ChanceNode, ("s", (Leaf(), DecisionNode("x", 0, Leaf()))),
     "ChanceNode(variable='s', children=(Leaf(), DecisionNode(variable='x', chosen_value=0,"
     " child=Leaf())))"),
    (SearchStats, (1, 2, 3, 4, 5, 6),
     "SearchStats(nodes_visited=1, chance_prunes=2, decision_prunes=3, fc_wipeouts=4,"
     " fc_mass_prunes=5, cache_hits=6)"),
    (SatisfactionResult, (0.5, Leaf(), SearchStats()),
     "SatisfactionResult(probability=0.5, policy=Leaf(), stats=SearchStats(nodes_visited=0,"
     " chance_prunes=0, decision_prunes=0, fc_wipeouts=0, fc_mass_prunes=0, cache_hits=0))"),
    (PruneRules, (True, False, True, False),
     "PruneRules(decision_stop=True, chance_abort=False, fc_wipeout=True, fc_mass=False)"),
    (DecideResult, (False, None, SearchStats(7), 0.25),
     "DecideResult(satisfiable=False, policy=None, stats=SearchStats(nodes_visited=7,"
     " chance_prunes=0, decision_prunes=0, fc_wipeouts=0, fc_mass_prunes=0, cache_hits=0),"
     " maximum=0.25)"),
    (Interval, (0.25, 0.75), "Interval(lb=0.25, ub=0.75)"),
    (SampleEstimate, (0.5, 100, 0.4, 0.6, 7),
     "SampleEstimate(estimate=0.5, n=100, ci_low=0.4, ci_high=0.6, seed=7)"),
    (HeuristicPolicy, (Leaf(), 0.5), "HeuristicPolicy(policy=Leaf(), exact_satisfaction=0.5)"),
    (OptimizeResult, (Leaf(), 1.5, 0.5),
     "OptimizeResult(policy=Leaf(), expected_value=1.5, satisfaction=0.5)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_and_equality(cls, fields, text):
    record = cls(*fields)
    assert repr(record) == text
    assert record == cls(*fields)
    assert record != fields
    assert cls(**dict(zip(cls.__match_args__, fields))) == record


@pytest.mark.parametrize("cls, fields, text", [c for c in CASES if c[0] is not SearchStats],
                         ids=[i for i in IDS if i != "SearchStats"])
def test_frozen_records_hash_their_fields_and_refuse_writes(cls, fields, text):
    record = cls(*fields)
    try:
        expected = hash(fields)
    except TypeError:  # a dict field, as in a conditional table's rows
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    name = (cls.__match_args__ or ("anything",))[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(record, name)


def test_different_classes_with_equal_fields_differ():
    assert IntLiteral(1) != VariableRef(1)
    assert Interval(0.25, 0.75) != SampleEstimate(0.25, 0.75, 0, 0, 0)


def test_defaults():
    assert VariableSpec("x", "decision", (0, 1)) == VariableSpec("x", "decision", (0, 1), None, None)
    assert Constraint(("x",)) == Constraint(("x",), None, None)
    assert Objective(X) == Objective(X, 0.0)
    assert Instance((), (), 0.5) == Instance((), (), 0.5, None, "")
    assert PruneRules() == PruneRules(True, True, True, True)
    assert DecideResult(True, None, SearchStats()).maximum is None
    with pytest.raises(TypeError):
        DecisionNode("x", 1)


def test_search_stats_are_mutable_and_unhashable():
    stats = SearchStats()
    stats.nodes_visited += 2
    stats.cache_hits = 5
    assert stats == SearchStats(2, 0, 0, 0, 0, 5)
    assert list(stats.as_dict().items()) == [
        ("nodes_visited", 2), ("chance_prunes", 0), ("decision_prunes", 0),
        ("fc_wipeouts", 0), ("fc_mass_prunes", 0), ("cache_hits", 5)]
    with pytest.raises(TypeError):
        hash(stats)


def test_production_fc_max_policy_round_trips():
    policy = fc_max(load_instance(INSTANCES_DIR / "production.scsp")).policy
    text = repr(policy)
    assert (len(text), hashlib.sha256(text.encode("utf-8")).hexdigest()) == (
        744, "58c6779dfdd7163b912fc5078a96acd472d59b59c850ad49836e5edcb28f0ba6")
    assert parse_policy(serialize_policy(policy)) == policy
