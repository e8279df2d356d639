"""Instance (.scsp) and policy file formats.

An instance is one JSON document:

    {"name": str?, "theta": num,
     "variables": [{"name": str, "kind": "decision"|"stochastic",
                    "domain": [int...],
                    "probabilities": [num...]?,
                    "cpt": {"parents": [str...],
                            "rows": [{"given": [int...],
                                      "probabilities": [num...]}...]}?}...],
     "constraints": [{"type": "expr", "text": str} |
                     {"type": "table", "scope": [str...],
                      "tuples": [[int...]...]}...],
     "objective": {"text": str, "violation_value": num?}?}

The variable array order is the observation/decision order. Unknown keys
warn instead of failing, for forward compatibility. Emitted files are
UTF-8 with LF newlines.

A policy is one compact JSON node: {"kind":"leaf"}, {"kind":"decision",
"variable":str,"value":int,"child":node} or {"kind":"chance",
"variable":str,"children":[node...]}. It is written as a graph: each
distinct subtree once, and each later occurrence as {"ref":k}, where k
numbers the non-leaf nodes in preorder of their first occurrence.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from typing import Any

from . import expr as _expr
from .errors import FormatError, MalformedPolicyError, StocsError
from .model import (
    ConditionalTable,
    Constraint,
    Instance,
    Objective,
    VariableSpec,
    _as_float,
    _only,
    _total,
    validate_instance,
)
from .semantics import LEAF, ChanceNode, DecisionNode, Leaf, PolicyNode

__all__ = [
    "FormatWarning",
    "parse_instance", "load_instance", "dump_instance",
    "serialize_policy", "parse_policy",
]


class FormatWarning(UserWarning):
    """An instance document contains keys this version does not know."""


def _require(obj: Any, kind: type, what: str, field: str = ""):
    if not isinstance(obj, kind):
        raise FormatError(f"{what}{field} must be a {kind.__name__}, got {type(obj).__name__}")
    return obj


def _warn_unknown(obj: dict, known: tuple[str, ...], what: str) -> None:
    for key in obj:
        if key not in known:
            warnings.warn(f"{what}: ignoring unknown key {key!r}", FormatWarning,
                          stacklevel=3)


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from None
    except ValueError:  # an integer of more digits than sys.get_int_max_str_digits()
        raise FormatError("not valid JSON: an integer literal too long to read") from None


# Each reader tests a whole list in one pass of C loops, and walks it value
# by value only to word the first value it refuses.

def _int_tuple(obj: Any, what: str, field: str = "") -> tuple[int, ...]:
    if type(obj) is not list or not _only({int}, obj):
        _require(obj, list, what, field)
        for v in obj:
            if not isinstance(v, int) or isinstance(v, bool):
                raise FormatError(f"{what}{field} must contain integers, got {v!r}")
    return tuple(obj)


def _float_tuple(obj: Any, what: str, field: str, renormalize: bool) -> tuple[float, ...]:
    if type(obj) is not list or not (_only({float}, obj) and all(map(math.isfinite, obj))):
        _require(obj, list, what, field)
        obj = [_finite(v, what + field) for v in obj]
    return tuple(_rescale(obj) if renormalize else obj)


def _finite(v: Any, what: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise FormatError(f"{what} must contain numbers, got {v!r}")
    if not math.isfinite(number := _as_float(v)):
        raise FormatError(f"{what} must contain finite numbers, got {v!r}")
    return number


def _rescale(probs: list[float]) -> list[float]:
    if any(p < 0.0 for p in probs):
        return probs  # leave it to validation to refuse
    total = _total(probs)
    if not math.isfinite(total):
        # the entries are finite, so only the sum overflowed: scale first
        peak = max(probs)
        probs = [p / peak for p in probs]
        total = _total(probs)
    if total <= 0.0:
        return probs
    return [p / total for p in probs]


def _parse_cpt(obj: Any, child: str, renormalize: bool) -> ConditionalTable:
    what = f"variable {child} cpt"
    _require(obj, dict, what)
    _warn_unknown(obj, ("parents", "rows"), what)
    if "parents" not in obj or "rows" not in obj:
        raise FormatError(f"{what} needs parents and rows")
    parents = _require(obj["parents"], list, what, " parents")
    for p in parents:
        _require(p, str, what, " parent")
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    for i, row in enumerate(_require(obj["rows"], list, what, " rows")):
        at = f"{what} row {i}"
        _require(row, dict, at)
        _warn_unknown(row, ("given", "probabilities"), at)
        if "given" not in row or "probabilities" not in row:
            raise FormatError(f"{at} needs given and probabilities")
        given = _int_tuple(row["given"], at, " given")
        if given in rows:
            raise FormatError(f"{what} has two rows for {list(given)}")
        rows[given] = _float_tuple(row["probabilities"], at, " probabilities", renormalize)
    return ConditionalTable(child, tuple(parents), rows)


def _parse_variable(obj: Any, position: int, renormalize: bool) -> VariableSpec:
    what = f"variables[{position}]"
    _require(obj, dict, what)
    _warn_unknown(obj, ("name", "kind", "domain", "probabilities", "cpt"), what)
    for key in ("name", "kind", "domain"):
        if key not in obj:
            raise FormatError(f"{what} misses {key!r}")
    name = _require(obj["name"], str, what, " name")
    kind = _require(obj["kind"], str, what, " kind")
    domain = _int_tuple(obj["domain"], what, " domain")
    probabilities = None
    if "probabilities" in obj:
        probabilities = _float_tuple(obj["probabilities"], what, " probabilities", renormalize)
    cpt = _parse_cpt(obj["cpt"], name, renormalize) if "cpt" in obj else None
    return VariableSpec(name, kind, domain, probabilities=probabilities, cpt=cpt)


def _parse_constraint(obj: Any, position: int) -> Constraint:
    what = f"constraints[{position}]"
    _require(obj, dict, what)
    if obj.get("type") == "expr":
        _warn_unknown(obj, ("type", "text"), what)
        if "text" not in obj:
            raise FormatError(f"{what} misses 'text'")
        names: dict = {}
        ast = _expr.parse_expression(_require(obj["text"], str, what, " text"), names)
        return Constraint(scope=tuple(names), expression=ast)
    if obj.get("type") == "table":
        _warn_unknown(obj, ("type", "scope", "tuples"), what)
        if "scope" not in obj or "tuples" not in obj:
            raise FormatError(f"{what} needs scope and tuples")
        scope = _require(obj["scope"], list, what, " scope")
        for s in scope:
            _require(s, str, what, " scope entry")
        tuples = _require(obj["tuples"], list, what, " tuples")
        if _only({list}, tuples) and _only({int}, itertools.chain.from_iterable(tuples)):
            allowed = frozenset(map(tuple, tuples))
        else:
            allowed = frozenset(_int_tuple(t, f"{what} tuple {i}") for i, t in enumerate(tuples))
        return Constraint(scope=tuple(scope), allowed=allowed)
    raise FormatError(f"{what} type must be 'expr' or 'table', got {obj.get('type')!r}")


def parse_instance(text: str, renormalize: bool = False) -> Instance:
    """Parse and validate one .scsp JSON document.

    With renormalize=True, probability vectors are scaled to sum to 1
    before validation (negative entries still fail). Every fault of the
    file's shape is found before any model check runs, so it is the one
    reported; validation keeps the records built here.
    """
    doc = _load_json(text)
    _require(doc, dict, "instance document")
    _warn_unknown(doc, ("name", "theta", "variables", "constraints", "objective"),
                  "instance document")
    if "theta" not in doc:
        raise FormatError("instance document misses 'theta'")
    if "variables" not in doc:
        raise FormatError("instance document misses 'variables'")
    theta = doc["theta"]
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise FormatError(f"theta must be a number, got {theta!r}")
    variables = tuple(
        _parse_variable(v, i, renormalize)
        for i, v in enumerate(_require(doc["variables"], list, "variables"))
    )
    constraints = tuple(
        _parse_constraint(c, i)
        for i, c in enumerate(_require(doc.get("constraints", []), list, "constraints"))
    )
    objective = None
    if "objective" in doc:
        obj = _require(doc["objective"], dict, "objective")
        _warn_unknown(obj, ("text", "violation_value"), "objective")
        if "text" not in obj:
            raise FormatError("objective misses 'text'")
        violation = obj.get("violation_value", 0.0)
        if not isinstance(violation, (int, float)) or isinstance(violation, bool):
            raise FormatError(f"violation_value must be a number, got {violation!r}")
        violation_value = _as_float(violation)
        if not math.isfinite(violation_value):
            raise FormatError(f"violation_value must be finite, got {violation!r}")
        objective = Objective(
            _expr.parse_expression(_require(obj["text"], str, "objective text")),
            violation_value,
        )
    name = doc.get("name", "")
    return validate_instance(Instance(
        variables=variables,
        constraints=constraints,
        theta=_as_float(theta),
        objective=objective,
        name=_require(name, str, "name"),
    ))


def _read(path, error: type[StocsError]) -> str:
    """The UTF-8 text of a file; other bytes raise ``error``."""
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    # the newlines text mode reads: cheaper than its decoder for one read
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_instance(path, renormalize: bool = False) -> Instance:
    return parse_instance(_read(path, FormatError), renormalize=renormalize)


def dump_instance(instance: Instance) -> str:
    """Serialize an instance; parse_instance inverts it."""
    doc: dict[str, Any] = {}
    if instance.name:
        doc["name"] = instance.name
    doc["theta"] = instance.theta
    doc["variables"] = []
    for var in instance.variables:
        entry: dict[str, Any] = {
            "name": var.name, "kind": var.kind, "domain": list(var.domain),
        }
        if var.probabilities is not None:
            entry["probabilities"] = list(var.probabilities)
        if var.cpt is not None:
            entry["cpt"] = {
                "parents": list(var.cpt.parents),
                "rows": [
                    {"given": list(given), "probabilities": list(probs)}
                    for given, probs in var.cpt.rows.items()
                ],
            }
        doc["variables"].append(entry)
    doc["constraints"] = []
    for c in instance.constraints:
        if c.expression is not None:
            doc["constraints"].append(
                {"type": "expr", "text": _expr.format_expression(c.expression)}
            )
        else:
            doc["constraints"].append({
                "type": "table",
                "scope": list(c.scope),
                "tuples": sorted(list(t) for t in c.allowed),
            })
    if instance.objective is not None:
        doc["objective"] = {
            "text": _expr.format_expression(instance.objective.expression),
            "violation_value": instance.objective.violation_value,
        }
    return json.dumps(doc, indent=2) + "\n"


def serialize_policy(policy: PolicyNode) -> str:
    """Compact JSON for a policy, each distinct subtree written once.

    Non-leaf nodes are numbered 0, 1, ... in preorder of their first
    occurrence, by object identity; a later occurrence of node k is written
    ``{"ref":k}``. Leaves are always written inline, so a policy that
    repeats no non-leaf node is written as a plain tree.

    One walk appends the text, each name and value object dumped once. It
    raises what dumping a dict tree of the policy would: a non-node first.
    """
    numbers: dict[int, int] = {}
    texts: dict[int, str] = {}  # id of a name or value -> its JSON text
    held: list[Any] = []  # those names and values, so that no id is reused
    failed: list[Exception] = []
    out: list[str] = []
    write = out.append

    def text(obj: Any) -> str:
        known = texts.get(id(obj))
        if known is None:
            held.append(obj)
            try:  # json writes an exact int as its repr, 30 times slower
                known = repr(obj) if type(obj) is int else json.dumps(obj)
            except (TypeError, ValueError) as e:
                failed.append(e)
                known = ""
            texts[id(obj)] = known
        return known

    def encode(node: PolicyNode) -> None:
        if isinstance(node, Leaf):
            return write('{"kind":"leaf"}')
        k = numbers.get(id(node))
        if k is not None:
            return write(f'{{"ref":{k}}}')
        numbers[id(node)] = len(numbers)
        if isinstance(node, DecisionNode):
            write(f'{{"kind":"decision","variable":{text(node.variable)},'
                  f'"value":{text(node.chosen_value)},"child":')
            encode(node.child)
            return write("}")
        if not isinstance(node, ChanceNode):
            raise MalformedPolicyError(f"not a policy node: {node!r}")
        write(f'{{"kind":"chance","variable":{text(node.variable)},"children":[')
        for i, child in enumerate(node.children):
            if i:
                write(",")
            encode(child)
        write("]}")

    encode(policy)
    if failed:  # json's first error; a ValueError is an int past the digit limit
        raise (MalformedPolicyError("policy holds an integer too long to write")
               if isinstance(failed[0], ValueError) else failed[0]) from None
    return "".join(out)


def parse_policy(text: str) -> PolicyNode:
    """Read a policy from JSON, rebuilding the subtrees its refs share.

    A ref must name a node already read in full: one not yet numbered
    dangles, and one still being read is an ancestor (a cycle). A policy
    nested too deeply is malformed.
    """
    nodes: list[PolicyNode | None] = []  # by number; None while being read

    def decode(obj: Any) -> PolicyNode:
        if not isinstance(obj, dict):
            raise MalformedPolicyError(f"policy node must be an object, got {obj!r}")
        if "ref" in obj:
            k = obj["ref"]
            if len(obj) != 1:
                raise MalformedPolicyError(f"ref object has other keys: {obj!r}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise MalformedPolicyError(f"ref must be a non-negative integer, got {k!r}")
            if k >= len(nodes):
                raise MalformedPolicyError(f"ref {k} names no earlier node")
            node = nodes[k]
            if node is None:
                raise MalformedPolicyError(f"ref {k} names its own ancestor")
            return node
        kind = obj.get("kind")
        if kind == "leaf":
            return LEAF
        k = len(nodes)
        nodes.append(None)
        if kind == "decision":
            if not isinstance(obj.get("variable"), str):
                raise MalformedPolicyError("decision node needs a variable name")
            value = obj.get("value")
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedPolicyError("decision node needs an integer value")
            if "child" not in obj:
                raise MalformedPolicyError("decision node needs a child")
            node = DecisionNode(obj["variable"], value, decode(obj["child"]))
        elif kind == "chance":
            if not isinstance(obj.get("variable"), str):
                raise MalformedPolicyError("chance node needs a variable name")
            children = obj.get("children")
            if not isinstance(children, list) or not children:
                raise MalformedPolicyError("chance node needs a children array")
            node = ChanceNode(obj["variable"], tuple(decode(c) for c in children))
        else:
            raise MalformedPolicyError(f"unknown policy node kind {kind!r}")
        nodes[k] = node
        return node

    try:
        return decode(_load_json(text))
    except RecursionError:
        raise MalformedPolicyError("policy nests too deeply to read") from None
