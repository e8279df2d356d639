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
"""

from __future__ import annotations

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


def _require(obj: Any, kind: type, what: str):
    if not isinstance(obj, kind):
        raise FormatError(f"{what} must be a {kind.__name__}, got {type(obj).__name__}")
    return obj


def _warn_unknown(obj: dict, known: tuple[str, ...], what: str) -> None:
    for key in obj:
        if key not in known:
            warnings.warn(f"{what}: ignoring unknown key {key!r}", FormatWarning,
                          stacklevel=3)


def _int_list(obj: Any, what: str) -> list[int]:
    _require(obj, list, what)
    out = []
    for v in obj:
        if not isinstance(v, int) or isinstance(v, bool):
            raise FormatError(f"{what} must contain integers, got {v!r}")
        out.append(v)
    return out


def _num_list(obj: Any, what: str) -> list[float]:
    _require(obj, list, what)
    out = []
    for v in obj:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"{what} must contain numbers, got {v!r}")
        number = _as_float(v)
        if not math.isfinite(number):
            raise FormatError(f"{what} must contain finite numbers, got {v!r}")
        out.append(number)
    return out


def _rescale(probs: list[float]) -> list[float]:
    if any(p < 0.0 for p in probs):
        return probs  # leave it to validation to refuse
    total = sum(probs)
    if not math.isfinite(total):
        # the entries are finite, so only the sum overflowed: scale first
        peak = max(probs)
        probs = [p / peak for p in probs]
        total = sum(probs)
    if total <= 0.0:
        return probs
    return [p / total for p in probs]


def _parse_cpt(obj: Any, child: str, renormalize: bool) -> ConditionalTable:
    what = f"variable {child} cpt"
    _require(obj, dict, what)
    _warn_unknown(obj, ("parents", "rows"), what)
    if "parents" not in obj or "rows" not in obj:
        raise FormatError(f"{what} needs parents and rows")
    parents = _require(obj["parents"], list, f"{what} parents")
    for p in parents:
        _require(p, str, f"{what} parent")
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    for i, row in enumerate(_require(obj["rows"], list, f"{what} rows")):
        _require(row, dict, f"{what} row {i}")
        _warn_unknown(row, ("given", "probabilities"), f"{what} row {i}")
        if "given" not in row or "probabilities" not in row:
            raise FormatError(f"{what} row {i} needs given and probabilities")
        given = tuple(_int_list(row["given"], f"{what} row {i} given"))
        if given in rows:
            raise FormatError(f"{what} has two rows for {list(given)}")
        probs = _num_list(row["probabilities"], f"{what} row {i} probabilities")
        if renormalize:
            probs = _rescale(probs)
        rows[given] = tuple(probs)
    return ConditionalTable(child, tuple(parents), rows)


def _parse_variable(obj: Any, position: int, renormalize: bool) -> VariableSpec:
    what = f"variables[{position}]"
    _require(obj, dict, what)
    _warn_unknown(obj, ("name", "kind", "domain", "probabilities", "cpt"), what)
    for key in ("name", "kind", "domain"):
        if key not in obj:
            raise FormatError(f"{what} misses {key!r}")
    name = _require(obj["name"], str, f"{what} name")
    kind = _require(obj["kind"], str, f"{what} kind")
    domain = tuple(_int_list(obj["domain"], f"{what} domain"))
    probabilities = None
    if "probabilities" in obj:
        probs = _num_list(obj["probabilities"], f"{what} probabilities")
        if renormalize:
            probs = _rescale(probs)
        probabilities = tuple(probs)
    cpt = _parse_cpt(obj["cpt"], name, renormalize) if "cpt" in obj else None
    return VariableSpec(name, kind, domain, probabilities=probabilities, cpt=cpt)


def _parse_constraint(obj: Any, position: int) -> Constraint:
    what = f"constraints[{position}]"
    _require(obj, dict, what)
    if obj.get("type") == "expr":
        _warn_unknown(obj, ("type", "text"), what)
        if "text" not in obj:
            raise FormatError(f"{what} misses 'text'")
        ast = _expr.parse_expression(_require(obj["text"], str, f"{what} text"))
        return Constraint(scope=tuple(_expr.variables_in(ast)), expression=ast)
    if obj.get("type") == "table":
        _warn_unknown(obj, ("type", "scope", "tuples"), what)
        if "scope" not in obj or "tuples" not in obj:
            raise FormatError(f"{what} needs scope and tuples")
        scope = _require(obj["scope"], list, f"{what} scope")
        for s in scope:
            _require(s, str, f"{what} scope entry")
        tuples = _require(obj["tuples"], list, f"{what} tuples")
        allowed = frozenset(
            tuple(_int_list(t, f"{what} tuple {i}")) for i, t in enumerate(tuples)
        )
        return Constraint(scope=tuple(scope), allowed=allowed)
    raise FormatError(f"{what} type must be 'expr' or 'table', got {obj.get('type')!r}")


def parse_instance(text: str, renormalize: bool = False) -> Instance:
    """Parse and validate one .scsp JSON document.

    With renormalize=True, probability vectors are scaled to sum to 1
    before validation (negative entries still fail).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from None
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
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text ({e.reason} at byte {e.start})") from None


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
    """Compact JSON for a policy tree."""
    def encode(node: PolicyNode) -> dict[str, Any]:
        if isinstance(node, Leaf):
            return {"kind": "leaf"}
        if isinstance(node, DecisionNode):
            return {"kind": "decision", "variable": node.variable,
                    "value": node.chosen_value, "child": encode(node.child)}
        if isinstance(node, ChanceNode):
            return {"kind": "chance", "variable": node.variable,
                    "children": [encode(c) for c in node.children]}
        raise MalformedPolicyError(f"not a policy node: {node!r}")

    return json.dumps(encode(policy), separators=(",", ":"))


def parse_policy(text: str) -> PolicyNode:
    """Read a policy from JSON; one nested too deeply is malformed."""
    def decode(obj: Any) -> PolicyNode:
        if not isinstance(obj, dict):
            raise MalformedPolicyError(f"policy node must be an object, got {obj!r}")
        kind = obj.get("kind")
        if kind == "leaf":
            return LEAF
        if kind == "decision":
            if not isinstance(obj.get("variable"), str):
                raise MalformedPolicyError("decision node needs a variable name")
            value = obj.get("value")
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedPolicyError("decision node needs an integer value")
            if "child" not in obj:
                raise MalformedPolicyError("decision node needs a child")
            return DecisionNode(obj["variable"], value, decode(obj["child"]))
        if kind == "chance":
            if not isinstance(obj.get("variable"), str):
                raise MalformedPolicyError("chance node needs a variable name")
            children = obj.get("children")
            if not isinstance(children, list) or not children:
                raise MalformedPolicyError("chance node needs a children array")
            return ChanceNode(obj["variable"], tuple(decode(c) for c in children))
        raise MalformedPolicyError(f"unknown policy node kind {kind!r}")

    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from None
    except RecursionError:
        raise MalformedPolicyError("policy nests too deeply to read") from None
