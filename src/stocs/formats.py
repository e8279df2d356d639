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

The variable array order is the observation/decision order. The reader
maps JSON to records and checks only what validation cannot see: that the
text is JSON, that each node is an object with the keys it needs, that
each array it walks or hashes is one (variables, constraints, CPT rows and
givens, table tuples), that no two CPT rows share a given, and that each
expression text is a string that parses. Unknown keys warn instead of
failing, for forward compatibility. validate_instance checks every value.
Emitted files are UTF-8 with LF newlines.

A policy is one compact JSON node: {"kind":"leaf"}, {"kind":"decision",
"variable":str,"value":int,"child":node} or {"kind":"chance",
"variable":str,"children":[node...]}. It is written as a graph: each
distinct subtree once, and each later occurrence as {"ref":k}, where k
numbers the non-leaf nodes in preorder of their first occurrence. The
reader checks only the JSON shape it builds nodes from (see parse_policy);
semantics._check_policy checks every value against an instance.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings

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
    _validate,
)
from .semantics import (
    LEAF,
    ChanceNode,
    DecisionNode,
    Leaf,
    PolicyNode,
    _check_children,
    _check_instance,
)

__all__ = [
    "FormatWarning",
    "parse_instance", "load_instance", "dump_instance",
    "serialize_policy", "parse_policy",
]


class FormatWarning(UserWarning):
    """An instance document contains keys this version does not know."""


def _require(obj: object, kind: type, what: str, field: str = ""):
    if not isinstance(obj, kind):
        raise FormatError(f"{what}{field} must be a {kind.__name__}, got {type(obj).__name__}")
    return obj


def _unknown(obj: dict, known: tuple[str, ...], what: str, unknown: list[str]) -> None:
    unknown += [f"{what}: ignoring unknown key {key!r}" for key in obj if key not in known]


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from None
    except UnicodeDecodeError as e:  # bytes given for the text
        raise FormatError(f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    except ValueError:  # an integer of more digits than sys.get_int_max_str_digits()
        raise FormatError("not valid JSON: an integer literal too long to read") from None
    except TypeError:
        raise FormatError(f"not JSON text: got {type(text).__name__}") from None


def _tuple(obj: object) -> object:
    """A JSON array as a tuple; any other value as it is, for validation."""
    return tuple(obj) if type(obj) is list else obj


_SCALARS = {int, float, str, bool, type(None)}  # the JSON values that hash


def _key(obj: object, what: str, field: str = "") -> tuple:
    """A JSON array that becomes a dict key or a set member, as a tuple."""
    if not _only(_SCALARS, _require(obj, list, what, field)):
        raise FormatError(f"{what}{field} must not hold an array or object")
    return tuple(obj)


def _vector(obj: object, renormalize: bool) -> object:
    """A probability array as a tuple, with renormalize scaled to sum to 1
    if its entries are finite, non-negative numbers and not bools."""
    if not (renormalize and type(obj) is list and _only({int, float}, obj)):
        return _tuple(obj)
    probs = [_as_float(p) for p in obj]
    if not (all(map(math.isfinite, probs)) and min(probs, default=0.0) >= 0.0):
        return tuple(obj)  # for validation to refuse
    if not math.isfinite(total := _total(probs)):  # only the sum overflowed: scale first
        peak = max(probs)
        probs = [p / peak for p in probs]
        total = _total(probs)
    return tuple(p / total for p in probs) if total > 0.0 else tuple(obj)


def _parse_cpt(obj: object, child: object, renormalize: bool,
               unknown: list[str]) -> ConditionalTable:
    what = f"variable {child} cpt"
    _require(obj, dict, what)
    _unknown(obj, ("parents", "rows"), what, unknown)
    if "parents" not in obj or "rows" not in obj:
        raise FormatError(f"{what} needs parents and rows")
    rows: dict[tuple, object] = {}
    for i, row in enumerate(_require(obj["rows"], list, what, " rows")):
        at = f"{what} row {i}"
        _require(row, dict, at)
        _unknown(row, ("given", "probabilities"), at, unknown)
        if "given" not in row or "probabilities" not in row:
            raise FormatError(f"{at} needs given and probabilities")
        given = _key(row["given"], at, " given")
        if given in rows:
            raise FormatError(f"{what} has two rows for {list(given)}")
        rows[given] = _vector(row["probabilities"], renormalize)
    return ConditionalTable(child, _tuple(obj["parents"]), rows)


def _parse_variable(obj: object, position: int, renormalize: bool,
                    unknown: list[str]) -> VariableSpec:
    what = f"variables[{position}]"
    _require(obj, dict, what)
    _unknown(obj, ("name", "kind", "domain", "probabilities", "cpt"), what, unknown)
    for key in ("name", "kind", "domain"):
        if key not in obj:
            raise FormatError(f"{what} misses {key!r}")
    probabilities = _vector(obj["probabilities"], renormalize) if "probabilities" in obj else None
    cpt = _parse_cpt(obj["cpt"], obj["name"], renormalize, unknown) if "cpt" in obj else None
    return VariableSpec(obj["name"], obj["kind"], _tuple(obj["domain"]), probabilities, cpt)


def _parse_constraint(obj: object, position: int, unknown: list[str]) -> Constraint:
    what = f"constraints[{position}]"
    _require(obj, dict, what)
    if obj.get("type") == "expr":
        _unknown(obj, ("type", "text"), what, unknown)
        if "text" not in obj:
            raise FormatError(f"{what} misses 'text'")
        text = _require(obj["text"], str, what, " text")
        return Constraint((), expression=_expr.parse_expression(text))  # validation adds the scope
    if obj.get("type") == "table":
        _unknown(obj, ("type", "scope", "tuples"), what, unknown)
        if "scope" not in obj or "tuples" not in obj:
            raise FormatError(f"{what} needs scope and tuples")
        tuples = _require(obj["tuples"], list, what, " tuples")
        if not (_only({list}, tuples) and _only(_SCALARS, itertools.chain.from_iterable(tuples))):
            for i, t in enumerate(tuples):  # one pass of C loops found a fault: word it
                _key(t, f"{what} tuple {i}")
        return Constraint(_tuple(obj["scope"]), frozenset(map(tuple, tuples)))
    raise FormatError(f"{what} type must be 'expr' or 'table', got {obj.get('type')!r}")


def _records(text: str, renormalize: bool, unknown: list[str]) -> Instance:
    """A document's records, unvalidated; ``unknown`` gets a warning per unknown key."""
    doc = _load_json(text)
    _require(doc, dict, "instance document")
    _unknown(doc, ("name", "theta", "variables", "constraints", "objective"),
             "instance document", unknown)
    if "theta" not in doc:
        raise FormatError("instance document misses 'theta'")
    if "variables" not in doc:
        raise FormatError("instance document misses 'variables'")
    variables = tuple(
        _parse_variable(v, i, renormalize, unknown)
        for i, v in enumerate(_require(doc["variables"], list, "variables"))
    )
    constraints = tuple(
        _parse_constraint(c, i, unknown)
        for i, c in enumerate(_require(doc.get("constraints", []), list, "constraints"))
    )
    objective = None
    if "objective" in doc:
        obj = _require(doc["objective"], dict, "objective")
        _unknown(obj, ("text", "violation_value"), "objective", unknown)
        if "text" not in obj:
            raise FormatError("objective misses 'text'")
        expression = _expr.parse_expression(_require(obj["text"], str, "objective text"))
        objective = Objective(expression, obj.get("violation_value", 0.0))
    return Instance(variables, constraints, doc["theta"], objective, doc.get("name", ""))


def _parse(text: str, renormalize: bool) -> Instance:
    """parse_instance and load_instance; each warning names the line that called either."""
    unknown: list[str] = []
    try:
        raw = _records(text, renormalize, unknown)
    finally:  # a key read before a fault of the file still warns
        for message in unknown:
            warnings.warn(message, FormatWarning, stacklevel=3)
    return _validate(raw, 4)


def parse_instance(text: str, renormalize: bool = False) -> Instance:
    """Read one .scsp JSON document and validate its records.

    A fault of the document's shape, which the reader finds (see above),
    is reported before any other; validate_instance then checks the type
    and range of every value, in its order and words. With renormalize,
    probability arrays are scaled to sum to 1 first (see _vector).
    """
    return _parse(text, renormalize)


def _read(path, error: type[StocsError]) -> str:
    """The UTF-8 text of a file; other bytes, and a path that is not str,
    bytes or os.PathLike, raise ``error``."""
    try:
        path = os.fspath(path)  # open() would read and close an int as a file descriptor
    except TypeError as e:
        raise error(str(e)) from None
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    # the newlines text mode reads: cheaper than its decoder for one read
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_instance(path, renormalize: bool = False) -> Instance:
    return _parse(_read(path, FormatError), renormalize)


def dump_instance(instance: Instance) -> str:
    """Serialize an instance; parse_instance inverts it."""
    _check_instance(instance)
    doc: dict[str, object] = {}
    if instance.name:
        doc["name"] = instance.name
    doc["theta"] = instance.theta
    doc["variables"] = []
    for var in instance.variables:
        entry: dict[str, object] = {
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
    held: list[object] = []  # those names and values, so that no id is reused
    failed: list[Exception] = []
    out: list[str] = []
    write = out.append

    def text(obj: object) -> str:
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
        _check_children(node.variable, node.children)
        write(f'{{"kind":"chance","variable":{text(node.variable)},"children":[')
        for i, child in enumerate(node.children):
            if i:
                write(",")
            encode(child)
        write("]}")

    try:
        encode(policy)
    finally:  # encode refers to itself: free the cycle with the call
        del encode
    if failed:  # json's first error; a ValueError is an int past the digit limit
        raise (MalformedPolicyError("policy holds an integer too long to write")
               if isinstance(failed[0], ValueError) else failed[0]) from None
    return "".join(out)


def parse_policy(text: str) -> PolicyNode:
    """Read a policy from JSON, rebuilding the subtrees its refs share.

    Each node must be an object of a known kind, a decision must have a
    child and a chance node a children array; each variable and value passes
    through as JSON gives it, or as None when absent. A ref must name a node
    already read in full: one not yet numbered dangles, and one still being
    read is an ancestor (a cycle). A policy nested too deeply is malformed.
    """
    nodes: list[PolicyNode | None] = []  # by number; None while being read

    def decode(obj: object) -> PolicyNode:
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
            if "child" not in obj:
                raise MalformedPolicyError("decision node needs a child")
            node = DecisionNode(obj.get("variable"), obj.get("value"), decode(obj["child"]))
        elif kind == "chance":
            if not isinstance(children := obj.get("children"), list):
                raise MalformedPolicyError("chance node needs a children array")
            node = ChanceNode(obj.get("variable"), tuple(decode(c) for c in children))
        else:
            raise MalformedPolicyError(f"unknown policy node kind {kind!r}")
        nodes[k] = node
        return node

    try:
        return decode(_load_json(text))
    except RecursionError:
        raise MalformedPolicyError("policy nests too deeply to read") from None
    finally:  # decode refers to itself: free the cycle with the call
        del decode
