"""Single-fault mutations of the shipped instances, and what the loader says.

Each case takes one ``instances/*.scsp`` file and changes one thing in it:
a value of the wrong JSON type, a bool or a float for an integer, NaN or
infinity, a 5,001-digit integer, a missing or unknown key, a duplicate
name, an unsorted domain, a bad table tuple, a bad probability sum, a
missing or extra CPT row, a bad expression, or two faults at once to pin
which error wins. ``outcome`` records what ``parse_instance`` raises or
warns and what ``stocs solve`` prints and exits with.

``error_corpus.json`` holds these outcomes as the loader gave them when
the file was written; ``test_error_corpus.py`` checks that it still does.
To rewrite the file after a deliberate change of an error:

    PYTHONPATH=src python tests/error_corpus.py > tests/error_corpus.json
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

from stocs.cli import main
from stocs.formats import parse_instance

INSTANCES_DIR = Path(__file__).resolve().parent.parent / "instances"
BIG = "1" + "0" * 5000  # past the 4,300 digits Python converts by default
_BIG_MARK = "__BIG__"
DELETE = object()


def _edits(doc: dict):
    """(case name, [(path, value)...]) for every fault that applies to doc.

    A value of DELETE drops the key, a callable maps the old value, and
    BIG stands for the 5,001-digit integer literal."""
    variables = doc["variables"]
    first = variables[0]["name"]
    v0 = ("variables", 0)
    yield "not-an-object", [((), [])]
    yield "theta-string", [(("theta",), "0.5")]
    yield "theta-bool", [(("theta",), True)]
    yield "theta-nan", [(("theta",), float("nan"))]
    yield "theta-inf", [(("theta",), float("inf"))]
    yield "theta-big", [(("theta",), BIG)]
    yield "theta-out-of-range", [(("theta",), 1.5)]
    yield "theta-missing", [(("theta",), DELETE)]
    yield "variables-missing", [(("variables",), DELETE)]
    yield "variables-object", [(("variables",), {})]
    yield "variable-list", [(v0, [])]
    yield "constraints-object", [(("constraints",), {})]
    yield "name-int", [(("name",), 3)]
    yield "unknown-top-key", [(("solver_hints",), {"restarts": True})]
    yield "variable-name-int", [(v0 + ("name",), 7)]
    yield "variable-name-bad", [(v0 + ("name",), "1x")]
    yield "variable-name-missing", [(v0 + ("name",), DELETE)]
    yield "kind-missing", [(v0 + ("kind",), DELETE)]
    yield "kind-int", [(v0 + ("kind",), 1)]
    yield "kind-unknown", [(v0 + ("kind",), "chance")]
    yield "domain-missing", [(v0 + ("domain",), DELETE)]
    yield "domain-string", [(v0 + ("domain",), "01")]
    yield "domain-empty", [(v0 + ("domain",), [])]
    yield "domain-bool", [(v0 + ("domain", 0), True)]
    yield "domain-float", [(v0 + ("domain", 0), 0.5)]
    yield "domain-integral-float", [(v0 + ("domain", -1), 1.0)]
    yield "domain-big", [(v0 + ("domain", -1), BIG)]
    yield "domain-unsorted", [(v0 + ("domain",), lambda d: d[::-1])]
    yield "domain-repeated", [(v0 + ("domain",), lambda d: d + d[-1:])]
    yield "variable-unknown-key", [(v0 + ("color",), "blue")]
    yield "duplicate-name", [(("variables", len(variables) - 1, "name"), first)]
    for i, var in enumerate(variables):
        if var["kind"] == "decision":
            yield "decision-probabilities", [(("variables", i, "probabilities"),
                                              [1.0] + [0.0] * (len(var["domain"]) - 1))]
            yield "decision-cpt", [(("variables", i, "cpt"), {"parents": [], "rows": []})]
            break
    for i, var in enumerate(variables):
        if "probabilities" in var:
            at = ("variables", i, "probabilities")
            yield "probabilities-missing", [(at, DELETE)]
            yield "probabilities-object", [(at, {})]
            yield "probability-string", [(at + (0,), "0.5")]
            yield "probability-bool", [(at + (0,), False)]
            yield "probability-nan", [(at + (0,), float("nan"))]
            yield "probability-inf", [(at + (-1,), float("inf"))]
            yield "probability-big", [(at + (0,), BIG)]
            yield "probability-negative", [(at, lambda p: [-p[0]] + p[1:])]
            # sums of halves and quarters are exact, so every float summation agrees
            yield "probability-sum", [(at, lambda p: [0.75] + [0.5] * (len(p) - 1))]
            yield "probability-length", [(at, lambda p: p[:-1])]
            yield "probabilities-and-cpt", [(("variables", i, "cpt"),
                                             {"parents": [], "rows": [
                                                 {"given": [], "probabilities": var["probabilities"]}]})]
            break
    for i, var in enumerate(variables):
        if "cpt" in var:
            at = ("variables", i, "cpt")
            rows = var["cpt"]["rows"]
            yield "cpt-list", [(at, [])]
            yield "cpt-parents-missing", [(at + ("parents",), DELETE)]
            yield "cpt-rows-missing", [(at + ("rows",), DELETE)]
            yield "cpt-parent-int", [(at + ("parents", 0), 0)]
            yield "cpt-parent-unknown", [(at + ("parents", 0), "nobody")]
            yield "cpt-parent-duplicate", [(at + ("parents",), lambda p: p + p[:1])]
            yield "cpt-parent-later", [(at + ("parents", 0), var["name"])]
            yield "cpt-unknown-key", [(at + ("note",), "x")]
            yield "cpt-row-unknown-key", [(at + ("rows", 0, "note"), "x")]
            yield "cpt-row-object", [(at + ("rows", 0), [])]
            yield "cpt-given-missing", [(at + ("rows", 0, "given"), DELETE)]
            yield "cpt-given-bool", [(at + ("rows", 0, "given", 0), False)]
            yield "cpt-given-float", [(at + ("rows", 0, "given", 0), 0.0)]
            yield "cpt-given-big", [(at + ("rows", 0, "given", 0), BIG)]
            yield "cpt-row-missing", [(at + ("rows",), lambda r: r[1:])]
            yield "cpt-row-extra", [(at + ("rows",), lambda r: r + [
                {"given": [99] * len(r[0]["given"]), "probabilities": r[0]["probabilities"]}])]
            yield "cpt-row-big-extra", [(at + ("rows",), lambda r: r + [
                {"given": [BIG] * len(r[0]["given"]), "probabilities": r[0]["probabilities"]}])]
            yield "cpt-row-twice", [(at + ("rows",), lambda r: r + r[:1])]
            yield "cpt-row-sum", [(at + ("rows", -1, "probabilities", 0), lambda p: p + 0.25)]
            yield "cpt-row-nan", [(at + ("rows", 0, "probabilities", 0), float("nan"))]
            yield "cpt-row-length", [(at + ("rows", 0, "probabilities"), lambda p: p + [0.0])]
            yield "cpt-wrong-arity", [(at + ("rows", 0, "given"), lambda g: g + g)]
            break
    c0 = ("constraints", 0)
    yield "constraint-list", [(c0, [])]
    yield "constraint-type-missing", [(c0 + ("type",), DELETE)]
    yield "constraint-type-unknown", [(c0 + ("type",), "global")]
    yield "constraint-unknown-key", [(c0 + ("weight",), 2)]
    yield "text-missing", [(c0 + ("text",), DELETE)]
    yield "text-int", [(c0 + ("text",), 1)]
    yield "text-syntax", [(c0 + ("text",), lambda t: t + " +")]
    yield "text-character", [(c0 + ("text",), lambda t: t + " $")]
    yield "text-chained", [(c0 + ("text",), f"0 < {first} < 2")]
    yield "text-keyword", [(c0 + ("text",), f"{first} = and")]
    yield "text-unclosed", [(c0 + ("text",), f"({first} = 0")]
    yield "text-big-literal", [(c0 + ("text",), f"{first} = {BIG}")]
    yield "text-unknown-variable", [(c0 + ("text",), lambda t: t + " or nobody = 1")]
    yield "text-not-boolean", [(c0 + ("text",), f"{first} + 1")]
    yield "text-bad-connective", [(c0 + ("text",), f"{first} and {first} = 1")]
    yield "text-bad-not", [(c0 + ("text",), f"not {first}")]
    # a table over the first two variables, one good tuple, then one fault
    a, b = variables[0], variables[1]
    scope = [a["name"], b["name"]]
    good = [a["domain"][0], b["domain"][-1]]
    add = ("constraints", len(doc["constraints"]))
    yield "table-valid", [(add, {"type": "table", "scope": scope, "tuples": [good]})]
    for case, table in [
        ("table-scope-missing", {"type": "table", "tuples": [good]}),
        ("table-tuples-missing", {"type": "table", "scope": scope}),
        ("table-scope-string", {"type": "table", "scope": scope[0], "tuples": [good]}),
        ("table-scope-int", {"type": "table", "scope": [scope[0], 1], "tuples": [good]}),
        ("table-scope-empty", {"type": "table", "scope": [], "tuples": [[]]}),
        ("table-scope-unknown", {"type": "table", "scope": [scope[0], "nobody"], "tuples": [good]}),
        ("table-scope-duplicate", {"type": "table", "scope": [scope[0]] * 2, "tuples": [good]}),
        ("table-tuples-object", {"type": "table", "scope": scope, "tuples": {}}),
        ("table-tuple-object", {"type": "table", "scope": scope, "tuples": [good, {}]}),
        ("table-tuple-bool", {"type": "table", "scope": scope, "tuples": [good, [True, good[1]]]}),
        ("table-tuple-float", {"type": "table", "scope": scope, "tuples": [[good[0], 0.5]]}),
        ("table-tuple-big", {"type": "table", "scope": scope, "tuples": [[good[0], BIG]]}),
        ("table-tuple-out-of-domain", {"type": "table", "scope": scope,
                                       "tuples": [good, [good[0], 999]]}),
        ("table-tuple-short", {"type": "table", "scope": scope, "tuples": [good, good[:1]]}),
        ("table-tuple-long", {"type": "table", "scope": scope, "tuples": [good + good]}),
        ("table-unknown-key", {"type": "table", "scope": scope, "tuples": [good], "note": 1}),
    ]:
        yield case, [(add, table)]
    objective = ("objective",)
    if "objective" in doc:
        yield "objective-list", [(objective, [])]
        yield "objective-text-missing", [(objective + ("text",), DELETE)]
        yield "objective-unknown-key", [(objective + ("sense",), "max")]
        yield "objective-unknown-variable", [(objective + ("text",), "nobody")]
        yield "objective-syntax", [(objective + ("text",), "10 *")]
        yield "objective-bad-not", [(objective + ("text",), f"not {first}")]
        yield "violation-string", [(objective + ("violation_value",), "0")]
        yield "violation-bool", [(objective + ("violation_value",), False)]
        yield "violation-nan", [(objective + ("violation_value",), float("nan"))]
        yield "violation-big", [(objective + ("violation_value",), BIG)]
        yield "violation-high", [(objective + ("violation_value",), 1000)]
    else:
        yield "objective-added", [(objective, {"text": first, "violation_value": 1000})]
    # two faults: a file-shape error in a later field beats a model error
    # in an earlier one, and the model errors keep their own order
    last = ("variables", len(variables) - 1)
    yield "duplicate-name-then-float", [(("variables", 1, "name"), first),
                                        (last + ("domain", 0), 0.5)]
    yield "unsorted-then-syntax", [(v0 + ("domain",), lambda d: d[::-1]),
                                   (c0 + ("text",), lambda t: t + " +")]
    yield "theta-range-then-unknown-key", [(("theta",), 2), (last + ("note",), 1),
                                           (c0 + ("note",), 1)]
    yield "theta-range-and-unsorted", [(("theta",), 2), (last + ("domain",), lambda d: d[::-1])]
    yield "unknown-variable-and-theta", [(("theta",), -1),
                                         (c0 + ("text",), lambda t: t + " or nobody = 1")]
    yield "duplicate-and-unsorted", [(last + ("domain",), lambda d: d[::-1]),
                                     (("variables", 1, "name"), first)]
    yield "table-and-text", [(c0 + ("text",), f"{first} + 1"),
                             (add, {"type": "table", "scope": scope, "tuples": [[good[0], 999]]})]


def _apply(doc, path, value):
    if not path:
        return value
    *head, key = path
    node = doc
    for step in head:
        node = node[step]
    if value is DELETE:
        del node[key]
    elif callable(value):
        node[key] = value(node[key])
    elif isinstance(node, list) and key == len(node):
        node.append(value)
    else:
        node[key] = value
    return doc


def _big_placeholder(value):
    if value == BIG:
        return _BIG_MARK
    if isinstance(value, list):
        return [_big_placeholder(v) for v in value]
    if isinstance(value, dict):
        return {k: _big_placeholder(v) for k, v in value.items()}
    return value


def cases():
    """(case id, document text) for every instance and every fault."""
    for path in sorted(INSTANCES_DIR.glob("*.scsp")):
        base = json.loads(path.read_text(encoding="utf-8"))
        for name, edits in _edits(base):
            doc = json.loads(json.dumps(base))
            for at, value in edits:
                if callable(value):
                    value = lambda old, edit=value: _big_placeholder(edit(old))
                elif value is not DELETE:
                    value = _big_placeholder(value)
                doc = _apply(doc, at, value)
            text = json.dumps(doc).replace(json.dumps(_BIG_MARK), BIG)
            yield f"{path.stem}/{name}", text


def outcome(text: str, tmp: Path) -> dict:
    """What parse_instance raises and warns, and what `stocs solve` of the
    text prints and exits with."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_instance(text)
            error = None
        except Exception as e:  # noqa: BLE001 - the type is the record
            error = [type(e).__name__, str(e)]
    record = {"error": error,
              "warnings": [[w.category.__name__, str(w.message)] for w in caught]}
    path = tmp / "case.scsp"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        record["exit"] = main(["solve", str(path)])
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    return record


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = {case: outcome(text, Path(tmp)) for case, text in cases()}
    json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
