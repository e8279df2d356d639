import json
import os
import random
import re
import warnings
from pathlib import Path

import pytest

from gen import random_cpt_instance, random_instance, random_linear_instance, random_policy
from stocs import (
    ChanceNode,
    DecisionNode,
    FormatWarning,
    Leaf,
    ViolationValueWarning,
    bt_decide,
    bt_max,
    dump_instance,
    fc_decide,
    fc_max,
    load_instance,
    parse_instance,
    parse_policy,
    policy_satisfaction,
    serialize_policy,
    validate_instance,
)
from stocs import formats
from stocs.cli import main
from stocs.expr import parse_expression
from stocs.model import ConditionalTable, Constraint, Instance, Objective, VariableSpec
from stocs.errors import (
    BadProbabilitySumError,
    FormatError,
    InstanceValidationError,
    MalformedPolicyError,
    NegativeProbabilityError,
    NonFiniteProbabilityError,
    ProbabilitiesOnDecisionError,
    ThetaOutOfRangeError,
    UnknownScopeVariableError,
)
from conftest import same_tree
from test_extensions import coin_chain

MINIMAL = """
{
  "theta": 0.5,
  "variables": [
    {"name": "x", "kind": "decision", "domain": [0, 1]},
    {"name": "s", "kind": "stochastic", "domain": [0, 1],
     "probabilities": [0.5, 0.5]}
  ],
  "constraints": [{"type": "expr", "text": "x = s"}]
}
"""


class TestParseInstance:
    def test_minimal_document(self):
        inst = parse_instance(MINIMAL)
        assert len(inst.variables) == 2
        assert len(inst.constraints) == 1
        assert inst.theta == 0.5

    def test_probabilities_on_decision_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["probabilities"] = [0.5, 0.5]
        with pytest.raises(ProbabilitiesOnDecisionError):
            parse_instance(json.dumps(doc))

    def test_unknown_top_level_key_warns(self):
        doc = json.loads(MINIMAL)
        doc["solver_hints"] = {"restarts": True}
        with pytest.warns(FormatWarning):
            inst = parse_instance(json.dumps(doc))
        assert len(inst.variables) == 2

    def test_unknown_nested_key_warns(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["color"] = "blue"
        with pytest.warns(FormatWarning):
            parse_instance(json.dumps(doc))

    def test_invalid_json_reports_position(self):
        with pytest.raises(FormatError) as info:
            parse_instance('{"theta": 0.5,,}')
        assert info.value.line == 1
        assert info.value.column is not None

    @pytest.mark.parametrize("drop", ["theta", "variables"])
    def test_required_keys(self, drop):
        doc = json.loads(MINIMAL)
        del doc[drop]
        with pytest.raises(FormatError):
            parse_instance(json.dumps(doc))

    # a value of the wrong type is validation's to refuse, in its words
    @pytest.mark.parametrize("edit, error, message", [
        (lambda doc: doc.update(variables={}), FormatError, "^variables must be a list, got dict$"),
        (lambda doc: doc["variables"][0].pop("name"), FormatError,
         r"^variables\[0\] misses 'name'$"),
        (lambda doc: doc["variables"][1].update(probabilities=["a", 1]), InstanceValidationError,
         r"^variable s: 'a' is not a number$"),
        (lambda doc: doc["variables"][1].update(cpt={"parents": []}), FormatError,
         "^variable s cpt needs parents and rows$"),
        (lambda doc: doc["variables"][1].update(cpt={"parents": [], "rows": [
            {"probabilities": [0.5, 0.5]}]}), FormatError,
         "^variable s cpt row 0 needs given and probabilities$"),
        (lambda doc: doc["constraints"][0].pop("text"), FormatError,
         r"^constraints\[0\] misses 'text'$"),
        (lambda doc: doc["constraints"].append({"type": "table", "scope": ["x"]}), FormatError,
         r"^constraints\[1\] needs scope and tuples$"),
        (lambda doc: doc.update(objective={"violation_value": 0}), FormatError,
         "^objective misses 'text'$"),
        (lambda doc: doc.update(objective={"text": "x", "violation_value": "x"}),
         InstanceValidationError, "^objective: violation_value: 'x' is not a number$"),
        # a given or a table tuple is hashed, so it holds no array or object
        (lambda doc: doc["variables"][1].update(cpt={"parents": [], "rows": [
            {"given": [[0]], "probabilities": [0.5, 0.5]}]}), FormatError,
         "^variable s cpt row 0 given must not hold an array or object$"),
        (lambda doc: doc["constraints"].append({"type": "table", "scope": ["x"],
                                                "tuples": [[0], [{}]]}), FormatError,
         r"^constraints\[1\] tuple 1 must not hold an array or object$"),
    ], ids=["variables-object", "no-name", "string-probability", "cpt-no-rows", "cpt-row-no-given",
            "expr-no-text", "table-no-tuples", "objective-no-text", "string-violation-value",
            "array-in-given", "object-in-tuple"])
    def test_malformed_documents(self, tmp_path, capsys, edit, error, message):
        doc = json.loads(MINIMAL)
        edit(doc)
        path = tmp_path / "bad.scsp"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(error, match=message):
            load_instance(path)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_theta_must_be_a_number(self):
        doc = json.loads(MINIMAL)
        doc["theta"] = "half"
        with pytest.raises(InstanceValidationError):
            parse_instance(json.dumps(doc))

    def test_huge_integer_theta_is_out_of_range(self):
        doc = json.loads(MINIMAL)
        doc["theta"] = 10**400
        with pytest.raises(ThetaOutOfRangeError):
            parse_instance(json.dumps(doc))

    def test_domain_values_must_be_integers(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["domain"] = [0, 1.5]
        with pytest.raises(InstanceValidationError):
            parse_instance(json.dumps(doc))

    def test_booleans_are_not_integers(self):
        doc = json.loads(MINIMAL)
        doc["variables"][0]["domain"] = [False, True]
        with pytest.raises(InstanceValidationError):
            parse_instance(json.dumps(doc))

    def test_constraint_type_checked(self):
        doc = json.loads(MINIMAL)
        doc["constraints"] = [{"type": "global", "text": "alldifferent"}]
        with pytest.raises(FormatError):
            parse_instance(json.dumps(doc))

    def test_duplicate_cpt_rows_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"][1] = {
            "name": "s", "kind": "stochastic", "domain": [0, 1],
            "cpt": {"parents": ["x"],
                    "rows": [{"given": [0], "probabilities": [1.0, 0.0]},
                             {"given": [0], "probabilities": [0.5, 0.5]},
                             {"given": [1], "probabilities": [0.0, 1.0]}]}}
        with pytest.raises(FormatError):
            parse_instance(json.dumps(doc))

    def test_renormalize_scales_probability_vectors(self):
        doc = json.loads(MINIMAL)
        doc["variables"][1]["probabilities"] = [1, 1]
        text = json.dumps(doc)
        with pytest.raises(BadProbabilitySumError):
            parse_instance(text)
        inst = parse_instance(text, renormalize=True)
        assert inst.variables[1].probabilities == (0.5, 0.5)

    @pytest.mark.parametrize("probabilities, error", [
        ([-1, 2], NegativeProbabilityError), ([0, 0], BadProbabilitySumError)],
        ids=["negative", "all-zero"])
    def test_renormalize_leaves_what_it_cannot_scale_to_validation(self, probabilities, error):
        doc = json.loads(MINIMAL)
        doc["variables"][1]["probabilities"] = probabilities
        with pytest.raises(error):
            parse_instance(json.dumps(doc), renormalize=True)

    def test_renormalize_scales_cpt_rows(self):
        doc = json.loads(MINIMAL)
        doc["variables"][1] = {
            "name": "s", "kind": "stochastic", "domain": [0, 1],
            "cpt": {"parents": ["x"],
                    "rows": [{"given": [0], "probabilities": [3, 1]},
                             {"given": [1], "probabilities": [1, 1]}]}}
        inst = parse_instance(json.dumps(doc), renormalize=True)
        assert inst.variables[1].cpt.rows[(0,)] == (0.75, 0.25)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "huge-int"])
    def test_non_finite_probabilities_rejected(self, bad):
        text = MINIMAL.replace('"probabilities": [0.5, 0.5]',
                               f'"probabilities": [{bad}, 1.0]')
        for renormalize in (False, True):  # renormalize scales no such vector
            with pytest.raises(NonFiniteProbabilityError, match="finite"):
                parse_instance(text, renormalize=renormalize)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_violation_value_rejected(self, bad):
        text = MINIMAL.replace('"constraints"',
                               f'"objective": {{"text": "x", "violation_value": {bad}}}, "constraints"')
        with pytest.raises(InstanceValidationError, match="finite"):
            parse_instance(text)

    def test_non_finite_cpt_row_rejected(self):
        doc = json.loads(MINIMAL)
        doc["variables"][1] = {
            "name": "s", "kind": "stochastic", "domain": [0, 1],
            "cpt": {"parents": ["x"],
                    "rows": [{"given": [0], "probabilities": [1.0, 0.0]},
                             {"given": [1], "probabilities": [float("nan"), 1.0]}]}}
        with pytest.raises(NonFiniteProbabilityError, match="finite"):
            parse_instance(json.dumps(doc), renormalize=True)

    def test_renormalize_survives_an_overflowing_sum(self):
        doc = json.loads(MINIMAL)
        doc["variables"][1]["probabilities"] = [1e308, 1e308]
        inst = parse_instance(json.dumps(doc), renormalize=True)
        assert inst.variables[1].probabilities == (0.5, 0.5)

    def test_sums_run_left_to_right_on_every_python(self):
        # the builtin sum() of floats is compensated since Python 3.12, where
        # it gave 0.099999990000001, 0.9999999000000102 and "sum to 1.1"
        doc = {"name": "r", "theta": 0.5, "variables": [
            {"name": "s", "kind": "stochastic", "domain": list(range(11)),
             "probabilities": [0.1] * 10 + [1e-7]},
            {"name": "x", "kind": "decision", "domain": [0, 1]}],
            "constraints": [{"type": "expr", "text": "s <= 9"}]}
        inst = parse_instance(json.dumps(doc), renormalize=True)
        assert inst.variables[0].probabilities[0] == 0.09999999000000102
        assert bt_max(inst).probability == fc_max(inst).probability == 0.9999999000000103
        doc["variables"][0]["probabilities"] = [0.1] * 11
        with pytest.raises(BadProbabilitySumError, match=r"sum to 1\.0999999999999999$"):
            parse_instance(json.dumps(doc))

    def test_shipped_instances_load(self, instances_dir):
        names = {p.stem for p in instances_dir.glob("*.scsp")}
        assert names == {"a", "b", "fc_demo", "production", "conditional",
                         "objective"}
        for path in instances_dir.glob("*.scsp"):
            inst = load_instance(path)
            assert inst.name == path.stem


# one of each record, for the pairs below: x decides, s and t are drawn,
# t from a table over x; a table constraint and an objective over them
RECORDS = {
    "theta": 0.5, "name": "pairs",
    "variables": [
        {"name": "x", "kind": "decision", "domain": [0, 1]},
        {"name": "s", "kind": "stochastic", "domain": [0, 1], "probabilities": [0.5, 0.5]},
        {"name": "t", "kind": "stochastic", "domain": [0, 1],
         "cpt": {"parents": ["x"], "rows": [{"given": [0], "probabilities": [0.5, 0.5]},
                                            {"given": [1], "probabilities": [1.0, 0.0]}]}}],
    "constraints": [{"type": "expr", "text": "x = s"},
                    {"type": "table", "scope": ["s", "t"], "tuples": [[0, 0], [1, 1]]}],
    "objective": {"text": "x + t", "violation_value": 0},
}


def _through_the_api(doc: dict) -> Instance:
    """The records of an instance document, built with the record classes
    and no file reader, holding the document's values as they are."""
    def variable(v):
        cpt = v.get("cpt")
        if cpt is not None:
            cpt = ConditionalTable(v["name"], cpt["parents"],
                                   {tuple(r["given"]): r["probabilities"] for r in cpt["rows"]})
        return VariableSpec(v["name"], v["kind"], v["domain"], v.get("probabilities"), cpt)

    def constraint(c):
        if c["type"] == "expr":
            return Constraint((), expression=parse_expression(c["text"]))
        return Constraint(c["scope"], frozenset(map(tuple, c["tuples"])))

    objective = Objective(parse_expression(doc["objective"]["text"]),
                          doc["objective"]["violation_value"])
    return Instance(tuple(map(variable, doc["variables"])),
                    tuple(map(constraint, doc["constraints"])),
                    doc["theta"], objective, doc["name"])


def _edited(path: tuple, value) -> dict:
    """A copy of RECORDS with ``value`` at ``path``."""
    doc = json.loads(json.dumps(RECORDS))
    *head, key = path
    node = doc
    for step in head:
        node = node[step]
    node[key] = value
    return doc


def _error(check, *args):
    with pytest.raises(InstanceValidationError) as info:
        check(*args)
    return type(info.value), str(info.value)


class TestOneCheckOneAnswer:
    """A field of the wrong type gets validation's error, whether the
    records come from a file or from the API."""

    @pytest.mark.parametrize("path, value, error, message", [
        (("variables", 0, "domain"), [0, 0.5], InstanceValidationError,
         "variable x: non-integer domain value 0.5"),
        (("variables", 0, "domain"), [False, True], InstanceValidationError,
         "variable x: non-integer domain value False"),
        (("variables", 0, "domain"), ["0", "1"], InstanceValidationError,
         "variable x: non-integer domain value '0'"),
        (("variables", 0, "domain"), {"0": 0, "1": 1}, InstanceValidationError,
         "variable x: domain must be a sequence, got dict"),
        (("variables", 0, "domain"), {0, 1}, InstanceValidationError,  # no file holds a set
         "variable x: domain must be a sequence, got set"),
        (("variables", 1, "probabilities"), {"0.5": 0, "0.25": 1}, InstanceValidationError,
         "variable s: probabilities must be a sequence, got dict"),
        (("variables", 1, "probabilities"), [float("nan"), 0.5], NonFiniteProbabilityError,
         "variable s: non-finite probability nan"),
        (("variables", 1, "probabilities"), [0.5, float("inf")], NonFiniteProbabilityError,
         "variable s: non-finite probability inf"),
        (("theta",), "0.5", InstanceValidationError, "theta: '0.5' is not a number"),
        (("name",), 3, InstanceValidationError, "name: 3 is not a str"),
        (("variables", 1, "name"), 7, InstanceValidationError,
         "variable name 7 is not an identifier"),
        (("variables", 2, "cpt", "parents"), [0], UnknownScopeVariableError,
         "conditional table for t: unknown parent 0"),
        (("variables", 2, "cpt", "rows", 0, "given"), [0.0], InstanceValidationError,
         "conditional table for t: non-integer parent value 0.0"),
        (("constraints", 1, "tuples"), [[0, 0], [1, 1.0]], InstanceValidationError,
         "constraint 1: non-integer table value 1.0"),
        (("objective", "violation_value"), "0", InstanceValidationError,
         "objective: violation_value: '0' is not a number"),
    ], ids=["float-in-domain", "bool-in-domain", "str-in-domain", "dict-domain", "set-domain",
            "dict-probabilities", "nan-probability", "inf-probability", "str-theta", "int-name",
            "int-variable-name", "int-cpt-parent", "float-cpt-given", "float-table-value",
            "str-violation-value"])
    def test_a_file_and_the_api_get_the_same_error(self, path, value, error, message):
        doc = _edited(path, value)
        api = _error(validate_instance, _through_the_api(doc))
        assert api == (error, message)
        if not isinstance(value, set):
            assert _error(parse_instance, json.dumps(doc)) == api

    def test_the_records_without_a_fault_are_valid(self):
        assert validate_instance(_through_the_api(RECORDS)) == parse_instance(json.dumps(RECORDS))


class TestEntryTypes:
    @pytest.mark.parametrize("reader", [parse_instance, parse_policy])
    def test_a_reader_refuses_what_is_no_text(self, reader):
        with pytest.raises(FormatError, match="^not JSON text: got int$"):
            reader(5)

    def test_bytes_that_are_not_utf8_are_no_json(self):
        with pytest.raises(FormatError, match="^not UTF-8 text"):
            parse_instance(b"\xff")

    @pytest.mark.parametrize("read, error", [
        (load_instance, FormatError),
        (lambda path: formats._read(path, MalformedPolicyError), MalformedPolicyError),
    ], ids=["instance", "policy"])
    def test_a_file_reader_takes_no_descriptor(self, read, error):
        r, w = os.pipe()
        os.write(w, MINIMAL.encode())
        os.close(w)  # a reader of r would find the text's end, not wait
        for path in (r, True, None, 1.5, [str(r)]):
            with pytest.raises(error, match="^expected str, bytes or os.PathLike object, not "):
                read(path)
        os.fstat(r)  # not closed
        assert os.read(r, len(MINIMAL) + 1) == MINIMAL.encode()  # nor read
        os.close(r)

    def test_dump_instance_refuses_what_is_no_instance(self):
        with pytest.raises(InstanceValidationError, match="^not an Instance: NoneType$"):
            dump_instance(None)


class TestUnknownKeyWarnings:
    """Each unknown key warns from the line that called the reader."""

    @pytest.mark.parametrize("path", [
        ("note",), ("variables", 0, "note"), ("variables", 2, "cpt", "note"),
        ("variables", 2, "cpt", "rows", 1, "note"), ("constraints", 0, "note"),
        ("constraints", 1, "note"), ("objective", "note"),
    ], ids=["document", "variable", "cpt", "cpt-row", "expr-constraint", "table-constraint",
            "objective"])
    def test_the_warning_names_the_caller(self, path, tmp_path):
        doc = _edited(path, 1)
        file = tmp_path / "notes.scsp"
        file.write_text(json.dumps(doc), encoding="utf-8")
        for read, arg in ((parse_instance, json.dumps(doc)), (load_instance, file)):
            with pytest.warns(FormatWarning, match="ignoring unknown key 'note'") as caught:
                read(arg)
            assert [w.filename for w in caught] == [__file__]

    def test_the_violation_value_warning_names_the_caller(self, tmp_path):
        doc = _edited(("objective", "violation_value"), 100)
        file = tmp_path / "high.scsp"
        file.write_text(json.dumps(doc), encoding="utf-8")
        for check, arg in ((parse_instance, json.dumps(doc)), (load_instance, file),
                           (validate_instance, _through_the_api(doc))):
            with pytest.warns(ViolationValueWarning, match="^violation_value 100.0 exceeds") as caught:
                check(arg)
            assert [w.filename for w in caught] == [__file__]


class TestInstanceRoundTrip:
    def test_shipped_files(self, instances_dir):
        for path in instances_dir.glob("*.scsp"):
            inst = load_instance(path)
            assert parse_instance(dump_instance(inst)) == inst

    def test_random_instances(self):
        rng = random.Random(51)
        for _ in range(30):
            inst = random_instance(rng)
            assert parse_instance(dump_instance(inst)) == inst

    def test_dump_is_deterministic(self):
        rng = random.Random(53)
        for _ in range(10):
            inst = random_instance(rng)
            text = dump_instance(inst)
            assert dump_instance(parse_instance(text)) == text
            assert text.endswith("\n")
            assert "\r" not in text


class TestPolicyFormat:
    def test_leaf_representation_is_pinned(self):
        assert serialize_policy(Leaf()) == '{"kind":"leaf"}'

    def test_rigid_policy_shape(self, instance_a):
        policy = DecisionNode("x", 0, ChanceNode("s", (Leaf(), Leaf())))
        doc = json.loads(serialize_policy(policy))
        assert doc["kind"] == "decision"
        assert doc["value"] == 0
        assert doc["child"]["kind"] == "chance"
        assert len(doc["child"]["children"]) == 2

    def test_hundred_random_policies_round_trip(self):
        rng = random.Random(57)
        for _ in range(100):
            inst = random_instance(rng)
            policy = random_policy(rng, inst)
            assert parse_policy(serialize_policy(policy)) == policy

    def test_bad_json(self):
        with pytest.raises(FormatError):
            parse_policy("{not json")

    @pytest.mark.parametrize("policy, message", [
        ("leaf", "^not a policy node: 'leaf'$"),
        (ChanceNode("s", (Leaf(), 0)), "^not a policy node: 0$"),
        # Python prints at most 4,300 digits of an int
        (DecisionNode("x", 10**5000, Leaf()), "^policy holds an integer too long to write$"),
    ], ids=["string", "int-child", "past-the-digit-limit"])
    def test_serialize_refuses_what_is_not_a_policy(self, policy, message):
        with pytest.raises(MalformedPolicyError, match=message):
            serialize_policy(policy)

    @pytest.mark.parametrize("reader, text", [
        (parse_instance, '{"theta": 1' + "0" * 5000 + ', "variables": []}'),
        (parse_policy, '{"kind":"decision","variable":"x","value":1' + "0" * 5000
         + ',"child":{"kind":"leaf"}}'),
    ], ids=["instance", "policy"])
    def test_integer_past_the_digit_limit(self, reader, text):
        # json.loads raises a plain ValueError past Python's 4,300 digits
        with pytest.raises(FormatError, match="^not valid JSON: an integer literal too long"):
            reader(text)

    @pytest.mark.parametrize("doc", [
        '"leaf"',
        '{"kind": "branch"}',
        '{"kind": "decision", "variable": "x", "value": 0}',
        '{"kind": "chance", "variable": "s"}',
        # refs: dangling, to an ancestor, not a non-negative int, with other keys
        '{"ref": 0}',
        '{"kind": "chance", "variable": "s", "children": [{"kind": "leaf"}, {"ref": 1}]}',
        '{"kind": "chance", "variable": "s", "children": [{"ref": 0}]}',
        '{"kind": "decision", "variable": "x", "value": 0, "child": {"kind": "chance",'
        ' "variable": "s", "children": [{"ref": 1}]}}',
        '{"ref": -1}',
        '{"ref": true}',
        '{"ref": 0.0}',
        '{"ref": "0"}',
        '{"ref": null}',
        '{"kind": "chance", "variable": "s", "children": [{"kind": "decision",'
        ' "variable": "x", "value": 0, "child": {"kind": "leaf"}},'
        ' {"ref": 1, "kind": "decision"}]}',
    ])
    def test_malformed_policies(self, doc):
        # a bad ref is refused for the ref, not for a missing kind
        with pytest.raises(MalformedPolicyError, match="ref" if '"ref"' in doc else None):
            parse_policy(doc)

    @pytest.mark.parametrize("doc", [
        '{"kind": "decision", "value": 0, "child": {"kind": "leaf"}}',
        '{"kind": "chance", "children": [{"kind": "leaf"}]}',
        '{"kind": "decision", "variable": "x", "value": true,'
        ' "child": {"kind": "leaf"}}',
        '{"kind": "chance", "variable": "s", "children": []}',
    ])
    def test_the_policy_check_refuses_what_the_reader_maps(self, doc, instance_a, instances_dir,
                                                            tmp_path, capsys):
        # the reader builds nodes of these; the check of their values refuses them
        with pytest.raises(MalformedPolicyError):
            policy_satisfaction(instance_a, parse_policy(doc))
        path = tmp_path / "p.json"
        path.write_text(doc, encoding="utf-8")
        assert main(["eval", str(instances_dir / "a.scsp"), "--policy", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_shared_policy_bytes_are_pinned(self):
        # non-leaf nodes are numbered in preorder of first occurrence:
        # the root 0, the s2 node 1, the decision 2
        decision = DecisionNode("x", 0, Leaf())
        chance = ChanceNode("s2", (decision, decision))
        text = serialize_policy(ChanceNode("s1", (chance, chance)))
        assert text == (
            '{"kind":"chance","variable":"s1","children":[{"kind":"chance",'
            '"variable":"s2","children":[{"kind":"decision","variable":"x",'
            '"value":0,"child":{"kind":"leaf"}},{"ref":2}]},{"ref":1}]}')
        parsed = parse_policy(text)
        assert parsed == ChanceNode("s1", (chance, chance))
        assert parsed.children[0] is parsed.children[1]
        assert parsed.children[0].children[0] is parsed.children[0].children[1]

    def test_large_shared_policy_round_trips_with_its_sharing(self):
        # 2^12 paths, but fc_max's policy has only a few hundred node objects
        policy = fc_max(coin_chain(24)).policy
        text = serialize_policy(policy)
        parsed = parse_policy(text)
        assert same_tree(parsed, policy)
        assert _distinct_nodes(parsed) == _distinct_nodes(policy) < 2 ** 12
        assert serialize_policy(parsed) == text


def _dict_serialize(policy) -> str:
    """The policy writer as it was before it appended text in one walk: a
    dict tree, then one `json.dumps`. The reference for its bytes."""
    numbers: dict[int, int] = {}

    def encode(node):
        if isinstance(node, Leaf):
            return {"kind": "leaf"}
        k = numbers.get(id(node))
        if k is not None:
            return {"ref": k}
        numbers[id(node)] = len(numbers)
        if isinstance(node, DecisionNode):
            return {"kind": "decision", "variable": node.variable,
                    "value": node.chosen_value, "child": encode(node.child)}
        if isinstance(node, ChanceNode):
            return {"kind": "chance", "variable": node.variable,
                    "children": [encode(c) for c in node.children]}
        raise MalformedPolicyError(f"not a policy node: {node!r}")

    try:
        return json.dumps(encode(policy), separators=(",", ":"))
    except ValueError:
        raise MalformedPolicyError("policy holds an integer too long to write") from None


def _written(write, policy):
    """The text a writer returns, or the type and message of its error."""
    try:
        return write(policy)
    except Exception as e:
        return type(e), str(e)


class TestPolicyWriterBytes:
    """The one-walk writer gives the dict-plus-json.dumps writer's bytes or error."""

    def test_generated_witnesses(self):
        rng = random.Random(83)
        makers = (random_instance, random_cpt_instance, random_linear_instance,
                  lambda r: random_instance(r, max_vars=7, zero_prob=True))
        written = 0
        for i in range(80):
            inst = makers[i % 4](rng)
            policies = [bt_max(inst).policy, fc_max(inst).policy, random_policy(rng, inst)]
            for decide in (bt_decide, fc_decide):
                policies += [decide(inst, theta).policy for theta in (0.2, 0.6)]
            for policy in policies:
                if policy is not None:
                    assert serialize_policy(policy) == _dict_serialize(policy)
                    written += 1
        assert written > 400

    def test_shared_ref_graphs(self):
        decision = DecisionNode("x", 0, Leaf())
        chance = ChanceNode("s2", (decision, decision, Leaf()))
        graphs = [ChanceNode("s1", (chance, chance)), DecisionNode("y", 1, chance),
                  ChanceNode("s0", (DecisionNode("y", 2, chance), chance, decision)),
                  fc_max(coin_chain(16)).policy, parse_policy(serialize_policy(chance))]
        for policy in graphs:
            assert serialize_policy(policy) == _dict_serialize(policy)
        assert '{"ref":' in serialize_policy(graphs[-2])

    @pytest.mark.parametrize("policy", [
        DecisionNode('q"uote\\back\nline\x00', 0, Leaf()),
        ChanceNode("caf\u00e9 \u2028 \U0001f3b2", (Leaf(), DecisionNode("\t", -7, Leaf()))),
        DecisionNode("x", True, DecisionNode("y", False, Leaf())),
        ChanceNode("s", (DecisionNode("x", True, Leaf()), DecisionNode("x", 1, Leaf()))),
        DecisionNode("x", 10**5000, Leaf()),
        DecisionNode("x", -(10**5000), ChanceNode("s", (Leaf(), "leaf"))),
        DecisionNode("x", 2**200, Leaf()),
        DecisionNode("x", float("nan"), Leaf()),
        DecisionNode("x", {1, 2}, Leaf()),
        DecisionNode(("x",), [0], Leaf()),
        DecisionNode("x", {1}, DecisionNode("y", 10**5000, Leaf())),
        ChanceNode("s", (Leaf(), 0)),
        "leaf",
        None,
    ], ids=["escaped-name", "unicode-names", "bools", "bool-and-int", "huge-int",
            "huge-int-then-non-node", "wide-int", "nan", "set-value", "list-name-and-value",
            "set-then-huge-int", "int-child", "string", "none"])
    def test_api_built_nodes(self, policy):
        assert _written(serialize_policy, policy) == _written(_dict_serialize, policy)


def _distinct_nodes(policy) -> int:
    """Node objects in a policy, each counted once."""
    seen, stack = {}, [policy]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, DecisionNode):
                stack.append(node.child)
            elif isinstance(node, ChanceNode):
                stack.extend(node.children)
    return len(seen)


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeSnippets:
    """Every JSON example in the README parses as the format it documents."""

    @staticmethod
    def snippets():
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                            flags=re.S)
        return [json.loads(block) for block in blocks]

    @staticmethod
    def kind_of(doc) -> str:
        if "variables" in doc:
            return "instance"
        if "domain" in doc:
            return "variable"
        return "constraint" if "type" in doc else "policy"

    def test_every_kind_of_snippet_is_present(self):
        kinds = {self.kind_of(doc) for doc in self.snippets()}
        assert kinds == {"instance", "variable", "constraint", "policy"}

    def test_snippets_parse_without_warnings(self):
        for doc in self.snippets():
            kind = self.kind_of(doc)
            if kind == "policy":
                parse_policy(json.dumps(doc))
                continue
            if kind == "instance":
                text = json.dumps(doc)
            elif kind == "variable":  # give it its parents
                parents = [{"name": p, "kind": "stochastic", "domain": [0, 1],
                            "probabilities": [0.5, 0.5]}
                           for p in doc.get("cpt", {}).get("parents", [])]
                text = json.dumps({"theta": 0.5, "variables": parents + [doc]})
            else:  # one constraint over instance a's variables
                instance = json.loads(MINIMAL)
                instance["constraints"] = [doc]
                text = json.dumps(instance)
            with warnings.catch_warnings():
                warnings.simplefilter("error", FormatWarning)
                parse_instance(text)
