"""Every loader error and warning stays as error_corpus.json pins it, and a
loaded instance is kept as it is when it is read or validated again."""

import json
import random
from pathlib import Path

import pytest

from error_corpus import INSTANCES_DIR, cases, outcome
from gen import random_cpt_instance, random_instance, random_linear_instance
from stocs import dump_instance, load_instance, parse_instance, validate_instance
from stocs.errors import FormatError, InstanceValidationError

EXPECTED = json.loads((Path(__file__).resolve().parent / "error_corpus.json")
                      .read_text(encoding="utf-8"))
CASES = dict(cases())


def test_the_corpus_pins_every_case():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("instance", sorted(p.stem for p in INSTANCES_DIR.glob("*.scsp")))
def test_each_fault_gives_its_pinned_error_warnings_and_output(instance, tmp_path):
    wrong = {case: got for case in sorted(CASES) if case.startswith(f"{instance}/")
             if (got := outcome(CASES[case], tmp_path)) != EXPECTED[case]}
    assert not wrong


def test_model_faults_come_in_validation_order_value_types_included():
    # variable 1 takes variable 0's name, and the last variable's domain
    # holds a float: validation checks every name before any domain
    got = EXPECTED["production/duplicate-name-then-float"]
    assert got["error"] == ["DuplicateNameError", "duplicate variable name 'x1'"]
    assert got["exit"] == 2 and got["stderr"] == "error: duplicate variable name 'x1'\n"


def test_a_fault_in_the_file_shape_beats_an_earlier_model_fault():
    # the first variable's float domain value is a model fault; the missing
    # key of a later constraint is one of the file's shape, and wins
    doc = json.loads((INSTANCES_DIR / "production.scsp").read_text(encoding="utf-8"))
    doc["variables"][0]["domain"][0] = 0.5
    del doc["constraints"][-1]["text"]
    with pytest.raises(FormatError, match=r"^constraints\[\d+\] misses 'text'$"):
        parse_instance(json.dumps(doc))
    del doc["constraints"]
    with pytest.raises(InstanceValidationError, match="non-integer domain value 0.5$"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("make", [random_instance, random_cpt_instance, random_linear_instance])
def test_validated_and_reread_instances_are_kept(make):
    rng = random.Random(71)
    for _ in range(40):
        inst = make(rng)
        assert validate_instance(inst) is inst
        again = parse_instance(dump_instance(inst))
        assert again == inst
        assert validate_instance(again) is again


def test_shipped_instances_are_kept_by_validation():
    for path in INSTANCES_DIR.glob("*.scsp"):
        inst = load_instance(path)
        assert validate_instance(inst) is inst
