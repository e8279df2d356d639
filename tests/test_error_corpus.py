"""Every loader error and warning stays as error_corpus.json pins it, and a
loaded instance is kept as it is when it is read or validated again."""

import json
import random
from pathlib import Path

import pytest

from error_corpus import INSTANCES_DIR, cases, outcome
from gen import random_cpt_instance, random_instance, random_linear_instance
from stocs import dump_instance, load_instance, parse_instance, validate_instance

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


def test_a_fault_in_the_file_shape_beats_an_earlier_model_fault():
    got = EXPECTED["production/duplicate-name-then-float"]
    assert got["error"] == ["FormatError", "variables[3] domain must contain integers, got 0.5"]
    assert got["exit"] == 2 and got["stderr"].startswith("error: ")


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
