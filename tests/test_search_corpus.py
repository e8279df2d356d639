"""The searches give every value, verdict, maximum, policy and counter that
search_corpus.json pins."""

import json
from pathlib import Path

import pytest

from search_corpus import FAMILIES, instances, rows

EXPECTED = json.loads((Path(__file__).resolve().parent / "search_corpus.json")
                      .read_text(encoding="utf-8"))
PREFIXES = [name for name, _ in FAMILIES] + ["inventory"]


def test_every_pinned_row_belongs_to_a_family():
    assert {key.split("-")[0] for key in EXPECTED} == set(PREFIXES)


@pytest.mark.parametrize("family", PREFIXES)
def test_each_run_gives_its_pinned_output(family):
    got = {key: row for name, instance, all_rules in instances() if name.startswith(f"{family}-")
           for key, row in rows(name, instance, all_rules)}
    assert got == {key: row for key, row in EXPECTED.items() if key.startswith(f"{family}-")}
