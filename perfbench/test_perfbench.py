"""The benchmark's own checks: seeded inputs, repeatable counters, metric names.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stocs  # noqa: E402
import stocs.cli  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from worker import count_round, run_op  # noqa: E402

OPS = 5  # the first ops of each workload (one instance) keep these checks short


def _texts(spec: dict) -> list[str]:
    return [Path(entry["path"]).read_text(encoding="utf-8") for entry in spec["instances"]]


def _counts(spec: dict) -> dict:
    ops = spec["ops"][:OPS]
    reference = [run_op(stocs.cli.main, op) for op in ops]
    run, counts = count_round(stocs.cli.main, ops, reference)
    assert run["mismatched"] == []
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs_and_counters(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a", stocs)
    second = workloads.build(workload, 7, tmp_path / "b", stocs)
    assert _texts(first) == _texts(second)
    assert [op["argv"][0] for op in first["ops"]] == [op["argv"][0] for op in second["ops"]]
    counts = _counts(first)
    assert counts == _counts(second)
    assert any(value for key, value in counts.items() if key != "policies")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_instances(workload, tmp_path):
    first = workloads.build(workload, 1, tmp_path / "a", stocs)
    second = workloads.build(workload, 2, tmp_path / "b", stocs)
    assert set(_texts(first)).isdisjoint(_texts(second))


def test_counting_restores_the_layer_functions(tmp_path):
    import stocs.expr
    import tracing

    before = (stocs.cli.bt_max, stocs.cli.load_instance, stocs.expr.compile_expression)
    with tracing.instrument(tracing.Tracer(), count_evals=[0]):
        assert stocs.cli.bt_max is not before[0]
    assert (stocs.cli.bt_max, stocs.cli.load_instance, stocs.expr.compile_expression) == before


def test_metric_lists_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in metrics.PER_LAYER.items()}
    known = set(metrics.END_TO_END) | set(metrics.PER_LAYER)
    for moves in metrics.MOVES.values():
        for move in moves:
            assert move["metric"] in known
            assert move["workload"] in workloads.WORKLOADS
