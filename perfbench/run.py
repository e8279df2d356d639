"""End-to-end and per-layer benchmark for stocs.

Usage (from the repository root):

    python3 perfbench/run.py --workload production --seed 1 --seconds 12 --trace 0

It generates the workload's inputs from the seed, times SETUP_PROBES fresh
interpreters that import stocs and load every instance (setup_s), then
runs the workload in one worker process: a closed loop of `stocs.cli.main`
calls on the generated files, one process and one thread. With --trace 1
the worker also runs the ops with spans around every layer call and the
per-layer metrics are reported instead of the end-to-end ones.

Every metric is printed with its unit, one per line; the last line is one
JSON object with the keys correct, attempted, failed and metrics. The full
record (all metrics, deterministic counters, sizes, source line counts)
goes to perfbench/.work/<workload>-<seed>/summary.json, and with --trace 1
the spans to spans.jsonl beside it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _probe_setup(spec_path: Path) -> tuple[float, float, float]:
    """Normalized seconds of one fresh set-up, its import share in ms, raw seconds."""
    before = speed.slice_seconds()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed = time.perf_counter() - start
    scale = speed.factor(before, speed.slice_seconds())
    return elapsed * scale, json.loads(proc.stdout)["import_ms"] * scale, elapsed


def src_lines(src: Path) -> dict[str, int]:
    counts = {}
    for path in sorted((src / "stocs").glob("*.py")):
        with open(path, encoding="utf-8") as handle:
            counts[path.stem] = sum(1 for _ in handle)
    return counts


def normalized_ms(run: dict) -> list[float]:
    return [ms * f for ms, f in zip(run["latencies_ms"], run["factors"])]


def end_to_end(latencies: list[float], setup_times: list[float], peak_rss_kib: int) -> dict:
    return {
        "ops_per_s": len(latencies) * 1000.0 / sum(latencies),
        "op_ms_p50": _median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "setup_s": _median(setup_times),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }


def per_layer(result: dict, spec: dict, import_ms: list[float], lines: int) -> dict:
    layers, counts = result["layers"], result["counts"]
    verify = result["verify_layers"]

    def mean_self(name: str, table=layers) -> float:
        entry = table.get(name)
        return entry["self_s"] * 1000.0 / entry["calls"] if entry else 0.0

    out = {
        "cli.glue_ms": mean_self("cli.op"),
        "cli.unsat_rerun_ms": mean_self("cli.unsat_rerun"),
        "formats.parse_ms": mean_self("formats.parse"),
        "formats.parse_policy_ms": mean_self("formats.parse_policy"),
        "formats.serialize_ms": mean_self("formats.serialize"),
        "formats.policy_bytes": (counts["policy_bytes"] / counts["policies"]
                                 if counts["policies"] else 0.0),
        "model.compile_ms": mean_self("model.compile"),
        "expr.eval_ns": result["expr_eval"]["ns_per_call"],
        "expr.evals": counts["expr.evals"],
    }
    nodes = 0
    search_s = 0.0
    prunes = dict.fromkeys(tracing.PRUNE_COUNTERS, 0)
    for e in tracing.SOLVER_ENTRIES:
        out[f"solver.{e}.search_ms"] = mean_self(f"solver.{e}")
        out[f"solver.{e}.nodes"] = counts.get(f"{e}.nodes_visited", 0)
        nodes += out[f"solver.{e}.nodes"]
        search_s += layers.get(f"solver.{e}", {}).get("self_s", 0.0)
        for p in prunes:
            prunes[p] += counts.get(f"{e}.{p}", 0)
    rounds = len(result["traced"]["round_seconds"])
    out["solver.us_per_node"] = search_s * 1e6 / (nodes * rounds) if nodes else 0.0
    for p, value in prunes.items():
        out[f"solver.{p}"] = value
    out["solver.prune_ratio"] = sum(prunes.values()) / nodes if nodes else 0.0
    out["semantics.rescore_ms"] = mean_self("semantics.rescore")
    out["semantics.policy_nodes"] = (counts.get("policy_nodes", 0) / counts["policies"]
                                     if counts["policies"] else 0.0)
    out["semantics.oracle_ms"] = mean_self("semantics.oracle", verify)
    out["approx.bounds_ms"] = mean_self("approx.bounds")
    out["approx.mc_ms"] = mean_self("approx.mc")
    mc_s = layers.get("approx.mc", {}).get("self_s", 0.0)
    samples = sum(op.get("samples", 0) for op in spec["ops"]) * rounds
    out["approx.mc_samples_per_s"] = samples / mc_s if mc_s else 0.0
    out["extensions.optimize_ms"] = mean_self("extensions.optimize")
    out["extensions.ev_ms"] = mean_self("extensions.ev", verify)
    out["setup.import_ms"] = _median(import_ms)
    plain = statistics.mean(normalized_ms(result["untraced"]))
    traced = statistics.mean(normalized_ms(result["traced"]))
    out["trace.overhead_ms"] = traced - plain
    out["trace.overhead_frac"] = traced / plain - 1.0
    out["src.lines"] = lines
    return out


def load_recorded() -> dict:
    path = HERE / "recorded.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "stocs" / "__init__.py").is_file():
        print(f"error: no stocs package at {src / 'stocs'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stocs

    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    recorded = load_recorded()
    spec = workloads.build(args.workload, args.seed, work / "inputs", stocs)
    spec["src"] = str(src)
    spec["recorded_mc"] = recorded.get("mc", {}).get(str(args.seed), {})
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    probes = [_probe_setup(spec_path) for _ in range(SETUP_PROBES)]
    setup_times = [p[0] for p in probes]

    result_path = work / "result.json"
    command = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", "--spans", str(work / "spans.jsonl")]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    e2e = end_to_end(normalized_ms(result["untraced"]), setup_times, result["peak_rss_kib"])
    raw = end_to_end(result["untraced"]["latencies_ms"], [p[2] for p in probes],
                     result["peak_rss_kib"])
    lines = src_lines(src)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"] and result.get("counts_repeat", True)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "end_to_end": e2e, "raw_end_to_end": raw, "failed_frac": failed / attempted,
               "attempted": attempted, "failed": failed, "problems": result["problems"],
               "ops_per_round": len(spec["ops"]),
               "sizes": workloads.sizes()[args.workload], "why": workloads.WHY[args.workload],
               "src_lines": lines}

    for op_id, problem in sorted(result["problems"].items(), key=lambda kv: int(kv[0])):
        print(f"FAIL op {op_id} {spec['ops'][int(op_id)]['argv'][0]}: {problem}")
    for name, value in e2e.items():
        print(f"{args.workload} {name} {value:.6g} {metrics.END_TO_END[name][0]}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    reported = {name: {"value": value, "unit": metrics.END_TO_END[name][0]}
                for name, value in e2e.items()}
    if args.trace:
        layer = per_layer(result, spec, [p[1] for p in probes], sum(lines.values()))
        counts = result["counts"]
        known = recorded.get("counters", {}).get(args.workload, {}).get(str(args.seed))
        summary.update(per_layer=layer, counts=counts, counts_repeat=result["counts_repeat"],
                       counts_match_recorded=None if known is None else known == counts,
                       moves=metrics.MOVES)
        for name, value in layer.items():
            print(f"{args.workload} {name} {value:.6g} {metrics.PER_LAYER[name][0]}")
        print(f"{args.workload} counters repeat across traced rounds: {result['counts_repeat']}")
        if known is not None:
            print(f"{args.workload} counters match perfbench/recorded.json: {known == counts}")
        reported = {name: {"value": value, "unit": metrics.PER_LAYER[name][0]}
                    for name, value in layer.items()}
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
