"""Run one workload's ops in this process; write timings and checks as JSON.

Usage: python3 perfbench/worker.py SPEC RESULT --seconds S [--trace]

SPEC is the JSON written by run.py. The worker runs every op once to warm
up and to take its reference output, then repeats the op list in rounds
until S seconds have passed (untraced). With --trace it then runs a
counting round and S more seconds with spans around each layer call, and
a constraint-evaluation microbenchmark. Verification comes last, outside
every timed phase.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import tracing
from verify import Verifier

MIN_OPS = 100          # so that at least 10 ops lie beyond the p90
EVAL_BENCH_S = 0.25    # length of the constraint-evaluation microbenchmark
EVAL_ENVS = 8          # full environments per instance in that benchmark


def run_op(main, op: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(op["argv"]))
        except Exception as e:  # main reports its own errors; this is a harness alarm
            code = -1
            err.write(f"raised {e!r}\n")
    return code, out.getvalue(), err.getvalue()


def timed_rounds(main, ops: list[dict], reference: list, seconds: float,
                 tracer=None, min_ops: int = MIN_OPS) -> dict:
    """Repeat the op list in whole rounds for at least ``seconds``.

    An execution fails when its exit code or streams differ from the
    op's reference (warm-up) output.
    """
    latencies: list[float] = []
    factors: list[float] = []
    round_seconds: list[float] = []
    mismatched: list[int] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            before = speed.slice_seconds()
            if tracer is not None:
                tracer.op = op
                index = tracer.begin(tracing.ROOT)
            t0 = time.perf_counter()
            result = run_op(main, op)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(index)
                tracer.op = None
            factors.append(speed.factor(before, speed.slice_seconds()))
            if tracer is not None:
                tracer.spans[index][5] = {"speed": factors[-1]}
            latencies.append((t1 - t0) * 1000.0)
            if result != reference[op["id"]]:
                mismatched.append(op["id"])
        round_seconds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    return {"latencies_ms": latencies, "factors": factors, "round_seconds": round_seconds,
            "attempted": len(latencies), "mismatched": mismatched}


def eval_microbenchmark(stocs, spec: dict) -> dict:
    """ns per call of every compiled constraint on fixed full environments."""
    calls = []
    for entry in spec["instances"]:
        inst = stocs.load_instance(entry["path"])
        rng = random.Random(entry["name"])
        envs = [[rng.choice(v.domain) for v in inst.variables] for _ in range(EVAL_ENVS)]
        calls.extend((c.fn, env) for c in inst.compiled for env in envs)
    done = 0
    before = speed.slice_seconds()
    start = time.perf_counter()
    while True:
        for fn, env in calls:
            fn(env)
        done += len(calls)
        elapsed = time.perf_counter() - start
        if elapsed >= EVAL_BENCH_S:
            scale = speed.factor(before, speed.slice_seconds())
            return {"calls": done, "ns_per_call": elapsed * scale * 1e9 / max(done, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="JSONL file for the traced spans")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import stocs
    import stocs.cli

    ops = spec["ops"]
    phase = time.perf_counter()
    reference = [run_op(stocs.cli.main, op) for op in ops]
    phases = {"warmup_s": time.perf_counter() - phase}
    result: dict = {"untraced": timed_rounds(stocs.cli.main, ops, reference, args.seconds)}
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tracer = None
    if args.trace:
        counting_run, counts = count_round(stocs.cli.main, ops, reference)

        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = timed_rounds(stocs.cli.main, ops, reference, args.seconds, tracer)
        per_round = _round_counters(tracer.spans, len(ops))
        repeats = all(_same_counts(c, counts) for c in per_round)
        result.update(counting=counting_run, counts=counts, counts_repeat=repeats,
                      traced=traced, layers=tracing.layer_summary(tracer.spans),
                      expr_eval=eval_microbenchmark(stocs, spec))
        verify_start = len(tracer.spans)

    phase = time.perf_counter()
    recorded = spec.get("recorded_mc") or {}
    verifier = Verifier(stocs, spec, reference, tracer, recorded)
    problems = {}
    for op, (code, out, err) in zip(ops, reference):
        problem = verifier.check(op, code, out, err)
        if problem is not None:
            problems[str(op["id"])] = problem
    result["problems"] = problems
    phases["verify_s"] = time.perf_counter() - phase
    result["phases"] = phases
    runs = [result[k] for k in ("untraced", "counting", "traced") if k in result]
    result["attempted"] = sum(run["attempted"] for run in runs)
    # an op whose reference output is wrong fails on every execution
    result["failed"] = sum(
        run["attempted"] // len(ops) * len(problems)
        + sum(1 for i in run["mismatched"] if str(i) not in problems)
        for run in runs)
    if tracer is not None:
        result["verify_layers"] = tracing.layer_summary(tracer.spans[verify_start:])
        if args.spans:
            tracer.write_jsonl(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def count_round(main, ops: list[dict], reference: list) -> tuple[dict, dict]:
    """One round with every constraint call counted: the deterministic counters."""
    tracer = tracing.Tracer()
    evals = [0]
    with tracing.instrument(tracer, count_evals=evals):
        run = timed_rounds(main, ops, reference, 0.0, tracer, min_ops=0)
    counts = tracing.counters(tracer.spans)
    counts["expr.evals"] = evals[0]
    return run, counts


def _round_counters(spans: list[list], ops_per_round: int) -> list[dict]:
    """Split spans into rounds at every ops_per_round-th root span."""
    rounds, current, seen = [], [], 0
    for span in spans:
        if span[0] == tracing.ROOT:
            if seen and seen % ops_per_round == 0:
                rounds.append(tracing.counters(current))
                current = []
            seen += 1
        current.append(span)
    if current:
        rounds.append(tracing.counters(current))
    return rounds


def _same_counts(a: dict, b: dict) -> bool:
    keys = [k for k in b if k not in ("expr.evals", "policy_nodes")]
    return all(a.get(k, 0) == b[k] for k in keys)


if __name__ == "__main__":
    sys.exit(main())
