"""Record the deterministic counters and Monte Carlo lines for given seeds.

Usage (from the repository root): python3 perfbench/record.py SEED [SEED ...]

For each workload and seed it builds the inputs, runs one counting round
in this process and stores the counters (node and prune counts per solver
entry, policy sizes, expr.evals) in perfbench/recorded.json, together with
the evaluate workload's `eval --samples` output lines. Existing entries
for other seeds are kept.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads
from worker import count_round, run_op

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"


def record(stocs, workload: str, seed: int, directory: Path) -> tuple[dict, dict]:
    """Counters of one round, and the sampled-eval line per instance name."""
    spec = workloads.build(workload, seed, directory, stocs)
    reference = [run_op(stocs.cli.main, op) for op in spec["ops"]]
    run, counts = count_round(stocs.cli.main, spec["ops"], reference)
    if run["mismatched"]:
        raise RuntimeError(f"{workload} seed {seed}: output changed between two executions")
    lines = {spec["instances"][op["instance"]]["name"]: reference[op["id"]][1]
             for op in spec["ops"] if "samples" in op}
    return counts, lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    import stocs
    import stocs.cli

    data = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.is_file() else {}
    counters = data.setdefault("counters", {})
    mc = data.setdefault("mc", {})
    work = HERE / ".work" / "record"
    try:
        for seed in map(int, argv):
            for workload in workloads.WORKLOADS:
                counts, lines = record(stocs, workload, seed, work / f"{workload}-{seed}")
                counters.setdefault(workload, {})[str(seed)] = counts
                if lines:
                    mc[str(seed)] = lines
                print(f"recorded {workload} seed {seed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RECORDED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
