"""Names, units and expected effects of every metric the benchmark reports.

END_TO_END and PER_LAYER mirror BENCHMARK.json (a test keeps them equal).
MOVES records, for each per-layer metric, which end-to-end metric on which
workload a change to that layer should move; an empty list means the
metric explains others (sizes, verification cost, tracing overhead) and
should move no end-to-end metric by itself.
"""

from tracing import SOLVER_ENTRIES

END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

_SEARCH = [("ops_per_s", "production"), ("op_ms_p90", "production"),
           ("ops_per_s", "inventory"), ("op_ms_p90", "inventory")]
_WALK = [("ops_per_s", "evaluate")]
_EVERY_SETUP = [("setup_s", w) for w in ("production", "inventory", "random", "evaluate")]

PER_LAYER = {
    "cli.glue_ms": ("ms", "lower", [("op_ms_p50", "random")]),
    "cli.unsat_rerun_ms": ("ms", "lower", [("op_ms_p90", "inventory")]),
    "formats.parse_ms": ("ms", "lower", _EVERY_SETUP + [("op_ms_p50", "random")]),
    "formats.parse_policy_ms": ("ms", "lower", _WALK),
    "formats.serialize_ms": ("ms", "lower", [("op_ms_p50", "random")]),
    "formats.policy_bytes": ("bytes", "lower", [("op_ms_p50", "random")]),
    "model.compile_ms": ("ms", "lower", _EVERY_SETUP + [("op_ms_p50", "random")]),
    # both expr metrics should show no change on random, whose constraints are tables
    "expr.eval_ns": ("ns", "lower", [("ops_per_s", "production")]),
    "expr.evals": ("count", "lower", [("ops_per_s", "production")]),
    **{f"solver.{e}.search_ms": ("ms", "lower", _SEARCH) for e in SOLVER_ENTRIES},
    **{f"solver.{e}.nodes": ("count", "lower", _SEARCH) for e in SOLVER_ENTRIES},
    "solver.us_per_node": ("us", "lower", _SEARCH),
    "solver.chance_prunes": ("count", "higher", _SEARCH),
    "solver.decision_prunes": ("count", "higher", _SEARCH),
    "solver.fc_wipeouts": ("count", "higher", _SEARCH),
    "solver.fc_mass_prunes": ("count", "higher", _SEARCH),
    "solver.prune_ratio": ("ratio", "higher", _SEARCH),
    "semantics.rescore_ms": ("ms", "lower", _WALK),
    "semantics.policy_nodes": ("count", "lower",
                               [("peak_rss_mb", "production"), ("peak_rss_mb", "random"),
                                ("formats.serialize_ms", "random")]),
    "semantics.oracle_ms": ("ms", "lower", []),
    "approx.bounds_ms": ("ms", "lower", _WALK),
    "approx.mc_ms": ("ms", "lower", _WALK),
    "approx.mc_samples_per_s": ("1/s", "higher", _WALK),
    "extensions.optimize_ms": ("ms", "lower", _WALK),
    "extensions.ev_ms": ("ms", "lower", _WALK),
    "setup.import_ms": ("ms", "lower", _EVERY_SETUP),
    "trace.overhead_ms": ("ms", "lower", []),
    "trace.overhead_frac": ("ratio", "lower", []),
    "src.lines": ("count", "lower", []),
}

MOVES = {name: [{"metric": m, "workload": w} for m, w in moves]
         for name, (_unit, _better, moves) in PER_LAYER.items()}
