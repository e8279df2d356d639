"""Spans around the layer calls of a `stocs` op, recorded from outside.

`instrument` replaces, for the duration of a `with` block, the layer
functions that `stocs.cli` calls (load, solve, evaluate, bound, optimize,
serialize) with wrappers that open a span around the real call. Nothing
under `src/` changes: the op is still one `stocs.cli.main` call, and the
wrappers only add the span bookkeeping. Spans live in memory and are
written as JSONL at the end of a run.

A span is (name, start, end, parent, op, attrs). A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

SOLVER_ENTRIES = ("bt_max", "fc_max", "bt_decide", "fc_decide")
PRUNE_COUNTERS = ("chance_prunes", "decision_prunes", "fc_wipeouts", "fc_mass_prunes")
ROOT = "cli.op"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op: dict | None = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        op_id = self.op["id"] if self.op is not None else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, op_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, **attrs) -> None:
        self.spans[index][2] = time.perf_counter()
        if attrs:
            self.spans[index][5] = attrs
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def touch_compiled(instance) -> None:
    """First access of every compiled view of a fresh instance."""
    instance.compiled
    instance.check_at
    instance.fc_fire_at
    instance.unary_compiled
    instance.constant_compiled


def policy_size(policy) -> int:
    """Nodes of a policy tree, counted by walking it."""
    count, stack = 0, [policy]
    while stack:
        node = stack.pop()
        count += 1
        child = getattr(node, "child", None)
        if child is not None:
            stack.append(child)
        stack.extend(getattr(node, "children", ()))
    return count


@contextmanager
def instrument(tracer: Tracer, count_evals: list[int] | None = None):
    """Wrap the layer functions `stocs.cli` calls with spans.

    With ``count_evals`` (a one-element list), every call into a callable
    returned by `stocs.expr.compile_expression` is counted into it, and
    serialized policies are walked to count their nodes. Counting slows
    constraint checks, so its timings are not used.
    """
    import stocs.cli as cli
    import stocs.expr as expr

    saved: list[tuple[object, str, object]] = []

    def patch(module, name, replacement):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    load_instance = cli.load_instance

    def traced_load(path, renormalize=False):
        instance = tracer.call("formats.parse", load_instance, path, renormalize=renormalize)
        tracer.call("model.compile", touch_compiled, instance)
        return instance

    serialize_policy = cli.serialize_policy

    def traced_serialize(policy):
        index = tracer.begin("formats.serialize")
        try:
            text = serialize_policy(policy)
        finally:
            tracer.end(index)
        attrs = {"bytes": len(text)}
        if count_evals is not None:
            attrs["policy_nodes"] = policy_size(policy)
        tracer.spans[index][5] = attrs
        return text

    def solver(entry, fn):
        def traced(*args, **kwargs):
            op = tracer.op
            rerun = (entry.endswith("_max") and op is not None
                     and op.get("entry", "").endswith("_decide"))
            index = tracer.begin("cli.unsat_rerun" if rerun else f"solver.{entry}")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(index, **(result.stats.as_dict() if result is not None else {}))
        return traced

    def simple(name, fn):
        return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)

    monte_carlo = cli.monte_carlo_policy_eval

    def traced_mc(instance, policy, n, seed):
        index = tracer.begin("approx.mc")
        try:
            return monte_carlo(instance, policy, n, seed)
        finally:
            tracer.end(index, samples=n)

    patch(cli, "load_instance", traced_load)
    patch(cli, "serialize_policy", traced_serialize)
    patch(cli, "parse_policy", simple("formats.parse_policy", cli.parse_policy))
    for entry in SOLVER_ENTRIES:
        patch(cli, entry, solver(entry, getattr(cli, entry)))
    patch(cli, "policy_satisfaction", simple("semantics.rescore", cli.policy_satisfaction))
    patch(cli, "monte_carlo_policy_eval", traced_mc)
    patch(cli, "restricted_tree_bounds", simple("approx.bounds", cli.restricted_tree_bounds))
    patch(cli, "optimize_expected", simple("extensions.optimize", cli.optimize_expected))

    if count_evals is not None:
        compile_expression = expr.compile_expression
        nesting = [0]

        def counting_compile(node, index_of):
            # compile_expression recurses through the module global, so only
            # the outermost call hands its callable back to a caller
            nesting[0] += 1
            try:
                fn = compile_expression(node, index_of)
            finally:
                nesting[0] -= 1
            if nesting[0]:
                return fn

            def counted(env):
                count_evals[0] += 1
                return fn(env)
            return counted

        patch(expr, "compile_expression", counting_compile)
    try:
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the duration of its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def counters(spans: list[list]) -> dict:
    """Deterministic work counts summed over the given spans."""
    out: dict = {}
    policies = []
    for name, _start, _end, _parent, _op, attrs in spans:
        if not attrs:
            continue
        if name.startswith("solver.") or name == "cli.unsat_rerun":
            prefix = name[len("solver."):] if name.startswith("solver.") else name
            for key, value in attrs.items():
                out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + value
        elif name == "formats.serialize":
            policies.append(attrs)
    out["policies"] = len(policies)
    out["policy_bytes"] = sum(p["bytes"] for p in policies)
    if policies and "policy_nodes" in policies[0]:
        out["policy_nodes"] = sum(p["policy_nodes"] for p in policies)
    return out


def layer_summary(spans: list[list]) -> dict:
    """Per span name: calls, total self seconds and total seconds.

    Times are scaled by the host-speed factor stored on each span's root.
    """
    selfs = self_times(spans)
    roots: list[int] = []
    out: dict = {}
    for i, ((name, start, end, parent, _op, _attrs), own) in enumerate(zip(spans, selfs)):
        roots.append(i if parent < 0 else roots[parent])
        scale = (spans[roots[i]][5] or {}).get("speed", 1.0)
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own * scale
        entry["total_s"] += (end - start) * scale
    return out
