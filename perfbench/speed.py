"""Host-speed normalization of measured times.

On a shared machine the interpreter's speed drifts by 20-30% within seconds
(neighbouring load, clock changes), and that drift, not the program,
dominates the spread of raw wall times. Every timed op is therefore
bracketed by a fixed slice of interpreter work, and its time is reported
scaled to the speed at which that slice takes REFERENCE_S:

    normalized = measured * REFERENCE_S / (slice time around the op)

A change that slows stocs slows the op and not the slice, so it still
shows; a machine that slows both cancels out. The raw times are kept in
the run's summary for reference.
"""

from __future__ import annotations

import json
import time

REFERENCE_S = 0.00075  # the slice's time at reference speed, near its median on a 2-vCPU VM

# The slice mixes the kinds of work an op does: Python calls on a list
# environment (constraint checks), JSON text in and out (instances and
# policies), and small dict and tuple allocations (search state).
_CALLS = 2000
_JSON_ROUNDS = 18
_ALLOCS = 80
_POLICY_TEXT = json.dumps({"kind": "chance", "variable": "s1", "children": [
    {"kind": "decision", "variable": "x2", "value": 300, "child": {"kind": "leaf"}}] * 5})


def _check(env):
    return env[0] - env[1] + env[2] >= env[3]


def slice_seconds() -> float:
    """Seconds taken by the fixed slice of interpreter work."""
    check = _check
    env = [3, 1, 4, 1]
    start = time.perf_counter()
    for _ in range(_CALLS):
        check(env)
    for _ in range(_JSON_ROUNDS):
        json.dumps(json.loads(_POLICY_TEXT))
    for i in range(_ALLOCS):
        {(i, j): (j,) for j in range(8)}
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two slices."""
    return REFERENCE_S * 2.0 / (before + after)
