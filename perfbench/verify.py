"""Check every op's output against the other ops and the library.

Runs outside the timed phase. For each instance:

- the bt and fc max-mode ops print the same maximum (within 1e-9 plus
  print rounding), and every bt and fc decide op prints the verdict that
  maximum implies (instances without solve ops use bt_max and fc_max
  through the library);
- the enumeration oracle gives the same maximum wherever the instance has
  at most ORACLE_VERIFY_CAP policies;
- every written witness re-scores by `policy_satisfaction`: to the value
  for a max solve, to at least theta for a SAT verdict;
- restricted-tree bounds satisfy lb <= exact <= ub;
- Monte Carlo output equals, byte for byte, a fresh computation with the
  same seed, and the recorded line where one exists for the seed;
- `optimize` reports the expected value and satisfaction of its own
  policy, and no less than the witness policy's expected value.
"""

from __future__ import annotations

import re
from pathlib import Path

import speed

TOL = 1e-9
PRINT_TOL = 2e-9  # 1e-9 plus the rounding of 9-decimal output

# The oracle enumerates every policy and scores each one; at the package's
# own cap (10^6) a single check could take a minute, so verification uses it
# only on instances small enough to enumerate in under a second, and on at
# most ORACLE_CHECKS of them per run (the first in op order).
ORACLE_VERIFY_CAP = 20_000
ORACLE_CHECKS = 6

_NUM = r"(-?\d+\.\d{9})"
_MAX = re.compile(rf"MAX p={_NUM}\n\Z")
_SAT = re.compile(rf"SAT p>={_NUM}\n\Z")
_UNSAT = re.compile(rf"UNSAT max={_NUM}\n\Z")
_EVAL = re.compile(rf"EVAL p={_NUM}\n\Z")
_BOUNDS = re.compile(rf"BOUNDS lb={_NUM} ub={_NUM}\n\Z")
_OPT = re.compile(rf"OPT ev={_NUM} p={_NUM}\n\Z")
_NO_POLICY = "warning: no policy written for an UNSAT verdict\n"


class Verifier:
    """Computes references per instance once and checks ops against them."""

    def __init__(self, stocs, spec: dict, outputs: list, tracer=None,
                 recorded_mc: dict | None = None):
        self.stocs = stocs
        self.spec = spec
        self.tracer = tracer
        self.recorded_mc = recorded_mc or {}
        self._instances: dict[int, object] = {}
        self._max: dict[int, float] = {}
        self.oracle_checks = 0
        # the maximum each max-mode solve op printed, per instance and entry
        self._printed: dict[int, dict[str, float]] = {}
        for op, (_code, out, _err) in zip(spec["ops"], outputs):
            m = _MAX.match(out) if op.get("entry", "").endswith("_max") else None
            if m:
                self._printed.setdefault(op["instance"], {})[op["entry"]] = float(m.group(1))

    def _timed(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        before = speed.slice_seconds()
        index = self.tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.end(index)
            self.tracer.spans[index][5] = {"speed": speed.factor(before, speed.slice_seconds())}

    def instance(self, index: int):
        if index not in self._instances:
            self._instances[index] = self.stocs.load_instance(self.spec["instances"][index]["path"])
        return self._instances[index]

    def maximum(self, index: int) -> float:
        """The instance's maximum, cross-checked by bt, fc and the oracle."""
        if index not in self._max:
            inst = self.instance(index)
            printed = self._printed.get(index, {})
            if "bt_max" in printed and "fc_max" in printed:
                bt, fc, tol = printed["bt_max"], printed["fc_max"], PRINT_TOL
            else:
                bt = self.stocs.bt_max(inst).probability
                fc = self.stocs.fc_max(inst).probability
                tol = TOL
            if abs(bt - fc) > tol:
                raise AssertionError(f"bt_max {bt!r} != fc_max {fc!r}")
            if inst.policy_count <= ORACLE_VERIFY_CAP and self.oracle_checks < ORACLE_CHECKS:
                self.oracle_checks += 1
                oracle = self._timed("semantics.oracle", self.stocs.oracle_max_satisfaction,
                                     inst).probability
                if abs(oracle - bt) > tol:
                    raise AssertionError(f"oracle {oracle!r} != search {bt!r}")
            witness = self.spec["instances"][index].get("witness_value")
            if witness is not None and abs(witness - bt) > tol:
                raise AssertionError(f"witness value {witness!r} != bt_max {bt!r}")
            self._max[index] = bt
        return self._max[index]

    def _rescore(self, index: int, path: str) -> float:
        policy = self.stocs.parse_policy(Path(path).read_text(encoding="utf-8"))
        return self.stocs.policy_satisfaction(self.instance(index), policy)

    def check(self, op: dict, code: int, out: str, err: str) -> str | None:
        """None when the op's output is right, else what is wrong."""
        try:
            return getattr(self, f"_check_{op['cmd']}")(op, code, out, err)
        except (AssertionError, ValueError, OSError, self.stocs.StocsError) as e:
            return f"{type(e).__name__}: {e}"

    def _check_solve(self, op, code, out, err):
        index = op["instance"]
        best = self.maximum(index)
        inst = self.instance(index)
        if op["entry"].endswith("_max"):
            m = _MAX.match(out)
            if code != 0 or not m or err:
                return f"max solve printed {out!r} {err!r} exit {code}"
            if abs(float(m.group(1)) - best) > PRINT_TOL:
                return f"max {m.group(1)} != {best!r}"
            if abs(self._rescore(index, op["policy_out"]) - best) > PRINT_TOL:
                return "witness does not re-score to the maximum"
            return None
        theta = inst.theta if op["theta"] is None else op["theta"]
        if abs(best - theta) <= PRINT_TOL:
            best = self.stocs.bt_max(inst).probability  # too close to call from print
        expected = best >= theta - self.stocs.PROB_TOL
        if expected:
            m = _SAT.match(out)
            if code != 0 or not m or err or abs(float(m.group(1)) - theta) > PRINT_TOL:
                return f"expected SAT, got {out!r} {err!r} exit {code}"
            if op["policy_out"] and self._rescore(index, op["policy_out"]) < theta - TOL:
                return "SAT witness re-scores below theta"
            return None
        m = _UNSAT.match(out)
        if code != 1 or not m or abs(float(m.group(1)) - best) > PRINT_TOL:
            return f"expected UNSAT max={best!r}, got {out!r} exit {code}"
        if err != (_NO_POLICY if op["policy_out"] else ""):
            return f"unexpected stderr {err!r}"
        return None

    def _witness(self, index: int):
        path = self.spec["instances"][index]["witness"]
        return self.stocs.parse_policy(Path(path).read_text(encoding="utf-8"))

    def _check_eval(self, op, code, out, err):
        index = op["instance"]
        inst = self.instance(index)
        if code != 0 or err:
            return f"eval exit {code} stderr {err!r}"
        if "samples" not in op:
            m = _EVAL.match(out)
            if not m or abs(float(m.group(1)) - self.maximum(index)) > PRINT_TOL:
                return f"exact eval printed {out!r}, witness value {self.maximum(index)!r}"
            return None
        est = self.stocs.monte_carlo_policy_eval(inst, self._witness(index),
                                                 op["samples"], op["seed"])
        line = (f"EST p={est.estimate:.9f} ci=[{est.ci_low:.9f},{est.ci_high:.9f}]"
                f" n={est.n} seed={est.seed}\n")
        if out != line:
            return f"sampled eval printed {out!r}, expected {line!r}"
        recorded = self.recorded_mc.get(self.spec["instances"][index]["name"])
        if recorded is not None and out != recorded:
            return f"sampled eval printed {out!r}, recorded {recorded!r}"
        if not est.ci_low <= est.estimate <= est.ci_high:
            return "estimate outside its own interval"
        return None

    def _check_approx(self, op, code, out, err):
        m = _BOUNDS.match(out)
        if code != 0 or not m or err:
            return f"approx printed {out!r} {err!r} exit {code}"
        lb, ub = float(m.group(1)), float(m.group(2))
        best = self.maximum(op["instance"])
        if not lb - PRINT_TOL <= best <= ub + PRINT_TOL:
            return f"bounds [{lb}, {ub}] miss the maximum {best!r}"
        return None

    def _check_optimize(self, op, code, out, err):
        m = _OPT.match(out)
        if code != 0 or not m or err:
            return f"optimize printed {out!r} {err!r} exit {code}"
        index = op["instance"]
        inst = self.instance(index)
        ev, p = float(m.group(1)), float(m.group(2))
        result = self.stocs.optimize_expected(inst)
        value = self._timed("extensions.ev", self.stocs.policy_expected_value, inst, result.policy)
        tol = PRINT_TOL * max(1.0, abs(value))
        if abs(ev - value) > tol:
            return f"optimize ev {ev!r} != policy_expected_value {value!r}"
        if abs(p - self.stocs.policy_satisfaction(inst, result.policy)) > PRINT_TOL:
            return "optimize satisfaction does not re-score"
        baseline = self._timed("extensions.ev", self.stocs.policy_expected_value, inst,
                               self._witness(index))
        if ev < baseline - tol:
            return f"optimize ev {ev!r} below the witness policy's {baseline!r}"
        return None
