"""Approximation procedures: interval bounds, a scenario heuristic, sampling.

restricted_tree_bounds explores only high-probability stochastic branches
and turns the skipped mass into an interval around the true maximum; equal
subtrees are bounded once, keyed as in the search (Instance.key_at).
most_probable_scenario_policy backtracks over the decisions while each
stochastic variable takes its likeliest value given the values set before
it, and lifts the first solution into a rigid policy.
monte_carlo_policy_eval estimates a given policy's satisfaction from
seeded scenario samples.

The sampler is fully specified so results are reproducible: a splitmix64
generator produces 64-bit words from the seed, each word becomes a uniform
u in [0,1) via (word >> 11) * 2**-53, and each stochastic value is drawn
by inverse CDF over the domain in domain order (first value whose
cumulative probability exceeds u). Every sample draws one word per
stochastic variable, in variable order.

The sampling walk is compiled on first visit. Under a fixed policy,
everything a sample does at a chance node except the draw depends only on
the node, on whether a constraint has failed yet and on what the walk below
reads of the path to it (Instance.key_at; the whole path at an unkeyed
depth): the distribution, its cumulative table and the constraint checks.
So the first sample to reach such a state does that work and stores the
outcome in a graph of states; later samples only bisect a draw into the
table and follow the stored branch. The policy's shape is checked in full
before the first draw (semantics._check_policy), so the walk trusts it.

The draws are made in batches. Every sample takes exactly one word per
stochastic variable, so n samples read the first n * m words of the
stream, and word k depends only on the seed and k. One batch holds
m * max(1, _CHUNK // m) words, whole samples, mixed at once on one big
int with a 128-bit lane per word. The fixed batch size bounds the memory
this takes, whatever n is, and each batch's lanes follow from the last
one's by one addition. The walk keeps each draw x = word >> 11 an
integer: x * 2**-53 < c exactly when x < ceil(c * 2**53), so bisecting
x into thresholds ceil(c * 2**53) over the cumulative probabilities c
finds the value the spec above names.

The walk by draw stops after the first batch that completes the trie:
every branch that owns a draw in [0, 2**53) is built at every built
state. If every leaf reached has one outcome, each remaining sample ends
in it, so the count is the full walk's; sure and hopeless policies cost
one batch. Otherwise the rest of the stream is counted by draw class.
The thresholds of the tables built at a variable's depth, the rows some
draw reaches, cut [0, 2**53) into intervals, and all draws in one
interval take one value at every state of that variable. bytes.translate
maps each word's top byte to its interval; only a draw whose top byte
spans a threshold is bisected. A Counter counts the samples' tuples of
intervals, and each distinct tuple walks the trie once. A variable with
more than 254 intervals, or under four remaining samples per possible
tuple, keeps the walk by draw to the end.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from collections import Counter
from functools import cache
from itertools import accumulate

from . import semantics
from ._record import record
from .errors import (
    BadEpsilonError,
    BadKError,
    BadSampleCountError,
    NoHeuristicPolicyError,
    StocsError,
)
from .model import Instance, _check_number, _repr
from .semantics import (
    PolicyNode,
    _check_depth,
    _check_policy,
    _policy_value,
    _remember,
    _rigid_policies,
)

__all__ = [
    "Interval", "SampleEstimate", "HeuristicPolicy", "WILSON_Z",
    "restricted_tree_bounds", "most_probable_scenario_policy",
    "monte_carlo_policy_eval",
]

WILSON_Z = 1.959964  # 95% two-sided normal quantile, fixed for reproducibility


@record
class Interval:
    lb: float
    ub: float


@record
class SampleEstimate:
    estimate: float
    n: int
    ci_low: float
    ci_high: float
    seed: int


@record
class HeuristicPolicy:
    policy: PolicyNode
    exact_satisfaction: float


def restricted_tree_bounds(instance: Instance, epsilon: float | None = None,
                           top_k: int | None = None) -> Interval:
    """Bounds on the maximal satisfaction from a restricted policy tree.

    At each chance node only branches with probability >= epsilon (or the
    top_k most probable, ties toward smaller values) are expanded; the
    skipped mass counts 0 toward the lower and fully toward the upper
    bound. epsilon=0, or top_k at least the largest domain size, collapses
    the interval onto the exact maximum.
    """
    if (epsilon is None) == (top_k is None):
        raise BadEpsilonError("give exactly one of epsilon or top_k")
    if epsilon is not None:
        epsilon = _check_number(epsilon, "epsilon", BadEpsilonError)
        if not 0.0 <= epsilon <= 1.0:  # NaN too
            raise BadEpsilonError(f"epsilon {epsilon!r} outside [0, 1]")
    elif not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise BadKError(f"top_k {_repr(top_k, BadKError, 'top_k')} must be a positive integer")

    _check_depth(instance)
    if instance.constant_false:
        return Interval(0.0, 0.0)
    env: list = [None] * instance.n
    key_at = instance.key_at
    memo: dict = {}

    def walk(depth: int) -> tuple[float, float]:
        if depth == instance.n:
            return 1.0, 1.0
        key = None if key_at[depth] is None else (depth, key_at[depth](env))
        if key in memo:
            return memo[key]
        var = instance.variables[depth]
        test = instance.check_at[depth]
        if var.kind == "decision":
            lb = ub = 0.0
            for w in var.domain:
                env[depth] = w
                if test is None or test(env):
                    child_lb, child_ub = walk(depth + 1)
                    lb = max(lb, child_lb)
                    ub = max(ub, child_ub)
                env[depth] = None
            return _remember(memo, key, (lb, ub))

        probs = instance.distribution(depth, env)
        if epsilon is not None:
            expanded = {i for i, q in enumerate(probs) if q > 0.0 and q >= epsilon}
        else:
            ranked = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
            expanded = {i for i in ranked[:top_k] if probs[i] > 0.0}
        lb = ub = 0.0
        unexplored = 0.0
        for i, (w, q) in enumerate(zip(var.domain, probs)):
            if i not in expanded:
                unexplored += q
                continue
            env[depth] = w
            if test is None or test(env):
                child_lb, child_ub = walk(depth + 1)
                lb += q * child_lb
                ub += q * child_ub
            env[depth] = None
        return _remember(memo, key, (lb, ub + unexplored))

    lb, ub = walk(0)
    lb = min(1.0, max(0.0, lb))
    ub = min(1.0, max(lb, ub))
    return Interval(lb, ub)


def most_probable_scenario_policy(instance: Instance) -> HeuristicPolicy:
    """Rigid policy from solving the most probable scenario's CSP.

    Plain backtracking tries every value of a decision variable and only
    the likeliest value of a stochastic one (ties toward the smaller
    value), read from its distribution given the values the search has
    set so far, decisions included. The first complete assignment's
    decisions are kept regardless of observations. The reported
    satisfaction is exact (recomputed on the full tree).
    """
    _check_depth(instance)
    env: list = [None] * instance.n
    if instance.constant_false:
        raise NoHeuristicPolicyError("a constant constraint is false")

    def solve(depth: int) -> bool:
        if depth == instance.n:
            return True
        var = instance.variables[depth]
        test = instance.check_at[depth]
        values = var.domain
        if var.kind == "stochastic":
            probs = instance.distribution(depth, env)
            values = (values[probs.index(max(probs))],)
        for w in values:
            env[depth] = w
            if (test is None or test(env)) and solve(depth + 1):
                return True
            env[depth] = None
        return False

    if not solve(0):
        raise NoHeuristicPolicyError(
            "the most probable scenario admits no satisfying decisions"
        )

    policy = _rigid_policies(instance, env)[0]  # well formed, so scored without _check_policy
    return HeuristicPolicy(policy, _policy_value(instance, policy))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment and mixing constants
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK = 2 ** 11  # draws per batch: each batch is a few 32 KiB integers


@cache
def _lanes(width: int) -> tuple[int, int, int]:
    """``ones``, ``steps`` and ``m64`` for ``width`` lanes: 1, k * GOLDEN and
    2**64 - 1 in lane k."""
    layout = "<" + "Q8x" * width  # per lane: its low 64 bits, then 64 spare bits
    ones = int.from_bytes(struct.pack(layout, *[1] * width), "little")
    steps = int.from_bytes(struct.pack(layout, *range(width)), "little") * _GOLDEN
    return ones, steps, ones * _MASK64


def _words(seed: int, total: int, width: int):
    """Yield ``(count, z)`` for the splitmix64 words 1 to ``total`` from
    ``seed`` (word k mixes ``seed + k * GOLDEN`` mod 2**64), in batches of
    ``width`` words; the last may be shorter. Lane k of ``z``, 128 bits
    wide, holds the batch's k-th word in its low 64 bits; bits 64 to 96 are
    clear.

    ``m64`` cuts every lane to 64 bits before each multiply, and 64 by 64
    bits fit the lane, so no bit crosses into a lane read back. The lane
    constants are built once for at least ``_CHUNK`` lanes and cut down to
    ``width`` and to a shorter last batch; each batch's lane base is the
    previous one's plus ``width * GOLDEN`` in every lane.
    """
    ones, steps, m64 = _lanes(max(width, _CHUNK))
    if width < _CHUNK:
        low = (1 << 128 * width) - 1
        ones, steps, m64 = ones & low, steps & low, m64 & low
    base = (steps + ((seed + _GOLDEN) & _MASK64) * ones) & m64
    stride = 0  # built at the second batch: a caller may stop after one
    for start in range(0, total, width):
        if start:
            stride = stride or ((width * _GOLDEN) & _MASK64) * ones
            base = (base + stride) & m64
        count = min(width, total - start)
        if count < width:
            low = (1 << 128 * count) - 1
            base, m64 = base & low, m64 & low
        z = ((base ^ (base >> 30)) & m64) * _MIX1 & m64
        z = ((z ^ (z >> 27)) & m64) * _MIX2 & m64
        yield count, z ^ (z >> 31)


def _cum(probs: tuple[float, ...]) -> list[int]:
    """The integer draw thresholds ``ceil(c * 2**53)`` of the cumulative
    probabilities ``c``, raised to at least ``2**53`` from the last positive
    value on: value i takes the draws in ``[cum[i - 1], cum[i])``."""
    cum = [math.ceil(c * 2.0 ** 53) for c in accumulate(probs)]
    last = max(i for i, q in enumerate(probs) if q > 0.0)
    cum[last:] = [max(t, 2 ** 53) for t in cum[last:]]
    return cum


_STRADDLE = 255  # class byte of a top byte whose 2**45 draws span a threshold


class _State:
    """One chance node reached with one key: what the walk below it reads
    of the path from the root.

    ``cum`` holds the node's integer draw thresholds (``_cum``), not its
    probabilities. Every draw is below ``2**53``, so one in the rounding gap
    past a total under 1 bisects to the last positive value. ``branches``
    holds, per value index, the built ``(next state or None, ok)`` pair, or
    None until a sample first takes that value. ``env`` is the environment
    of the first path to build the state, assigned before ``depth``.
    """

    __slots__ = ("cum", "branches", "depth", "children", "ok", "env")

    def __init__(self, cum, depth, children, ok, env):
        self.cum = cum
        self.branches = [None] * len(cum)
        self.depth = depth
        self.children = children
        self.ok = ok
        self.env = env


class _PathTrie:
    """A policy's sampling walk, compiled per state on first visit.

    Under a fixed policy the walk below a chance node depends only on the
    node, on whether a constraint has failed yet (``ok``) and on what the
    constraints and distributions below read of the path: at a keyed depth
    that is ``Instance.key_at``, elsewhere the whole path. So a state is one
    ``(chance node, key, ok)``, or one branch into it where the depth has no
    key, and policies that share subtrees get one state per shared subtree.
    The distribution, the threshold table and the constraint checks (one
    ``Instance.check_at`` test per depth) run once per state, in the same
    order and at the same sample as a plain walk would first run them. A
    branch is grown from a copy of its state's ``env``. ``states`` counts
    the states built. The policy must pass semantics._check_policy and the
    instance must have no false constant constraint.
    """

    def __init__(self, instance: Instance, policy: PolicyNode):
        self.instance = instance
        self.tables: dict[tuple, list[int]] = {}  # per depth and distinct row
        self.keyed: dict[tuple, _State] = {}  # states at keyed depths
        self.states = 0
        self.open = 0  # branches some draw reaches that are not built yet
        self.outcomes: set[bool] = set()  # ``ok`` of every leaf a built branch reached
        self.root = self._walk(0, policy, [None] * instance.n, True)

    def _walk(self, depth: int, node: PolicyNode, env: list,
              ok: bool) -> tuple[_State | None, bool]:
        """Follow the decision chain from ``depth`` to the next chance node
        (its state, built on first visit) or the end of the order, checking
        constraints in depth order until one fails."""
        instance = self.instance
        while depth < instance.n and instance.variables[depth].kind == "decision":
            env[depth] = node.chosen_value
            test = instance.check_at[depth]
            ok = ok and (test is None or test(env))
            node = node.child
            depth += 1
        if depth == instance.n:
            return None, ok
        get = instance.key_at[depth]
        key = None if get is None else (id(node), get(env), ok)
        state = self.keyed.get(key)
        if state is None:
            probs = instance.distribution(depth, env)
            cum = self.tables.get((depth, probs))
            if cum is None:
                cum = self.tables[depth, probs] = _cum(probs)
            self.states += 1
            # value i takes the draws in [cum[i - 1], min(cum[i], 2**53))
            self.open += sum(lo < min(hi, 2 ** 53) for lo, hi in zip([0, *cum], cum))
            state = _State(cum, depth, node.children, ok, tuple(env))
            _remember(self.keyed, key, state)
        return state, ok

    def grow(self, state: _State, i: int) -> tuple[_State | None, bool]:
        """Build the branch a sample takes at ``state`` with value index ``i``."""
        env = list(state.env)
        depth = state.depth
        env[depth] = self.instance.variables[depth].domain[i]
        test = self.instance.check_at[depth]
        ok = state.ok and (test is None or test(env))
        branch = state.branches[i] = self._walk(depth + 1, state.children[i], env, ok)
        self.open -= 1
        if branch[0] is None:
            self.outcomes.add(branch[1])
        return branch

    def wins(self, n: int, seed: int) -> int:
        """Satisfying samples among n, drawing one splitmix64 word from
        ``seed`` per stochastic variable in every sample.

        Every path passes one chance state per stochastic variable, so the
        draws form one flat stream and a sample ends every m-th draw. Its
        batches hold whole samples. They are walked draw by draw until one
        leaves no reachable branch to build. With one leaf outcome, the
        remaining samples then count without being drawn: none could differ.
        With both, and a class table for every position (``_classes``), the
        rest of the stream is counted by draw class (``_count``).
        """
        root_state, root_ok = self.root
        if root_state is None:  # no stochastic variable: every sample is alike
            return n if root_ok else 0
        grow = self.grow
        state = root_state
        wins = used = 0
        m = len(self.instance.stochastic_indices)
        classes = None
        counts: Counter = Counter()
        for count, z in _words(seed, n * m, m * max(1, _CHUNK // m)):
            if classes:
                self._count(counts, count, z, classes)
                if len(counts) > semantics.CACHE_ENTRIES:  # memory stays bounded, whatever n is
                    wins += self._score(counts, classes)
                    counts.clear()
                continue
            # bits 64 to 96 of a lane are clear, so >> 11 keeps 53 clean bits;
            # lanes are unpacked little-endian on every host
            for x in struct.unpack("<" + "Q8x" * count, (z >> 11).to_bytes(16 * count, "little")):
                i = bisect_right(state.cum, x)
                branch = state.branches[i]
                if branch is None:
                    branch = grow(state, i)
                state, ok = branch
                if state is None:
                    wins += ok
                    state = root_state
            used += count
            if not self.open and classes is None:
                if len(self.outcomes) == 1:
                    # every draw from here on follows built branches to this outcome
                    return wins + (n - used // m) * next(iter(self.outcomes))
                classes = self._classes(n - used // m)
        return wins + self._score(counts, classes)

    def _classes(self, samples: int) -> list[tuple[bytes, list[int]]]:
        """Per stochastic position, a 256-entry ``bytes.translate`` table from a
        draw's top byte (``x >> 45``) to its interval among the thresholds of
        the tables built at that depth, and the intervals' lower ends. On a
        complete trie those are the tables of the rows some draw reaches. A
        top byte whose draws span a threshold maps to ``_STRADDLE``.

        Empty when some position has more than 254 intervals, or when
        ``samples`` is under four per tuple of intervals: samples that seldom
        repeat a tuple cost more to count than to walk."""
        stochastic = self.instance.stochastic_indices
        cuts: dict[int, set[int]] = {depth: set() for depth in stochastic}
        for (depth, _), cum in self.tables.items():
            cuts[depth].update(t for t in cum if 0 < t < 2 ** 53)
        out = []
        tuples = 1
        for depth in stochastic:
            bounds = sorted(cuts[depth])
            tuples *= len(bounds) + 1
            if len(bounds) > 253 or 4 * tuples > samples:
                return []
            table = bytearray(256)
            for k, t in enumerate(bounds, 1):
                b = t >> 45
                table[b:] = bytes([k]) * (256 - b)
                if t & (2 ** 45 - 1):  # t lies inside top byte b's draws
                    table[b] = _STRADDLE
            out.append((bytes(table), [0, *bounds]))
        return out

    def _count(self, counts: Counter, count: int, z: int, classes: list) -> None:
        """Add the interval tuples of one batch of ``count`` words (``z``, as
        ``_words`` yields them) to ``counts``.

        The batch holds whole samples, so stochastic position j takes every
        m-th word from the j-th. The top bytes of such a column map to
        intervals through the position's class table; a draw whose top byte
        spans a threshold is bisected whole. Samples whose draws fall in the
        same intervals take the same values at every state, so each distinct
        tuple of intervals is walked once (``_score``).
        """
        m = len(classes)
        words = z.to_bytes(16 * count, "little")
        tops = words[7::16]
        columns = []
        for j, (table, lows) in enumerate(classes):
            column = tops[j::m].translate(table)
            k = column.find(_STRADDLE)
            if k >= 0:
                column = bytearray(column)
                while k >= 0:
                    at = 16 * (k * m + j)
                    x = int.from_bytes(words[at:at + 8], "little") >> 11
                    column[k] = bisect_right(lows, x) - 1
                    k = column.find(_STRADDLE, k + 1)
            columns.append(column)
        counts.update(zip(*columns))

    def _score(self, counts: Counter, classes: list) -> int:
        """Satisfying samples among ``counts`` of interval tuples, walking
        each tuple once from the root."""
        wins = 0
        for key, times in counts.items():
            state = self.root[0]
            for k, (_, lows) in zip(key, classes):
                state, ok = state.branches[bisect_right(state.cum, lows[k])]
            wins += ok * times
        return wins


def _wilson(wins: int, n: int) -> tuple[float, float]:
    p = wins / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    low = 0.0 if wins == 0 else max(0.0, center - half)
    high = 1.0 if wins == n else min(1.0, center + half)
    return low, high


def monte_carlo_policy_eval(instance: Instance, policy: PolicyNode, n: int,
                            seed: int) -> SampleEstimate:
    """Estimate a policy's satisfaction from n sampled scenarios.

    Deterministic in (instance, policy, n, seed): same inputs give
    bit-identical estimates. The 95% interval uses the Wilson score.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadSampleCountError(
            f"sample count {_repr(n, BadSampleCountError, 'sample count')} "
            "must be a positive integer")
    if n > sys.float_info.max:  # the Wilson interval divides by float(n)
        raise BadSampleCountError("sample count is past the float range")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise StocsError(f"seed {_repr(seed, StocsError, 'seed')} must be an integer")
    seed &= _MASK64
    _check_policy(instance, policy)
    wins = 0 if instance.constant_false else _PathTrie(instance, policy).wins(n, seed)
    estimate = wins / n
    ci_low, ci_high = _wilson(wins, n)
    return SampleEstimate(estimate, n, ci_low, ci_high, seed)
