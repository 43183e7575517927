"""Online, bounded-memory aggregation for event streams.

The scenario runner consumes millions of events and must never hold
them: every statistic it reports comes from a constant-space sketch
updated per observation —

* :class:`StreamingMoments` — count / mean / variance via Welford's
  recurrence (numerically stable, one pass);
* :class:`P2Quantile` — the Jain & Chlamtac P² algorithm: five markers
  track one quantile with piecewise-parabolic interpolation, no
  samples stored;
* :class:`OnlineAggregate` — the scenario-level composite: per-kind
  event counts and OS-time totals, inter-arrival moments, and
  windowed OS-utilization quantiles (p50/p99 over fixed simulated-time
  windows — the tail-overhead statistic).

:meth:`OnlineAggregate.observe` folds one event;
:meth:`OnlineAggregate.observe_chunk` folds a chunk of events held in
arrays and reaches the same state bit for bit: every running sum is a
left-to-right ``np.cumsum`` seeded with the carried value (never the
pairwise ``sum``/``np.add.reduce``/``reduceat``), and the
order-dependent Welford and P² recurrences stay sequential.  Only
``observe_chunk`` needs numpy.

Everything is deterministic: the same observation sequence produces
bit-identical state, so a same-seed replication's
:func:`aggregate_digest` is a bit-identity check for the whole
pipeline (generation order, costing, sketch arithmetic).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence

try:  # numpy is optional: only observe_chunk needs it
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environments
    np = None

from repro.scenarios.events import ALL_KINDS, ScenarioEventKind


#: most windows one step of :meth:`OnlineAggregate.observe_chunk` closes,
#: bounding its arrays when ``window_us`` is short next to the gaps.
WINDOW_BLOCK = 4096


class StreamingMoments:
    """Welford one-pass count/mean/variance."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def add_many(self, values: Sequence[float]) -> None:
        """:meth:`add` each value in order (one local-variable loop)."""
        count, mean, m2 = self.count, self.mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self.mean, self._m2 = count, mean, m2

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two observations)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def payload(self) -> Dict[str, Any]:
        return {"count": self.count, "mean": self.mean,
                "variance": self.variance}


class P2Quantile:
    """One quantile tracked by the P² algorithm (five markers).

    Before five observations arrive the exact sorted sample answers;
    afterwards marker heights adjust by parabolic (falling back to
    linear) interpolation.  Constant space, deterministic.
    """

    __slots__ = ("p", "_initial", "_heights", "_positions", "_desired",
                 "_increments", "count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be strictly between 0 and 1")
        self.p = p
        self.count = 0
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.p
                self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                                 3.0 + 2.0 * p, 5.0]
            return

        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if ((delta >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (delta <= -1.0 and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if len(self._initial) < 5:
            if not self._initial:
                return 0.0
            ordered = sorted(self._initial)
            index = min(len(ordered) - 1,
                        max(0, math.ceil(self.p * len(ordered)) - 1))
            return ordered[index]
        return self._heights[2]


class OnlineAggregate:
    """The scenario runner's per-replication composite sketch.

    Updated once per event with the event's kind, timestamp, and
    costed OS microseconds; windows of ``window_us`` simulated time
    feed the utilization quantile sketches when the stream crosses
    their boundary.  Memory is O(kinds + markers), never O(events).
    """

    def __init__(self, window_us: float = 10_000.0) -> None:
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self.events = 0
        self.os_us = 0.0
        self.last_at_us = 0.0
        self.counts: Dict[ScenarioEventKind, int] = {}
        self.kind_us: Dict[ScenarioEventKind, float] = {}
        self._last_arrival: Dict[ScenarioEventKind, float] = {}
        self.inter_arrival: Dict[ScenarioEventKind, StreamingMoments] = {}
        self.window_utilization = StreamingMoments()
        self.utilization_p50 = P2Quantile(0.50)
        self.utilization_p99 = P2Quantile(0.99)
        self._window_end_us = window_us
        self._window_os_us = 0.0

    # ------------------------------------------------------------------
    def observe(self, at_us: float, kind: ScenarioEventKind,
                cost_us: float) -> None:
        while at_us >= self._window_end_us:
            self._close_window()
        self.events += 1
        self.os_us += cost_us
        self.last_at_us = at_us
        self._window_os_us += cost_us
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.kind_us[kind] = self.kind_us.get(kind, 0.0) + cost_us
        previous = self._last_arrival.get(kind)
        if previous is not None:
            moments = self.inter_arrival.get(kind)
            if moments is None:
                moments = self.inter_arrival[kind] = StreamingMoments()
            moments.add(at_us - previous)
        self._last_arrival[kind] = at_us

    def observe_chunk(self, at_us: np.ndarray, kinds: np.ndarray,
                      cost_vector: np.ndarray) -> None:
        """Fold a time-ordered chunk of events, exactly as :meth:`observe`
        per event would.

        ``kinds`` holds ``KIND_ORDER`` indices and ``cost_vector[i]`` is
        the cost of ``ALL_KINDS[i]``, so an event costs
        ``cost_vector[kind]``.
        """
        n = len(at_us)
        if n == 0:
            return
        costs = cost_vector[kinds]
        self._fold_windows(at_us, costs)
        self.events += n
        self.os_us = _carried_sum(self.os_us, costs)
        self.last_at_us = float(at_us[-1])

        # per kind: a stable sort by kind keeps each kind's arrivals in
        # time order, so kind i is the slice starts[i]:ends[i]; every
        # gap is one subtraction from the previous arrival of its kind
        counts = np.bincount(kinds, minlength=len(ALL_KINDS))
        ends = np.cumsum(counts)
        starts = ends - counts
        stamps = at_us[np.argsort(kinds, kind="stable")]
        previous = np.empty(n)
        previous[1:] = stamps[:-1]
        present = np.flatnonzero(counts).tolist()
        for i in present:
            previous[starts[i]] = self._last_arrival.get(ALL_KINDS[i], 0.0)
        gaps = (stamps - previous).tolist()
        for i in present:
            kind, start, end = ALL_KINDS[i], int(starts[i]), int(ends[i])
            count = end - start
            self.counts[kind] = self.counts.get(kind, 0) + count
            self.kind_us[kind] = _carried_sum(self.kind_us.get(kind, 0.0),
                                              np.full(count, cost_vector[i]))
            if kind not in self._last_arrival:
                start += 1  # a kind's first arrival has no gap
            if start < end:
                moments = self.inter_arrival.get(kind)
                if moments is None:
                    moments = self.inter_arrival[kind] = StreamingMoments()
                moments.add_many(gaps[start:end])
            self._last_arrival[kind] = float(stamps[end - 1])

    def _fold_windows(self, at_us: np.ndarray, costs: np.ndarray) -> None:
        """Close every window the chunk crosses and carry the open one.

        Window ends are the sequential sums ``end, end + w, ...`` that
        :meth:`_close_window` produces one at a time; an event at or
        past an end belongs to a later window.  Each step closes at
        most :data:`WINDOW_BLOCK` windows, so however short ``window_us``
        is, no array grows past O(chunk + WINDOW_BLOCK).
        """
        window_us = self.window_us
        while at_us[-1] >= self._window_end_us:
            # ends[:-1] close this step's windows; ends[-1] ends the next
            ends = _sequential_ends(self._window_end_us, window_us,
                                    float(at_us[-1]), WINDOW_BLOCK)
            # stops[j]: how many events fall before window j's end
            stops = np.searchsorted(at_us, ends[:-1], side="left").tolist()
            utilizations = []
            start, window_os = 0, self._window_os_us
            for stop in stops:
                if stop > start:
                    window_os = _carried_sum(window_os, costs[start:stop])
                utilizations.append(min(1.0, window_os / window_us))
                start, window_os = stop, 0.0
            self.window_utilization.add_many(utilizations)
            p50, p99 = self.utilization_p50.add, self.utilization_p99.add
            for utilization in utilizations:
                p50(utilization)
                p99(utilization)
            self._window_os_us = 0.0
            self._window_end_us = float(ends[-1])
            at_us, costs = at_us[start:], costs[start:]
        self._window_os_us = _carried_sum(self._window_os_us, costs)

    def _close_window(self) -> None:
        utilization = min(1.0, self._window_os_us / self.window_us)
        self.window_utilization.add(utilization)
        self.utilization_p50.add(utilization)
        self.utilization_p99.add(utilization)
        self._window_os_us = 0.0
        self._window_end_us += self.window_us

    # ------------------------------------------------------------------
    @property
    def elapsed_us(self) -> float:
        return self.last_at_us

    @property
    def os_share(self) -> float:
        """Fraction of elapsed simulated time spent in OS primitives."""
        return self.os_us / self.last_at_us if self.last_at_us > 0 else 0.0

    def payload(self) -> Dict[str, Any]:
        """JSON-safe summary — the content the aggregate digest covers."""
        return {
            "events": self.events,
            "elapsed_us": self.last_at_us,
            "os_us": self.os_us,
            "os_share": self.os_share,
            "window_us": self.window_us,
            "counts": {k.value: v for k, v in sorted(
                self.counts.items(), key=lambda item: item[0].value)},
            "kind_us": {k.value: v for k, v in sorted(
                self.kind_us.items(), key=lambda item: item[0].value)},
            "inter_arrival_us": {k.value: m.payload() for k, m in sorted(
                self.inter_arrival.items(), key=lambda item: item[0].value)},
            "utilization": {
                "windows": self.window_utilization.count,
                "mean": self.window_utilization.mean,
                "p50": self.utilization_p50.value,
                "p99": self.utilization_p99.value,
            },
        }


def _carried_sum(seed: float, values: np.ndarray) -> float:
    """``seed + values[0] + values[1] + ...``, added left to right."""
    run = np.empty(len(values) + 1)
    run[0] = seed
    run[1:] = values
    return float(np.cumsum(run, out=run)[-1])


def _sequential_ends(end: float, step: float, last: float,
                     limit: int) -> np.ndarray:
    """``end, end + step, (end + step) + step, ...`` through the first
    value past ``last`` but at most ``limit + 1`` values, each a
    left-to-right sum."""
    ends = np.array([end])
    while ends[-1] <= last and len(ends) <= limit:
        count = min(int((last - ends[-1]) / step) + 1, limit + 1 - len(ends))
        run = np.full(count + 1, step)
        run[0] = ends[-1]
        ends = np.concatenate((ends[:-1], np.cumsum(run)))
    # the count is estimated in floating point: drop any overshoot
    return ends[:int(np.searchsorted(ends, last, side="right")) + 1]


def aggregate_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON bytes of an aggregate payload.

    ``repr``-exact float serialization (json default) makes this a
    bit-identity check: two runs agree iff every float agrees to the
    last bit.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# replication statistics
# ----------------------------------------------------------------------

#: two-sided 95% Student-t critical values by degrees of freedom
#: (1-30); beyond that the normal 1.96 is within 2%.
_T95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042)


def confidence_interval(values: List[float]) -> Dict[str, Any]:
    """Mean with a 95% t-interval over independent replications.

    The Becker & Chakraborty discipline: report the interval, not a
    single run.  One replication yields a zero-width interval tagged
    ``df: 0`` so downstream readers can see there was no spread to
    estimate.
    """
    if not values:
        raise ValueError("confidence interval needs at least one value")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return {"mean": mean, "stddev": 0.0, "half_width": 0.0,
                "low": mean, "high": mean, "n": 1, "df": 0}
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(variance)
    df = n - 1
    t = _T95[df - 1] if df <= len(_T95) else 1.96
    half = t * stddev / math.sqrt(n)
    return {"mean": mean, "stddev": stddev, "half_width": half,
            "low": mean - half, "high": mean + half, "n": n, "df": df}


def quantile_reference(values: List[float], p: float) -> float:
    """Exact quantile of a small list (tests compare sketches to this)."""
    if not values:
        raise ValueError("cannot take a quantile of nothing")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))
    return ordered[index]


def merge_moments(parts: List[StreamingMoments]) -> Optional[StreamingMoments]:
    """Combine Welford states (parallel-shard merge, Chan et al.)."""
    merged: Optional[StreamingMoments] = None
    for part in parts:
        if part.count == 0:
            continue
        if merged is None:
            merged = StreamingMoments()
            merged.count, merged.mean, merged._m2 = (
                part.count, part.mean, part._m2)
            continue
        total = merged.count + part.count
        delta = part.mean - merged.mean
        merged._m2 = (merged._m2 + part._m2
                      + delta * delta * merged.count * part.count / total)
        merged.mean += delta * part.count / total
        merged.count = total
    return merged
