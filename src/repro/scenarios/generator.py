"""Lazy, seeded generation of timestamped OS-event streams.

A :class:`~repro.scenarios.fitters.WorkloadModel` describes each event
kind as a renewal process (independent inter-arrival draws).  Two
generators yield the same merged stream:

* :func:`generate_events` merges the processes on the simulated
  timeline with a k-entry heap (k = number of kinds, never the number
  of events) and yields :class:`~repro.scenarios.events.ScenarioEvent`
  tuples one at a time.  It is standard library only and is the
  reference the chunked generator is tested against.
* :func:`generate_chunks` (needs numpy) draws each kind's gaps in
  blocks, turns them into arrival times with a sequential
  ``np.cumsum`` carried across blocks, and merges the kinds a chunk at
  a time, yielding ``(at_us, kind)`` arrays.

Memory is O(chunk), never O(events): nothing is accumulated, and the
consumer decides what to keep.

Determinism: each kind samples from its own
:func:`~repro.scenarios.distributions.rng_for` stream scoped by
``(seed, model.digest, kind)``, and ties break on the canonical kind
order — so the merged stream is a pure function of ``(model, seed)``,
independent of dict ordering, chunk size or host.  The chunked stream
is, bit for bit, the heap's (popping ``(at_us, kind order)``, pushing
``at_us + gap``):

* ``sample_many`` equals successive ``sample`` calls;
* ``np.cumsum`` adds left to right, exactly the heap's ``at_us + gap``;
* a chunk holds only events no later draw can precede: with frontier
  ``F`` (the earliest last-drawn arrival over kinds) and ``k_F`` the
  lowest kind whose last arrival is ``F``, an event ``(t, k)`` is final
  iff ``(t, k) <= (F, k_F)``, because every later arrival of a kind is
  at or after that kind's last one;
* the chunk is ordered by ``np.lexsort((kind, at_us))``, a stable sort
  on ``(at_us, kind)`` — the heap's tie-break, with same-kind ties left
  in draw order.

The chunked merge assumes non-negative gaps, which every fitted model
has.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

try:  # numpy is optional: only generate_chunks needs it
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environments
    np = None

from repro.scenarios.distributions import rng_for
from repro.scenarios.events import KIND_ORDER, ScenarioEvent
from repro.scenarios.fitters import WorkloadModel

#: events per yielded chunk; each kind draws a block of its rate share
#: of this many gaps at a time.
CHUNK_EVENTS = 4096

#: smallest per-kind draw block, so a rare kind's last arrival is
#: rarely the frontier that cuts a chunk short.
MIN_BLOCK = 16


def generate_chunks(model: WorkloadModel, seed: int,
                    max_events: Optional[int] = None,
                    horizon_us: Optional[float] = None,
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield the merged event stream for ``(model, seed)`` as chunks.

    Each chunk is ``(at_us float64[], kind int8[])`` with at most
    :data:`CHUNK_EVENTS` events, where ``kind`` is the event kind's
    ``KIND_ORDER`` index.  Stops after ``max_events`` events, past
    ``horizon_us`` of simulated time, or never when neither bound is
    given (the caller stops iterating).
    """
    if max_events is not None and max_events < 0:
        raise ValueError("max_events cannot be negative")
    if horizon_us is not None and horizon_us < 0:
        raise ValueError("horizon_us cannot be negative")

    chunk = CHUNK_EVENTS
    total_hz = model.total_rate_hz()
    streams = []
    for kind in model.kinds():
        share = model.rate_hz(kind) / total_hz if total_hz > 0 else 1.0
        block = max(MIN_BLOCK, round(chunk * share)) if share > 0 else chunk
        streams.append((KIND_ORDER[kind], model.inter_arrival_us[kind],
                        rng_for(seed, model.digest, kind.value), block))
    pending: List[np.ndarray] = [np.empty(0)] * len(streams)
    last: List[Optional[float]] = [None] * len(streams)

    emitted = 0
    while max_events is None or emitted < max_events:
        # top up every kind running low on drawn-but-unmerged arrivals
        for i, (_, dist, rng, block) in enumerate(streams):
            if len(pending[i]) >= block:
                continue
            n = block if max_events is None else min(block, max_events - emitted)
            gaps = dist.sample_many(rng, n)
            if last[i] is None:  # first arrival: one gap from t=0
                arrivals = np.cumsum(gaps)
            else:
                arrivals = np.empty(n + 1)
                arrivals[0] = last[i]
                arrivals[1:] = gaps
                arrivals = np.cumsum(arrivals)[1:]
            last[i] = float(arrivals[-1])
            pending[i] = np.concatenate((pending[i], arrivals))

        # cut every kind at (frontier, lowest kind holding it)
        frontier = min(last)
        holder = last.index(frontier)
        parts_at, parts_kind = [], []
        for i, (order, _, _, _) in enumerate(streams):
            cut = int(np.searchsorted(pending[i], frontier,
                                      side="right" if i <= holder else "left"))
            if cut:
                parts_at.append(pending[i][:cut])
                parts_kind.append(np.full(cut, order, dtype=np.int8))
                pending[i] = pending[i][cut:]
        at_us = np.concatenate(parts_at)
        kinds = np.concatenate(parts_kind)
        merged = np.lexsort((kinds, at_us))
        at_us, kinds = at_us[merged], kinds[merged]

        done = False
        if horizon_us is not None:
            keep = int(np.searchsorted(at_us, horizon_us, side="right"))
            done = keep < len(at_us) or frontier > horizon_us
            at_us, kinds = at_us[:keep], kinds[:keep]
        if max_events is not None and len(at_us) >= max_events - emitted:
            keep = max_events - emitted
            at_us, kinds = at_us[:keep], kinds[:keep]
        for start in range(0, len(at_us), chunk):
            yield at_us[start:start + chunk], kinds[start:start + chunk]
        emitted += len(at_us)
        if done:
            return


def generate_events(model: WorkloadModel, seed: int,
                    max_events: Optional[int] = None,
                    horizon_us: Optional[float] = None,
                    ) -> Iterator[ScenarioEvent]:
    """Yield the merged event stream for ``(model, seed)``, one event
    at a time, from a k-entry heap of per-kind arrivals.

    Stops after ``max_events`` events, past ``horizon_us`` of simulated
    time, or never (caller slices) when neither bound is given —
    callers that want "the first million events" pass ``max_events``
    and iterate; the stream is lazy either way.
    """
    if max_events is not None and max_events < 0:
        raise ValueError("max_events cannot be negative")
    if horizon_us is not None and horizon_us < 0:
        raise ValueError("horizon_us cannot be negative")

    streams = []
    heap = []
    for kind in model.kinds():
        dist = model.inter_arrival_us[kind]
        rng = rng_for(seed, model.digest, kind.value)
        streams.append((kind, dist, rng))
        # first arrival: one inter-arrival gap from t=0.
        heapq.heappush(heap, (dist.sample(rng), KIND_ORDER[kind], len(streams) - 1))

    emitted = 0
    while heap:
        if max_events is not None and emitted >= max_events:
            return
        at_us, order, stream_index = heapq.heappop(heap)
        if horizon_us is not None and at_us > horizon_us:
            return
        kind, dist, rng = streams[stream_index]
        yield ScenarioEvent(at_us=at_us, kind=kind)
        emitted += 1
        heapq.heappush(heap, (at_us + dist.sample(rng), order, stream_index))


def stream_digest_probe(model: WorkloadModel, seed: int, events: int) -> str:
    """Cheap bit-identity probe: digest of the first ``events`` events.

    Used by tests and CI to assert same-seed streams are bit-identical
    without materializing them — the hash is folded incrementally.
    """
    import hashlib

    digest = hashlib.sha256()
    for event in generate_events(model, seed, max_events=events):
        digest.update(repr((event.at_us, event.kind.value)).encode("ascii"))
    return digest.hexdigest()
