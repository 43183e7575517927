"""Admission control: bounded pending work, load shedding, drain.

The server never queues past a fixed limit.  A request is *admitted*
when it occupies one of ``max_pending`` slots from admission until its
reply is resolved; when every slot is taken, new leaders are shed with
a typed 429 (``overloaded``, with a ``retry_after_s`` hint) instead of
joining an unbounded queue — bounding tail latency by refusing work
the server could only serve late.  During graceful drain, admission
refuses everything with a 503 (``draining``) while already-admitted
requests run to completion; :meth:`drained` resolves when the last
slot frees, which is the server's guarantee that zero admitted
requests are silently dropped.

Like the rest of the serving core this runs on the event loop only —
counters are plain ints, no locks.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS

from repro.serve.protocol import ServeError


class AdmissionController:
    """Bounded in-flight slots with a drain mode."""

    def __init__(self, max_pending: int = 64, *,
                 retry_after_s: float = 0.05) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self.pending = 0
        #: high-water mark of concurrently admitted requests — direct
        #: evidence the queue never grew past ``max_pending``.
        self.peak_pending = 0
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    def _gauge(self) -> None:
        if _OBS.metrics_on:
            _METRICS.gauge(
                "serve_queue_depth",
                "requests admitted and not yet resolved").set(self.pending)

    def refuse_if_draining(self) -> None:
        """Raise the typed 503 while draining (memo hits check only this)."""
        if self.draining:
            raise ServeError(503, "draining",
                             "server is draining; not accepting new work")

    def admit(self) -> None:
        """Take a slot or raise the typed refusal (429/503)."""
        self.refuse_if_draining()
        if self.pending >= self.max_pending:
            raise ServeError(
                429, "overloaded",
                f"admission queue full ({self.max_pending} pending)",
                retry_after_s=self.retry_after_s)
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        self._idle.clear()
        self._gauge()

    def release(self) -> None:
        """Free a slot (exactly once per successful :meth:`admit`)."""
        self.pending -= 1
        assert self.pending >= 0, "admission release without admit"
        if self.pending == 0:
            self._idle.set()
        self._gauge()

    def begin_drain(self) -> None:
        self.draining = True

    async def drained(self, timeout: Optional[float] = None) -> None:
        """Resolve once every admitted request has been resolved."""
        await asyncio.wait_for(self._idle.wait(), timeout)
