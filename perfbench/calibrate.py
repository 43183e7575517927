"""Host-speed reference: times are reported in reference-host units.

On a shared virtual host the speed of the same Python code swings by up
to 2.3x within a minute (another guest on the sibling hyperthread):
seven-table renders take 19 ms for ten seconds, then 42 ms for the next
twenty, inside one process.  A wall-clock median over a 20 s window
then depends on how much of the window the host was fast.

Each process therefore times a fixed pure-Python loop next to its work.
The loop's time tracks the host's current speed (the render/loop ratio
stays within about 3% while the render time itself doubles), so a
measured time is reported as ``raw * NOMINAL_MS / loop_ms``: the time
the operation would take on a host that runs the loop in NOMINAL_MS.
``loop_ms`` is a median over many probes: one factor per batch process
(probes just before each operation) and one per serve-hot phase.

The median loop time does not see hypervisor steal, which comes in
bursts: the guest's CPUs are not running at all.  Each factor is
therefore also multiplied by the share of the guest's CPU time over
the same span that the hypervisor did not steal (:func:`available`,
from the steal time of ``/proc/stat``).  The raw wall-clock figures
are printed and saved beside the corrected ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import common

#: the loop's median on a quiet 2-vCPU host (a fixed scale, not tuned per run).
NOMINAL_MS = 0.6


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def reference() -> int:
    """Object creation, attribute and dict traffic, a keyed sort: the
    interpreter work the measured layers are made of."""
    items = [_Item(str(i), i) for i in range(600)]
    table: dict = {}
    for item in items:
        table[item.key] = table.get(item.key[-1:], 0) + item.value
    ordered = sorted(items, key=lambda item: item.key)
    return sum(len(item.key) for item in ordered) + len(table)


def probe_ms() -> float:
    """One timed run of the reference loop, in ms."""
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1e3


def scale_of(probes: List[float]) -> float:
    """NOMINAL_MS over the median of a list of probe times."""
    return NOMINAL_MS / statistics.median(probes)


def steal_mark() -> Tuple[float, float]:
    """The wall clock and the CPU time stolen so far (s, summed over the
    guest's CPUs; 0 where it cannot be read)."""
    return time.perf_counter(), common.steal_seconds() or 0.0


def available(start: Tuple[float, float], end: Tuple[float, float]) -> float:
    """Between two :func:`steal_mark` readings, the share of the guest's
    CPU time that the hypervisor did not steal."""
    elapsed = (end[0] - start[0]) * common.nproc()
    return 1.0 - (end[1] - start[1]) / elapsed if elapsed > 0 else 1.0
