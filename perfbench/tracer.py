"""Per-layer timers installed from outside the program.

The traced run wraps public functions of ``repro`` with timers.  Each
wrapper records one span per call: its inclusive time, and its *self*
time (inclusive minus the time of wrapped calls made inside it).  Spans
are aggregated in memory per name and written once, at the end.

A wrapper is installed wherever the caller looks the name up: a
module-level function is replaced in its defining module and in every
loaded ``repro`` module that imported it by name (``run_compiled`` in
``repro.core.engine``, for example); a method is replaced on its class.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter
_MISSING = object()


class SpanStats:
    """Aggregate of one span name: count, inclusive and self seconds."""

    __slots__ = ("count", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: Optional[List[float]] = [] if keep_samples else None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"count": self.count, "total_s": self.total,
                               "self_s": self.self_time}
        if self.samples:
            ordered = sorted(self.samples)
            out["p50_s"] = nearest_rank(ordered, 0.50)
            out["p99_s"] = nearest_rank(ordered, 0.99)
        return out


def nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class Tracer:
    """Thread-aware span aggregation (one stack of open spans per thread)."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: span names whose every duration is kept (for p50/p99).
        self.sampled: set = set()

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stat(self, name: str, keep_samples: bool = False) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            with self._lock:
                stat = self.stats.setdefault(
                    name, SpanStats(keep_samples or name in self.sampled))
        return stat

    def top(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        stat = self._stat(name)
        stack = self._stack()
        # a span re-entered directly (record_chain -> record) adds self
        # time but not a second copy of its inclusive time
        nested = bool(stack) and stack[-1].name == name
        frame = _Frame(name)
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stack.pop()
            if stack:
                stack[-1].child += dt
            with self._lock:
                stat.count += 1
                if not nested:
                    stat.total += dt
                stat.self_time += dt - frame.child
                if stat.samples is not None:
                    stat.samples.append(dt)

    def leaf(self, name: str, fn: Callable) -> Callable:
        """A cheaper span for per-event calls that wrap nothing else: no
        frame, no lock (used only by single-threaded hot loops)."""
        stat = self._stat(name)
        stack_of = self._stack

        def call(*args: Any) -> Any:
            stack = stack_of()
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                dt = _clock() - t0
                stat.count += 1
                stat.total += dt
                stat.self_time += dt
                if stack:
                    stack[-1].child += dt
        return call

    def add_sample(self, name: str, key: str, seconds: float) -> None:
        """Keep one keyed duration (per-request latencies)."""
        with self._lock:
            self.samples.setdefault(name, {})[key] = seconds

    # -- installation ----------------------------------------------------
    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to ``new``; :meth:`uninstall` restores it."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, name: str,
                    leaf: bool = False) -> None:
        original = cls.__dict__[attr]
        span = self.span
        if leaf:
            wrapper = functools.wraps(original)(self.leaf(name, original))
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return span(name, original, *args, **kwargs)

        self.patch(cls, attr, wrapper)

    def wrap_function(self, module_name: str, attr: str, name: str,
                      *, generator: bool = False) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's alias of it."""
        original = getattr(sys.modules[module_name], attr)
        span = self.span
        if generator:
            wrapper = self._generator_wrapper(original, name)
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return span(name, original, *args, **kwargs)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, wrapper)

    def _generator_wrapper(self, original: Callable, name: str) -> Callable:
        """Time each step of a generator (its iteration, not its creation)."""
        leaf = self.leaf

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any):
            step = leaf(name, original(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        return wrapper

    def wrap_async_method(self, cls: type, attr: str, name: str,
                          on_start: Optional[Callable] = None) -> None:
        """Time a coroutine method by wall clock, outside the span stacks
        (coroutines interleave on one thread)."""
        original = cls.__dict__[attr]
        if not inspect.iscoroutinefunction(original):
            raise TypeError(f"{cls.__name__}.{attr} is not a coroutine function")
        stat = self._stat(name, keep_samples=True)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = _clock()
            if on_start is not None:
                on_start(t0, args, kwargs)
            try:
                return await original(*args, **kwargs)
            finally:
                dt = _clock() - t0
                with tracer._lock:
                    stat.count += 1
                    stat.total += dt
                    stat.self_time += dt
                    stat.samples.append(dt)
                    rid = kwargs.get("request_id")
                    if rid is not None:
                        tracer.samples.setdefault(name, {})[rid] = dt

        self.patch(cls, attr, wrapper)

    def reset(self) -> None:
        """Zero every aggregate (wrappers stay installed)."""
        with self._lock:
            for stat in self.stats.values():
                stat.count = 0
                stat.total = stat.self_time = 0.0
                if stat.samples is not None:
                    stat.samples = []
            self.counts.clear()
            self.samples.clear()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": {name: s.as_dict() for name, s in self.stats.items()},
                "counts": dict(self.counts),
                "samples": {k: dict(v) for k, v in self.samples.items()},
            }


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------

#: (module, function, span name[, generator]) wrapped wherever imported.
FUNCTIONS = (
    ("repro.isa.compiled", "run_compiled", "compiled.execute"),
    ("repro.isa.compiled", "compile_program", "compiled.lower"),
    ("repro.core.engine", "result_from_dict", "engine.decode"),
    ("repro.kernel.handlers", "handler_program", "handlers.synth"),
    ("repro.explore.objectives", "evaluate", "explore.evaluate"),
    ("repro.serve.protocol", "execute_one", "serve.execute"),
    ("repro.scenarios.generator", "generate_events", "scenarios.generate", True),
    ("repro.scenarios.runner", "run_replication", "scenarios.replication"),
)

#: (module, class, method, span name[, leaf]) wrapped on the class.
METHODS = (
    ("repro.core.engine", "ExperimentEngine", "run", "engine.run"),
    ("repro.store.tiers", "StoreStack", "get", "store.get"),
    ("repro.store.tiers", "StoreStack", "put", "store.put"),
    ("repro.store.tiers", "DiskTier", "put", "store.disk_put"),
    ("repro.store.tiers", "StoreStack", "begin_flight", "store.flight"),
    ("repro.isa.executor", "Executor", "run", "executor.run"),
    ("repro.ipc.rpc", "RPCChannel", "call", "ipc.rpc"),
    ("repro.ipc.lrpc", "LRPCBinding", "null_call", "ipc.lrpc"),
    ("repro.explore.store", "ResultStore", "put", "explore.wal_put"),
    ("repro.provenance.store", "LineageStore", "append", "provenance.record"),
    ("repro.provenance.store", "LineageStore", "append_many", "provenance.record"),
    ("repro.provenance.store", "Recorder", "record", "provenance.record"),
    ("repro.provenance.store", "Recorder", "record_many", "provenance.record"),
    ("repro.provenance.store", "Recorder", "record_chain", "provenance.record"),
    ("repro.scenarios.sketches", "OnlineAggregate", "observe", "scenarios.observe",
     True),
    ("repro.scenarios.runner", "CostModel", "__init__", "scenarios.costmodel"),
)

#: the seven table renderers (``render_all`` looks ``render`` up per module).
TABLES = tuple(range(1, 8))

#: modules imported before wrapping, so every by-name alias is patched.
MODULES = (
    "repro.core.engine", "repro.core.microbench", "repro.isa.compiled",
    "repro.isa.executor", "repro.kernel.handlers", "repro.kernel.system",
    "repro.os_models.mach", "repro.ipc.rpc", "repro.ipc.lrpc",
    "repro.store.tiers", "repro.explore.objectives", "repro.explore.runner",
    "repro.explore.store", "repro.provenance.store", "repro.analysis.runner",
    "repro.scenarios.generator", "repro.scenarios.sketches",
    "repro.scenarios.runner", "repro.scenarios.report",
    "repro.serve.protocol", "repro.serve.server",
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the table above."""
    import importlib

    for module_name in MODULES:
        importlib.import_module(module_name)
    for entry in FUNCTIONS:
        module_name, attr, name = entry[:3]
        tracer.wrap_function(module_name, attr, name,
                             generator=len(entry) > 3 and entry[3])
    for entry in METHODS:
        module_name, cls_name, attr, name = entry[:4]
        tracer.wrap_method(getattr(sys.modules[module_name], cls_name),
                           attr, name, leaf=len(entry) > 4 and entry[4])
    for number in TABLES:
        tracer.wrap_function(f"repro.analysis.table{number}", "render",
                             f"analysis.table{number}")
    _install_tier_hits(tracer)
    return tracer


def _install_tier_hits(tracer: Tracer) -> None:
    """Count which tier answered each ``StoreStack.get`` (counts only)."""
    from repro.store.tiers import DiskTier, MemoryTier

    for cls, label in ((MemoryTier, "memory"), (DiskTier, "disk")):
        original = getattr(cls, "get")

        def wrapper(self, key, _original=original, _label=label):
            value = _original(self, key)
            if value is not None and tracer.top() == "store.get":
                tracer.count(f"store.{_label}_hits")
            return value

        tracer.patch(cls, "get", wrapper)
