"""Per-layer metrics: derived from a traced run's spans and counters.

Every metric is reported on every workload; a layer the workload does
not reach reads 0.  Times are milliseconds per workload operation
(inclusive time inside the named calls) unless the name says p50/p99,
counts are per operation, ratios are plain shares.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

#: name -> unit, in report order (BENCHMARK.json's ``per_layer``).
CATALOG: Dict[str, str] = {
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.batch_size": "count",
    "serve.coalesced_ratio": "ratio",
    "serve.shed_ratio": "ratio",
    "serve.http_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "engine.calls": "count",
    "engine.hit_ratio": "ratio",
    "engine.self_ms": "ms",
    "engine.decode_ms": "ms",
    "store.get_calls": "count",
    "store.memory_hit_ratio": "ratio",
    "store.disk_hit_ratio": "ratio",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.flight_ms": "ms",
    "compiled.execute_ms": "ms",
    "compiled.lower_ms": "ms",
    "compiled.fallbacks": "count",
    "executor.calls": "count",
    "executor.run_ms": "ms",
    "ipc.rpc_ms": "ms",
    "ipc.lrpc_ms": "ms",
    **{f"analysis.table{n}_ms": "ms" for n in range(1, 8)},
    "handlers.synth_ms": "ms",
    "explore.wal_put_ms": "ms",
    "explore.evaluate_ms": "ms",
    "provenance.records": "count",
    "provenance.record_ms": "ms",
    "scenarios.events": "count",
    "scenarios.generate_ms": "ms",
    "scenarios.observe_ms": "ms",
    "scenarios.costmodel_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}

#: span name of one workload operation (the root every layer nests in).
OP_SPAN = "op"

#: span -> per-op inclusive-time metric.
_TIMES = {
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "store.flight": "store.flight_ms",
    "engine.decode": "engine.decode_ms",
    "compiled.execute": "compiled.execute_ms",
    "compiled.lower": "compiled.lower_ms",
    "executor.run": "executor.run_ms",
    "ipc.rpc": "ipc.rpc_ms",
    "ipc.lrpc": "ipc.lrpc_ms",
    **{f"analysis.table{n}": f"analysis.table{n}_ms" for n in range(1, 8)},
    "handlers.synth": "handlers.synth_ms",
    "explore.wal_put": "explore.wal_put_ms",
    "explore.evaluate": "explore.evaluate_ms",
    "provenance.record": "provenance.record_ms",
    "scenarios.generate": "scenarios.generate_ms",
    "scenarios.observe": "scenarios.observe_ms",
    "scenarios.costmodel": "scenarios.costmodel_ms",
}

#: span -> per-op call-count metric.
_COUNTS = {
    "engine.run": "engine.calls",
    "store.get": "store.get_calls",
    "executor.run": "executor.calls",
    "provenance.record": "provenance.records",
    "scenarios.observe": "scenarios.events",
}


def merge(snapshots) -> Dict[str, Any]:
    """Sum span aggregates and counts across traced processes."""
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for name, s in snap.get("spans", {}).items():
            cell = spans.setdefault(name, {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            for key in cell:
                cell[key] += s.get(key, 0)
        for name, n in snap.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
        for name, v in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + v
    return {"spans": spans, "counts": counts, "counters": counters}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(merged: Mapping[str, Any], ops: int,
           extra: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
    """The catalog's values from merged spans/counters over ``ops`` ops."""
    spans = merged["spans"]
    counts = merged["counts"]
    counters = merged["counters"]
    out = {name: 0.0 for name in CATALOG}

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    for name, metric in _TIMES.items():
        out[metric] = ratio(span(name, "total_s") * 1e3, ops)
    for name, metric in _COUNTS.items():
        out[metric] = ratio(span(name, "count"), ops)
    out["engine.self_ms"] = ratio(span("engine.run", "self_s") * 1e3, ops)
    hits = counters.get("engine_cache_hits_total", 0.0)
    misses = counters.get("engine_cache_misses_total", 0.0)
    out["engine.hit_ratio"] = ratio(hits, hits + misses)
    gets = span("store.get", "count")
    out["store.memory_hit_ratio"] = ratio(counts.get("store.memory_hits", 0), gets)
    out["store.disk_hit_ratio"] = ratio(counts.get("store.disk_hits", 0), gets)
    out["compiled.fallbacks"] = ratio(
        counters.get("engine_compiled_fallbacks_total", 0.0), ops)
    # self time of every named layer against the operations' wall time;
    # the rest is the op span's own self time (glue between layers)
    wall = span(OP_SPAN, "total_s")
    layers = sum(s["self_s"] for name, s in spans.items() if name != OP_SPAN)
    out["trace.attributed_ratio"] = ratio(layers, wall)
    out.update(extra or {})
    return out


def self_time_table(merged: Mapping[str, Any], ops: int) -> str:
    """Human-readable self-time breakdown, largest first; shares are of
    the operations' wall time (of the requests' time in ``submit`` when
    the operation is a served request)."""
    spans = merged["spans"]
    root = spans.get(OP_SPAN) or spans.get("serve.submit") or {}
    wall = root.get("total_s", 0.0)
    rows = sorted(((name, s) for name, s in spans.items() if s["count"]),
                  key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':<22}{'calls/op':>10}{'self ms/op':>12}{'self %':>8}"]
    for name, s in rows:
        lines.append(
            f"{name:<22}{ratio(s['count'], ops):>10.1f}"
            f"{ratio(s['self_s'] * 1e3, ops):>12.3f}"
            f"{100 * ratio(s['self_s'], wall):>7.1f}%")
    return "\n".join(lines)
