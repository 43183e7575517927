"""One benchmark for the whole stack.

    python3 perfbench/run.py --workload serve-hot --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/DESIGN.md): ``serve-hot``, ``sweep-cold``,
``tables-cold`` and ``scenario-sweep``.  ``--trace 0`` measures the
end-to-end metrics with no timers installed; ``--trace 1`` is the
separate traced run that reports the per-layer metrics and the timers'
own overhead.  The report is printed by name with units; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The command exits non-zero when an output
check fails or the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List

import common
import layers
from common import BenchError, median, quantile

WORKLOADS = ("serve-hot", "sweep-cold", "tables-cold", "scenario-sweep")

#: end-to-end metrics: name -> unit (BENCHMARK.json's ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput": "1/s",
    "success_share": "ratio",
    "peak_rss_mib": "MiB",
}

#: the metrics reported in reference-host units (raw wall clock printed too).
TIMED = ("setup_s", "latency_p50_ms", "throughput")

#: what one operation is, and the workload's own name for ``throughput``.
OPERATION = {
    "serve-hot": ("request", "capacity_rps", "req/s"),
    "sweep-cold": ("design point", "points_per_s", "points/s"),
    "tables-cold": ("seven-table render", "renders_per_s", "renders/s"),
    "scenario-sweep": ("kernelization sweep of one architecture and seed",
                       "events_per_s", "events/s"),
}


def _summary(latencies_s: List[float], units: float, busy_s: float,
             attempted: int, failed: int, setups: List[float],
             rss: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setups),
        "latency_p50_ms": quantile(latencies_s, 0.50) * 1e3,
        "throughput": units / busy_s,
        "success_share": 1.0 - failed / attempted,
        "peak_rss_mib": median(rss),
    }


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------

def serve_hot(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import serve_hot as sh

    servers = sh.run(seed, seconds, trace)
    wrong = [w for s in servers for w in _mismatches(s)]
    if not trace:
        opens = [s["open"] for s in servers]
        closed = [s["closed"] for s in servers]
        measured = opens + closed
        attempted = sum(p.attempted for p in measured)
        failed = sum(p.failed for p in measured)

        def summary(raw: bool) -> Dict[str, float]:
            def scale(p):
                return 1.0 if raw else p.scale
            return _summary(
                [x * scale(p) / 1e3 for p in opens for x in p.latencies_ms],
                sum(p.attempted - p.failed for p in closed),
                sum(p.elapsed_s * scale(p) for p in closed), attempted, failed,
                [s["raw_setup_s" if raw else "setup_s"] for s in servers],
                [s["peak_rss_mib"] for s in servers])

        metrics = summary(raw=False)
        slo = [s["ladder"]["slo_rate_rps"] for s in servers]
        info = {
            "samples": {"latency": sum(len(p.latencies_ms) for p in opens),
                        "capacity_replies": sum(p.attempted for p in closed),
                        "servers": len(servers)},
            "aliases": {"capacity_rps": (metrics["throughput"], "req/s"),
                        **_tails([x * p.scale / 1e3 for p in opens
                                  for x in p.latencies_ms]),
                        "slo_rate_rps": (median(slo), "req/s"),
                        "failed_share": (1 - metrics["success_share"], "ratio")},
            "raw": summary(raw=True),
            "ladder": [s["ladder"]["rungs"] for s in servers],
            "loadgen.lag_p99_ms": [quantile(p.lags_ms, 0.99) for p in opens],
            # the gated open loop, per server: a growing backlog means the
            # server fell behind 100 req/s and latency measures the queue
            "open_loop": [{"backlog_grew": p.backlog_grew, "dropped": p.dropped}
                          for p in opens],
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "errors": wrong, "info": info}
    plain, traced = servers
    spans = traced["spans"]
    phase = traced["open"]
    ops = max(1, phase.attempted)
    samples = spans.get("samples", {})
    submit = samples.get("serve.submit", {})
    http = [ms - submit[rid] * 1e3 for rid, ms in phase.client_ms.items()
            if rid in submit]
    counters = spans.get("counters", {})
    counts = spans.get("counts", {})
    requests = counters.get("serve_requests_total", 0.0)
    span_table = spans.get("spans", {})
    extra = {
        "serve.submit_ms": span_table.get("serve.submit", {}).get("p50_s", 0.0) * 1e3,
        "serve.queue_wait_ms": _p50(samples.get("serve.queue_wait", {}).values()) * 1e3,
        "serve.execute_ms": span_table.get("serve.execute", {}).get("p50_s", 0.0) * 1e3,
        "serve.batch_size": layers.ratio(counts.get("serve.batched_items", 0),
                                          counts.get("serve.batches", 0)),
        "serve.coalesced_ratio": layers.ratio(
            counters.get("serve_coalesced_total", 0.0), requests),
        "serve.shed_ratio": layers.ratio(
            counters.get("serve_shed_total", 0.0), requests),
        "serve.http_ms": _p50(http),
        "loadgen.lag_p99_ms": quantile(phase.lags_ms, 0.99),
        "trace.overhead_ratio": (
            quantile(phase.latencies_ms, 0.5) * phase.scale
            / (quantile(plain["open"].latencies_ms, 0.5) * plain["open"].scale)),
    }
    merged = layers.merge([spans])
    metrics = layers.derive(merged, ops, extra)
    attempted = sum(s["open"].attempted for s in servers)
    failed = sum(s["open"].failed for s in servers)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": wrong, "info": {"self_time": layers.self_time_table(merged, ops),
                                      "samples": {"requests": ops}}}


def _tails(latencies_s: List[float]) -> Dict[str, Any]:
    """The ungated tail percentiles (see DESIGN.md), for the report."""
    return {f"latency_p{q}_ms": (quantile(latencies_s, q / 100) * 1e3, "ms")
            for q in (90, 99)}


def _mismatches(server: Dict[str, Any]) -> List[str]:
    """Every reply that differed from its reference, in any phase."""
    out = list(server["open"].wrong)
    if "closed" in server:
        out += server["closed"].wrong
    for rung in server.get("ladder", {}).get("rungs", {}).values():
        out += rung["wrong"]
    return out


def _p50(values) -> float:
    values = list(values)
    return quantile(values, 0.5) if values else 0.0


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------

def batch(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import batch as bt

    reports = bt.run(workload, seed, seconds, trace)
    errors = [e for r in reports for e in r["errors"]]
    attempted = sum(len(r["times"]) for r in reports)
    failed = sum(r["failed"] for r in reports)
    if workload == "scenario-sweep":
        pooled_errors, pooled_failed = bt.check_scenarios(reports, seed)
        errors += pooled_errors
        failed += pooled_failed
    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    if not trace:
        def summary(raw: bool) -> Dict[str, float]:
            key = "raw" if raw else "times"
            return _summary(
                [t for r in plain for t in r[key]], sum(r["units"] for r in plain),
                sum(sum(r[key]) for r in plain), attempted, failed,
                [r["raw_setup_s" if raw else "setup_s"] for r in reports],
                [r["peak_rss_mib"] for r in reports])

        metrics = summary(raw=False)
        _, alias, unit = OPERATION[workload]
        info = {"samples": {"operations": attempted, "processes": len(reports)},
                "raw": summary(raw=True),
                "cleanup": reports[0].get("cleanup"),
                "process_p50_ms": [round(median(r["times"]) * 1e3, 3) for r in plain],
                "process_raw_p50_ms": [round(median(r["raw"]) * 1e3, 3)
                                       for r in plain],
                "process_rate": [round(r["units"] / sum(r["times"]), 3)
                                 for r in plain],
                "aliases": {alias: (metrics["throughput"], unit),
                            **_tails([t for r in plain for t in r["times"]]),
                            "failed_share": (1 - metrics["success_share"], "ratio")}}
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "errors": errors, "info": info}
    merged = layers.merge(r["trace"] for r in traced)
    ops = sum(len(r["times"]) for r in traced)
    overhead = (median([t for r in traced for t in r["times"]])
                / median([t for r in plain for t in r["times"]]))
    metrics = layers.derive(merged, ops, {"trace.overhead_ratio": overhead})
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": errors, "info": {"self_time": layers.self_time_table(merged, ops),
                                       "samples": {"operations": ops}}}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

#: a run that has not finished by then is a failed run (children are
#: killed on the way out).
TIME_LIMIT_S = 170


def _timed_out(signum, frame) -> None:
    raise BenchError(f"no result within {TIME_LIMIT_S} s")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_checkout()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TIME_LIMIT_S)
    # write back what earlier work left dirty now: on this virtual disk a
    # write-back burst steals CPU from the guest for seconds
    os.sync()
    facts = common.host_facts()
    started = time.perf_counter()
    try:
        if args.workload == "serve-hot":
            outcome = serve_hot(args.seed, args.seconds, bool(args.trace))
        else:
            outcome = batch(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    facts["loadavg_after"] = list(os.getloadavg())
    # CPU time stolen by the hypervisor during the run: a noisy host shows here
    steal = common.steal_seconds()
    if steal is not None and facts["steal_s"] is not None:
        facts["steal_s"] = steal - facts["steal_s"]
    facts["wall_s"] = time.perf_counter() - started
    units = END_TO_END if not args.trace else layers.CATALOG
    report(args, facts, outcome, units)
    correct = not outcome["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def report(args, facts, outcome, units) -> None:
    """The human-readable report (every line before the JSON result)."""
    what, _, _ = OPERATION[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (operation: {what})")
    print("host: " + json.dumps(facts, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<26} {outcome['metrics'][name]:>14.6g} {unit}")
    info = outcome["info"]
    for name, (value, unit) in info.get("aliases", {}).items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print("samples: " + json.dumps(info.get("samples", {}), sort_keys=True))
    for name, value in info.get("raw", {}).items():
        if name in TIMED:
            print(f"  raw {name:<22} {value:>14.6g} {END_TO_END[name]} (wall clock)")
    for key in ("process_p50_ms", "process_raw_p50_ms", "process_rate", "ladder",
                "loadgen.lag_p99_ms", "open_loop", "cleanup"):
        if info.get(key) is not None:
            print(f"{key}: " + json.dumps(info[key], sort_keys=True))
    if "self_time" in info:
        print(info["self_time"])
    for n, phase in enumerate(info.get("open_loop", [])):
        if phase["backlog_grew"]:
            print(f"WARNING: server {n} fell behind the open loop (backlog grew, "
                  f"{phase['dropped']} requests dropped as failed)")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    common.WORK.mkdir(parents=True, exist_ok=True)
    path = common.WORK / f"result-{args.workload}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"host": facts, "metrics": outcome["metrics"],
                   "info": {k: v for k, v in info.items() if k != "self_time"},
                   "errors": outcome["errors"]}, fh, indent=1, sort_keys=True,
                  default=str)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
