"""Launch ``repro serve run`` (default ``ServeConfig``, any free port).

With ``--trace <path>`` the layer timers are installed before serving,
plus two serve-only probes: each request's wait from ``ServeApp.submit``
to the start of the ``SweepRunner.map`` that runs it (batch window plus
pool queue), and the size of each such batch.  A ``mark`` line on stdin
(sent once the warm-up is done) zeroes the aggregates, so they cover
only the measured phase; the spans are written once, when the server
has drained after SIGTERM.

Every server also times the reference loop (:mod:`calibrate`) on a
background thread every PROBE_EVERY_S, so the benchmark can express its
latencies in reference-host units; the probes (about 1% of the
process's time) are written to ``--speed PATH`` on exit.

Run as ``python3 perfbench/serve_child.py --speed PATH [--trace PATH]``
(the benchmark does).
"""

from __future__ import annotations

import json
import sys
import threading
import time

import calibrate
import common

PROBE_EVERY_S = 0.1


def _probe_forever(probes) -> None:
    while True:
        probes.append((time.perf_counter(), calibrate.probe_ms()))
        time.sleep(PROBE_EVERY_S)


def _install(path: str):
    import tracer
    from repro import obs
    from repro.core.engine import SweepRunner
    from repro.serve.server import ServeApp

    trace = tracer.Tracer()
    trace.sampled.add("serve.execute")
    submitted = {}

    def on_submit(t0, args, kwargs):
        rid = kwargs.get("request_id")
        if rid is not None:
            submitted[rid] = t0

    trace.wrap_async_method(ServeApp, "submit", "serve.submit", on_start=on_submit)
    tracer.install(trace)
    original_map = SweepRunner.map

    def timed_map(self, fn, items, *args, **kwargs):
        now = time.perf_counter()
        ids = [item[2] for item in items if len(item) == 3]
        for rid in ids:
            t0 = submitted.pop(rid, None)
            if t0 is not None:
                trace.add_sample("serve.queue_wait", rid, now - t0)
        if ids:
            trace.count("serve.batches")
            trace.count("serve.batched_items", len(ids))
        return original_map(self, fn, items, *args, **kwargs)

    trace.patch(SweepRunner, "map", timed_map)
    baseline = {}

    def counters():
        out = {}
        for name, entry in obs.REGISTRY.snapshot().get("metrics", {}).items():
            if entry.get("kind") == "counter":
                out[name] = float(sum(entry.get("cells", {}).values()))
        return out

    def watch_stdin():
        for line in sys.stdin:
            if line.strip() == "mark":
                trace.reset()
                baseline.clear()
                baseline.update(counters())

    threading.Thread(target=watch_stdin, daemon=True).start()

    def dump():
        snap = trace.snapshot()
        snap["counters"] = {k: v - baseline.get(k, 0.0)
                            for k, v in counters().items()}
        with open(path, "w") as fh:
            json.dump(snap, fh)

    return dump


def main(argv) -> int:
    common.require_checkout()
    speed_path, argv = argv[1], argv[2:]
    dump = None
    if argv[:1] == ["--trace"]:
        dump = _install(argv[1])
    probes: list = []
    threading.Thread(target=_probe_forever, args=(probes,), daemon=True).start()
    from repro.cli import main as repro_main

    code = repro_main(["serve", "run", "--port", "0"])
    with open(speed_path, "w") as fh:
        json.dump(list(probes), fh)
    if dump is not None:
        dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
