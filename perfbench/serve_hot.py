"""The serve-hot workload: a cache-hot ``repro serve run`` under load.

A server runs in its own child process (:mod:`serve_child`); this
single-process asyncio generator drives it over loopback through at
most ``nproc`` keep-alive connections.  The seeded
``serve.loadgen.request_mix`` is warmed during set-up, so every
measured request is an engine memory-tier hit.

Phases of one server, in order:

* **open loop** (half the window) at a fixed 100 req/s, each request timed from the
  moment it was *due*: a request that waits for a free connection
  carries that wait in its latency, and the generator's own lateness
  (send time minus due time) is reported as ``loadgen.lag_p99_ms``;
* **closed loop** (30%): ``nproc`` clients, each sending its next request
  when the previous reply lands (capacity, replies/s);
* **rate ladder** (the rest) 200/400/800 req/s (100 is the open-loop phase):
  a rung passes when its p99 from due time is within the limit, at
  least 99% succeed and the backlog of due-but-unsent requests does
  not grow.  The ladder stops at the first failing rung.

Every 200 reply is compared byte for byte with ``json.dumps(
execute_one(...)["value"], sort_keys=True)`` computed here.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import calibrate
import common
from common import BenchError, Child

#: the fixed open-loop rate.  About a third of what ``nproc`` = 2
#: connections carry on a quiet 2-vCPU host (~300 req/s), so the loop
#: stays stable when the host slows by 2x; at 200 req/s it sits at 70%
#: and collapses whenever the host is contended.
OPEN_RATE = 100.0
LADDER = (100.0, 200.0, 400.0, 800.0)

SLO_P99_MS = 50.0
SLO_SUCCESS = 0.99
#: once an open-loop schedule ends, how long the queue of due requests
#: may drain; requests still unsent then are refused work (failed).
DRAIN_S = 1.0


# ----------------------------------------------------------------------
# requests and their expected replies
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    path: str
    body: bytes
    expected: bytes


def build_requests(seed: int, n: int) -> List[Request]:
    """The seeded mix, each request paired with its expected reply body,
    computed in this process through the program's own worker."""
    from repro.serve.loadgen import request_mix
    from repro.serve.protocol import ENDPOINTS, execute_one

    expected: Dict[str, bytes] = {}
    out: List[Request] = []
    for endpoint, params in request_mix(n, seed=seed):
        body = json.dumps(params, sort_keys=True)
        key = f"{endpoint} {body}"
        if key not in expected:
            outcome = execute_one((endpoint, params))
            if not outcome.get("ok"):
                raise BenchError(f"reference execution of {key} failed: {outcome}")
            expected[key] = json.dumps(outcome["value"], sort_keys=True).encode()
        out.append(Request(ENDPOINTS[endpoint].path, body.encode(), expected[key]))
    return out


def distinct(requests: List[Request]) -> List[Request]:
    seen: Dict[Tuple[str, bytes], Request] = {}
    for req in requests:
        seen.setdefault((req.path, req.body), req)
    return list(seen.values())


# ----------------------------------------------------------------------
# a keep-alive HTTP/1.1 connection
# ----------------------------------------------------------------------

class Conn:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None

    async def call(self, method: str, path: str, body: bytes = b"",
                   request_id: Optional[str] = None) -> Tuple[int, bytes]:
        """One request; a connection-level failure is status 0."""
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                "Content-Type: application/json", f"Content-Length: {len(body)}"]
        if request_id:
            head.append(f"X-Request-Id: {request_id}")
        payload = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port)
            self.writer.write(payload)
            await self.writer.drain()
            status_line = await self.reader.readline()
            if not status_line:
                raise ConnectionError("closed before status line")
            status = int(status_line.split()[1])
            length, keep_alive = 0, True
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    keep_alive = value.strip().lower() != "close"
            reply = await self.reader.readexactly(length) if length else b""
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            return 0, b""
        if not keep_alive:
            await self.close()
        return status, reply


# ----------------------------------------------------------------------
# load disciplines
# ----------------------------------------------------------------------

@dataclass
class Phase:
    """Outcomes of one phase: latencies in ms, statuses, mismatches."""

    latencies_ms: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    client_ms: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: due requests still unsent DRAIN_S after the schedule ended
    dropped: int = 0
    wrong: List[str] = field(default_factory=list)
    backlog_grew: bool = False
    elapsed_s: float = 0.0
    #: raw -> reference-host time factor over the phase (:mod:`calibrate`)
    scale: float = 1.0

    def record(self, req: Request, status: int, reply: bytes,
               latency_s: float) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1e3)
        if status != 200:
            self.failed += 1
        elif reply != req.expected:
            self.failed += 1
            if len(self.wrong) < 3:
                self.wrong.append(f"{req.path} {req.body.decode()}: reply differs")

    def drop(self, waited_s: float) -> None:
        """A due request never sent: failed, its wait so far its latency."""
        self.attempted += 1
        self.failed += 1
        self.dropped += 1
        self.latencies_ms.append(waited_s * 1e3)


async def open_loop(host: str, port: int, requests: List[Request], start: int,
                    rate: float, duration: float, conns: int,
                    tag: str = "") -> Phase:
    """Send ``rate`` req/s for ``duration`` s through ``conns`` connections.

    Latency runs from each request's due time to its reply.  When the
    schedule ends the queue drains for up to DRAIN_S; requests still
    unsent then count as failed, with their wait as latency.
    """
    phase = Phase()
    count = max(1, int(rate * duration))
    queue: "asyncio.Queue[Tuple[int, float]]" = asyncio.Queue()
    t0 = time.perf_counter() + 0.01
    backlog: List[int] = []

    async def worker() -> None:
        conn = Conn(host, port)
        try:
            while True:
                i, due = await queue.get()
                if i < 0:
                    return
                sent = time.perf_counter()
                phase.lags_ms.append((sent - due) * 1e3)
                req = requests[(start + i) % len(requests)]
                rid = f"pb{tag}-{i}"
                status, reply = await conn.call("POST", req.path, req.body, rid)
                end = time.perf_counter()
                phase.record(req, status, reply, end - due)
                phase.client_ms[rid] = (end - sent) * 1e3
        finally:
            await conn.close()

    workers = [asyncio.ensure_future(worker()) for _ in range(conns)]
    try:
        for i in range(count):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            backlog.append(queue.qsize())
            queue.put_nowait((i, due))
        # backlog grows when the queue at the end of the schedule is
        # larger than anything seen in its first half (plus one per conn)
        half = backlog[: max(1, len(backlog) // 2)]
        phase.backlog_grew = queue.qsize() > max(half) + conns
        drained_by = time.perf_counter() + DRAIN_S
        while not queue.empty() and time.perf_counter() < drained_by:
            await asyncio.sleep(0.002)
        now = time.perf_counter()
        while not queue.empty():
            phase.drop(now - queue.get_nowait()[1])
        for _ in workers:
            queue.put_nowait((-1, 0.0))
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
    phase.elapsed_s = time.perf_counter() - t0
    return phase


async def closed_loop(host: str, port: int, requests: List[Request], start: int,
                      duration: float, conns: int) -> Phase:
    """``conns`` clients back to back for ``duration`` seconds."""
    phase = Phase()
    deadline = time.perf_counter() + duration
    counter = itertools.count()

    async def client() -> None:
        conn = Conn(host, port)
        try:
            while time.perf_counter() < deadline:
                req = requests[(start + next(counter)) % len(requests)]
                t = time.perf_counter()
                status, reply = await conn.call("POST", req.path, req.body)
                phase.record(req, status, reply, time.perf_counter() - t)
        finally:
            await conn.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(conns)))
    phase.elapsed_s = time.perf_counter() - t0
    return phase


# ----------------------------------------------------------------------
# one server's life
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """A server child: start, wait healthy, warm, measure, drain."""

    def __init__(self, trace_path: Optional[str]) -> None:
        self.speed_path = str(common.WORK / "serve-speed.json")
        args = [str(common.BENCH_DIR / "serve_child.py"), "--speed", self.speed_path]
        if trace_path:
            args += ["--trace", trace_path]
        self.child = Child(args, common.child_env(), stdin=True)
        self.trace_path = trace_path
        try:
            match = _LISTENING.search(self.child.read("repro.serve listening"))
            if match is None:
                raise BenchError("server did not report its address")
        except BaseException:
            self.child.kill()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    async def warm(self, requests: List[Request]) -> None:
        conn = Conn(self.host, self.port)
        try:
            for _ in range(200):
                status, _ = await conn.call("GET", "/healthz")
                if status == 200:
                    break
                await asyncio.sleep(0.01)
            else:
                raise BenchError("server never became healthy")
            for req in distinct(requests):
                status, reply = await conn.call("POST", req.path, req.body)
                if status != 200 or reply != req.expected:
                    raise BenchError(f"warm-up {req.path} {req.body.decode()} "
                                     f"answered {status} with a different body")
        finally:
            await conn.close()
        if self.trace_path:
            self.child.send("mark")

    def stop(self) -> Tuple[float, List[Tuple[float, float]], Optional[Dict[str, Any]]]:
        """SIGTERM (graceful drain); returns peak RSS, the server's
        reference-loop probes and any span dump."""
        rss = self.child.peak_rss_mib()
        self.child.proc.send_signal(signal.SIGTERM)
        if self.child.finish(timeout=30) != 0:
            raise BenchError("server did not drain cleanly")
        with open(self.speed_path) as fh:
            probes = [tuple(p) for p in json.load(fh)]
        spans = None
        if self.trace_path:
            with open(self.trace_path) as fh:
                spans = json.load(fh)
        return rss, probes, spans

    def kill(self) -> None:
        self.child.kill()


async def _server_run(requests: List[Request], seconds: float, conns: int,
                      trace_path: Optional[str], full: bool,
                      tag: str) -> Dict[str, Any]:
    # each phase's span: wall clock and stolen time at its start and end
    windows: Dict[str, List[Tuple[float, float]]] = {}
    mark = [calibrate.steal_mark()]

    def end(name: str) -> None:
        mark.append(calibrate.steal_mark())
        windows[name] = mark[-2:]

    server = Server(trace_path)
    try:
        await server.warm(requests)
        end("setup")
        out: Dict[str, Any] = {"raw_setup_s": mark[1][0] - mark[0][0]}
        # window shares: open loop 50%, closed loop 30%, ladder 20%
        out["open"] = await open_loop(server.host, server.port, requests, 0,
                                      OPEN_RATE, 0.5 * seconds if full else seconds,
                                      conns, tag)
        end("open")
        if full:
            out["closed"] = await closed_loop(server.host, server.port, requests,
                                              len(requests) // 2, 0.3 * seconds,
                                              conns)
            end("closed")
            out["ladder"] = await ladder(server, requests, 0.2 * seconds, conns,
                                         out["open"])
        out["peak_rss_mib"], probes, out["spans"] = server.stop()
        # the server's own speed over each phase and the share of the
        # CPU time the host did not steal (reference-host units)
        for name, (start, stop) in windows.items():
            inside = [ms for t, ms in probes if start[0] <= t <= stop[0]]
            scale = (calibrate.scale_of(inside or [ms for _, ms in probes])
                     * calibrate.available(start, stop))
            if name == "setup":
                out["setup_s"] = out["raw_setup_s"] * scale
            else:
                out[name].scale = scale
        return out
    except BaseException:
        server.kill()
        raise


def rung_passes(phase: Phase) -> bool:
    ok = phase.attempted - phase.failed
    return (bool(phase.latencies_ms) and not phase.backlog_grew
            and common.quantile(phase.latencies_ms, 0.99) <= SLO_P99_MS
            and ok >= SLO_SUCCESS * phase.attempted)


async def ladder(server: Server, requests: List[Request], seconds: float,
                 conns: int, at_open_rate: Phase) -> Dict[str, Any]:
    """Climb the doubling ladder; the open-loop rate reuses that phase."""
    rungs: Dict[str, Any] = {}
    passed = 0.0
    others = [r for r in LADDER if r != OPEN_RATE]
    for rate in LADDER:
        phase = (at_open_rate if rate == OPEN_RATE else await open_loop(
            server.host, server.port, requests, int(rate), rate,
            seconds / len(others), conns))
        ok = rung_passes(phase)
        rungs[f"{rate:g}"] = {
            "p99_ms": common.quantile(phase.latencies_ms, 0.99),
            "n": phase.attempted, "failed": phase.failed,
            "backlog_grew": phase.backlog_grew, "dropped": phase.dropped,
            "passed": ok,
            "wrong": phase.wrong}
        if not ok:
            break
        passed = rate
    return {"slo_rate_rps": passed, "rungs": rungs}


def run(seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """Every server of one run, each with an equal share of the window.
    An untraced run starts three servers that each run all phases (a
    server process's speed varies from one start to the next); a traced
    run starts an untraced and a traced server that each run only the
    open loop, for the overhead ratio."""
    requests = build_requests(seed, 4096)
    conns = common.nproc()
    common.WORK.mkdir(parents=True, exist_ok=True)
    servers = 2 if trace else 3
    results = []
    for n in range(servers):
        trace_path = (str(common.WORK / "serve-spans.json")
                      if trace and n == 1 else None)
        results.append(asyncio.run(_server_run(
            requests, seconds / servers, conns, trace_path, full=not trace,
            tag=str(n))))
    return results
