"""Cluster controller: lease state machine + JSON-over-HTTP front end.

The controller owns the *task array* — the ordered point indices a
shardable strategy planned, minus whatever the destination store
already holds — and hands it out as leases.  The state machine is
deliberately small and synchronous (every transition under one lock),
because correctness never depends on it: results are content-addressed
in worker WALs, so the worst any scheduling race can cause is a
duplicate evaluation that the merge deduplicates.

Liveness is heartbeat-based: a worker confirms progress after every
evaluated point (post-WAL-append, so confirmed progress is durable),
and a lease whose heartbeat goes stale for ``lease_ttl_s`` is expired
and its *unconfirmed remainder* requeued.  Idle workers steal: when no
pending lease exists, the controller splits the tail half off the
granted lease with the most remaining work and the victim learns its
shrunken bound from the next heartbeat reply (the reply's ``limit`` is
authoritative).

The HTTP server reuses ``repro.serve``'s request parser and response
builder — same wire dialect, same framing — and serves ``/metrics`` /
``/healthz`` next to the cluster endpoints.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.leases import (
    Lease,
    LeaseJournal,
    partition,
    plan_to_wire,
    ranges_of,
)
from repro.explore.objectives import ObjectiveSchema
from repro.explore.space import DesignSpace
from repro.explore.store import ResultStore
from repro.explore.strategies import static_plan
from repro.obs import OBS_STATE as _OBS
from repro.obs import REGISTRY as _METRICS
from repro.obs import enable_metrics
from repro.obs.export import render_prometheus
from repro.provenance import digest_of


class ClusterController:
    """Thread-safe lease scheduler over one design-space sweep."""

    def __init__(
        self,
        space: DesignSpace,
        schema: Optional[ObjectiveSchema] = None,
        *,
        store: Optional[ResultStore] = None,
        journal_path: Optional[str] = None,
        strategy: str = "grid",
        budget: Optional[int] = None,
        seed: int = 0,
        lease_size: int = 16,
        lease_ttl_s: float = 5.0,
        expect_workers: int = 0,
        min_steal: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.space = space
        self.schema = schema or ObjectiveSchema()
        self.lease_size = lease_size
        self.lease_ttl_s = lease_ttl_s
        self.expect_workers = expect_workers
        self.min_steal = max(2, min_steal)
        self._clock = clock
        self._lock = threading.Lock()

        planned = static_plan(strategy, space, budget=budget, seed=seed)
        already = set()
        if store is not None:
            for record in store.records():
                if (record.get("space_fp") == space.fingerprint
                        and record.get("schema_digest") == self.schema.digest
                        and isinstance(record.get("index"), int)):
                    already.add(record["index"])
        #: point indices still to evaluate, in plan order.
        self.tasks: List[int] = [i for i in planned if i not in already]
        self.store_skips = len(planned) - len(self.tasks)
        self.tasks_digest = digest_of(
            ["cluster-plan", space.fingerprint, self.schema.digest,
             strategy, seed, budget, self.tasks])

        self.journal = LeaseJournal(journal_path) if journal_path else None
        self.resumed_from_journal = False
        covered = [False] * len(self.tasks)
        if self.journal is not None:
            state = self.journal.replay()
            if (state.plan is not None
                    and state.plan.get("tasks_digest") == self.tasks_digest):
                covered = state.covered(len(self.tasks))
                self.resumed_from_journal = True
            else:
                self.journal.append({
                    "event": "plan", "tasks_digest": self.tasks_digest,
                    "space_fp": space.fingerprint,
                    "schema_digest": self.schema.digest,
                    "strategy": strategy, "seed": seed, "budget": budget,
                    "total": len(self.tasks), "lease_size": lease_size,
                })

        self._leases: Dict[int, Lease] = {}
        self._pending: List[Lease] = []
        self._next_id = 1
        uncovered = [i for i, done in enumerate(covered) if not done]
        for lo, hi in ranges_of(uncovered):
            for sub_lo, sub_hi in partition(hi - lo, lease_size):
                self._queue_range(lo + sub_lo, lo + sub_hi)
        self.outstanding = len(uncovered)
        self.journal_skips = len(self.tasks) - len(uncovered)

        self.workers: Dict[str, float] = {}
        self.counters: Dict[str, int] = {
            "granted": 0, "completed": 0, "expired": 0, "stolen": 0,
            "retried": 0, "failed": 0, "heartbeats": 0,
        }
        self.failures: List[Dict[str, Any]] = []
        self.started_t: Optional[float] = None
        self.finished_t: Optional[float] = None
        self._gauge_remaining()

    # -- metrics helpers -------------------------------------------------
    @staticmethod
    def _count(name: str, help_text: str, amount: float = 1.0,
               **labels: Any) -> None:
        if _OBS.metrics_on:
            _METRICS.counter(name, help_text).inc(amount, **labels)

    def _gauge_remaining(self) -> None:
        if _OBS.metrics_on:
            _METRICS.gauge(
                "cluster_points_remaining",
                "task-array points not yet covered by a completed lease",
            ).set(self.outstanding)

    def _gauge_workers(self, now: float) -> None:
        if _OBS.metrics_on:
            live = sum(1 for seen in self.workers.values()
                       if now - seen <= self.lease_ttl_s)
            _METRICS.gauge(
                "cluster_workers_live",
                "workers heard from within one lease TTL").set(live)

    # -- internals (lock held) -------------------------------------------
    def _queue_range(self, lo: int, hi: int, reassignments: int = 0) -> None:
        if hi <= lo:
            return
        lease = Lease(id=self._next_id, lo=lo, hi=hi,
                      reassignments=reassignments)
        self._next_id += 1
        self._leases[lease.id] = lease
        self._pending.append(lease)

    def _journal(self, event: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event)

    def _granted(self) -> List[Lease]:
        return [lease for lease in self._leases.values()
                if lease.status == "granted"]

    def _expire_stale(self, now: float) -> int:
        """Requeue the unconfirmed remainder of every stale lease."""
        expired = 0
        for lease in self._granted():
            if now - lease.heartbeat_t <= self.lease_ttl_s:
                continue
            lease.status = "expired"
            expired += 1
            # confirmed progress is durable (workers append the WAL
            # record before heartbeating), so it counts as covered.
            self.outstanding -= lease.progress
            self._queue_range(lease.lo + lease.progress, lease.hi,
                              reassignments=lease.reassignments + 1)
            self.counters["expired"] += 1
            self._count("cluster_leases_expired_total",
                        "leases whose heartbeat went stale, requeued")
            self._journal({"event": "expire", "lease": lease.id,
                           "worker": lease.worker, "lo": lease.lo,
                           "hi": lease.hi, "progress": lease.progress})
        if expired:
            self._gauge_remaining()
        return expired

    def _steal(self, now: float) -> Optional[Lease]:
        """Split the tail half off the slowest granted lease."""
        victims = [lease for lease in self._granted()
                   if lease.remaining >= self.min_steal]
        if not victims:
            return None
        victim = max(victims, key=lambda lease: (lease.remaining, -lease.id))
        take = victim.remaining // 2
        cut = victim.hi - take
        victim.hi = cut
        thief = Lease(id=self._next_id, lo=cut, hi=cut + take)
        self._next_id += 1
        self._leases[thief.id] = thief
        self.counters["stolen"] += 1
        self._count("cluster_leases_stolen_total",
                    "lease tails split off for idle workers")
        self._journal({"event": "steal", "victim_lease": victim.id,
                       "lease": thief.id, "worker": victim.worker,
                       "lo": thief.lo, "hi": thief.hi})
        return thief

    def _finish_if_done(self, now: float) -> None:
        if self.outstanding <= 0 and self.finished_t is None:
            self.finished_t = now

    # -- public API (one call = one wire request) --------------------------
    @property
    def done(self) -> bool:
        with self._lock:
            return self.outstanding <= 0

    @property
    def sweep_seconds(self) -> Optional[float]:
        with self._lock:
            if self.started_t is None or self.finished_t is None:
                return None
            return self.finished_t - self.started_t

    def register(self, worker: str) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            self.workers[worker] = now
            self._gauge_workers(now)
            return {
                "worker": worker,
                "plan": plan_to_wire(self.space, self.schema,
                                     len(self.tasks)),
                "lease_ttl_s": self.lease_ttl_s,
            }

    def lease(self, worker: str) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            self.workers[worker] = now
            self._expire_stale(now)
            if self.outstanding <= 0:
                self._finish_if_done(now)
                return {"done": True}
            # gang-start barrier: scaling benches want grant time to
            # exclude worker spawn skew, so nobody starts until the
            # expected crew is connected.
            if (self.started_t is None
                    and len(self.workers) < self.expect_workers):
                return {"wait": True, "retry_after_s": 0.05}
            lease = None
            while self._pending:
                candidate = self._pending.pop(0)
                if candidate.status == "pending" and candidate.size > 0:
                    lease = candidate
                    break
            if lease is None:
                lease = self._steal(now)
            if lease is None:
                return {"wait": True, "retry_after_s": 0.1}
            lease.status = "granted"
            lease.worker = worker
            lease.granted_t = lease.heartbeat_t = now
            if self.started_t is None:
                self.started_t = now
            self.counters["granted"] += 1
            self._count("cluster_leases_granted_total",
                        "lease grants handed to workers")
            self._journal({"event": "grant", "lease": lease.id,
                           "worker": worker, "lo": lease.lo,
                           "hi": lease.hi})
            return {"lease": {"id": lease.id,
                              "points": self.tasks[lease.lo:lease.hi]}}

    def heartbeat(self, worker: str, lease_id: int,
                  done: int) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            self.workers[worker] = now
            self.counters["heartbeats"] += 1
            self._count("cluster_heartbeats_total",
                        "worker heartbeats received")
            lease = self._leases.get(lease_id)
            if (lease is None or lease.status != "granted"
                    or lease.worker != worker):
                return {"ok": False, "reason": "lease_not_held"}
            if _OBS.metrics_on:
                _METRICS.histogram(
                    "cluster_heartbeat_age_seconds",
                    "gap between consecutive heartbeats of one lease",
                ).observe(max(0.0, now - lease.heartbeat_t))
            lease.heartbeat_t = now
            lease.progress = max(lease.progress, min(done, lease.size))
            return {"ok": True, "limit": lease.size}

    def complete(self, worker: str, lease_id: int, done: int,
                 retries: int = 0,
                 failures: Optional[List[Dict[str, Any]]] = None,
                 ) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            self.workers[worker] = now
            lease = self._leases.get(lease_id)
            if (lease is None or lease.status != "granted"
                    or lease.worker != worker):
                # a zombie (expired-then-revived) worker: its WAL rows
                # still merge fine, but its coverage was already
                # requeued — refuse, don't double-count.
                return {"ok": False, "reason": "lease_not_held"}
            covered = min(max(done, 0), lease.size)
            lease.status = "completed"
            lease.progress = covered
            lease.heartbeat_t = now
            self.outstanding -= covered
            if covered < lease.size:
                # defensive: a worker that stopped short returns the
                # tail to the pool instead of stranding it.
                self._queue_range(lease.lo + covered, lease.hi,
                                  reassignments=lease.reassignments + 1)
            self.counters["completed"] += 1
            self._count("cluster_leases_completed_total",
                        "leases completed by workers")
            if retries:
                self.counters["retried"] += int(retries)
                self._count("cluster_trials_retried_total",
                            "trial evaluations retried after failure",
                            amount=int(retries))
            for failure in failures or []:
                entry = {"point": failure.get("point"),
                         "error": str(failure.get("error", "")),
                         "worker": worker}
                self.failures.append(entry)
                self.counters["failed"] += 1
                self._count("cluster_trials_failed_total",
                            "trials that exhausted their retry budget")
                self._journal({"event": "failed", "point": entry["point"],
                               "error": entry["error"], "worker": worker})
            self._journal({"event": "complete", "lease": lease.id,
                           "worker": worker, "lo": lease.lo,
                           "hi": lease.hi, "done": covered})
            self._gauge_remaining()
            self._finish_if_done(now)
            return {"ok": True, "done": self.outstanding <= 0}

    def tick(self) -> int:
        """Periodic maintenance: expire stale leases, refresh gauges."""
        now = self._clock()
        with self._lock:
            expired = self._expire_stale(now)
            self._gauge_workers(now)
            return expired

    def status(self) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            granted = [
                {"lease": lease.id, "worker": lease.worker,
                 "lo": lease.lo, "hi": lease.hi,
                 "progress": lease.progress,
                 "heartbeat_age_s": round(now - lease.heartbeat_t, 3),
                 "reassignments": lease.reassignments}
                for lease in self._granted()]
            sweep = None
            if self.started_t is not None:
                sweep = (self.finished_t or now) - self.started_t
            return {
                "space": self.space.name,
                "space_fp": self.space.fingerprint,
                "schema_digest": self.schema.digest,
                "tasks_digest": self.tasks_digest,
                "total_tasks": len(self.tasks),
                "outstanding": self.outstanding,
                "done": self.outstanding <= 0,
                "store_skips": self.store_skips,
                "journal_skips": self.journal_skips,
                "resumed_from_journal": self.resumed_from_journal,
                "pending_leases": sum(1 for lease in self._pending
                                      if lease.status == "pending"),
                "granted_leases": granted,
                "workers": {name: round(now - seen, 3)
                            for name, seen in self.workers.items()},
                "counters": dict(self.counters),
                "failures": list(self.failures),
                "sweep_seconds": sweep,
            }


# ----------------------------------------------------------------------
# HTTP front end (repro.serve wire dialect)
# ----------------------------------------------------------------------

class ControllerServer:
    """Asyncio HTTP server exposing one :class:`ClusterController`."""

    def __init__(self, controller: ClusterController, *,
                 host: str = "127.0.0.1", port: int = 0,
                 tick_interval_s: Optional[float] = None) -> None:
        self.controller = controller
        self._host_arg = host
        self._port_arg = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.tick_interval_s = (
            tick_interval_s if tick_interval_s is not None
            else max(0.05, controller.lease_ttl_s / 4.0))
        self._server: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._handlers: "set[asyncio.Task]" = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        from repro.cluster import preregister_cluster_metrics

        enable_metrics()
        preregister_cluster_metrics()
        self.controller._gauge_remaining()
        self._server = await asyncio.start_server(
            self._handle, host=self._host_arg, port=self._port_arg)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._tick_task = asyncio.get_running_loop().create_task(
            self._tick_forever())

    async def stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # keep-alive connections outlive the listener; reap them so no
        # handler coroutine survives into a closed loop.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
            self._handlers.clear()

    async def wait_done(self, poll_s: float = 0.05,
                        timeout_s: Optional[float] = None) -> bool:
        """Block until every task is covered (True) or timeout (False)."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while not self.controller.done:
            if deadline is not None and time.monotonic() > deadline:
                return False
            await asyncio.sleep(poll_s)
        return True

    async def _tick_forever(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval_s)
            self.controller.tick()

    # -- request plumbing --------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        from repro.serve.server import _BadHttp, http_payload, read_http_request

        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except _BadHttp as err:
                    writer.write(http_payload(
                        400, _json_bytes({"error": str(err)}),
                        "application/json", keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, content_type = self._route(
                    method, target, body)
                keep_alive = (headers.get("connection", "keep-alive").lower()
                              != "close")
                writer.write(http_payload(status, payload, content_type,
                                          keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _route(self, method: str, target: str,
               body: bytes) -> Tuple[int, bytes, str]:
        if method == "GET":
            if target == "/healthz":
                return 200, _json_bytes({"status": "ok"}), "application/json"
            if target == "/metrics":
                text = render_prometheus(_METRICS.snapshot())
                return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
            if target == "/v1/cluster/status":
                return (200, _json_bytes(self.controller.status()),
                        "application/json")
            return 404, _json_bytes({"error": "not found"}), "application/json"
        if method != "POST":
            return (405, _json_bytes({"error": "method not allowed"}),
                    "application/json")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as err:
            return (400, _json_bytes({"error": f"bad request body: {err}"}),
                    "application/json")
        try:
            if target == "/v1/cluster/register":
                reply = self.controller.register(str(payload["worker"]))
            elif target == "/v1/cluster/lease":
                reply = self.controller.lease(str(payload["worker"]))
            elif target == "/v1/cluster/heartbeat":
                reply = self.controller.heartbeat(
                    str(payload["worker"]), int(payload["lease"]),
                    int(payload.get("done", 0)))
            elif target == "/v1/cluster/complete":
                reply = self.controller.complete(
                    str(payload["worker"]), int(payload["lease"]),
                    int(payload.get("done", 0)),
                    retries=int(payload.get("retries", 0)),
                    failures=payload.get("failures") or [])
            else:
                return (404, _json_bytes({"error": "not found"}),
                        "application/json")
        except (KeyError, TypeError, ValueError) as err:
            return (400, _json_bytes({"error": f"bad request: {err}"}),
                    "application/json")
        return 200, _json_bytes(reply), "application/json"


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
