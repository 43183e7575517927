"""Serving-core tests: the disciplines, driven without HTTP.

Everything here exercises :class:`repro.serve.ServeApp` directly so
each contract is tested at its own layer; the wire protocol has its
own tests in ``test_serve_http.py``.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.serve import ServeApp, ServeConfig, ServeError, execute_one


def run(coro):
    return asyncio.run(coro)


def counter_total(window, name):
    entry = window.get("metrics", {}).get(name)
    return sum(entry["cells"].values()) if entry else 0.0


async def closed(app, body):
    try:
        return await body(app)
    finally:
        await app.aclose()


def test_identical_concurrent_requests_coalesce_to_one_execution():
    app = ServeApp(ServeConfig(batch_window_ms=30.0, max_pending=16))

    async def body(app):
        return await asyncio.gather(
            *(app.submit("measure", {"arch": "r3000"}) for _ in range(6)))

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert all(r == results[0] for r in results)
    assert counter_total(window, "serve_executions_total") == 1
    assert counter_total(window, "serve_coalesced_total") == 5
    assert app.flights.total_leaders == 1
    assert app.flights.total_followers == 5
    assert len(app.flights) == 0, "flight table must empty after completion"


def test_distinct_requests_do_not_coalesce():
    app = ServeApp(ServeConfig(batch_window_ms=10.0, max_pending=16))

    async def body(app):
        return await asyncio.gather(
            app.submit("measure", {"arch": "r3000"}),
            app.submit("measure", {"arch": "sparc"}))

    with obs.capture(enable_spans=False) as capture:
        r3000, sparc = run(closed(app, body))
        window = capture.metrics()
    assert r3000["arch"] == "r3000" and sparc["arch"] == "sparc"
    assert counter_total(window, "serve_executions_total") == 2
    assert counter_total(window, "serve_coalesced_total") == 0


def test_batch_collects_compatible_requests_into_one_dispatch():
    app = ServeApp(ServeConfig(batch_window_ms=30.0, max_batch=8,
                               max_pending=16))

    async def body(app):
        return await asyncio.gather(
            *(app.submit("measure", {"arch": "r3000", "nonce": i})
              for i in range(4)))

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert len(results) == 4
    assert counter_total(window, "serve_batches_total") == 1
    assert counter_total(window, "serve_executions_total") == 4


def test_full_batch_flushes_before_the_window():
    app = ServeApp(ServeConfig(batch_window_ms=10_000.0, max_batch=2,
                               max_pending=16))

    async def body(app):
        return await asyncio.wait_for(
            asyncio.gather(
                app.submit("measure", {"arch": "r3000", "nonce": 0}),
                app.submit("measure", {"arch": "r3000", "nonce": 1})),
            timeout=30.0)

    results = run(closed(app, body))
    assert len(results) == 2  # would time out if the window gated the flush


def test_deadline_expired_before_dispatch_is_a_typed_504():
    app = ServeApp(ServeConfig(batch_window_ms=20.0, max_pending=16))

    async def body(app):
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"}, deadline_ms=0.0)
        return excinfo.value

    with obs.capture(enable_spans=False) as capture:
        err = run(closed(app, body))
        window = capture.metrics()
    assert err.status == 504
    assert err.code == "deadline_exceeded"
    assert counter_total(window, "serve_deadline_expired_total") == 1
    assert counter_total(window, "serve_executions_total") == 0


def test_default_deadline_from_config_applies():
    app = ServeApp(ServeConfig(batch_window_ms=20.0, max_pending=16,
                               default_deadline_ms=0.0))

    async def body(app):
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"})
        return excinfo.value

    assert run(closed(app, body)).code == "deadline_exceeded"


def test_queue_full_sheds_with_typed_429():
    app = ServeApp(ServeConfig(max_pending=1, batch_window_ms=50.0,
                               retry_after_s=0.25))

    async def body(app):
        return await asyncio.gather(
            *(app.submit("measure", {"arch": "r3000", "nonce": i})
              for i in range(4)),
            return_exceptions=True)

    with obs.capture(enable_spans=False) as capture:
        outcomes = run(closed(app, body))
        window = capture.metrics()
    served = [o for o in outcomes if isinstance(o, dict)]
    shed = [o for o in outcomes if isinstance(o, ServeError)]
    assert len(served) == 1
    assert len(shed) == 3
    for err in shed:
        assert err.status == 429
        assert err.code == "overloaded"
        assert err.retry_after_s == 0.25
    assert counter_total(window, "serve_shed_total") == 3
    assert app.admission.peak_pending <= 1


def test_shed_leaders_fail_their_followers_too():
    app = ServeApp(ServeConfig(max_pending=1, batch_window_ms=50.0))

    async def body(app):
        # nonce=0 twice: the second is a follower of a shed leader.
        return await asyncio.gather(
            app.submit("measure", {"arch": "r3000", "nonce": "occupier"}),
            app.submit("measure", {"arch": "r3000", "nonce": 0}),
            app.submit("measure", {"arch": "r3000", "nonce": 0}),
            return_exceptions=True)

    outcomes = run(closed(app, body))
    assert isinstance(outcomes[0], dict)
    assert all(isinstance(o, ServeError) and o.status == 429
               for o in outcomes[1:])


def test_drain_completes_admitted_and_refuses_new():
    app = ServeApp(ServeConfig(batch_window_ms=40.0, max_pending=16))

    async def body(app):
        pending = [
            asyncio.ensure_future(
                app.submit("measure", {"arch": "sparc", "nonce": i}))
            for i in range(3)
        ]
        await asyncio.sleep(0.005)  # requests sit inside the batch window
        assert app.admission.pending == 3
        await app.drain()
        results = await asyncio.gather(*pending)
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "sparc"})
        return results, excinfo.value

    results, refusal = run(closed(app, body))
    assert len(results) == 3 and all(r["arch"] == "sparc" for r in results)
    assert refusal.status == 503
    assert refusal.code == "draining"
    assert app.admission.pending == 0


def test_unknown_endpoint_and_invalid_params_are_400s():
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        with pytest.raises(ServeError) as unknown:
            await app.submit("nope", {})
        with pytest.raises(ServeError) as invalid:
            await app.submit("table", {"number": 99})
        return unknown.value, invalid.value

    unknown, invalid = run(closed(app, body))
    assert unknown.status == 400 and "unknown endpoint" in unknown.message
    assert invalid.status == 400 and "choose 1-7" in invalid.message


def test_per_request_spans_are_emitted():
    app = ServeApp(ServeConfig(batch_window_ms=5.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        await app.submit("table", {"number": 1})

    with obs.capture() as capture:
        run(closed(app, body))
        request_spans = [s for s in capture.spans if s.category == "request"]
    names = sorted(s.name for s in request_spans)
    assert names == ["request:measure", "request:table"]
    for span in request_spans:
        assert span.track == "serve"
        assert span.attrs["status"] == 200
        assert span.duration_us > 0


def test_latency_histogram_and_request_counter_record_status():
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        with pytest.raises(ServeError):
            await app.submit("table", {"number": 99})

    with obs.capture(enable_spans=False) as capture:
        run(closed(app, body))
        window = capture.metrics()
    requests = window["metrics"]["serve_requests_total"]["cells"]
    assert requests.get("endpoint=measure,status=200") == 1
    assert requests.get("endpoint=table,status=400") == 1
    latency = window["metrics"]["serve_request_latency_ms"]
    assert latency["cells"]["endpoint=measure"]["count"] == 1


# ----------------------------------------------------------------------
# the reply memo: a repeat of a memoizable key is answered on the loop
# ----------------------------------------------------------------------

def canonical(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("endpoint,params", [
    ("measure", {"arch": "r3000"}),
    ("table", {"number": 2}),
    ("arch_describe", {"name": "sparc"}),
])
def test_memo_hit_is_byte_identical_to_execute_one(endpoint, params):
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        first = await app.submit(endpoint, dict(params))
        return first, await app.submit(endpoint, dict(params))

    with obs.capture(enable_spans=False) as capture:
        first, hit = run(closed(app, body))
        window = capture.metrics()
    expected = canonical(execute_one((endpoint, dict(params)))["value"])
    assert canonical(first) == expected
    assert canonical(hit) == expected
    assert counter_total(window, "serve_reply_memo_hits_total") == 1


def test_sequential_identical_requests_execute_once():
    n = 6
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        return [await app.submit("measure", {"arch": "cvax"})
                for _ in range(n)]

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert all(r == results[0] for r in results)
    assert counter_total(window, "serve_executions_total") == 1
    assert counter_total(window, "serve_batches_total") == 1
    hits = window["metrics"]["serve_reply_memo_hits_total"]["cells"]
    assert hits == {"endpoint=measure": n - 1}
    # hits still count as answered requests, with a latency sample each
    requests = window["metrics"]["serve_requests_total"]["cells"]
    assert requests["endpoint=measure,status=200"] == n
    latency = window["metrics"]["serve_request_latency_ms"]["cells"]
    assert latency["endpoint=measure"]["count"] == n
    assert app.admission.peak_pending == 1, "a memo hit took a slot"


def test_every_memo_hit_is_a_fresh_object():
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        first = await app.submit("measure", {"arch": "r3000"})
        first["times_us"]["null_syscall"] = -1.0
        first["injected"] = True
        return first, await app.submit("measure", {"arch": "r3000"})

    first, second = run(closed(app, body))
    assert second is not first
    assert "injected" not in second
    assert second["times_us"]["null_syscall"] > 0


def test_error_outcomes_are_never_memoized(monkeypatch):
    import dataclasses

    from repro.serve import protocol

    calls = []
    measure = protocol.ENDPOINTS["measure"]

    def flaky(params):
        calls.append(params)
        if len(calls) == 1:
            raise RuntimeError("transient worker failure")
        return measure.worker(params)

    monkeypatch.setitem(protocol.ENDPOINTS, "measure",
                        dataclasses.replace(measure, worker=flaky))
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        outcomes = []
        for deadline_ms in (0.0, None, None, None):  # 504, 500, 200, hit
            try:
                outcomes.append(await app.submit(
                    "measure", {"arch": "r3000"}, deadline_ms=deadline_ms))
            except ServeError as err:
                outcomes.append(err.status)
        return outcomes

    with obs.capture(enable_spans=False) as capture:
        outcomes = run(closed(app, body))
        window = capture.metrics()
    assert outcomes[:2] == [504, 500]
    assert outcomes[2] == outcomes[3] and outcomes[2]["arch"] == "r3000"
    assert len(calls) == 2, "a failed flight was answered from the memo"
    assert counter_total(window, "serve_executions_total") == 1
    assert counter_total(window, "serve_reply_memo_hits_total") == 1


def test_explore_frontier_is_not_memoized(tmp_path):
    from repro.core.engine import (
        ExperimentEngine,
        default_engine,
        set_default_engine,
    )
    from repro.explore import ExploreRunner, ResultStore, tiny_space

    store_path = str(tmp_path / "trials.jsonl")
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        before = await app.submit("explore_frontier", {"store": store_path})
        # trials appended between two identical requests
        previous = default_engine()
        set_default_engine(ExperimentEngine())
        try:
            ExploreRunner(tiny_space(),
                          store=ResultStore(store_path)).run(seed=0)
        finally:
            set_default_engine(previous)
        return before, await app.submit("explore_frontier",
                                        {"store": store_path})

    with obs.capture(enable_spans=False) as capture:
        before, after = run(closed(app, body))
        window = capture.metrics()
    assert before["trials"] == 0
    assert after["trials"] > 0 and after["frontier"]
    assert counter_total(window, "serve_executions_total") == 2
    assert counter_total(window, "serve_reply_memo_hits_total") == 0


def test_memo_hit_while_draining_is_a_typed_503():
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        await app.drain()
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"})
        return excinfo.value

    with obs.capture(enable_spans=False) as capture:
        refusal = run(closed(app, body))
        window = capture.metrics()
    assert refusal.status == 503 and refusal.code == "draining"
    assert counter_total(window, "serve_reply_memo_hits_total") == 0
    assert window["metrics"]["serve_shed_total"]["cells"] == {
        "reason=draining": 1}


@pytest.mark.parametrize("deadline_ms", [0.0, -5.0])
def test_memo_hit_with_spent_deadline_is_a_typed_504(deadline_ms):
    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"},
                             deadline_ms=deadline_ms)
        # a deadline the hit can meet is honoured
        return excinfo.value, await app.submit(
            "measure", {"arch": "r3000"}, deadline_ms=1.0)

    with obs.capture(enable_spans=False) as capture:
        err, hit = run(closed(app, body))
        window = capture.metrics()
    assert err.status == 504 and err.code == "deadline_exceeded"
    assert hit["arch"] == "r3000"
    assert counter_total(window, "serve_deadline_expired_total") == 1
    assert counter_total(window, "serve_reply_memo_hits_total") == 1


def test_memo_hits_write_lineage_with_the_memoized_roots():
    from repro.provenance import PROVENANCE

    app = ServeApp(ServeConfig(batch_window_ms=1.0))

    async def body(app):
        for i in range(3):
            await app.submit("table", {"number": 5},
                             request_id=f"corr-memo-{i}")

    with obs.capture(enable_spans=False) as capture:
        run(closed(app, body))
        window = capture.metrics()
    assert counter_total(window, "serve_reply_memo_hits_total") == 2
    records = {r.request_id: r for r in PROVENANCE.records()
               if r.kind == "serve_request"
               and (r.request_id or "").startswith("corr-memo-")}
    assert sorted(records) == [f"corr-memo-{i}" for i in range(3)]
    roots = records["corr-memo-0"].inputs
    assert roots, "the executing request linked no derived work"
    for record in records.values():
        assert record.inputs == roots
        assert record.meta == {"endpoint": "table", "status": 200}
