"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Short runs of every workload must pass their output checks; a tampered
golden digest or a missing program source must make the command exit
non-zero; the timers must account self time correctly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def bench(root: Path, workload: str, seconds: float, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.CATALOG
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload,seconds", [
    ("tables-cold", 1), ("scenario-sweep", 1), ("serve-hot", 2), ("sweep-cold", 1)])
def test_short_run_passes_its_checks(workload, seconds):
    code, result, proc = bench(ROOT, workload, seconds)
    assert code == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    code, result, proc = bench(ROOT, "tables-cold", 2, trace=1)
    assert code == 0, proc.stderr[-2000:]
    metrics = result["metrics"]
    assert set(metrics) == set(layers.CATALOG)
    assert metrics["executor.run_ms"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    # the layers' self times account for nearly all of the traced wall time
    assert metrics["trace.attributed_ratio"]["value"] > 0.8


def _checkout_copy(tmp_path: Path) -> Path:
    """A checkout whose program and goldens are the real ones but whose
    benchmark directory is a private copy."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "tests").symlink_to(ROOT / "tests")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_tampered_golden_digest_fails_the_run(tmp_path):
    root = _checkout_copy(tmp_path)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["table_digests"]["3"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    code, result, proc = bench(root, "tables-cold", 1)
    assert code != 0
    assert result["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_missing_program_source_exits_non_zero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench(tmp_path, "tables-cold", 1)
    assert code != 0 and result is None


def test_self_time_excludes_wrapped_children():
    trace = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        trace.span("inner", inner)

    trace.span("op", outer)
    spans = trace.snapshot()["spans"]
    assert spans["inner"]["self_s"] == pytest.approx(spans["inner"]["total_s"])
    assert spans["op"]["self_s"] == pytest.approx(
        spans["op"]["total_s"] - spans["inner"]["total_s"])
    assert 0.005 < spans["op"]["self_s"] < spans["inner"]["self_s"]


def test_generator_steps_are_timed_and_uninstall_restores():
    import types

    module = types.ModuleType("repro_fake_for_tracer_test")

    def numbers(n):
        yield from range(n)

    module.numbers = numbers
    sys.modules[module.__name__] = module
    try:
        trace = tracer.Tracer()
        trace.wrap_function(module.__name__, "numbers", "gen", generator=True)
        assert list(module.numbers(5)) == [0, 1, 2, 3, 4]
        assert trace.snapshot()["spans"]["gen"]["count"] == 6  # 5 items + stop
        trace.uninstall()
        assert module.numbers is numbers
    finally:
        del sys.modules[module.__name__]


def test_open_loop_counts_requests_it_could_not_send():
    """Requests still queued after the drain are attempted and failed."""
    import asyncio

    import serve_hot

    async def slow_server(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                await asyncio.sleep(0.2)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    async def main():
        server = await asyncio.start_server(slow_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        requests = [serve_hot.Request("/x", b"{}", b"ok")]
        try:
            return await serve_hot.open_loop("127.0.0.1", port, requests, 0,
                                             rate=100.0, duration=0.3, conns=1)
        finally:
            server.close()
            await server.wait_closed()

    phase = asyncio.run(main())
    assert phase.attempted == 30
    assert phase.backlog_grew
    assert phase.dropped > 10
    assert phase.failed == phase.dropped
    assert len(phase.latencies_ms) == 30
    # a dropped request waited at least the drain
    assert max(phase.latencies_ms) >= serve_hot.DRAIN_S * 1e3


def test_pooled_scenario_checks_count_failed_operations():
    sys.path.insert(0, str(ROOT / "src"))
    import batch

    costs = dict(zip(batch.SCENARIO_ORDER, (1.0, 2.0, 3.0, 4.0, 5.0)))

    def report(arches, share_shift=0.0, cost_of=costs):
        pooled = {"share": {}, "expected": {}, "cost": {}}
        for arch in arches:
            pooled["cost"].setdefault(arch, []).append(cost_of[arch])
            cell = f"{arch}/monolithic"
            shift = share_shift if arch == "cvax" else 0.0
            pooled["share"].setdefault(cell, []).extend(
                [0.10 + shift, 0.11 + shift, 0.09 + shift])
            pooled["expected"][cell] = 0.10
        return {"pooled": pooled, "arches": list(arches), "first_digest": ""}

    arches = list(batch.SCENARIO_ORDER) * 2
    assert batch.check_scenarios([report(arches)], seed=1) == ([], 0)
    errors, failed = batch.check_scenarios([report(arches, share_shift=0.5)], seed=1)
    assert len(errors) == 1 and failed == 2  # the two cvax operations
    swapped = dict(costs, cvax=0.5)
    errors, failed = batch.check_scenarios([report(arches, cost_of=swapped)], seed=1)
    assert failed == len(arches)
