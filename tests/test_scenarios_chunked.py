"""Chunked scenario pipeline vs the per-event oracle.

The chunked path (block draws, frontier-cut array merge, array fold)
must reproduce the per-event path bit for bit: the same draws, the
same merged stream as ``generate_events``' k-entry heap, and the same
aggregate payload and digest as ``OnlineAggregate.observe`` fed one
event at a time.  The chunked path needs numpy; the per-event path
must keep working without it.
"""

import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

import repro.scenarios.generator as generator
import repro.scenarios.sketches as sketches
from repro.arch import get_arch
from repro.os_models.mach import OSStructure
from repro.scenarios import (
    ScenarioEventKind,
    WorkloadModel,
    fit_table7,
    fit_table7_pair,
    fit_trace,
    generate_events,
    run_replication,
)
from repro.scenarios.distributions import (
    Exponential,
    Lognormal,
    ProbabilityMap,
    rng_for,
    uniforms,
)
from repro.scenarios.events import ALL_KINDS, KIND_ORDER
from repro.scenarios.generator import generate_chunks
from repro.scenarios.report import DEFAULT_SWEEP_ARCHES
from repro.scenarios.runner import CostModel
from repro.scenarios.sketches import OnlineAggregate, aggregate_digest

SYSCALL = ScenarioEventKind.SYSCALL
TRAP = ScenarioEventKind.TRAP
SWITCH = ScenarioEventKind.CONTEXT_SWITCH


# ----------------------------------------------------------------------
# references: the heap merge and the per-event fold
# ----------------------------------------------------------------------

def heap_events(model, seed, **bounds):
    """The per-event heap merge, as ``(at_us, kind)`` pairs."""
    return [tuple(event) for event in generate_events(model, seed, **bounds)]


_COSTS = {}


def reference_aggregate(model, spec, structure, seed, events, window_us):
    """Heap stream folded one event at a time through ``observe``."""
    key = (spec.name, structure)
    if key not in _COSTS:
        _COSTS[key] = CostModel(spec, structure).cost_us
    costs = _COSTS[key]
    aggregate = OnlineAggregate(window_us=window_us)
    for event in generate_events(model, seed, max_events=events):
        aggregate.observe(event.at_us, event.kind, costs[event.kind])
    return aggregate.payload()


def assert_replication_matches(model, spec, structure, seed, events,
                               window_us):
    row = run_replication(model, spec, structure, seed, events,
                          window_us=window_us)
    expected = reference_aggregate(model, spec, structure, seed, events,
                                   window_us)
    assert row["aggregate"] == expected
    assert row["aggregate_digest"] == aggregate_digest(expected)


def _pmap_model(name, gaps):
    """Deterministic-gap kinds: exact binary arrival times, so arrivals
    land exactly on window ends and tie across kinds."""
    return WorkloadModel(name=name, structure="mach2.5", inter_arrival_us={
        kind: ProbabilityMap(values=values,
                             probabilities=(1.0,) * len(values))
        for kind, values in gaps.items()})


def _mixed_model():
    return WorkloadModel(name="mixed", structure="mach2.5", inter_arrival_us={
        SYSCALL: Exponential(rate=0.02),
        TRAP: ProbabilityMap(values=(5.0, 40.0, 300.0),
                             probabilities=(0.5, 0.3, 0.2)),
        SWITCH: Lognormal(mu=4.0, sigma=1.2),
    })


@pytest.fixture(scope="module")
def session_trace_model():
    """Empirical probability maps fitted to a recorded appmix session."""
    from repro.obs.spans import InMemorySink
    from repro.workloads.appmix import run_session

    sink = InMemorySink()
    run_session(iterations=3, sink=sink, seed=6)
    model = fit_trace(sink.spans, name="appmix-trace")
    assert any(isinstance(dist, ProbabilityMap)
               for dist in model.inter_arrival_us.values())
    return model


# ----------------------------------------------------------------------
# block draws
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dist", [
    Exponential(rate=0.013),
    ProbabilityMap(values=(1.0, 2.5, 9.0, 40.0),
                   probabilities=(0.1, 0.4, 0.3, 0.2)),
    Lognormal(mu=1.5, sigma=0.8),
], ids=["exponential", "pmap", "lognormal"])
@pytest.mark.parametrize("n", [0, 1, 2, 33, 5_000])
def test_sample_many_equals_successive_samples(dist, n):
    block_rng, scalar_rng = rng_for(11, "block"), rng_for(11, "block")
    block = dist.sample_many(block_rng, n)
    assert block.dtype.name == "float64" and len(block) == n
    assert block.tolist() == [dist.sample(scalar_rng) for _ in range(n)]
    assert block_rng.getstate() == scalar_rng.getstate()
    # and the streams stay in step afterwards
    assert dist.sample(block_rng) == dist.sample(scalar_rng)


def test_uniforms_equal_random_calls():
    block_rng, scalar_rng = rng_for(3, "u"), rng_for(3, "u")
    for n in (1, 2, 7, 4_096):
        assert uniforms(block_rng, n).tolist() == \
            [scalar_rng.random() for _ in range(n)]
    assert block_rng.getstate() == scalar_rng.getstate()


# ----------------------------------------------------------------------
# chunked generation
# ----------------------------------------------------------------------

def _flatten(model, seed, **bounds):
    return [(at, ALL_KINDS[kind])
            for at_us, kinds in generate_chunks(model, seed, **bounds)
            for at, kind in zip(at_us.tolist(), kinds.tolist())]


def _models():
    mono, kern = fit_table7_pair("andrew-local")
    ties = _pmap_model("ties", {SYSCALL: (50.0,), TRAP: (100.0,),
                                SWITCH: (25.0, 50.0)})
    # zero gaps: a kind's next arrival can equal the frontier itself
    zero = _pmap_model("zero", {SYSCALL: (0.0, 50.0), TRAP: (50.0,),
                                SWITCH: (0.0, 25.0)})
    return [mono, kern, _mixed_model(), ties, zero]


@pytest.mark.parametrize("chunk", [1, 7, generator.CHUNK_EVENTS])
def test_generate_chunks_equals_heap_merge_under_max_events(monkeypatch,
                                                            chunk):
    monkeypatch.setattr(generator, "CHUNK_EVENTS", chunk)
    for model in _models():
        for seed, events in itertools.product((0, 5), (0, 1, 9, 3_000)):
            assert _flatten(model, seed, max_events=events) == \
                heap_events(model, seed, max_events=events)


@pytest.mark.parametrize("chunk", [1, 7, generator.CHUNK_EVENTS])
def test_generate_chunks_equals_heap_merge_under_horizon(monkeypatch, chunk):
    monkeypatch.setattr(generator, "CHUNK_EVENTS", chunk)
    for model in _models():
        for horizon in (0.0, 50.0, 100.0, 2_500.0, 250_000.0):
            assert _flatten(model, 2, horizon_us=horizon) == \
                heap_events(model, 2, horizon_us=horizon)
    # both bounds together: whichever binds first
    model = _models()[0]
    assert _flatten(model, 4, max_events=40, horizon_us=1e9) == \
        heap_events(model, 4, max_events=40, horizon_us=1e9)


def test_generate_chunks_shapes_and_tie_order():
    chunks = list(generate_chunks(
        _pmap_model("ties", {SYSCALL: (50.0,), TRAP: (50.0,)}), 0,
        max_events=2 * generator.CHUNK_EVENTS + 3))
    assert all(len(at) <= generator.CHUNK_EVENTS for at, _ in chunks)
    assert all(at.dtype.name == "float64" and kind.dtype.name == "int8"
               for at, kind in chunks)
    at, kind = chunks[0]
    # equal times across kinds break on the canonical kind order
    assert at[:4].tolist() == [50.0, 50.0, 100.0, 100.0]
    assert kind[:4].tolist() == [KIND_ORDER[SYSCALL], KIND_ORDER[TRAP]] * 2


def test_generate_events_stays_a_generator_function():
    assert inspect.isgeneratorfunction(generate_events)


# ----------------------------------------------------------------------
# chunked replication vs the per-event observe fold
# ----------------------------------------------------------------------

def _sweep_cases():
    cases = []
    for workload in ("andrew-local", "spellcheck-1"):
        for arch in DEFAULT_SWEEP_ARCHES:
            for structure in OSStructure:
                for seed, events, window_us in itertools.product(
                        (0, 1), (1, 7, 2_000), (10_000.0, 137.0)):
                    cases.append((workload, arch, structure, seed, events,
                                  window_us))
    return cases


_SWEEP = _sweep_cases()


@pytest.fixture(scope="module")
def workload_models():
    return {workload: dict(zip(OSStructure, fit_table7_pair(workload)))
            for workload in ("andrew-local", "spellcheck-1")}


def test_sweep_has_at_least_200_cases():
    assert len(_SWEEP) >= 200


@pytest.mark.parametrize("case", _SWEEP, ids=lambda c: "-".join(map(str, c)))
def test_chunked_replication_equals_per_event_fold(workload_models, case):
    workload, arch, structure, seed, events, window_us = case
    assert_replication_matches(workload_models[workload][structure],
                               get_arch(arch), structure, seed, events,
                               window_us)


@pytest.mark.parametrize("arch", DEFAULT_SWEEP_ARCHES)
def test_long_replication_equals_per_event_fold(workload_models, arch):
    model = workload_models["andrew-local"][OSStructure.KERNELIZED]
    assert_replication_matches(model, get_arch(arch),
                               OSStructure.KERNELIZED, 3, 20_000, 10_000.0)


@pytest.mark.parametrize("structure", list(OSStructure))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_session_probability_map_replication(session_trace_model,
                                             structure, seed):
    for arch in DEFAULT_SWEEP_ARCHES:
        assert_replication_matches(session_trace_model, get_arch(arch),
                                   structure, seed, 1_500, 1_000.0)


@pytest.mark.parametrize("window_us", [25.0, 50.0, 100.0, 10.0])
def test_window_boundaries_ties_and_empty_windows(window_us):
    """Arrivals exactly on window ends, equal-time ties across kinds,
    and (for the 10 us window) runs of empty windows between events."""
    spec = get_arch("r3000")
    for gaps in ({SYSCALL: (50.0,), TRAP: (100.0,),
                  SWITCH: (25.0, 50.0, 200.0)},
                 {SYSCALL: (0.0, 50.0), TRAP: (50.0,), SWITCH: (0.0, 25.0)}):
        model = _pmap_model("edges", gaps)
        for structure in OSStructure:
            for events in (1, 2, 3, 50, 5_000):
                assert_replication_matches(model, spec, structure, 0, events,
                                           window_us)
    row = run_replication(_pmap_model("edges", {SYSCALL: (50.0,)}), spec,
                          OSStructure.MONOLITHIC, 0, 200,
                          window_us=window_us)
    assert row["aggregate"]["utilization"]["windows"] > 0


def test_chunk_size_one(monkeypatch, workload_models):
    monkeypatch.setattr(generator, "CHUNK_EVENTS", 1)
    spec = get_arch("sparc")
    for structure in OSStructure:
        model = workload_models["andrew-local"][structure]
        for events, window_us in ((1, 10_000.0), (300, 10_000.0),
                                  (300, 137.0)):
            assert_replication_matches(model, spec, structure, 4, events,
                                       window_us)
    assert_replication_matches(_mixed_model(), spec, OSStructure.MONOLITHIC,
                               1, 400, 50.0)


def test_observe_chunk_with_empty_chunk_is_a_no_op():
    aggregate = OnlineAggregate()
    aggregate.observe_chunk(np.empty(0), np.empty(0, np.int8),
                            np.zeros(len(ALL_KINDS)))
    assert aggregate.payload() == OnlineAggregate().payload()


@pytest.mark.parametrize("block", [1, 2, 256])
def test_window_blocks_equal_per_event_fold(monkeypatch, workload_models,
                                            block):
    """Closing windows a few at a time, with open windows carried
    across blocks and chunks, changes no bit of the aggregate."""
    monkeypatch.setattr(sketches, "WINDOW_BLOCK", block)
    monkeypatch.setattr(generator, "CHUNK_EVENTS", 64)
    spec = get_arch("r2000")
    for structure in OSStructure:
        model = workload_models["andrew-local"][structure]
        for events, window_us in ((1, 10_000.0), (40, 3.0), (2_000, 137.0)):
            assert_replication_matches(model, spec, structure, 5, events,
                                       window_us)
    edges = _pmap_model("edges", {SYSCALL: (50.0,), TRAP: (100.0,),
                                  SWITCH: (0.0, 25.0)})
    for window_us in (10.0, 25.0):
        assert_replication_matches(edges, spec, OSStructure.MONOLITHIC, 0,
                                   300, window_us)


def test_short_windows_keep_memory_bounded(monkeypatch):
    """A window far shorter than the event spacing: one chunk crosses
    ~10^4 windows, closed WINDOW_BLOCK at a time, so the peak follows
    the block, not the windows crossed."""
    monkeypatch.setattr(sketches, "WINDOW_BLOCK", 256)
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    run_replication(model, spec, OSStructure.MONOLITHIC, 0, 10,
                    window_us=1.0)  # warm
    tracemalloc.start()
    row = run_replication(model, spec, OSStructure.MONOLITHIC, 7, 60,
                          window_us=1.0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert row["aggregate"]["utilization"]["windows"] > 10_000
    assert peak < 256 * 1024  # one 10^4-window block would be ~3x this


_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from repro.arch import get_arch
from repro.obs.spans import InMemorySink
from repro.os_models.mach import OSStructure
from repro.scenarios import fit_table7, run_replication
from repro.workloads.appmix import run_session
run_session(iterations=1, sink=InMemorySink(), seed=1)
model = fit_table7("andrew-local", OSStructure.KERNELIZED)
row = run_replication(model, get_arch("sparc"), OSStructure.KERNELIZED,
                      3, 3_000, window_us=137.0)
print(json.dumps(row["aggregate_digest"]))
"""


def test_scenarios_run_without_numpy():
    """Without numpy, appmix sessions and scenario replications still
    run (per event), and give the chunked path's digest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                         capture_output=True, text=True, check=True)
    model = fit_table7("andrew-local", OSStructure.KERNELIZED)
    row = run_replication(model, get_arch("sparc"), OSStructure.KERNELIZED,
                          3, 3_000, window_us=137.0)
    assert json.loads(out.stdout) == row["aggregate_digest"]
