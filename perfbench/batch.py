"""The three batch workloads: sweep-cold, tables-cold and scenario-sweep.

The benchmark process spawns fresh Python children; each child imports
``repro``, sets its workload up, reports ready (setup ends there), runs
timed operations through the public entry points, and reports its
operation times, output checks and peak memory as one JSON line.
In a traced run every other child installs the layer timers
(:mod:`tracer`) after set-up, so the run also measures their overhead.

Run as ``python3 perfbench/batch.py child <json>`` (the benchmark does).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

import calibrate
import common
from common import BenchError, Child, emit

#: events per scenario replication.  A replication also pays a fixed
#: cost (a fresh ``CostModel``: handler synthesis and one
#: ``Executor.run`` per primitive, plus the store record), measured at
#: 15% of an operation with 2000 events and 2% with 20 000, where the
#: per-event generate, observe and pricing loop take the rest.  Larger
#: replications leave too few operations in a run to be steady (see
#: DESIGN.md).
SCENARIO_EVENTS = 20_000
#: events per replication of the set-up sweep, which only pays the
#: process's lazy set-up (imports, first handler synthesis).
WARM_EVENTS = 2000
SCENARIO_WORKLOAD = "andrew-local"
#: the acceptance ordering, cheapest kernelization first.
SCENARIO_ORDER = ("osfriendly", "r3000", "i860", "sparc", "cvax")
#: an OS share agrees with its closed form when within this many
#: half-widths of the pooled 95% interval; over a run's ~10 checks a
#: tighter bar would fail by chance (5% per check at one half-width).
CI_TOLERANCE = 3.0
#: processes per run of tables-cold and scenario-sweep.
PROCESSES = 12


def load_golden() -> Dict[str, Any]:
    with open(common.BENCH_DIR / "golden.json") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------

def _enable_trace(args: Dict[str, Any]):
    if not args["trace"]:
        return None
    from repro import obs

    import tracer

    obs.enable_metrics()
    return tracer.install(tracer.Tracer())


def _counters() -> Dict[str, float]:
    from repro import obs

    out: Dict[str, float] = {}
    for name, entry in obs.REGISTRY.snapshot().get("metrics", {}).items():
        if entry.get("kind") == "counter":
            out[name] = float(sum(entry.get("cells", {}).values()))
    return out


class Clock:
    """Times operations; the reference loop (:mod:`calibrate`), timed just
    before each operation, and the steal from the start of the first operation
    to the last convert them to reference-host units."""

    #: probing before an operation takes about this share of the last one
    PROBE_SHARE = 0.01
    MAX_PROBES = 9

    def __init__(self, trace) -> None:
        self.trace = trace
        self.raw: List[float] = []
        self.probes: List[float] = []
        self.steal = []

    def __call__(self, fn, *args):
        if not self.steal:
            self.steal.append(calibrate.steal_mark())
        budget_ms = self.PROBE_SHARE * self.raw[-1] * 1e3 if self.raw else 0.0
        spent_ms = 0.0
        for _ in range(self.MAX_PROBES):
            self.probes.append(calibrate.probe_ms())
            spent_ms += self.probes[-1]
            if spent_ms >= budget_ms:
                break
        t0 = time.perf_counter()
        value = self.trace.span("op", fn, *args) if self.trace else fn(*args)
        self.raw.append(time.perf_counter() - t0)
        self.steal[1:] = [calibrate.steal_mark()]
        return value

    def scale(self) -> float:
        """One factor for the whole process, set-up included: right after
        set-up a process can run the loop up to 1.7x faster than during
        its operations, so no probes are taken during set-up."""
        return calibrate.scale_of(self.probes) * calibrate.available(*self.steal)


def child_sweep(args: Dict[str, Any]) -> Dict[str, Any]:
    """One cold grid sweep of the 384-point ``scaling`` space, one design
    point per strategy generation so each point is timed."""
    from repro.cluster.launch import frontier_fingerprint
    from repro.core.engine import default_engine
    from repro.explore.objectives import ObjectiveSchema
    from repro.explore.runner import ExploreRunner
    from repro.explore.space import scaling_space
    from repro.explore.store import ResultStore

    space = scaling_space()
    schema = ObjectiveSchema()
    store = ResultStore(args["wal"])
    default_engine()  # opens the empty on-disk tier named by REPRO_CACHE_DIR
    trace = _enable_trace(args)
    emit({"ready": True})
    clock = Clock(trace)
    before = _counters() if trace else {}

    class PointwiseGrid:
        """Grid order, one point per generation (each one timed)."""

        name = "grid"

        def run(self, space, evaluate, seed=0):
            for index in range(space.size):
                clock(evaluate, [index])

    result = ExploreRunner(space, schema, strategy=PointwiseGrid(),
                           store=store).run(seed=args["seed"])
    fingerprint = frontier_fingerprint(store, schema)
    errors = []
    stored = min(len(result.trials), fingerprint["trials"])
    failed = space.size - stored  # a point not stored failed
    if failed:
        errors.append(f"sweep stored {stored} of {space.size} trials")
    if fingerprint["digest"] != load_golden()["frontier_digest"]:
        # a wrong frontier is not traced to single points: all failed
        failed = space.size
        errors.append(f"frontier digest {fingerprint['digest']} differs from the golden")
    return _report(trace, before, clock, units=space.size,
                   failed=failed, errors=errors)


def child_tables(args: Dict[str, Any]) -> Dict[str, Any]:
    """Cold seven-table renders, each through a fresh memory-only engine."""
    from repro.analysis.runner import render_all
    from repro.core.engine import ExperimentEngine

    golden = load_golden()["table_digests"]
    exact = {n: (common.ROOT / "tests" / "goldens" / f"table{n}.txt").read_text()
             for n in (1, 2)}
    errors: List[str] = []

    def check(texts) -> int:
        bad = [n for n in range(1, 8)
               if sha256(texts[n]) != golden[str(n)]
               or (n in exact and texts[n].strip() != exact[n].strip())]
        if bad and len(errors) < 3:
            errors.append(f"tables {bad} differ from the goldens")
        return int(bool(bad))

    # the first render pays the process's lazy set-up: it belongs to set-up
    failed = check(render_all(engine=ExperimentEngine()))
    trace = _enable_trace(args)
    emit({"ready": True})
    clock = Clock(trace)
    before = _counters() if trace else {}
    deadline = time.perf_counter() + args["budget"]
    while not clock.raw or time.perf_counter() < deadline:
        failed += check(clock(lambda: render_all(engine=ExperimentEngine())))
    return _report(trace, before, clock, units=len(clock.raw),
                   failed=failed, errors=errors)


def child_scenarios(args: Dict[str, Any]) -> Dict[str, Any]:
    """Kernelization sweeps of one architecture and one seed (both OS
    structures), cycling through the five architectures."""
    from repro.explore.store import ResultStore
    from repro.scenarios.fitters import fit_table7_pair
    from repro.scenarios.report import kernelization_sweep, sweep_specs

    models = fit_table7_pair(SCENARIO_WORKLOAD)
    specs = sweep_specs(SCENARIO_ORDER)
    pooled: Dict[str, Any] = {"share": {}, "expected": {}, "cost": {}}

    def sweep(arches, seed: int, events: int = SCENARIO_EVENTS):
        return kernelization_sweep(
            SCENARIO_WORKLOAD, arches, seeds=[seed], events=events,
            store=ResultStore(), models=models)

    def pool(report) -> List[str]:
        digests = []
        for result in report.results:
            pooled["cost"].setdefault(result.arch_name, []).extend(
                result.cost_values())
            for run in (result.monolithic, result.kernelized):
                cell = f"{run.arch_name}/{run.structure}"
                pooled["share"].setdefault(cell, []).extend(run.os_share_values())
                pooled["expected"][cell] = run.expected_os_share
                digests.extend(r["aggregate_digest"] for r in run.records)
        return digests

    # a small first sweep pays the process's lazy set-up: it belongs to
    # set-up and is not pooled (its replications are much shorter)
    sweep(specs, args["seed_base"], WARM_EVENTS)
    trace = _enable_trace(args)
    emit({"ready": True})
    clock = Clock(trace)
    before = _counters() if trace else {}
    deadline = time.perf_counter() + args["budget"]
    arches: List[str] = []
    first_digest = ""
    while not clock.raw or time.perf_counter() < deadline:
        # one architecture per operation, each seed over all five in turn
        i = len(clock.raw)
        spec = specs[(args["first_arch"] + i) % len(specs)]
        digests = pool(clock(sweep, [spec],
                             args["seed_base"] + 1 + i // len(specs)))
        arches.append(spec.name)
        if i == 0:
            first_digest = sha256("\n".join(digests))
    events = len(clock.raw) * 2 * SCENARIO_EVENTS
    # failures are found by the pooled checks (``check_scenarios``)
    out = _report(trace, before, clock, units=events, failed=0, errors=[])
    out.update(pooled=pooled, first_digest=first_digest, arches=arches)
    return out


def _report(trace, before, clock: Clock, *, units, failed, errors) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "times": [t * clock.scale() for t in clock.raw], "raw": clock.raw,
        "setup_scale": clock.scale(),
        "units": units, "failed": failed, "errors": errors,
        "peak_rss_mib": common.self_peak_rss_mib(), "traced": bool(trace),
    }
    if trace:
        trace.uninstall()
        snap = trace.snapshot()
        after = _counters()
        snap["counters"] = {k: v - before.get(k, 0.0) for k, v in after.items()}
        out["trace"] = snap
    return out


CHILDREN = {"sweep-cold": child_sweep, "tables-cold": child_tables,
            "scenario-sweep": child_scenarios}


# ----------------------------------------------------------------------
# benchmark side
# ----------------------------------------------------------------------

def _spawn(workload: str, args: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one child to completion: its setup time and its report."""
    child = Child([str(common.BENCH_DIR / "batch.py"), "child",
                   json.dumps({"workload": workload, **args})], env)
    try:
        child.read_json()  # ready
        setup = time.perf_counter() - child.started
        report = child.read_json()
        if child.finish() != 0:
            raise BenchError(f"{workload} child exited non-zero")
    except BaseException:
        child.kill()
        raise
    report["raw_setup_s"] = setup
    report["setup_s"] = setup * report["setup_scale"]
    return report


def run(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """All children of one run, in order; traced runs alternate timers
    off/on so the overhead compares like with like."""
    reports: List[Dict[str, Any]] = []
    if workload == "sweep-cold":
        work = common.WORK / workload
        roots = []
        deadline = time.perf_counter() + seconds
        try:
            while len(reports) < 2 or time.perf_counter() < deadline:
                roots.append(work / str(time.time_ns()))
                roots[-1].mkdir(parents=True)
                env = common.child_env(REPRO_CACHE_DIR=str(roots[-1] / "cache"))
                reports.append(_spawn(workload, {
                    "seed": seed, "trace": trace and len(reports) % 2 == 1,
                    "wal": str(roots[-1] / "trials.jsonl")}, env))
                os.sync()  # the sweep's entries, before the next sweep starts
        finally:
            # Every sweep gets fresh, empty tiers.  Its files are emptied
            # after the run's window, never deleted: ext4 without a journal
            # skips inodes freed in the last one to five minutes when it
            # allocates, at a cost per skipped inode, so after a deletion
            # every file a sweep creates costs up to 20x more kernel time
            # and a run would measure how long ago the previous one ended.
            cleanup = _empty(roots)
        reports[0]["cleanup"] = cleanup
        return reports
    # many short processes: even in reference-host units one process
    # runs a few per cent faster or slower than the next (its memory
    # layout), so a run pools twelve of them
    for n in range(PROCESSES):
        reports.append(_spawn(workload, {
            "seed": seed, "trace": trace and n % 2 == 1,
            "budget": seconds / PROCESSES, "first_arch": n,
            "seed_base": seed * 1_000_000 + n * 100_000}, common.child_env()))
    return reports


def _empty(roots) -> Dict[str, Any]:
    """Truncate every file of a run's sweep tiers (their inodes stay
    allocated); what was emptied, and how long it took."""
    files = 0
    t0 = time.perf_counter()
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                os.truncate(os.path.join(dirpath, name), 0)
                files += 1
    os.sync()
    return {"files": files, "seconds": time.perf_counter() - t0}


def check_scenarios(reports: List[Dict[str, Any]],
                    seed: int) -> Tuple[List[str], int]:
    """Pooled checks: ordering, OS shares against their closed form, and
    the default seed's pinned aggregate digests.  Returns the errors and
    the number of operations that failed them: every operation of an
    architecture whose share is off, all of them when the ordering is
    wrong, and the pinned first operation when its digest differs."""
    from repro.scenarios.sketches import confidence_interval

    errors: List[str] = []
    share: Dict[str, List[float]] = {}
    cost: Dict[str, List[float]] = {}
    expected: Dict[str, float] = {}
    ops: Dict[str, int] = {}
    for report in reports:
        pooled = report["pooled"]
        for cell, values in pooled["share"].items():
            share.setdefault(cell, []).extend(values)
        for arch, values in pooled["cost"].items():
            cost.setdefault(arch, []).extend(values)
        expected.update(pooled["expected"])
        for arch in report["arches"]:
            ops[arch] = ops.get(arch, 0) + 1
    bad = set()
    order = sorted(cost, key=lambda a: sum(cost[a]) / len(cost[a]))
    if tuple(order) != SCENARIO_ORDER:
        errors.append(f"kernelization ordering {order} != {list(SCENARIO_ORDER)}")
        bad.update(ops)
    for cell, values in sorted(share.items()):
        if len(values) < 2:
            continue
        ci = confidence_interval(values)
        if abs(ci["mean"] - expected[cell]) > CI_TOLERANCE * ci["half_width"]:
            errors.append(f"{cell}: sampled OS share {ci['mean']:.5f} "
                          f"+-{ci['half_width']:.5f} vs expected {expected[cell]:.5f}")
            bad.add(cell.split("/")[0])
    failed = sum(ops.get(arch, 0) for arch in bad)
    if seed == 0 and reports[0]["first_digest"] != load_golden()["scenario_digest"]:
        errors.append("default-seed aggregate digests differ from the golden")
        failed += reports[0]["arches"][0] not in bad
    return errors, failed


def main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] != "child":
        print("usage: batch.py child <json>", file=sys.stderr)
        return 2
    common.require_checkout()
    args = json.loads(argv[1])
    emit(CHILDREN[args["workload"]](args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
