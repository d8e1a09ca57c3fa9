"""Host profiler: phases, sampler, bit-identical cycles."""

import json
import time

import pytest

from repro.graph import powerlaw_graph
from repro.obs.profile import (OP_BUCKETS, PhaseProfiler, StackSampler,
                               disable_profiling, enable_profiling,
                               get_profiler, phase, profiling_enabled)
from repro.runtime import AlgorithmSpec, BatchEngine, GraphSpec, JobSpec
from repro.sim import GPUConfig


@pytest.fixture
def global_profiler():
    """Enable the process-global profiler for one test, then restore."""
    was_enabled = profiling_enabled()
    profiler = enable_profiling()
    profiler.clear()
    yield profiler
    profiler.clear()
    if not was_enabled:
        disable_profiling()


def tiny_job():
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=2),
        graph=GraphSpec.inline(powerlaw_graph(120, 500, seed=1),
                               name="pl-a"),
        schedule="sparseweaver",
        config=GPUConfig.vortex_tiny(),
        max_iterations=2,
    )


# ----------------------------------------------------------------------
# PhaseProfiler accumulators
# ----------------------------------------------------------------------
def test_add_accumulates_seconds_and_calls():
    p = PhaseProfiler(enabled=True)
    p.add("schedule", 0.25)
    p.add("schedule", 0.75, calls=3)
    assert p.phases["schedule"] == [1.0, 4]


def test_add_op_feeds_execute_phase_and_histogram():
    p = PhaseProfiler(enabled=True)
    p.add_op("LOAD", 2e-6)
    p.add_op("LOAD", 2e-5)
    p.add_op("STORE", 1e-3)
    assert p.phases["execute"][1] == 3
    assert p.ops["LOAD"][1] == 2
    assert sum(p.ops["LOAD"][2]) == 2
    # 1e-3 is exactly a bucket bound; bisect_left keeps it inside.
    assert sum(p.ops["STORE"][2]) == 1


def test_coverage_excludes_nested_phases():
    p = PhaseProfiler(enabled=True)
    p.add("execute", 0.6)
    p.add("schedule", 0.3)
    p.add("mem/access", 0.5)  # nested inside execute: not re-counted
    p.end_kernel(cycles=1000, wall_seconds=1.0)
    assert p.coverage() == pytest.approx(0.9)
    assert p.cycles_per_wall_second() == pytest.approx(1000.0)


def test_summary_orders_phases_and_computes_op_percentiles():
    p = PhaseProfiler(enabled=True)
    p.add("schedule", 0.1)
    p.add("execute", 0.0)
    for _ in range(99):
        p.add_op("LOAD", 2e-6)
    p.add_op("LOAD", 5e-3)
    p.end_kernel(cycles=10, wall_seconds=0.2)
    data = p.summary()
    assert data["phases"][0]["phase"] == "schedule"
    (op,) = data["ops"]
    assert op["op"] == "LOAD" and op["calls"] == 100
    assert op["p50_us"] == pytest.approx(2.5)   # bucket upper bound
    assert op["p99_us"] == pytest.approx(2.5)
    assert data["kernels"] == 1
    assert "schedule" in p.format()


def test_snapshot_merge_round_trip():
    a = PhaseProfiler(enabled=True)
    a.add("schedule", 0.5, calls=7)
    a.add_op("LOAD", 3e-6)
    a.end_kernel(cycles=500, wall_seconds=1.0)
    b = PhaseProfiler(enabled=True)
    b.merge_snapshot(json.loads(json.dumps(a.snapshot())))
    b.merge_snapshot(a.snapshot())
    assert b.kernels == 2
    assert b.sim_cycles == 1000
    assert b.phases["schedule"] == [1.0, 14]
    assert b.ops["LOAD"][1] == 2


def test_merge_snapshot_noop_when_disabled():
    src = PhaseProfiler(enabled=True)
    src.add("schedule", 1.0)
    dst = PhaseProfiler(enabled=False)
    dst.merge_snapshot(src.snapshot())
    assert not dst.phases


def test_merge_snapshot_rejects_bucket_mismatch():
    src = PhaseProfiler(enabled=True)
    src.add_op("LOAD", 1e-6)
    snap = src.snapshot()
    snap["profile"]["ops"]["LOAD"]["counts"] = [1, 2]
    dst = PhaseProfiler(enabled=True)
    with pytest.raises(ValueError, match="bucket mismatch"):
        dst.merge_snapshot(snap)


def test_save_writes_mergeable_snapshot(tmp_path):
    p = PhaseProfiler(enabled=True)
    p.add("execute", 0.5)
    path = p.save(tmp_path / "deep" / "profile.json")
    doc = json.loads(path.read_text())
    assert doc["profile"]["phases"]["execute"]["seconds"] == 0.5


# ----------------------------------------------------------------------
# phase() context manager + global switches
# ----------------------------------------------------------------------
def test_phase_contextmanager_records_only_when_enabled(global_profiler):
    with phase("stats/merge"):
        pass
    assert global_profiler.phases["stats/merge"][1] == 1
    disable_profiling()
    with phase("stats/merge"):
        pass
    assert global_profiler.phases["stats/merge"][1] == 1


def test_enable_profiling_exports_env(global_profiler):
    import os

    assert os.environ.get("REPRO_PROFILE") == "1"
    assert get_profiler() is global_profiler
    disable_profiling()
    assert "REPRO_PROFILE" not in os.environ


# ----------------------------------------------------------------------
# The simulator contract: off = bit-identical, on = covered
# ----------------------------------------------------------------------
def test_cycles_bit_identical_with_profiler_on_and_off():
    assert not profiling_enabled()
    baseline = tiny_job().execute().stats.total_cycles
    try:
        profiler = enable_profiling()
        profiler.clear()
        profiled = tiny_job().execute().stats.total_cycles
        assert profiler.kernels > 0
        assert profiler.coverage() >= 0.90
        assert profiled == baseline
    finally:
        get_profiler().clear()
        disable_profiling()


def test_pool_workers_ship_profile_snapshots(global_profiler):
    engine = BatchEngine(jobs=2, cache=None)
    outcomes = engine.run([tiny_job()])
    assert all(o.status == "ok" for o in outcomes)
    assert global_profiler.kernels > 0
    assert "execute" in global_profiler.phases


# ----------------------------------------------------------------------
# StackSampler
# ----------------------------------------------------------------------
def _burn(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def test_sampler_collapsed_and_trace_events(tmp_path):
    sampler = StackSampler(interval=0.001)
    with sampler:
        _burn(time.perf_counter() + 0.25)
    assert sampler.samples, "no samples in 250ms of busy work"
    lines = sampler.collapsed()
    assert any("_burn" in line for line in lines)
    head = lines[0].rsplit(" ", 1)
    assert head[1].isdigit() and ";" in head[0]
    path = sampler.save_collapsed(tmp_path / "flame.collapsed")
    assert path.read_text().strip()

    events = sampler.trace_events(epoch=sampler.samples[0][0])
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["cat"] == "host_sample" for e in spans)
    assert all(e["ts"] >= 0 for e in spans)
    # Metadata rows name the synthetic sampler process.
    assert any(e["ph"] == "M" and e["name"] == "process_name"
               for e in events)


def test_sampler_stop_is_idempotent_and_bounded():
    sampler = StackSampler(interval=0.001, max_samples=3)
    sampler.start()
    sampler.start()  # idempotent
    _burn(time.perf_counter() + 0.05)
    sampler.stop()
    sampler.stop()
    assert len(sampler.samples) <= 3
    assert sampler.trace_events() == [] or sampler.samples


def test_sampler_trace_events_empty_without_samples():
    assert StackSampler().trace_events() == []


def test_op_buckets_are_sorted():
    assert list(OP_BUCKETS) == sorted(OP_BUCKETS)


def test_merge_snapshot_tolerates_dead_worker_payloads():
    """Regression: a worker that died before its first phase ships
    None, a non-dict, or a snapshot whose 'profile' is None/empty —
    merging any of those must be a silent no-op, never a raise."""
    dst = PhaseProfiler(enabled=True)
    dst.add("schedule", 1.0, calls=2)
    for snap in (None, "garbage", 7, {}, {"profile": None},
                 {"profile": {}}):
        dst.merge_snapshot(snap)
    assert dst.phases["schedule"] == [1.0, 2]
    assert dst.kernels == 0


# ----------------------------------------------------------------------
# Percentile estimation over bucketed histograms
# ----------------------------------------------------------------------
def test_percentile_from_counts_basic():
    from repro.obs.profile import percentile_from_counts

    bounds = (1.0, 2.0, 4.0)
    counts = [5, 3, 1, 1]  # <=1, <=2, <=4, overflow
    assert percentile_from_counts(bounds, counts, 50) == 1.0
    assert percentile_from_counts(bounds, counts, 80) == 2.0
    assert percentile_from_counts(bounds, counts, 90) == 4.0
    # The overflow bucket has no upper bound; report the last finite.
    assert percentile_from_counts(bounds, counts, 100) == 4.0


def test_percentile_from_counts_edges():
    from repro.obs.profile import percentile_from_counts

    assert percentile_from_counts((1.0, 2.0), [0, 0, 0], 50) == 0.0
    # q=0 lands in the first non-empty bucket.
    assert percentile_from_counts((1.0, 2.0), [0, 3, 0], 0) == 2.0
    with pytest.raises(ValueError):
        percentile_from_counts((1.0,), [1, 0], 101)
    with pytest.raises(ValueError):
        percentile_from_counts((1.0,), [1, 0], -1)
