"""Batch engine: parallel == serial, caching, failures, wall times.

The worker-crash helper lives at module top level so
``ProcessPoolExecutor`` can pickle it by reference.
"""

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runtime.engine as engine_mod
from repro.errors import ReproError
from repro.graph import powerlaw_graph
from repro.figures import FailureReport
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobSpec,
                           ResultCache, RunJournal)
from repro.sim import GPUConfig

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "sparseweaver"]


def tiny_grid_specs():
    algorithm = AlgorithmSpec.of("pagerank", iterations=2)
    graphs = {
        "pl-a": powerlaw_graph(120, 500, seed=1),
        "pl-b": powerlaw_graph(150, 600, seed=2),
    }
    return [
        JobSpec(
            algorithm=algorithm,
            graph=GraphSpec.inline(graph, name=name),
            schedule=sched,
            config=GPUConfig.vortex_tiny(),
            max_iterations=2,
        )
        for name, graph in graphs.items()
        for sched in SCHEDULES
    ]


def bad_spec():
    """A job that fails inside the run: its schedule does not exist."""
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.inline(powerlaw_graph(60, 200, seed=3)),
        schedule="no_such_schedule",
        config=GPUConfig.vortex_tiny(),
    )


def _always_crash(spec):
    """Kill the worker running the job."""
    os._exit(42)


# ----------------------------------------------------------------------
def test_parallel_matches_serial_cycles():
    specs = tiny_grid_specs()
    serial = BatchEngine(jobs=1).run(specs)
    parallel = BatchEngine(jobs=4).run(specs)
    assert [o.status for o in parallel] == ["ok"] * len(specs)
    assert ([o.summary.total_cycles for o in serial]
            == [o.summary.total_cycles for o in parallel])
    assert ([o.summary.values_digest for o in serial]
            == [o.summary.values_digest for o in parallel])


def test_parallel_metrics_match_serial():
    """Each job carries its simulator metrics home in its
    ``KernelStats`` summary (cycles, phase and stall cycles, op counts,
    cache hits and misses), across the pool's process boundary as well
    as in-process."""
    specs = tiny_grid_specs()[:2]
    serial = BatchEngine(jobs=1).run(specs)
    parallel = BatchEngine(jobs=2).run(specs)
    assert [o.status for o in serial] == ["ok"] * len(specs)
    assert [o.status for o in parallel] == ["ok"] * len(specs)
    serial_stats = [o.summary.stats.to_summary_dict() for o in serial]
    parallel_stats = [o.summary.stats.to_summary_dict() for o in parallel]
    assert all(s["total_cycles"] > 0 for s in serial_stats)
    assert serial_stats == parallel_stats


def test_outcomes_preserve_submission_order():
    specs = tiny_grid_specs()
    outcomes = BatchEngine(jobs=4).run(specs)
    assert [o.spec.content_hash() for o in outcomes] == [
        s.content_hash() for s in specs
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_spec_runs_once(jobs, tmp_path, monkeypatch):
    """A spec given twice is one job: one simulation, one journal line
    under a header that counts one job, and its outcome at both
    positions."""
    if jobs == 1:
        runs = []
        execute = engine_mod._execute_spec

        def counting_execute(spec):
            runs.append(spec.label)
            return execute(spec)

        monkeypatch.setattr(engine_mod, "_execute_spec", counting_execute)
    spec, other = tiny_grid_specs()[:2]
    path = tmp_path / "run.jsonl"
    outcomes = BatchEngine(jobs=jobs, journal=RunJournal(path)).run(
        [spec, other, spec])
    assert [o.status for o in outcomes] == ["ok"] * 3
    assert outcomes[2] is outcomes[0]
    assert outcomes[1].spec is other
    header, *lines = map(json.loads, path.read_text().splitlines())
    assert header["jobs"] == 2
    assert sorted(line["hash"] for line in lines) == sorted(
        s.content_hash() for s in (spec, other))
    if jobs == 1:
        assert runs == [spec.label, other.label]
    summary = FailureReport.from_outcomes(outcomes).format_summary(0.0)
    assert "2 submitted, 2 simulated" in summary


def test_warm_cache_runs_zero_simulations(tmp_path):
    specs = tiny_grid_specs()
    cache = ResultCache(tmp_path / "cache")
    cold = BatchEngine(jobs=4, cache=cache).run(specs)
    assert [o.status for o in cold] == ["ok"] * len(specs)
    assert (cache.hits, cache.stores) == (0, len(specs))

    warm = BatchEngine(jobs=4, cache=cache).run(specs)
    assert [o.status for o in warm] == ["cached"] * len(specs)
    assert cache.hits == len(specs)
    assert cache.stores == len(specs)  # zero simulations
    assert ([o.summary.total_cycles for o in warm]
            == [o.summary.total_cycles for o in cold])
    summary = FailureReport.from_outcomes(warm).format_summary(0.0, cache)
    assert f"0 simulated, {len(specs)} cached" in summary
    assert f"cache: {len(specs)} hits" in summary


def test_repeated_crash_becomes_structured_failure(monkeypatch):
    monkeypatch.setattr(engine_mod, "_execute_spec", _always_crash)
    outcomes = BatchEngine(jobs=2).run(tiny_grid_specs()[:1])
    assert outcomes[0].status == "failed"
    assert "crashed" in outcomes[0].error


def test_in_worker_exception_fails_without_retry():
    outcomes = BatchEngine(jobs=2).run(
        [bad_spec()] + tiny_grid_specs()[:1])
    assert [o.status for o in outcomes] == ["failed", "ok"]
    assert outcomes[0].error.startswith("ScheduleError:")
    assert "no_such_schedule" in outcomes[0].error
    assert outcomes[0].wall_seconds > 0  # timed in the worker that ran it
    report = FailureReport.from_outcomes(outcomes)
    assert "1 simulated, 0 cached, 1 failed" in report.format_summary(0.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fail_fast_skips_unfinished_jobs(jobs):
    engine = BatchEngine(jobs=jobs, fail_fast=True)
    outcomes = engine.run([bad_spec()] + tiny_grid_specs()[:3])
    assert outcomes[0].status == "failed"
    assert all(o.status in ("ok", "skipped") for o in outcomes[1:])
    assert any(o.status == "skipped" for o in outcomes[1:])
    skipped = [o for o in outcomes if o.status == "skipped"]
    assert all(not o.ok and "fail_fast" in o.error for o in skipped)
    if jobs == 1:
        assert [o.status for o in outcomes] == ["failed"] + ["skipped"] * 3
        summary = FailureReport.from_outcomes(outcomes).format_summary(0.0)
        assert "0 simulated, 0 cached, 1 failed, 3 skipped" in summary


def test_crash_during_submit_fails_only_that_job(monkeypatch):
    """A worker that dies while the batch is being submitted fails the
    job whose submit found the pool broken; the batch goes on."""
    class BreaksOnSecondSubmit(engine_mod.ProcessPoolExecutor):
        submits = 0

        def submit(self, *args, **kwargs):
            BreaksOnSecondSubmit.submits += 1
            if BreaksOnSecondSubmit.submits == 2:
                raise BrokenProcessPool("a worker died")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                        BreaksOnSecondSubmit)
    outcomes = BatchEngine(jobs=2).run(tiny_grid_specs()[:3])
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
    assert "crashed" in outcomes[1].error


def test_parallel_wall_is_measured_in_the_worker(tmp_path):
    """Each job's wall time is its own run time, not its time since
    submission, so the walls of a parallel batch add up to no more
    than the batch's wall time per worker; the journal carries it."""
    specs = tiny_grid_specs()
    path = tmp_path / "run.jsonl"
    start = time.perf_counter()
    outcomes = BatchEngine(jobs=2, journal=RunJournal(path)).run(specs)
    batch_wall = time.perf_counter() - start
    assert [o.status for o in outcomes] == ["ok"] * len(specs)
    assert all(o.wall_seconds > 0 for o in outcomes)
    assert sum(o.wall_seconds for o in outcomes) <= 2 * batch_wall
    walls = {line["hash"]: line["wall"]
             for line in map(json.loads, path.read_text().splitlines())
             if "hash" in line}
    for outcome in outcomes:
        assert walls[outcome.spec.content_hash()] == pytest.approx(
            outcome.wall_seconds, abs=1e-6)


# ----------------------------------------------------------------------
def test_missing_baseline_raises_repro_error():
    from repro.bench.runner import ExperimentResult

    result = ExperimentResult(cycles={"g": {"edge_map": 10}})
    with pytest.raises(ReproError) as excinfo:
        result.speedups()
    assert "vertex_map" in str(excinfo.value)
    assert "edge_map" in str(excinfo.value)
