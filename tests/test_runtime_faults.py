"""Faults the batch runtime meets, provoked by hand.

A job body that raises (a monkeypatched ``_execute_spec``, in-process
and in a pool worker) fails that job alone, and the job runs once.  A
cache entry torn or garbled on disk is quarantined and counted as a
miss, and the next batch re-simulates it.

Pool workers are forked after the job body is monkeypatched, so they
run it too; it logs each call to a file, which every worker reaches.
"""

import repro.runtime.engine as engine_mod
from repro.figures import FailureReport
from repro.graph import powerlaw_graph
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobSpec,
                           ResultCache)
from repro.sim import GPUConfig

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "sparseweaver"]

_execute_spec = engine_mod._execute_spec


def tiny_specs(n=4):
    algorithm = AlgorithmSpec.of("pagerank", iterations=1)
    graph = GraphSpec.inline(powerlaw_graph(100, 400, seed=1), name="pl")
    return [
        JobSpec(algorithm=algorithm, graph=graph, schedule=sched,
                config=GPUConfig.vortex_tiny(), max_iterations=1)
        for sched in SCHEDULES[:n]
    ]


def _fatal_first_schedule(spec):
    """The job body, raising for the first schedule's job only."""
    if spec.schedule == SCHEDULES[0]:
        raise RuntimeError("injected fatal")
    return _execute_spec(spec)


def _logged(log):
    """``_fatal_first_schedule``, logging each call to the file ``log``."""
    def body(spec):
        with open(log, "a") as handle:
            handle.write(spec.schedule + "\n")
        return _fatal_first_schedule(spec)
    return body


def _tear(path):
    """Cut a cache entry off mid-write."""
    path.write_text(path.read_text()[:40])


def _garble(path):
    """Overwrite a few bytes in the middle of a cache entry."""
    text = path.read_text()
    mid = len(text) // 2
    path.write_text(text[:mid] + "\x00###\x00" + text[mid + 5:])


# ------------------------------------------------------- failing jobs
def test_serial_fatal_fails_without_retry(monkeypatch, tmp_path):
    log = tmp_path / "calls.txt"
    monkeypatch.setattr(engine_mod, "_execute_spec", _logged(log))
    outcomes = BatchEngine(jobs=1).run(tiny_specs(2))
    assert outcomes[0].status == "failed"
    assert outcomes[0].error == "RuntimeError: injected fatal"
    assert log.read_text().split() == SCHEDULES[:2]  # each job runs once
    assert outcomes[1].status == "ok"  # keep_going default
    report = FailureReport.from_outcomes(outcomes)
    assert "1 simulated, 0 cached, 1 failed" in report.format_summary(0.0)


def test_pool_fatal_fails_without_retry(monkeypatch, tmp_path):
    log = tmp_path / "calls.txt"
    monkeypatch.setattr(engine_mod, "_execute_spec", _logged(log))
    outcomes = BatchEngine(jobs=2).run(tiny_specs(2))
    assert outcomes[0].status == "failed"
    assert outcomes[0].error == "RuntimeError: injected fatal"
    assert sorted(log.read_text().split()) == sorted(SCHEDULES[:2])
    assert outcomes[1].status == "ok"
    report = FailureReport.from_outcomes(outcomes)
    assert "1 simulated, 0 cached, 1 failed" in report.format_summary(0.0)


# ------------------------------------------------- bad cache entries
def test_torn_cache_write_quarantined_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_specs(1)[0]
    outcomes = BatchEngine(jobs=1, cache=cache).run([spec])
    assert outcomes[0].status == "ok"
    _tear(cache._path(cache.key(spec)))
    # The torn entry is a miss on the next lookup, never a crash.
    assert cache.get(spec) is None
    assert cache.quarantined == 1
    assert cache.quarantined_entries() == 1
    assert cache.entries() == 0


def test_corrupt_cache_write_quarantined_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_specs(1)[0]
    cache.put(spec, BatchEngine(jobs=1).run([spec])[0].summary)
    _garble(cache._path(cache.key(spec)))
    assert cache.get(spec) is None
    assert cache.quarantined == 1
    assert cache.stats()["quarantined"] == 1


def test_sabotaged_store_does_not_break_a_batch(tmp_path):
    """Bad entries degrade to a re-simulation, bit-identical to the
    clean run."""
    specs = tiny_specs(3)
    baseline = BatchEngine(jobs=1).run(specs)

    cache = ResultCache(tmp_path)
    first = BatchEngine(jobs=1, cache=cache).run(specs)
    assert [o.status for o in first] == ["ok"] * 3
    _tear(cache._path(cache.key(specs[0])))
    _garble(cache._path(cache.key(specs[1])))

    # Second pass: two bad entries re-simulate, one hits.
    cache2 = ResultCache(tmp_path)
    second = BatchEngine(jobs=1, cache=cache2).run(specs)
    assert [o.status for o in second].count("cached") == 1
    assert cache2.quarantined == 2
    assert ([o.summary.total_cycles for o in second]
            == [o.summary.total_cycles for o in baseline])
