"""Result cache: memoization, versioning, eviction, stats round-trip."""

import json

import pytest

import repro.runtime.cache as cache_mod
from repro.graph import powerlaw_graph
from repro.runtime import (AlgorithmSpec, GraphSpec, JobSpec, ResultCache,
                           RunSummary)
from repro.sim import GPUConfig
from repro.sim.stats import KernelStats


@pytest.fixture
def spec():
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.inline(powerlaw_graph(80, 300, seed=1)),
        schedule="vertex_map",
        config=GPUConfig.vortex_tiny(),
        max_iterations=1,
    )


@pytest.fixture
def summary(spec):
    return RunSummary.from_run_result(spec.execute())


def test_kernel_stats_summary_round_trip(summary):
    stats = summary.stats
    rebuilt = KernelStats.from_summary_dict(stats.to_summary_dict())
    assert rebuilt.total_cycles == stats.total_cycles
    assert rebuilt.instructions == stats.instructions
    assert rebuilt.warps_launched == stats.warps_launched
    assert rebuilt.phase_breakdown() == stats.phase_breakdown()
    assert rebuilt.stall_breakdown() == stats.stall_breakdown()
    assert rebuilt.to_summary_dict() == stats.to_summary_dict()
    # The summary dict itself is JSON-safe.
    json.dumps(stats.to_summary_dict())


def test_run_summary_round_trip(summary):
    again = RunSummary.from_dict(json.loads(
        json.dumps(summary.to_dict())))
    assert again.total_cycles == summary.total_cycles
    assert again.iterations == summary.iterations
    assert again.values_digest == summary.values_digest
    assert (again.stats.to_summary_dict()
            == summary.stats.to_summary_dict())


def test_miss_then_hit(tmp_path, spec, summary):
    cache = ResultCache(tmp_path)
    assert cache.get(spec) is None
    cache.put(spec, summary)
    hit = cache.get(spec)
    assert hit is not None
    assert hit.from_cache
    assert hit.total_cycles == summary.total_cycles
    assert hit.values_digest == summary.values_digest
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stores"] == 1
    assert stats["entries"] == 1


def test_simulator_version_bump_invalidates(tmp_path, spec, summary,
                                            monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    assert cache.get(spec) is not None
    monkeypatch.setattr(cache_mod, "SIMULATOR_VERSION", 999)
    bumped = ResultCache(tmp_path)
    assert bumped.get(spec) is None
    assert bumped.stats()["misses"] == 1


def test_corrupt_entry_is_a_miss(tmp_path, spec, summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    path = cache._path(cache.key(spec))
    path.write_text("{ not json")
    assert cache.get(spec) is None
    assert not path.exists()  # dropped, not left to rot


def test_clear_removes_entries(tmp_path, spec, summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    assert cache.clear() == 1
    assert cache.entries() == 0
    assert cache.get(spec) is None


def test_eviction_bounds_entries(tmp_path, summary):
    import dataclasses

    cache = ResultCache(tmp_path, max_entries=2)
    base = JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.from_dataset("bio-human", scale=0.2),
        schedule="vertex_map",
        config=GPUConfig.vortex_tiny(),
    )
    for i in range(4):
        cache.put(dataclasses.replace(base, seed=i), summary)
    cache.trim()
    assert cache.entries() <= 2
    assert cache.evictions == 2


def test_non_utf8_entry_is_quarantined_not_fatal(tmp_path, spec):
    cache = ResultCache(tmp_path)
    path = cache._path(cache.key(spec))
    path.write_bytes(b"\xff\xfe\xfd not text")
    assert cache.get(spec) is None
    assert cache.quarantined == 1 and not path.exists()


def test_store_lists_nothing_and_the_batch_trims(tmp_path, summary,
                                                 monkeypatch):
    """A store writes one file without listing the directory; the
    engine trims to the bound once, after the batch, oldest first."""
    import os
    from pathlib import Path

    import repro.runtime.engine as engine_mod
    from repro.runtime import BatchEngine

    cache = ResultCache(tmp_path, max_entries=3)
    specs = _seeded_specs(7)
    old, lone, batch = specs[:4], specs[4], specs[5:]
    for age, spec in enumerate(old):
        cache.put(spec, summary)
        os.utime(cache._path(cache.key(spec)), (1000 + age, 1000 + age))

    listed = []
    real_glob = Path.glob
    monkeypatch.setattr(Path, "glob", lambda self, pattern: (
        listed.append(pattern), real_glob(self, pattern))[1])
    cache.put(lone, summary)
    assert listed == []
    assert cache.stores == 5 and cache.evictions == 0

    monkeypatch.setattr(engine_mod, "_execute_spec",
                        lambda spec: summary.to_dict())
    outcomes = BatchEngine(cache=cache).run(batch)
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert cache.entries() == 3 and cache.evictions == 4
    kept = [spec for spec in specs
            if cache._path(cache.key(spec)).exists()]
    assert kept == [lone, *batch]


def _seeded_specs(n):
    import dataclasses

    base = JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.from_dataset("bio-human", scale=0.2),
        schedule="vertex_map",
        config=GPUConfig.vortex_tiny(),
    )
    return [dataclasses.replace(base, seed=i) for i in range(n)]


def test_stall_cells_survive_cache_round_trip(tmp_path, spec, summary):
    """Per-core/warp stall attribution crosses the cache boundary."""
    assert summary.stats.stall_cells  # the run actually attributed
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    hit = cache.get(spec)
    assert dict(hit.stats.stall_cells) == dict(summary.stats.stall_cells)
    assert hit.stats.stall_cells_total() == (
        summary.stats.stall_cells_total())


# --------------------------------------------------------- self-healing
def test_truncated_entry_is_quarantined_not_fatal(tmp_path, spec,
                                                  summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    path = cache._path(cache.key(spec))
    path.write_text(path.read_text()[:40])  # torn mid-write
    assert cache.get(spec) is None
    assert cache.quarantined == 1
    assert cache.quarantined_entries() == 1
    assert not path.exists()
    stats = cache.stats()
    assert stats["quarantined"] == 1
    assert stats["quarantined_entries"] == 1


def test_checksum_mismatch_is_quarantined(tmp_path, spec, summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    path = cache._path(cache.key(spec))
    entry = json.loads(path.read_text())
    entry["summary"]["total_cycles"] += 1  # silent bit-flip
    path.write_text(json.dumps(entry))
    assert cache.get(spec) is None  # checksum catches the tamper
    assert cache.quarantined == 1
    assert cache.quarantined_entries() == 1


def test_structurally_wrong_entry_is_quarantined(tmp_path, spec,
                                                 summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    path = cache._path(cache.key(spec))
    path.write_text(json.dumps([1, 2, 3]))  # valid JSON, wrong shape
    assert cache.get(spec) is None
    assert cache.quarantined == 1


def test_quarantine_warns_once_then_goes_quiet(tmp_path, summary,
                                               caplog):
    import logging

    cache = ResultCache(tmp_path)
    specs = _seeded_specs(3)
    for s in specs:
        cache.put(s, summary)
        cache._path(cache.key(s)).write_text("{ not json")
    with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
        for s in specs:
            assert cache.get(s) is None
    warnings = [r for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1  # one warning, not one per lookup
    assert cache.quarantined == 3


def test_clear_also_removes_quarantine(tmp_path, spec, summary):
    cache = ResultCache(tmp_path)
    cache.put(spec, summary)
    cache._path(cache.key(spec)).write_text("garbage")
    assert cache.get(spec) is None
    assert cache.quarantined_entries() == 1
    assert cache.clear() == 1  # the quarantined file
    assert cache.quarantined_entries() == 0

