"""Fault injection: every engine/cache/telemetry recovery path,
provoked deterministically.

Pool-path tests ship real fault directives to real worker processes
(``crash`` genuinely kills a worker, ``hang`` genuinely sleeps), so
the ``BrokenProcessPool`` retry and per-job timeout machinery is
exercised end to end — no monkeypatching of the executor.
"""

import pytest

from repro.errors import (ConfigError, FatalError, ReproError,
                          TransientError)
from repro.graph import powerlaw_graph
from repro.runtime import (AlgorithmSpec, BatchEngine, FaultPlan,
                           GraphSpec, JobSpec, ResultCache, RunJournal,
                           Telemetry, get_active_plan)
from repro.runtime.faults import apply_serial_fault, apply_worker_fault
from repro.sim import GPUConfig

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "sparseweaver"]


def tiny_specs(n=4):
    algorithm = AlgorithmSpec.of("pagerank", iterations=1)
    graph = GraphSpec.inline(powerlaw_graph(100, 400, seed=1), name="pl")
    return [
        JobSpec(algorithm=algorithm, graph=graph, schedule=sched,
                config=GPUConfig.vortex_tiny(), max_iterations=1)
        for sched in SCHEDULES[:n]
    ]


# ------------------------------------------------------------- parsing
def test_plan_parse_round_trip():
    text = "crash@1,hang@2:30,transient@0+3x2,slow_io~0.5,seed=7"
    plan = FaultPlan.parse(text)
    assert plan.seed == 7
    assert plan.spec() == text
    kinds = [r.kind for r in plan.rules]
    assert kinds == ["crash", "hang", "transient", "slow_io"]
    assert plan.rules[1].param == 30.0
    assert plan.rules[2].indices == (0, 3)
    assert plan.rules[2].max_attempts == 2
    assert plan.rules[3].rate == 0.5


@pytest.mark.parametrize("bad", [
    "explode@1",          # unknown kind
    "crash@",             # dangling index list
    "crash@1~0.5",        # indices and rate mixed
    "crash~1.5",          # rate out of range
    "seed=7",             # no fault rules at all
    "crash@one",          # non-integer index
    "",                   # empty plan
])
def test_plan_parse_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        FaultPlan.parse(bad)


def test_rate_rules_are_seed_deterministic():
    a = FaultPlan.parse("transient~0.5,seed=3")
    b = FaultPlan.parse("transient~0.5,seed=3")
    fires_a = [a.worker_fault(i) is not None for i in range(64)]
    fires_b = [b.worker_fault(i) is not None for i in range(64)]
    assert fires_a == fires_b
    assert any(fires_a) and not all(fires_a)
    always = FaultPlan.parse("transient~1.0")
    assert all(always.worker_fault(i) for i in range(8))


def test_worker_fault_respects_attempts_and_counts():
    plan = FaultPlan.parse("crash@2")
    assert plan.worker_fault(0) is None
    assert plan.worker_fault(2) == ("crash", None)
    assert plan.worker_fault(2, attempt=2) is None  # retry succeeds
    assert plan.count("crash") == 1


def test_cache_and_io_sites_are_separate():
    plan = FaultPlan.parse("corrupt@0,slow_io@1:0.01")
    assert plan.worker_fault(0) is None  # cache kinds never hit workers
    assert plan.cache_fault(0) == "corrupt"
    assert plan.cache_fault(1) is None
    assert plan.io_fault(0) is None
    assert plan.io_fault(1) == 0.01


# ----------------------------------------------------- zero overhead
def test_no_env_plan_means_no_hooks(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert get_active_plan() is None
    assert BatchEngine(jobs=1).faults is None
    assert ResultCache(tmp_path)._faults is None
    assert Telemetry()._faults is None


def test_env_plan_is_picked_up_and_memoized(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "transient@0")
    plan = get_active_plan()
    assert plan is not None and plan.rules[0].kind == "transient"
    assert get_active_plan() is plan  # same raw string, same object
    monkeypatch.setenv("REPRO_FAULTS", "crash@1,seed=2")
    assert get_active_plan().rules[0].kind == "crash"


def test_malformed_env_plan_raises_config_error(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "explode@1")
    with pytest.raises(ConfigError):
        get_active_plan()


# ------------------------------------------------------- apply helpers
def test_apply_worker_fault_exception_kinds():
    with pytest.raises(TransientError):
        apply_worker_fault(("transient", None))
    with pytest.raises(FatalError):
        apply_worker_fault(("fatal", None))
    apply_worker_fault(None)  # no-op


def test_apply_serial_fault_degrades_crash_and_hang():
    with pytest.raises(TransientError):
        apply_serial_fault(("crash", None))
    with pytest.raises(TransientError):
        apply_serial_fault(("hang", 5.0))
    with pytest.raises(FatalError):
        apply_serial_fault(("fatal", None))


# ------------------------------------------------------- serial engine
def test_serial_transient_is_retried_with_backoff():
    plan = FaultPlan.parse("transient@0")
    telemetry = Telemetry()
    engine = BatchEngine(jobs=1, telemetry=telemetry, faults=plan,
                         backoff_base=0.001)
    outcomes = engine.run(tiny_specs(2))
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert outcomes[0].attempts == 2
    assert outcomes[1].attempts == 1
    assert telemetry.count("retried") == 1
    assert telemetry.count("backoff") == 1
    assert plan.count("transient") == 1


def test_serial_retry_exhaustion_fails_structurally():
    plan = FaultPlan.parse("transient@0x99")  # fires on every attempt
    telemetry = Telemetry()
    engine = BatchEngine(jobs=1, telemetry=telemetry, faults=plan,
                         retries=2, backoff_base=0.001)
    outcomes = engine.run(tiny_specs(1))
    assert outcomes[0].status == "failed"
    assert outcomes[0].attempts == 3  # 1 + 2 retries
    assert "injected transient" in outcomes[0].error
    assert telemetry.count("retried") == 2


def test_serial_fatal_fails_without_retry():
    plan = FaultPlan.parse("fatal@0")
    telemetry = Telemetry()
    outcomes = BatchEngine(jobs=1, telemetry=telemetry,
                           faults=plan).run(tiny_specs(2))
    assert outcomes[0].status == "failed"
    assert outcomes[0].attempts == 1
    assert telemetry.count("retried") == 0
    assert outcomes[1].status == "ok"  # keep_going default


def test_serial_fail_fast_skips_the_rest():
    plan = FaultPlan.parse("fatal@0")
    telemetry = Telemetry()
    engine = BatchEngine(jobs=1, telemetry=telemetry, faults=plan,
                         fail_fast=True)
    outcomes = engine.run(tiny_specs(3))
    assert [o.status for o in outcomes] == ["failed", "skipped",
                                            "skipped"]
    assert telemetry.count("skipped") == 2
    assert not outcomes[1].ok and "fail_fast" in outcomes[1].error
    assert telemetry.summary()["skipped"] == 2
    assert "2 skipped" in telemetry.format_summary()


# --------------------------------------------------------- pool engine
def test_pool_crash_breaks_pool_then_retries():
    plan = FaultPlan.parse("crash@0")
    telemetry = Telemetry()
    engine = BatchEngine(jobs=2, telemetry=telemetry, faults=plan,
                         backoff_base=0.001)
    outcomes = engine.run(tiny_specs(2))
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert outcomes[0].attempts >= 2  # pool siblings may also requeue
    assert telemetry.count("retried") >= 1
    assert plan.count("crash") == 1


def test_pool_hang_trips_the_job_timeout():
    plan = FaultPlan.parse("hang@0:5")
    telemetry = Telemetry()
    engine = BatchEngine(jobs=2, timeout=0.5, telemetry=telemetry,
                         faults=plan)
    outcomes = engine.run(tiny_specs(2))
    assert outcomes[0].status == "failed"
    assert "timed out" in outcomes[0].error
    assert outcomes[1].status == "ok"
    assert plan.count("hang") == 1


def test_pool_transient_is_retried():
    plan = FaultPlan.parse("transient@0")
    telemetry = Telemetry()
    engine = BatchEngine(jobs=2, telemetry=telemetry, faults=plan,
                         backoff_base=0.001)
    outcomes = engine.run(tiny_specs(2))
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert outcomes[0].attempts == 2
    assert telemetry.count("retried") == 1


def test_pool_fatal_fails_without_retry():
    plan = FaultPlan.parse("fatal@0")
    telemetry = Telemetry()
    outcomes = BatchEngine(jobs=2, telemetry=telemetry,
                           faults=plan).run(tiny_specs(2))
    assert outcomes[0].status == "failed"
    assert "injected fatal" in outcomes[0].error
    assert telemetry.count("retried") == 0
    assert outcomes[1].status == "ok"


def test_pool_fail_fast_skips_unfinished_jobs():
    plan = FaultPlan.parse("fatal@0")
    engine = BatchEngine(jobs=2, faults=plan, fail_fast=True)
    outcomes = engine.run(tiny_specs(4))
    assert outcomes[0].status == "failed"
    assert all(o.status in ("ok", "skipped") for o in outcomes[1:])
    assert any(o.status == "skipped" for o in outcomes[1:])


# ------------------------------------------------- cache sabotage
def test_torn_cache_write_quarantined_as_miss(tmp_path):
    plan = FaultPlan.parse("torn@0")
    cache = ResultCache(tmp_path, faults=plan)
    spec = tiny_specs(1)[0]
    outcomes = BatchEngine(jobs=1, cache=cache).run([spec])
    assert outcomes[0].status == "ok"
    assert plan.count("torn") == 1
    # The torn entry is a miss on the next lookup, never a crash.
    assert cache.get(spec) is None
    assert cache.quarantined == 1
    assert cache.quarantined_entries() == 1
    assert cache.entries() == 0


def test_corrupt_cache_write_quarantined_as_miss(tmp_path):
    plan = FaultPlan.parse("corrupt@0")
    cache = ResultCache(tmp_path, faults=plan)
    spec = tiny_specs(1)[0]
    cache.put(spec, BatchEngine(jobs=1).run([spec])[0].summary)
    assert cache.get(spec) is None
    assert cache.quarantined == 1
    assert cache.stats()["quarantined"] == 1


def test_sabotaged_store_does_not_break_a_batch(tmp_path):
    """A corrupt cache write degrades to a re-simulation, bit-identical
    to the fault-free run."""
    specs = tiny_specs(3)
    baseline = BatchEngine(jobs=1).run(specs)

    plan = FaultPlan.parse("torn@0,corrupt@1")
    cache = ResultCache(tmp_path, faults=plan)
    first = BatchEngine(jobs=1, cache=cache).run(specs)
    assert [o.status for o in first] == ["ok"] * 3

    # Second pass: two sabotaged entries re-simulate, one hits.
    cache2 = ResultCache(tmp_path)
    telemetry = Telemetry()
    second = BatchEngine(jobs=1, cache=cache2,
                         telemetry=telemetry).run(specs)
    assert [o.status for o in second].count("cached") == 1
    assert cache2.quarantined == 2
    assert ([o.summary.total_cycles for o in second]
            == [o.summary.total_cycles for o in baseline])


# --------------------------------------------------- telemetry slow io
def test_slow_io_delays_but_preserves_the_sink(tmp_path):
    plan = FaultPlan.parse("slow_io@0:0.01")
    telemetry = Telemetry(tmp_path / "events.jsonl", faults=plan)
    BatchEngine(jobs=1, telemetry=telemetry).run(tiny_specs(1))
    assert plan.count("slow_io") == 1
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == len(telemetry.events)


# ------------------------------------------------- chaos + resume
def test_chaos_run_then_resume_is_bit_identical(tmp_path):
    """The CI chaos scenario in miniature: a faulty, partially-failed
    run resumes to completion with zero re-simulation of finished
    work and cycle counts identical to a fault-free run."""
    specs = tiny_specs(4)
    baseline = BatchEngine(jobs=1).run(specs)

    plan = FaultPlan.parse("fatal@2,torn@0")
    cache = ResultCache(tmp_path / "cache", faults=plan)
    journal = RunJournal(tmp_path / "run.jsonl")
    chaos_tel = Telemetry()
    chaos = BatchEngine(jobs=1, cache=cache, telemetry=chaos_tel,
                        faults=plan, journal=journal).run(specs)
    statuses = [o.status for o in chaos]
    assert statuses.count("ok") == 3 and statuses.count("failed") == 1
    assert len(journal) == 3  # completed work journaled despite faults

    # Resume: fresh process state, same journal file, no faults.
    resumed_journal = RunJournal(tmp_path / "run.jsonl")
    assert resumed_journal.load() == 3
    resume_tel = Telemetry()
    resumed = BatchEngine(jobs=1, telemetry=resume_tel,
                          journal=resumed_journal).run(specs)
    assert [o.status for o in resumed].count("resumed") == 3
    assert resume_tel.count("started") == 1  # only the failed job
    assert ([o.summary.total_cycles for o in resumed]
            == [o.summary.total_cycles for o in baseline])


def test_fault_metrics_reach_registry(tmp_path):
    plan = FaultPlan.parse("transient@0,torn@0")
    cache = ResultCache(tmp_path, faults=plan)
    telemetry = Telemetry()
    BatchEngine(jobs=1, cache=cache, telemetry=telemetry, faults=plan,
                backoff_base=0.001).run(tiny_specs(1))
    assert plan.count("transient") == 1
    assert plan.count("torn") == 1
    retried = [e for e in telemetry.events if e.kind == "retried"]
    assert [e.payload["reason"] for e in retried] == ["transient"]
