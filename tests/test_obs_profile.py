"""Loop timers: accumulators, bit-identical cycles, perfbench's reader."""

import importlib
import sys
from pathlib import Path

import pytest

from repro.graph import powerlaw_graph
from repro.obs.profile import (OP_BUCKETS, PhaseProfiler, disable_profiling,
                               enable_profiling, get_profiler)
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim import GPUConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tiny_job(schedule="sparseweaver"):
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=2),
        graph=GraphSpec.inline(powerlaw_graph(120, 500, seed=1),
                               name="pl-a"),
        schedule=schedule,
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


def test_op_buckets_are_sorted():
    assert list(OP_BUCKETS) == sorted(OP_BUCKETS)


# ----------------------------------------------------------------------
# The simulator contract: off = bit-identical
# ----------------------------------------------------------------------
def test_cycles_bit_identical_with_profiler_on_and_off():
    assert not get_profiler().enabled
    baseline = tiny_job().execute().stats.total_cycles
    try:
        enable_profiling().clear()
        profiled = tiny_job().execute().stats.total_cycles
        assert profiled == baseline
    finally:
        disable_profiling(clear=True)


# ----------------------------------------------------------------------
# The reader: perfbench's PhaseWindow (``--trace 1`` loop shares)
# ----------------------------------------------------------------------
@pytest.fixture
def perfbench_tracing(monkeypatch):
    """``perfbench/tracing.py`` imported as the benchmark imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracing", None)
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


@pytest.mark.parametrize("schedule", ["sparseweaver", "eghw"])
def test_phase_window_reads_every_loop_share(perfbench_tracing, schedule):
    """Every timer perfbench reads is fed: a renamed phase, a dropped
    timer or an op histogram of another shape zeroes a share."""
    assert not get_profiler().enabled
    with perfbench_tracing.PhaseWindow() as window:
        outcome = tiny_job(schedule).execute()
    assert outcome.total_cycles > 0
    assert not get_profiler().enabled and not get_profiler().phases
    shares = window.loop_shares()
    assert set(shares) == set(perfbench_tracing.LOOP_SHARES)
    for name, share in shares.items():
        assert 0 < share < 1, (name, share)
