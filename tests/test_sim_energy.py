"""Energy model arithmetic and schedule-level energy shapes."""

import pytest

from repro.algorithms import make_algorithm
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph
from repro.sim import GPUConfig
from repro.sim.energy import EnergyBreakdown, EnergyModel, estimate_energy
from repro.sim.instructions import Op
from repro.sim.stats import CacheStats, KernelStats

CFG = GPUConfig.vortex_bench()
GRAPH = powerlaw_graph(600, 3600, exponent=1.9, seed=13)


def synthetic_stats():
    s = KernelStats(total_cycles=1000)
    s.op_counts[Op.ALU] = 100
    s.op_counts[Op.LOAD] = 50
    s.op_counts[Op.SHMEM_LOAD] = 10
    s.op_counts[Op.ATOMIC] = 5
    s.cache["L1"] = CacheStats(hits=40, misses=10)
    s.cache["L2"] = CacheStats(hits=6, misses=4)
    s.dram_accesses = 4
    return s


def test_component_arithmetic():
    m = EnergyModel()
    e = m.estimate(synthetic_stats())
    assert e.picojoules["alu"] == 100 * m.alu_pj
    assert e.picojoules["shared"] == 10 * m.shmem_pj
    assert e.picojoules["atomic"] == 5 * m.atomic_extra_pj
    assert e.picojoules["cache"] == 50 * m.l1_pj + 10 * m.l2_pj
    assert e.picojoules["dram"] == 4 * m.dram_pj
    assert e.picojoules["static"] == 1000 * m.static_pj_per_cycle
    assert e.total_pj == sum(e.picojoules.values())
    assert e.total_nj == pytest.approx(e.total_pj / 1000)


def test_counters_cost_nothing():
    s = KernelStats()
    s.op_counts[Op.COUNTER] = 1_000_000
    assert estimate_energy(s).picojoules["issue"] == 0.0


def test_empty_breakdown():
    e = EnergyBreakdown()
    assert e.total_pj == 0.0
    assert e.dominant() == "none"


def test_summary_mentions_total():
    e = estimate_energy(synthetic_stats())
    assert "total=" in e.summary()


def run_energy(schedule):
    stats = GraphProcessor(
        make_algorithm("pagerank", iterations=2), schedule=schedule,
        config=CFG,
    ).run(GRAPH).stats
    return estimate_energy(stats)


def test_memory_bound_runs_are_dram_dominated():
    e = run_energy("vertex_map")
    assert e.dominant() in ("dram", "static")
    assert e.picojoules["dram"] > e.picojoules["alu"]


def test_sparseweaver_saves_energy_over_vm_on_skew():
    """Fewer instructions and no redundant edge reads: the balanced
    hardware schedule wins on energy too."""
    vm = run_energy("vertex_map")
    sw = run_energy("sparseweaver")
    assert sw.total_pj < vm.total_pj


def test_edge_map_pays_dram_energy():
    """S_em's 2|E| traffic shows up as extra DRAM energy vs SW."""
    em = run_energy("edge_map")
    sw = run_energy("sparseweaver")
    assert em.picojoules["dram"] > sw.picojoules["dram"]


def test_custom_model_scales():
    s = synthetic_stats()
    cheap = EnergyModel(dram_pj=1.0).estimate(s)
    pricey = EnergyModel(dram_pj=10_000.0).estimate(s)
    assert pricey.picojoules["dram"] == 10_000 * cheap.picojoules["dram"]
