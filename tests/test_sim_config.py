"""GPUConfig / CacheConfig validation and presets."""

import pytest

from repro.errors import ConfigError
from repro.sim import CacheConfig, GPUConfig
from repro.sim.config import KB, MB


def test_paper_config_matches_section5():
    cfg = GPUConfig.vortex_paper()
    assert cfg.num_sockets == 2
    assert cfg.cores_per_socket == 3
    assert cfg.warps_per_core == 32
    assert cfg.threads_per_warp == 32
    assert cfg.l1.size_bytes == 64 * KB
    assert cfg.l2.size_bytes == 1 * MB


def test_derived_counts():
    cfg = GPUConfig.vortex_paper()
    assert cfg.num_cores == 6
    assert cfg.threads_per_core == 1024
    assert cfg.total_threads == 6144


def test_weaver_penalty_halves_l1():
    cfg = GPUConfig.vortex_paper()
    assert cfg.with_weaver_penalty().l1.size_bytes == 32 * KB


def test_weaver_penalty_floors_at_minimum():
    cfg = GPUConfig(l1=CacheConfig(4 * KB, ways=4))
    pen = cfg.with_weaver_penalty()
    assert pen.l1.size_bytes >= pen.l1.line_bytes * pen.l1.ways


def test_mem_freq_ratio_scales_dram_latency():
    cfg = GPUConfig(mem_freq_ratio=3, dram_latency=100)
    assert cfg.dram_latency_cycles == 300


def test_cache_config_num_sets():
    c = CacheConfig(8 * KB, line_bytes=64, ways=4)
    assert c.num_sets == 32
    assert c.num_lines == 128


def test_cache_config_validation():
    with pytest.raises(ConfigError):
        CacheConfig(0)
    with pytest.raises(ConfigError):
        CacheConfig(8 * KB, line_bytes=48)
    with pytest.raises(ConfigError):
        CacheConfig(8 * KB, ways=0)
    with pytest.raises(ConfigError):
        CacheConfig(100, line_bytes=64, ways=8)
    with pytest.raises(ConfigError):
        CacheConfig(8 * KB, hit_latency=0)


def test_gpu_config_validation():
    with pytest.raises(ConfigError):
        GPUConfig(num_sockets=0)
    with pytest.raises(ConfigError):
        GPUConfig(mem_freq_ratio=0)
    with pytest.raises(ConfigError):
        GPUConfig(weaver_entries=0)


def test_weaver_table_narrower_than_a_warp_is_rejected():
    """A warp registers its lanes into consecutive ST slots: a 16-entry
    table cannot take a 32-lane warp, so the config is refused when it
    is built, not mid-kernel."""
    from dataclasses import replace

    with pytest.raises(ConfigError, match=r"weaver_entries \(16\).*"
                       r"threads_per_warp \(32\)"):
        replace(GPUConfig.vortex_bench(), weaver_entries=16)
    assert GPUConfig.vortex_tiny().weaver_entries == 512


def test_weaver_capacity_is_whole_warps_of_resident_threads():
    """One per-core ST capacity, read by the schedules, the unit and
    the fast engine's compile: the table size, capped at the resident
    threads and rounded down to whole warps."""
    from repro.core.unit import WeaverUnit

    bench = GPUConfig.vortex_bench()
    assert bench.weaver_capacity == bench.threads_per_core == 256
    for entries, capacity in ((32, 32), (48, 32), (100, 96), (4096, 256)):
        cfg = GPUConfig(num_sockets=1, cores_per_socket=2,
                        warps_per_core=8, weaver_entries=entries)
        assert cfg.weaver_capacity == capacity
        assert WeaverUnit(cfg).st.capacity == capacity


def test_presets_construct():
    for preset in (GPUConfig.vortex_bench, GPUConfig.vortex_tiny,
                   GPUConfig.ampere_like, GPUConfig.ada_like):
        cfg = preset()
        assert cfg.num_cores >= 1


def test_config_is_frozen():
    cfg = GPUConfig.vortex_tiny()
    with pytest.raises(Exception):
        cfg.dram_latency = 5
