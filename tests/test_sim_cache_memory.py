"""Cache tag behavior and the memory hierarchy walker."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim import CacheConfig, GPUConfig, MemoryMap
from repro.sim.config import KB
from repro.sim.memory import MemoryHierarchy


# ----------------------------------------------------------------------
# Cache (its lookups are the hierarchy walk's)
# ----------------------------------------------------------------------
def small_cache(ways=2, sets=4):
    """A one-core hierarchy whose only level is a ``ways`` x ``sets``
    L1, so a one-line walk is one lookup of that cache."""
    return MemoryHierarchy(GPUConfig(
        num_sockets=1, cores_per_socket=1,
        l1=CacheConfig(64 * ways * sets, line_bytes=64, ways=ways,
                       hit_latency=4),
        l2=None,
    ))


def lookup(h, line):
    """Walk ``line`` on core 0; True when the L1 hit it."""
    return h.walk(0, [line]) == h.l1[0].config.hit_latency


def test_miss_then_hit():
    h = small_cache()
    c = h.l1[0]
    assert not lookup(h, 100)
    assert lookup(h, 100)
    assert c.stats.hits == 1
    assert c.stats.misses == 1


def test_lru_eviction_within_set():
    h = small_cache(ways=2, sets=1)
    c = h.l1[0]
    lookup(h, 1)
    lookup(h, 2)
    lookup(h, 1)        # 1 becomes MRU
    lookup(h, 3)        # evicts 2
    assert c.contains(1)
    assert not c.contains(2)
    assert c.contains(3)


def test_set_indexing_isolates_sets():
    h = small_cache(ways=1, sets=4)
    c = h.l1[0]
    lookup(h, 0)   # set 0
    lookup(h, 1)   # set 1
    assert c.contains(0)
    assert c.contains(1)


def test_occupancy_and_flush():
    h = small_cache()
    c = h.l1[0]
    for line in range(5):
        lookup(h, line)
    assert c.occupancy == 5
    c.flush()
    assert c.occupancy == 0
    assert c.stats.misses == 5  # stats survive flush


def test_hit_rate():
    h = small_cache()
    c = h.l1[0]
    lookup(h, 1)
    lookup(h, 1)
    lookup(h, 1)
    assert c.stats.hit_rate == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# MemoryMap / Region
# ----------------------------------------------------------------------
def test_regions_do_not_overlap():
    mm = MemoryMap()
    a = mm.alloc("a", 100, 8)
    b = mm.alloc("b", 100, 8)
    assert a.base + a.nbytes <= b.base
    assert (a.base + a.nbytes - 1) >> 6 != b.base >> 6  # distinct lines


def test_region_addressing():
    mm = MemoryMap()
    r = mm.alloc("r", 10, 8)
    assert r.addr(3) == r.base + 24


def test_alloc_like():
    mm = MemoryMap()
    arr = np.zeros(17, dtype=np.int64)
    r = mm.alloc_like("arr", arr)
    assert r.length == 17
    assert r.itemsize == 8


def test_duplicate_region_rejected():
    mm = MemoryMap()
    mm.alloc("x", 1, 8)
    with pytest.raises(ConfigError):
        mm.alloc("x", 1, 8)


def test_bad_region_args_rejected():
    mm = MemoryMap()
    with pytest.raises(ConfigError):
        mm.alloc("neg", -1, 8)
    with pytest.raises(ConfigError):
        mm.alloc("zero_item", 1, 0)


# ----------------------------------------------------------------------
# MemoryHierarchy
# ----------------------------------------------------------------------
def hierarchy(l3=False, ratio=1):
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=2,
        threads_per_warp=4,
        l1=CacheConfig(1 * KB, ways=2, hit_latency=4),
        l2=CacheConfig(4 * KB, ways=4, hit_latency=20),
        l3=CacheConfig(64 * KB, ways=8, hit_latency=40) if l3 else None,
        dram_latency=100, mem_freq_ratio=ratio,
    )
    return MemoryHierarchy(cfg), cfg


def test_cold_access_pays_dram():
    h, cfg = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    lat, lines = h.access(0, r, np.array([0]))
    assert lat == cfg.dram_latency_cycles
    assert lines == 1
    assert h.dram_accesses == 1


def test_warm_access_pays_l1():
    h, cfg = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    h.access(0, r, np.array([0]))
    lat, _ = h.access(0, r, np.array([0]))
    assert lat == cfg.l1.hit_latency


def test_l2_shared_across_cores():
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=2, warps_per_core=2,
        threads_per_warp=4,
        l1=CacheConfig(1 * KB, ways=2, hit_latency=4),
        l2=CacheConfig(4 * KB, ways=4, hit_latency=20),
    )
    h = MemoryHierarchy(cfg)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    h.access(0, r, np.array([0]))          # core 0 warms L2
    lat, _ = h.access(1, r, np.array([0]))  # core 1 misses L1, hits L2
    assert lat == cfg.l2.hit_latency


@pytest.mark.parametrize("raw, equivalent", [
    ([1, 2, 40], np.array([1, 2, 40], dtype=np.int64)),
    (3, np.array([3], dtype=np.int64)),
])
def test_access_normalizes_index_inputs(raw, equivalent):
    """A list or a scalar costs what the equivalent int64 array does."""
    r = MemoryMap().alloc("r", 64, 8)
    assert (hierarchy()[0].access(0, r, raw)
            == hierarchy()[0].access(0, r, equivalent))


def test_coalescing_single_line():
    h, cfg = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    lat, lines = h.access(0, r, np.arange(8))  # 8 * 8B = one 64B line
    assert lines == 1


def test_uncoalesced_pays_line_throughput():
    h, cfg = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 1024, 8)
    idx = np.arange(0, 64, 8)  # 8 distinct lines
    lat, lines = h.access(0, r, idx)
    assert lines == 8
    # worst line queues behind 7 others at the controller, then pays
    # the DRAM latency; the warp adds per-line pipeline throughput
    assert lat == (cfg.dram_latency_cycles + 7 * cfg.dram_service_cycles
                   + 7 * cfg.line_throughput)


def test_mem_freq_ratio_scales_access():
    h1, _ = hierarchy(ratio=1)
    h4, _ = hierarchy(ratio=4)
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    lat1, _ = h1.access(0, r, np.array([0]))
    lat4, _ = h4.access(0, r, np.array([0]))
    assert lat4 == 4 * lat1


def test_l3_catches_l2_evictions():
    h, cfg = hierarchy(l3=True)
    mm = MemoryMap()
    big = mm.alloc("big", 4096, 8)  # 512 lines > L2's 64 lines
    for i in range(0, 4096, 8):
        h.access(0, big, np.array([i]))
    # Re-walk: most lines now come from L3, not DRAM.
    dram_before = h.dram_accesses
    lat, _ = h.access(0, big, np.array([0]))
    assert lat <= cfg.l3.hit_latency
    assert h.dram_accesses == dram_before


def test_cache_stats_aggregation():
    h, _ = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    h.access(0, r, np.array([0]))
    h.access(0, r, np.array([0]))
    stats = h.cache_stats()
    assert stats["L1"].accesses == 2
    assert stats["L2"].accesses == 1  # only the miss walked down


def test_empty_access_is_free():
    h, _ = hierarchy()
    mm = MemoryMap()
    r = mm.alloc("r", 64, 8)
    lat, lines = h.access(0, r, np.array([], dtype=np.int64))
    assert (lat, lines) == (0, 0)


def test_line_size_mismatch_rejected():
    with pytest.raises(ConfigError):
        MemoryHierarchy(GPUConfig(
            l1=CacheConfig(1 * KB, line_bytes=64, ways=2),
            l2=CacheConfig(4 * KB, line_bytes=128, ways=4),
        ))
