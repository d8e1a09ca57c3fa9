"""Property tests: the hierarchy walk vs a reference per-set LRU."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.sim import CacheConfig, GPUConfig
from repro.sim.memory import MemoryHierarchy


class ReferenceLRU:
    """Dict-of-OrderedDict set-associative LRU."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.num_sets = sets
        self.hits = 0
        self.misses = 0

    def lookup(self, line: int) -> bool:
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        s[line] = True
        if len(s) > self.ways:
            s.popitem(last=False)
        return False

    def resident(self) -> set:
        return {line for s in self.sets for line in s}


class ReferenceHierarchy:
    """The walk of DESIGN.md §5 spelled out over :class:`ReferenceLRU`
    levels: per line, the first level that hits sets its latency, every
    level above it fills the line, and a line no level holds queues on
    the DRAM controller timeline."""

    def __init__(self, cfg: GPUConfig) -> None:
        self.cfg = cfg
        self.l1 = [ReferenceLRU(cfg.l1.num_sets, cfg.l1.ways)
                   for _ in range(cfg.num_cores)]
        self.l2 = (ReferenceLRU(cfg.l2.num_sets, cfg.l2.ways)
                   if cfg.l2 is not None else None)
        self.l3 = (ReferenceLRU(cfg.l3.num_sets, cfg.l3.ways)
                   if cfg.l3 is not None else None)
        self.dram_accesses = 0
        self.dram_free = 0

    def walk(self, core: int, lines, now: int) -> int:
        cfg = self.cfg
        levels = [(self.l1[core], cfg.l1.hit_latency)]
        if self.l2 is not None:
            levels.append((self.l2, cfg.l2.hit_latency))
        if self.l3 is not None:
            levels.append((self.l3, cfg.l3.hit_latency))
        worst = 0
        for line in lines:
            for cache, hit_latency in levels:
                if cache.lookup(line):
                    latency = hit_latency
                    break
            else:
                self.dram_accesses += 1
                fill = max(self.dram_free, now)
                self.dram_free = fill + cfg.dram_service_cycles
                latency = fill - now + cfg.dram_latency_cycles
            worst = max(worst, latency)
        return worst + (len(lines) - 1) * cfg.line_throughput


def l1_only(ways: int, sets: int) -> MemoryHierarchy:
    """One core, one cache level: a one-line walk is one lookup."""
    return MemoryHierarchy(GPUConfig(
        num_sockets=1, cores_per_socket=1,
        l1=CacheConfig(64 * ways * sets, line_bytes=64, ways=ways),
        l2=None,
    ))


def hit(h: MemoryHierarchy, line: int) -> bool:
    """Walk ``line`` on core 0; True when the L1 hit it."""
    return h.walk(0, [line]) == h.l1[0].config.hit_latency


@given(
    st.integers(min_value=0, max_value=2).map(lambda p: 2 ** p),  # ways
    st.integers(min_value=0, max_value=2).map(lambda p: 2 ** p),  # sets
    st.lists(st.integers(min_value=0, max_value=40), min_size=1,
             max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_cache_matches_reference_lru(ways, sets, accesses):
    h = l1_only(ways, sets)
    ref = ReferenceLRU(sets, ways)
    for line in accesses:
        assert hit(h, line) == ref.lookup(line)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=150))
@settings(max_examples=50, deadline=None)
def test_occupancy_bounded_by_capacity(accesses):
    h = l1_only(ways=2, sets=4)
    for line in accesses:
        h.walk(0, [line])
    cache = h.l1[0]
    assert cache.occupancy <= cache.config.num_lines


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=100))
@settings(max_examples=50, deadline=None)
def test_second_touch_within_capacity_hits(accesses):
    """With capacity > distinct lines, every re-touch is a hit."""
    h = l1_only(ways=64, sets=1)
    seen = set()
    for line in accesses:
        assert hit(h, line) == (line in seen)
        seen.add(line)


# ----------------------------------------------------------------------
# The whole walk
# ----------------------------------------------------------------------
#: Lines the accesses draw from: few enough that small caches conflict.
UNIVERSE = 48


def cache_levels(draw, max_sets):
    ways = draw(st.integers(min_value=1, max_value=4))
    sets = draw(st.integers(min_value=1, max_value=max_sets))
    latency = draw(st.integers(min_value=1, max_value=60))
    return CacheConfig(64 * ways * sets, line_bytes=64, ways=ways,
                       hit_latency=latency)


@st.composite
def configs(draw):
    return GPUConfig(
        num_sockets=1,
        cores_per_socket=draw(st.integers(min_value=1, max_value=3)),
        l1=cache_levels(draw, max_sets=4),
        l2=cache_levels(draw, max_sets=8) if draw(st.booleans()) else None,
        l3=cache_levels(draw, max_sets=8) if draw(st.booleans()) else None,
        dram_latency=draw(st.integers(min_value=1, max_value=120)),
        mem_freq_ratio=draw(st.integers(min_value=1, max_value=3)),
        dram_service=draw(st.integers(min_value=0, max_value=12)),
        line_throughput=draw(st.integers(min_value=0, max_value=3)),
    )


#: Ascending unique line lists, as ``lines_of`` builds them, or a
#: contiguous ``range``, as the EGHW unit passes its spans.
line_lists = st.one_of(
    st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1, max_size=10).map(sorted),
    st.tuples(st.integers(min_value=0, max_value=UNIVERSE - 1),
              st.integers(min_value=1, max_value=10)).map(
        lambda a: range(a[0], min(a[0] + a[1], UNIVERSE))),
)


@given(configs(), st.data())
@settings(max_examples=150, deadline=None)
def test_walk_matches_reference_hierarchy(cfg, data):
    h = MemoryHierarchy(cfg)
    ref = ReferenceHierarchy(cfg)
    accesses = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=cfg.num_cores - 1),
                  st.integers(min_value=0, max_value=400),
                  line_lists),
        min_size=1, max_size=40))
    for core, now, lines in accesses:
        assert h.walk(core, lines, now) == ref.walk(core, lines, now)
        assert h.dram_accesses == ref.dram_accesses
        assert h._dram_free == ref.dram_free
    pairs = [(h.l1[core], ref.l1[core]) for core in range(cfg.num_cores)]
    if cfg.l2 is not None:
        pairs.append((h.l2, ref.l2))
    if cfg.l3 is not None:
        pairs.append((h.l3, ref.l3))
    for cache, model in pairs:
        assert (cache.stats.hits, cache.stats.misses) == (model.hits,
                                                          model.misses)
        resident = model.resident()
        assert cache.occupancy == len(resident)
        assert all(cache.contains(line) == (line in resident)
                   for line in range(UNIVERSE))
