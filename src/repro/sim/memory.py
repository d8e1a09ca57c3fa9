"""Global-memory address space, cache tag stores and the hierarchy walk.

Kernels never fabricate raw addresses; they allocate named
:class:`Region` objects from a :class:`MemoryMap` (one per kernel
environment) and issue loads/stores as ``(region, element indices)``.
The hierarchy converts lane indices to cache lines, walks L1 -> L2 ->
(L3) -> DRAM per line, and returns the instruction's latency under the
coalescing model of DESIGN.md §5: worst-level latency plus a per-extra-
line throughput charge.

This module alone knows the tag layout of a :class:`Cache`, and
:meth:`MemoryHierarchy.walk` is the one place that looks lines up in
it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.config import CacheConfig, GPUConfig
from repro.sim.instructions import as_index_array
from repro.sim.stats import CacheStats

#: Tag of an empty way.  Line numbers are never negative, so it never
#: matches a lookup.
_NO_LINE = -1


class Cache:
    """One cache level with true tag state.

    The cache-size sweeps of Figs. 14-15 only mean something if capacity
    and associativity actually change hit rates, so this is a real tag
    store: per-set LRU lists of line numbers, most recent first.  Every
    set list is exactly ``ways`` long, padded with a tag that never
    matches, so filling a line is insert-front, drop-last with no
    length check.  :meth:`MemoryHierarchy.walk` does the lookups and
    counts them into :attr:`stats`.
    """

    __slots__ = ("config", "name", "stats", "_sets", "_num_sets")

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._sets = [[_NO_LINE] * config.ways
                      for _ in range(config.num_sets)]

    def contains(self, line: int) -> bool:
        """Non-mutating presence check (no stats, no LRU update)."""
        return line in self._sets[line % self._num_sets]

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        for ways in self._sets:
            ways[:] = [_NO_LINE] * len(ways)

    @property
    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(ways) - ways.count(_NO_LINE) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cache({self.name}, {self.config.size_bytes}B, "
            f"{self.config.ways}-way, occ={self.occupancy})"
        )


class Region:
    """A named, contiguous global-memory allocation.

    ``loads_key`` names the counter the compiler adds each load's
    element count to (``elements_loaded:<name>``).
    """

    __slots__ = ("name", "base", "itemsize", "length", "loads_key")

    def __init__(self, name: str, base: int, itemsize: int, length: int) -> None:
        self.name = name
        self.base = base
        self.itemsize = itemsize
        self.length = length
        self.loads_key = "elements_loaded:" + name

    @property
    def nbytes(self) -> int:
        """Size of the region in bytes."""
        return self.itemsize * self.length

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        return self.base + index * self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Region({self.name!r}, base=0x{self.base:x}, "
            f"itemsize={self.itemsize}, length={self.length})"
        )


class MemoryMap:
    """Sequential allocator of :class:`Region` objects.

    Regions are aligned to 256 bytes and padded by one line so that two
    regions never share a cache line — which keeps the cache model's
    attribution of hits per array honest.
    """

    ALIGN = 256

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, length: int, itemsize: int = 8) -> Region:
        """Allocate ``length`` elements of ``itemsize`` bytes."""
        if length < 0 or itemsize <= 0:
            raise ConfigError("region length must be >= 0 and itemsize > 0")
        if name in self._regions:
            raise ConfigError(f"region {name!r} already allocated")
        region = Region(name, self._next, itemsize, length)
        nbytes = max(1, region.nbytes)
        self._next += (nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self._next += self.ALIGN  # guard gap
        self._regions[name] = region
        return region

    def alloc_like(self, name: str, array: np.ndarray) -> Region:
        """Allocate a region shaped like a numpy array."""
        return self.alloc(name, int(array.size), int(array.itemsize))

    def __getitem__(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def regions(self) -> List[Region]:
        """All allocated regions in allocation order."""
        return list(self._regions.values())


class MemoryHierarchy:
    """Per-core L1s over a shared L2 (and optional L3) over DRAM.

    :meth:`walk` is the one per-line hierarchy walk: the event loop
    calls it with a compiled record's line list, the EGHW unit with a
    :meth:`span_lines` range, and tests reach it through
    :meth:`access`.  ``observers`` are the running kernel's observers
    (set by the event loop); each walk reports to their ``on_mem``.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        #: log2 of the line size: element ``i`` of a region lies in line
        #: ``(base + i * itemsize) >> line_shift``.
        self.line_shift = config.l1.line_bytes.bit_length() - 1
        self.l1: List[Cache] = [
            Cache(config.l1, f"L1[{core}]") for core in range(config.num_cores)
        ]
        self.l2: Optional[Cache] = (
            Cache(config.l2, "L2") if config.l2 is not None else None
        )
        self.l3: Optional[Cache] = (
            Cache(config.l3, "L3") if config.l3 is not None else None
        )
        self.dram_accesses = 0
        self._dram_free = 0
        self.observers: tuple = ()
        if self.l2 is not None and config.l2.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")
        if self.l3 is not None and config.l3.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")
        # Walk constants, hoisted out of the per-line loop.
        self._l1_latency = config.l1.hit_latency
        self._l2_latency = config.l2.hit_latency if self.l2 is not None else 0
        self._l3_latency = config.l3.hit_latency if self.l3 is not None else 0
        self._dram_latency = config.dram_latency_cycles
        self._dram_service = config.dram_service_cycles
        self._line_throughput = config.line_throughput

    # ------------------------------------------------------------------
    def lines_of(self, region: Region, indices: np.ndarray) -> List[int]:
        """Sorted unique cache-line numbers touched by ``region[indices]``.

        ``indices`` is a 1-D int64 array (the compiler and
        :meth:`access` pass anything else through ``as_index_array``
        first).  Element ``i`` lies in line ``(base + i * itemsize) >>
        log2(line_bytes)`` for *every* integer ``i``: an index outside
        ``[0, length)`` is not checked, and gets the line that formula
        gives.
        """
        if indices.size == 1:
            return [(region.base + indices.item() * region.itemsize)
                    >> self.line_shift]
        lines = (indices * region.itemsize + region.base) >> self.line_shift
        if indices.size <= 64:
            # Warp-sized accesses dominate; a python-set dedup beats
            # np.unique at this size.
            return sorted(set(lines.tolist()))
        return np.unique(lines).tolist()

    def lines_of_many(self, accesses: Sequence[Tuple[Region, np.ndarray]]
                      ) -> List[List[int]]:
        """:meth:`lines_of` of every ``(region, indices)`` access, in one
        vectorized pass instead of one NumPy pass per access.

        Each element's line comes from the same formula; one sort of a
        packed ``(access, line)`` key orders and dedups every access's
        lines at once.  The key offsets lines by the smallest, since
        out-of-range indices may give negative ones.  Lines spread wider
        than the key holds, which only indices far outside every region
        give, go through :meth:`lines_of` one access at a time.
        """
        count = len(accesses)
        if not count:
            return []
        regions, arrays = zip(*accesses)
        sizes = np.fromiter(map(len, arrays), np.int64, count)
        itemsizes = np.fromiter((r.itemsize for r in regions), np.int64,
                                count)
        bases = np.fromiter((r.base for r in regions), np.int64, count)
        lines = np.concatenate(arrays)
        lines *= np.repeat(itemsizes, sizes)
        lines += np.repeat(bases, sizes)
        lines >>= self.line_shift
        if not lines.size:
            return [[] for _ in accesses]
        low = int(lines.min())
        width = (int(lines.max()) - low).bit_length()
        if (count - 1).bit_length() + width > 63:
            return [self.lines_of(region, indices)
                    for region, indices in accesses]
        key = np.repeat(np.arange(count, dtype=np.int64), sizes)
        key <<= width
        lines -= low
        key |= lines
        key.sort()
        fresh = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        flat = ((key & ((1 << width) - 1)) + low).tolist()
        ends = np.cumsum(np.bincount(key >> width, minlength=count)).tolist()
        return list(map(flat.__getitem__,
                        map(slice, [0] + ends[:-1], ends)))

    def span_lines(self, region: Region, first: int, end: int) -> range:
        """Cache lines of the contiguous element span ``region[first:end]``
        (``end > first``): what :meth:`lines_of` returns for those
        indices, as a range, since consecutive elements leave no line
        untouched between the first and the last."""
        shift = self.line_shift
        return range((region.base + first * region.itemsize) >> shift,
                     ((region.base + (end - 1) * region.itemsize)
                      >> shift) + 1)

    def walk(self, core_id: int, lines: Sequence[int], now: int = 0) -> int:
        """Charge one coalesced access to ascending unique ``lines``.

        Each line walks L1 -> L2 -> (L3) -> DRAM.  DRAM fills
        additionally queue behind a shared memory-controller timeline
        (``dram_service_cycles`` occupancy per line), so total DRAM
        *traffic* costs time even when individual latencies are hidden
        by warp-level parallelism. This is the bandwidth term that makes
        graph processing memory-intensive (Fig. 12) and charges S_em for
        its doubled edge reads.

        Returns the worst per-line latency plus ``line_throughput``
        cycles for each line beyond the first (memory pipeline
        serialization).

        The levels are probed inline: a hit moves the line to the front
        of its set, a miss fills it there and drops the set's last way.
        Hits are counted in locals; misses and DRAM fills follow from
        them (each level sees exactly the lines the level above
        missed), and all counts land in the levels' :class:`CacheStats`
        once per walk.
        """
        l1 = self.l1[core_id]
        sets1, n1 = l1._sets, l1._num_sets
        l2, l3 = self.l2, self.l3
        sets2 = sets3 = None
        if l2 is not None:
            sets2, n2 = l2._sets, l2._num_sets
        if l3 is not None:
            sets3, n3 = l3._sets, l3._num_sets
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        l3_latency = self._l3_latency
        dram_latency = self._dram_latency
        service = self._dram_service
        free = self._dram_free
        hits1 = hits2 = hits3 = 0
        worst = 0
        for line in lines:
            ways = sets1[line % n1]
            if line in ways:
                hits1 += 1
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if l1_latency > worst:
                    worst = l1_latency
                continue
            ways.insert(0, line)
            ways.pop()
            if sets2 is not None:
                ways = sets2[line % n2]
                if line in ways:
                    hits2 += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    if l2_latency > worst:
                        worst = l2_latency
                    continue
                ways.insert(0, line)
                ways.pop()
            if sets3 is not None:
                ways = sets3[line % n3]
                if line in ways:
                    hits3 += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    if l3_latency > worst:
                        worst = l3_latency
                    continue
                ways.insert(0, line)
                ways.pop()
            fill = free if free > now else now
            free = fill + service
            latency = fill - now + dram_latency
            if latency > worst:
                worst = latency
        count = len(lines)
        stats = l1.stats
        stats.hits += hits1
        missed = count - hits1
        stats.misses += missed
        if missed:
            if l2 is not None:
                stats = l2.stats
                stats.hits += hits2
                missed -= hits2
                stats.misses += missed
            if l3 is not None:
                stats = l3.stats
                stats.hits += hits3
                missed -= hits3
                stats.misses += missed
            self.dram_accesses += missed
            self._dram_free = free
        total = worst + (count - 1) * self._line_throughput
        if self.observers:
            for observer in self.observers:
                observer.on_mem(now, core_id, count, total)
        return total

    def access(
        self, core_id: int, region: Region, indices: Any, now: int = 0,
    ) -> Tuple[int, int]:
        """Charge a coalesced warp access at time ``now``.

        ``indices`` is anything ``as_index_array`` accepts.  Returns
        ``(latency_cycles, num_lines)``; see :meth:`walk`.
        """
        if not 0 <= core_id < len(self.l1):
            raise SimulationError(f"core id {core_id} out of range")
        lines = self.lines_of(region, as_index_array(indices))
        if not lines:
            return 0, 0
        return self.walk(core_id, lines, now), len(lines)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, CacheStats]:
        """Aggregate per-level stats (L1s merged across cores)."""
        merged: Dict[str, CacheStats] = {}
        l1_total = CacheStats()
        for cache in self.l1:
            l1_total.merge(cache.stats)
        merged["L1"] = l1_total
        if self.l2 is not None:
            merged["L2"] = self.l2.stats
        if self.l3 is not None:
            merged["L3"] = self.l3.stats
        return merged

    def cache_counts(self) -> Dict[str, Tuple[int, int]]:
        """Cumulative ``(hits, misses)`` per merged level, since the
        hierarchy was built: ``GPU.run_kernel`` subtracts the counts at
        kernel start to give each kernel its own."""
        return {name: (cs.hits, cs.misses)
                for name, cs in self.cache_stats().items()}

    def begin_kernel(self) -> None:
        """Reset the controller timeline — kernel clocks start at 0."""
        self._dram_free = 0

    def flush(self) -> None:
        """Invalidate every level (between unrelated kernels)."""
        for cache in self.l1:
            cache.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.l3 is not None:
            self.l3.flush()
