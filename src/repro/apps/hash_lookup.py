"""GPU hash lookup under two schedules (paper Algorithm 1).

``thread_per_query`` is the naive mapping: each thread hashes its key
and serially scans the bucket chain — lockstep makes every warp wait
for its longest chain, the hash-table analog of vertex mapping.

``sparseweaver`` registers ``(query, chain start, chain length)``
triples with the Weaver and processes densely packed (query, slot) work
items; a query that finds its key sends ``WEAVER_SKIP`` so the rest of
an overloaded chain is never distributed — the paper's supernode story,
transplanted to hashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.hash_table import GPUHashTable
from repro.core.unit import WeaverUnit
from repro.errors import ReproError
from repro.sched.common import WARP_ITERATION
from repro.sim.config import GPUConfig
from repro.sim.engines import build_gpu
from repro.sim.instructions import (
    Phase,
    alu,
    load,
    store,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
    weaver_skip,
)
from repro.sim.memory import MemoryMap
from repro.sim.stats import KernelStats


@dataclass
class LookupResult:
    """Values per query (NaN for misses) plus simulator statistics."""

    values: np.ndarray
    found: np.ndarray
    stats: KernelStats

    @property
    def hit_rate(self) -> float:
        """Fraction of queries that found their key."""
        return float(self.found.mean()) if self.found.size else 0.0


def run_hash_lookup(
    table: GPUHashTable,
    queries: np.ndarray,
    strategy: str = "sparseweaver",
    config: Optional[GPUConfig] = None,
    mode: str = "first",
) -> LookupResult:
    """Simulate a batched probe; returns values and cycle statistics.

    ``mode="first"`` is a point lookup: probing stops at the first key
    match (the early-exit / ``WEAVER_SKIP`` path). ``mode="aggregate"``
    scans the full chain and sums every matching value — the multimap
    probe of Algorithm 1's loop, where nothing can exit early and
    chain-length imbalance hits naive mapping with full force.
    """
    if strategy not in ("thread_per_query", "sparseweaver"):
        raise ReproError(
            f"unknown strategy {strategy!r}; use 'thread_per_query' or "
            "'sparseweaver'"
        )
    if mode not in ("first", "aggregate"):
        raise ReproError(f"mode must be 'first' or 'aggregate', got {mode!r}")
    cfg = config or GPUConfig.vortex_bench()
    queries = np.asarray(queries, dtype=np.int64)
    buckets = table.hash(queries)
    starts_all = table.offsets[buckets]
    lengths_all = table.offsets[buckets + 1] - starts_all

    first = mode == "first"
    out_values = (np.full(queries.size, np.nan) if first
                  else np.zeros(queries.size))
    out_found = np.zeros(queries.size, dtype=bool)

    gpu = build_gpu(cfg)
    mm = MemoryMap()
    regions = {
        "offsets": mm.alloc_like("offsets", table.offsets),
        "table_keys": mm.alloc_like("table_keys", table.keys),
        "table_values": mm.alloc_like("table_values", table.values),
        "queries": mm.alloc_like("queries", queries),
        "out": mm.alloc("out", queries.size, 8),
    }

    if strategy == "thread_per_query":
        factory = _thread_per_query_factory(
            cfg, regions, table, queries, starts_all, lengths_all,
            out_values, out_found, first,
        )
        stats = gpu.run_kernel(factory)
    else:
        factory = _sparseweaver_factory(
            cfg, regions, table, queries, starts_all, lengths_all,
            out_values, out_found, first,
        )
        stats = gpu.run_kernel(
            factory, unit_factory=lambda core_id: WeaverUnit(cfg)
        )
    return LookupResult(values=out_values, found=out_found, stats=stats)


def _probe(table, queries, out_values, out_found, qidx, slots, first):
    """Functional probe: compare table keys at ``slots`` with the
    queries owning them; record (first) or accumulate (aggregate)."""
    hit = table.keys[slots] == queries[qidx]
    if hit.any():
        if first:
            out_values[qidx[hit]] = table.values[slots[hit]]
        else:
            np.add.at(out_values, qidx[hit], table.values[slots[hit]])
        out_found[qidx[hit]] = True
    return hit


def _thread_per_query_factory(cfg, regions, table, queries, starts,
                              lengths, out_values, out_found, first):
    stride = cfg.total_threads
    n = queries.size
    epochs = max(1, math.ceil(n / stride))

    def factory(ctx):
        if ctx.thread_ids[0] >= n:
            return None

        def kernel():
            for epoch in range(epochs):
                qidx = ctx.thread_ids + epoch * stride
                qidx = qidx[qidx < n]
                if qidx.size == 0:
                    break
                # hash + chain bounds (Algorithm 1 lines 2-3)
                yield load(Phase.REGISTRATION, regions["queries"], qidx)
                yield alu(Phase.REGISTRATION, 2)  # hash
                h = table.hash(queries[qidx])
                yield load(Phase.REGISTRATION, regions["offsets"],
                           np.concatenate([h, h + 1]))
                st = starts[qidx]
                ln = lengths[qidx]
                alive = np.nonzero(ln > 0)[0]
                k = 0
                while alive.size:
                    yield WARP_ITERATION
                    slots = st[alive] + k
                    yield load(Phase.EDGE_ACCESS, regions["table_keys"],
                               slots)
                    yield alu(Phase.GATHER)  # compare
                    hit = _probe(table, queries, out_values, out_found,
                                 qidx[alive], slots, first)
                    if hit.any():
                        yield load(Phase.GATHER, regions["table_values"],
                                   slots[hit])
                        yield store(Phase.GATHER, regions["out"],
                                    qidx[alive][hit])
                    k += 1
                    still = ln[alive] > k
                    if first:
                        still &= ~hit  # point lookup exits on the hit
                    alive = alive[still]

        return kernel()

    return factory


def _sparseweaver_factory(cfg, regions, table, queries, starts, lengths,
                          out_values, out_found, first):
    stride = cfg.total_threads
    n = queries.size
    epochs = max(1, math.ceil(n / stride))
    lanes = np.arange(cfg.threads_per_warp, dtype=np.int64)
    # The Weaver distributes (query id, slot) work items: the "vertex"
    # is the query, its "edge run" is the bucket chain.

    def factory(ctx):
        def kernel():
            for epoch in range(epochs):
                qidx = ctx.thread_ids + epoch * stride
                qidx = qidx[qidx < n]
                if qidx.size:
                    yield load(Phase.REGISTRATION, regions["queries"], qidx)
                    yield alu(Phase.REGISTRATION, 2)  # hash
                    h = table.hash(queries[qidx])
                    yield load(Phase.REGISTRATION, regions["offsets"],
                               np.concatenate([h, h + 1]))
                    entries = list(zip(
                        lanes[: qidx.size].tolist(),
                        qidx.tolist(),
                        starts[qidx].tolist(),
                        lengths[qidx].tolist(),
                    ))
                    yield weaver_reg(Phase.REGISTRATION, entries)
                else:
                    yield weaver_reg(Phase.REGISTRATION, [])
                yield sync(Phase.REGISTRATION)
                while True:
                    yield WARP_ITERATION
                    decoded = yield weaver_dec_id(Phase.SCHEDULE)
                    if decoded.exhausted:
                        break
                    slot_row = yield weaver_dec_loc(Phase.SCHEDULE)
                    work = decoded.work_count
                    owners = decoded.vids[:work]
                    slots = slot_row[:work]
                    yield load(Phase.EDGE_ACCESS, regions["table_keys"],
                               slots)
                    yield alu(Phase.GATHER)
                    hit = _probe(table, queries, out_values, out_found,
                                 owners, slots, first)
                    if hit.any():
                        yield load(Phase.GATHER, regions["table_values"],
                                   slots[hit])
                        yield store(Phase.GATHER, regions["out"],
                                    owners[hit])
                        if first:
                            for q in np.unique(owners[hit]).tolist():
                                yield weaver_skip(Phase.GATHER, int(q))
                if epoch < epochs - 1:
                    yield sync(Phase.SCHEDULE)

        return kernel()

    return factory
