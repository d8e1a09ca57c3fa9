"""GCN operators for Case Study 2 (Fig. 19).

The paper evaluates three kernels of a GCN layer — initialization,
SpMM (feature transform + sparse aggregation) and GraphSum (degree-
normalized mean aggregation) — across 16 weight-dimension sizes, under
two parallelization strategies:

* **S_vm weight-parallel** — threads parallelize the weight (feature)
  dimension first, then vertices: each thread walks a vertex's full
  neighbor list for one feature column, avoiding atomics but inheriting
  vertex-mapping's imbalance; with few feature columns, parallelism is
  also underutilized.
* **SparseWeaver edge-parallel** — the Weaver deals out edges densely;
  each work item iterates the weight dimension with atomic updates.

``run_gcn_operator`` executes either strategy on the simulator and
returns both timing and the computed feature matrix, which Fig. 19 and
the tests check against :func:`gcn_reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

import numpy as np

from repro.core.unit import WeaverUnit
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.sched.common import (
    EPOCH_RESET,
    WARP_ITERATION,
    read_rows,
    weaver_epoch,
    weaver_registration,
)
from repro.sim.config import GPUConfig
from repro.sim.engines import build_gpu
from repro.sim.instructions import Phase, alu, atomic, load, store
from repro.sim.memory import MemoryMap
from repro.sim.stats import KernelStats


@dataclass
class GCNResult:
    """Output features plus simulator statistics per kernel."""

    features: np.ndarray
    stats: KernelStats
    kernel_stats: Dict[str, KernelStats]


def _normalization(graph: CSRGraph) -> np.ndarray:
    """Symmetric-normalization coefficient per edge:
    ``1 / sqrt(deg_out(src) * deg_in(dst))``."""
    n = graph.num_vertices
    src = graph.edge_sources()
    dst = graph.col_idx
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    in_deg = np.bincount(dst, minlength=n).astype(np.float64)
    out_deg[out_deg == 0] = 1.0
    in_deg[in_deg == 0] = 1.0
    return 1.0 / np.sqrt(out_deg[src] * in_deg[dst])


def gcn_reference(graph: CSRGraph, features: np.ndarray,
                  weight: np.ndarray) -> np.ndarray:
    """Functional result both strategies must reproduce.

    Pull convention: each row vertex ``v`` aggregates
    ``norm(e) * (X W)[u]`` over its neighbor run ``u = col_idx[e]``
    (feed a reversed/symmetric graph for push semantics).
    """
    transformed = features @ weight
    norm = _normalization(graph)
    out = np.zeros((graph.num_vertices, weight.shape[1]))
    np.add.at(out, graph.edge_sources(),
              transformed[graph.col_idx] * norm[:, None])
    return out


def run_gcn_operator(
    graph: CSRGraph,
    features: np.ndarray,
    weight: np.ndarray,
    strategy: str = "sparseweaver",
    config: Optional[GPUConfig] = None,
) -> GCNResult:
    """Run init + SpMM + GraphSum under one strategy.

    ``strategy`` is ``"sparseweaver"`` (edge-parallel via the Weaver) or
    ``"vertex_map"`` (the paper's weight-parallelized S_vm baseline).
    """
    if strategy not in ("sparseweaver", "vertex_map"):
        raise AlgorithmError(
            f"unknown GCN strategy {strategy!r}; use 'sparseweaver' or "
            "'vertex_map'"
        )
    cfg = config or GPUConfig.vortex_bench()
    if strategy == "sparseweaver":
        cfg = cfg.with_weaver_penalty()
    n = graph.num_vertices
    if features.shape[0] != n:
        raise AlgorithmError(f"features must have {n} rows")
    if weight.shape[0] != features.shape[1]:
        raise AlgorithmError("weight rows must match feature columns")
    dims = int(weight.shape[1])

    gpu = build_gpu(cfg)
    mm = MemoryMap()
    regions = {
        "row_ptr": mm.alloc_like("row_ptr", graph.row_ptr),
        "col_idx": mm.alloc_like("col_idx", graph.col_idx),
        "features": mm.alloc("features", features.size, 8),
        "transformed": mm.alloc("transformed", n * dims, 8),
        "out": mm.alloc("out", n * dims, 8),
        "degree": mm.alloc("degree", n, 8),
    }
    transformed = features @ weight
    norm = _normalization(graph)
    out = np.zeros((n, dims))
    kernel_stats: Dict[str, KernelStats] = {}

    # --- init kernel: zero the output features -----------------------
    kernel_stats["init"] = gpu.run_kernel(
        _init_factory(cfg, regions, n, dims)
    )
    # --- SpMM kernel: dense feature transform X @ W ------------------
    kernel_stats["spmm"] = gpu.run_kernel(
        _spmm_factory(cfg, regions, n, features.shape[1], dims)
    )
    # --- GraphSum kernel: normalized sparse aggregation --------------
    if strategy == "vertex_map":
        kernel_stats["graphsum"] = gpu.run_kernel(
            _graphsum_vm_factory(cfg, regions, graph, transformed, norm,
                                 out, dims)
        )
    else:
        kernel_stats["graphsum"] = gpu.run_kernel(
            _graphsum_sw_factory(cfg, regions, graph, transformed, norm,
                                 out, dims),
            unit_factory=lambda core_id: WeaverUnit(cfg, core_id=core_id),
        )

    total = KernelStats()
    for st in kernel_stats.values():
        total.merge(st)
    return GCNResult(features=out, stats=total, kernel_stats=kernel_stats)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _init_factory(cfg: GPUConfig, regions, n: int, dims: int):
    stride = cfg.total_threads
    cells = n * dims
    epochs = max(1, math.ceil(cells / stride))

    def factory(ctx):
        if ctx.thread_ids[0] >= cells:
            return None

        def kernel():
            for e in range(epochs):
                idx = ctx.thread_ids + e * stride
                idx = idx[idx < cells]
                if idx.size == 0:
                    break
                yield store(Phase.INIT, regions["out"], idx)

        return kernel()

    return factory


def _spmm_factory(cfg: GPUConfig, regions, n: int, in_dims: int,
                  out_dims: int):
    """Dense X @ W: each thread computes one output cell, reading the
    input feature row once per inner step."""
    stride = cfg.total_threads
    cells = n * out_dims
    epochs = max(1, math.ceil(cells / stride))

    def factory(ctx):
        if ctx.thread_ids[0] >= cells:
            return None

        def kernel():
            for e in range(epochs):
                idx = ctx.thread_ids + e * stride
                idx = idx[idx < cells]
                if idx.size == 0:
                    break
                rows = idx // out_dims
                for k in range(in_dims):
                    yield load(Phase.GATHER, regions["features"],
                               rows * in_dims + k)
                    yield alu(Phase.GATHER, 2)  # mul + add
                yield store(Phase.GATHER, regions["transformed"], idx)

        return kernel()

    return factory


def _graphsum_vm_factory(cfg: GPUConfig, regions, graph: CSRGraph,
                         transformed, norm, out, dims: int):
    """Weight-parallelized vertex mapping: consecutive threads take
    consecutive weight columns of the same vertex (weight-first layout),
    removing atomics for the weight update — but every (vertex, dim)
    thread walks the neighbor list independently, so the degree-based
    normalization coefficient is recomputed per edge *per weight
    column* (the cost the paper says SparseWeaver removes)."""
    stride = cfg.total_threads
    n = graph.num_vertices
    cells = n * dims
    epochs = max(1, math.ceil(cells / stride))
    row_ptr = graph.row_ptr
    col = graph.col_idx

    def factory(ctx):
        if ctx.thread_ids[0] >= cells:
            return None

        def kernel():
            for e in range(epochs):
                idx = ctx.thread_ids + e * stride
                idx = idx[idx < cells]
                if idx.size == 0:
                    break
                # weight-first layout: vertex = idx // dims, col = idx % dims
                verts = idx // dims
                cols_of = idx % dims
                yield load(Phase.REGISTRATION, regions["row_ptr"],
                           np.concatenate([verts, verts + 1]))
                yield alu(Phase.REGISTRATION)
                starts = row_ptr[verts]
                degs = row_ptr[verts + 1] - starts
                alive = np.nonzero(degs > 0)[0]
                k = 0
                while alive.size:
                    yield WARP_ITERATION
                    eids = starts[alive] + k
                    yield load(Phase.EDGE_ACCESS, regions["col_idx"], eids)
                    srcs = col[eids]
                    # per-lane coefficient recompute from both degrees
                    yield load(Phase.GATHER, regions["degree"], srcs)
                    yield load(Phase.GATHER, regions["degree"], verts[alive])
                    yield alu(Phase.GATHER, 4)  # rsqrt + muls
                    yield load(Phase.GATHER, regions["transformed"],
                               srcs * dims + cols_of[alive])
                    yield alu(Phase.GATHER, 2)  # multiply-add
                    np.add.at(
                        out,
                        (verts[alive], cols_of[alive]),
                        transformed[srcs, cols_of[alive]] * norm[eids],
                    )
                    k += 1
                    alive = alive[degs[alive] > k]
                touched = idx[degs > 0]
                if touched.size:
                    yield store(Phase.GATHER, regions["out"], touched)

        return kernel()

    return factory


def _graphsum_sw_factory(cfg: GPUConfig, regions, graph: CSRGraph,
                         transformed, norm, out, dims: int):
    """SparseWeaver edge-parallel GraphSum: register per-vertex edge
    runs once, by the ST capacity as the SparseWeaver schedule does;
    each dense work item loops the weight dimension with atomic
    accumulation (the paper's 'iterating through the weight dimension
    using atomic operation')."""
    num_epochs, registered = weaver_registration(cfg, graph.num_vertices)
    register = partial(read_rows, regions["row_ptr"], graph.row_ptr)
    col = graph.col_idx

    def batch(bases, eids):
        yield load(Phase.EDGE_ACCESS, regions["col_idx"], eids)
        srcs = col[eids]
        # coefficient computed once per edge, reused for every weight
        # column (the paper's GraphSum win)
        yield load(Phase.GATHER, regions["degree"], srcs)
        yield load(Phase.GATHER, regions["degree"], bases)
        yield alu(Phase.GATHER, 4)
        for d in range(dims):
            yield load(Phase.GATHER, regions["transformed"], srcs * dims + d)
            yield alu(Phase.GATHER, 2)
            yield atomic(Phase.GATHER, regions["out"], bases * dims + d)
            np.add.at(out, (bases, np.full(bases.size, d)),
                      transformed[srcs, d] * norm[eids])

    def factory(ctx):
        def kernel():
            for epoch in range(num_epochs):
                if epoch:
                    yield EPOCH_RESET
                yield from weaver_epoch(registered(ctx, epoch), register,
                                        batch)

        return kernel()

    return factory
