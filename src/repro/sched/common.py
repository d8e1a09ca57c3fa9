"""Shared kernel-emission helpers used by every schedule.

These sub-generators (driven with ``yield from``) emit the memory
traffic and ALU work of the two halves every scheme shares — inspecting
graph topology at registration time and processing a warp-wide batch of
edges at distribution time — while handing each batch's *functional*
update to :meth:`KernelEnv.edge_update`, so timing and correctness come
from one code path.  :func:`weaver_epoch` is Fig. 9's per-epoch Weaver
protocol, which every Weaver kernel runs with its own topology read and
batch body.
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv
from repro.sim.config import GPUConfig
from repro.sim.instructions import (
    Phase,
    alu,
    atomic,
    counter,
    load,
    store,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
)

_EMPTY = np.zeros(0, dtype=np.int64)

#: The ``warp_iterations`` bump every batch yields: one shared Instr.
WARP_ITERATION = counter("warp_iterations")

#: Fig. 9's fixed instructions, shared like ``WARP_ITERATION``.  The
#: reset barrier keeps stragglers off the next epoch's ST/DT reset.
DEC_ID = weaver_dec_id(Phase.SCHEDULE)
DEC_LOC = weaver_dec_loc(Phase.SCHEDULE)
NO_REGISTRATION = weaver_reg(Phase.REGISTRATION, [])
REGISTRATION_SYNC = sync(Phase.REGISTRATION)
EPOCH_RESET = sync(Phase.SCHEDULE)

#: Weights of an algorithm that reads none.  Batches are warp-wide, so
#: a read-only view of this array serves them instead of a fresh
#: ``np.ones`` per batch.
_ONES = np.ones(1024)
_ONES.flags.writeable = False


def read_rows(region, row_ptr: np.ndarray, vids: np.ndarray):
    """Emit the topology access of Fig. 9 lines 5-8 for ``vids`` (a
    non-empty array) from the CSR row pointers ``row_ptr`` that
    ``region`` backs; returns ``(starts, degrees)``."""
    yield load(Phase.REGISTRATION, region, np.concatenate([vids, vids + 1]))
    yield alu(Phase.REGISTRATION)
    starts = row_ptr[vids]
    return starts, row_ptr[vids + 1] - starts


def inspect_topology(env: KernelEnv, vids: np.ndarray):
    """Emit the traversal graph's topology access (:func:`read_rows`);
    returns ``(starts, degrees)`` with the base filter already applied
    (filtered vertices get degree zero)."""
    alg = env.algorithm
    if vids.size == 0:
        return _EMPTY, _EMPTY
    starts, degrees = yield from read_rows(env.region("row_ptr"),
                                           env.graph.row_ptr, vids)
    if alg.has_base_filter:
        for name in alg.base_filter_arrays:
            yield load(Phase.REGISTRATION, env.region(name), vids)
        yield alu(Phase.REGISTRATION)
        degrees = alg.filtered_degrees(env.state, vids, degrees)
    return starts, degrees


def process_edge_batch(
    env: KernelEnv,
    bases: np.ndarray,
    eids: np.ndarray,
    accumulate: str = "atomic",
    edge_phase: Phase = Phase.EDGE_ACCESS,
    gather_phase: Phase = Phase.GATHER,
    preloaded: bool = False,
    others: np.ndarray = None,
    weights: np.ndarray = None,
):
    """Emit edge-information access + gather&sum for one warp batch.

    ``accumulate`` selects how the per-edge contribution lands in the
    accumulator array: ``"atomic"`` (lanes may share a base vertex, the
    scheme pays an atomic op) or ``"local"`` (each lane owns its base —
    vertex mapping — and writes back once at the end, charged by the
    caller). ``preloaded=True`` means a hardware unit (EGHW) already
    fetched the opposite endpoint and weight, so the kernel skips those
    loads and uses the supplied ``others``/``weights``.

    Without an other-endpoint filter every edge of the batch gathers,
    so the arrays go to ``env.edge_update`` as they are, with no mask.
    An algorithm that reads no weights gets a read-only view of ones.
    """
    alg = env.algorithm
    if bases.size == 0:
        return
    if not preloaded:
        yield load(edge_phase, env.region("col_idx"), eids)
        others = env.graph.col_idx[eids]
        if alg.uses_weights:
            yield load(edge_phase, env.region("weights"), eids)
            weights = env.graph.weights[eids]
    if weights is None:
        weights = unit_weights(bases.size)
    for name in alg.edge_value_arrays:
        yield load(gather_phase, env.region(name), others)
    if alg.has_other_filter:
        yield alu(gather_phase)
        keep = ~alg.other_filter(env.state, others)
        if not keep.any():
            return
        bases, others, weights, eids = (
            bases[keep], others[keep], weights[keep], eids[keep])
    yield alu(gather_phase, alg.gather_alu)
    env.edge_update(bases, others, weights, eids)
    if accumulate == "atomic":
        targets = bases if alg.accumulate_target == "base" else others
        yield atomic(gather_phase, env.region(alg.acc_array), targets)


def unit_weights(n: int) -> np.ndarray:
    """The weights of an ``n``-edge batch of an algorithm that reads
    none: a read-only view of ones (a fresh array past 1,024 edges)."""
    return _ONES[:n] if n <= _ONES.size else np.ones(n)


def writeback_accumulators(env: KernelEnv, bases: np.ndarray,
                           phase: Phase = Phase.GATHER):
    """Vertex-mapping epilogue: one coalesced accumulator store for the
    lanes that gathered anything (their sums lived in registers)."""
    if bases.size:
        yield store(phase, env.region(env.algorithm.acc_array), bases)


def epoch_vertex_ids(ctx, env: KernelEnv, epoch: int) -> np.ndarray:
    """Grid-stride vertex ids owned by this warp's lanes in ``epoch``
    (only the in-range ones)."""
    vids = ctx.thread_ids + epoch * env.config.total_threads
    return vids[vids < env.num_vertices]


def weaver_registration(config: GPUConfig, num_vertices: int):
    """How warps register ``num_vertices`` vertices into a per-core ST
    each epoch: the one ST-capacity rule every Weaver kernel follows.

    The ST holds ``GPUConfig.weaver_capacity`` entries per core.  Only
    the first ``capacity // lanes`` warps of a core register, so each
    epoch covers ``num_cores * capacity`` vertices: core ``c`` registers
    the range starting at ``epoch * num_cores * capacity + c *
    capacity``, in ST index order.  Returns ``(num_epochs, vids_of)``;
    ``vids_of(ctx, epoch)`` gives the in-range vertex ids warp ``ctx``
    registers in ``epoch`` (empty for warps past the capacity).
    """
    lanes = config.threads_per_warp
    capacity = config.weaver_capacity
    grid = config.num_cores * capacity
    lane_ids = np.arange(lanes, dtype=np.int64)

    def vids_of(ctx, epoch: int) -> np.ndarray:
        if ctx.warp_slot >= capacity // lanes:
            return _EMPTY
        vids = (epoch * grid + ctx.core_id * capacity
                + ctx.warp_slot * lanes + lane_ids)
        return vids[vids < num_vertices]

    return max(1, -(-num_vertices // grid)), vids_of


def weaver_epoch(vids: np.ndarray, register, batch):
    """One warp's epoch of Fig. 9's Weaver kernel: the lanes'
    ``WEAVER_REG`` of ``vids`` (empty when ``vids`` is) after the
    topology read ``register(vids) -> (starts, degrees)``, the
    registration barrier, then ``WEAVER_DEC_ID`` / ``WEAVER_DEC_LOC``
    rounds, each running ``batch(bases, eids)``, until the unit runs
    dry.  Both callbacks are sub-generators.  Callers put
    :data:`EPOCH_RESET` between epochs."""
    if vids.size:
        starts, degrees = yield from register(vids)
        yield weaver_reg(Phase.REGISTRATION, list(zip(
            range(vids.size), vids.tolist(), starts.tolist(),
            degrees.tolist())))
    else:
        yield NO_REGISTRATION
    yield REGISTRATION_SYNC
    while True:
        yield WARP_ITERATION
        decoded = yield DEC_ID
        if decoded.exhausted:
            return
        eid_row = yield DEC_LOC
        # Work fills the first lanes of both rows.
        work = decoded.work_count
        yield from batch(decoded.vids[:work], eid_row[:work])


def epoch_edge_ids(ctx, env: KernelEnv, epoch: int) -> np.ndarray:
    """Grid-stride edge ids owned by this warp's lanes in ``epoch``."""
    eids = ctx.thread_ids + epoch * env.config.total_threads
    return eids[eids < env.num_edges]


def log2_ceil(n: int) -> int:
    """Ceil of log2 for n >= 1 (scan/binary-search depth)."""
    return max(1, int(np.ceil(np.log2(max(n, 2)))))


def check_early_exit(env: KernelEnv, bases: np.ndarray):
    """Emit the early-exit test; returns the done mask (empty batches
    return an empty mask).  Nothing is emitted for algorithms without
    early exit, so schedules skip the call when
    ``algorithm.has_early_exit`` is false."""
    alg = env.algorithm
    if not alg.has_early_exit or bases.size == 0:
        return np.zeros(bases.size, dtype=bool)
    yield alu(Phase.GATHER)
    return alg.early_exit(env.state, bases)
