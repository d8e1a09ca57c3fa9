"""The SparseWeaver schedule (Sections III-IV; kernel of Fig. 9).

Registration: each thread inspects its vertex's topology and issues
``WEAVER_REG(vid, start, degree)`` (filtered vertices register degree
zero). One barrier separates the stages. Distribution: warps loop on
``WEAVER_DEC_ID`` / ``WEAVER_DEC_LOC``, getting densely packed
(VID, EID) work across all lanes until the unit returns -1; algorithms
with early exit send ``WEAVER_SKIP`` for finished vertices.  The
per-epoch protocol is :func:`repro.sched.common.weaver_epoch`; this
schedule supplies its topology read and its batch body.

Block-level balance comes for free (the per-core unit scans every
warp's registrations), work is handed out in request order (dynamic
distribution), and the only software overhead left is the single
barrier — the "low / low" complexity column of Table I.

When the vertex range exceeds one registration capacity, the kernel
runs multiple epochs; a trailing barrier protects the table reset
between epochs (the paper's single-epoch case keeps exactly one sync).

Without filters or early exit the Weaver's batches follow from the
registered topology alone, so the fast engine stores such a gather's
trace as :func:`compile_gather` lays it out, without running the warp
generators; the generators stay the reference engine's kernel, the
path of filtered and early-exit gathers, and the oracle the compiled
trace is tested against.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.fsm import WeaverFSM
from repro.core.unit import WeaverUnit
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    DEC_ID,
    DEC_LOC,
    EPOCH_RESET,
    NO_REGISTRATION,
    REGISTRATION_SYNC,
    WARP_ITERATION,
    check_early_exit,
    inspect_topology,
    process_edge_batch,
    unit_weights,
    weaver_epoch,
    weaver_registration,
)
from repro.sim.gpu import WarpContext
from repro.sim.instructions import (
    Op,
    Phase,
    alu,
    weaver_reg,
    weaver_skip,
)


class SparseWeaverSchedule(Schedule):
    """Hardware-woven dense work distribution.

    The constructor exposes the microarchitectural knobs the ablation
    benchmarks sweep: OD prefetch depth (decoupled scan), the zero-entry
    bitmap scan width (frontier-friendly skipping), and the DT
    write-buffer bypass. Defaults are the modeled hardware's.
    """

    name = "sparseweaver"
    label = "SW"
    uses_hardware_unit = True
    trace_safe = True

    def __init__(
        self,
        prefetch_depth: int = 4,
        zero_skip_width: int = None,
        dt_bypass: bool = True,
    ) -> None:
        self.prefetch_depth = prefetch_depth
        self.zero_skip_width = zero_skip_width
        self.dt_bypass = dt_bypass

    def unit_factory(self, env: KernelEnv):
        config = env.config
        prefetch_depth = self.prefetch_depth
        zero_skip_width = self.zero_skip_width
        dt_bypass = self.dt_bypass

        def build(core_id: int) -> WeaverUnit:
            unit = WeaverUnit(config, prefetch_depth, zero_skip_width,
                              core_id)
            if not dt_bypass:
                unit.DT_BYPASS_LATENCY = config.weaver_table_latency
            return unit

        return build

    def trace_builder(self, env: KernelEnv) -> Optional[Callable]:
        """:func:`compile_gather` for ``env``, or ``None`` when the
        algorithm filters or exits early: those batches depend on state
        the kernel mutates, so such gathers run live."""
        alg = env.algorithm
        if alg.has_base_filter or alg.has_other_filter or alg.has_early_exit:
            return None
        return partial(compile_gather, env,
                       WeaverFSM(None, env.lanes, self.zero_skip_width))

    def warp_factory(self, env: KernelEnv):
        num_epochs, registered = weaver_registration(env.config,
                                                     env.num_vertices)
        register = partial(inspect_topology, env)
        if env.algorithm.has_early_exit:
            def batch(bases, eids):
                yield from process_edge_batch(env, bases, eids)
                done = yield from check_early_exit(env, bases)
                if done.any():
                    for vid in np.unique(bases[done]).tolist():
                        yield weaver_skip(Phase.GATHER, vid)
        else:
            batch = partial(process_edge_batch, env)

        def factory(ctx):
            def kernel():
                for epoch in range(num_epochs):
                    if epoch:
                        yield EPOCH_RESET
                    yield from weaver_epoch(registered(ctx, epoch),
                                            register, batch)

            return kernel()

        return factory


def compile_gather(env: KernelEnv, fsm: WeaverFSM, compile: Callable,
                   compile_run: Callable) -> Tuple[list, list]:
    """The stored trace of an unfiltered gather, from the registered
    topology: what ``FastGPU``'s drain records by running every warp
    generator against a planning unit, record for record.

    ``compile`` and ``compile_run`` are the engine's record compilers
    (``GPU._compilers``); ``fsm`` scans each core's ST rows with the
    schedule's zero-skip width.  Returns ``(homes, plans)``:

    * ``homes[c]`` lists ``(slot, records)`` per warp of core ``c``,
      without the end-of-stream marker.  Per epoch a warp registers
      (the topology read and ``WEAVER_REG``, or an empty
      ``WEAVER_REG``), waits at the barrier and sends one batch
      request, the one whose empty reply ends its distribution loop;
      all but the last epoch end in the reset barrier.
    * ``plans[c]`` is core ``c``'s ``(log, bodies)``: per epoch, the
      ``(fsm_cycles, empty)`` of each of the scan's decodes, and one
      body per batch with work, in scan order: the batch's edge reads,
      gather and atomic (its captured update filed under the atomic),
      then the next batch request.
    """
    cfg = env.config
    graph = env.graph
    alg = env.algorithm
    region = env.region
    row_ptr = graph.row_ptr
    num_epochs, registered = weaver_registration(cfg, graph.num_vertices)

    # Registration: each registering warp-epoch's topology read and
    # WEAVER_REG entries, and each core's ST rows per epoch, in ST
    # index order (slot, then lane).
    reads: List[np.ndarray] = []
    entries: List[list] = []
    marks = []          # per core, per slot: per epoch, index or -1
    st_rows = []        # per core: per epoch: (vid, loc, degree) rows
    for core_id in range(cfg.num_cores):
        core_marks = []
        rows = [[] for _ in range(num_epochs)]
        for slot in range(cfg.warps_per_core):
            ctx = WarpContext(core_id, slot, cfg)
            slot_marks = []
            for epoch in range(num_epochs):
                vids = registered(ctx, epoch)
                if not vids.size:
                    slot_marks.append(-1)
                    continue
                after = vids + 1
                starts = row_ptr[vids]
                vid_list = vids.tolist()
                start_list = starts.tolist()
                degree_list = (row_ptr[after] - starts).tolist()
                rows[epoch] += zip(vid_list, start_list, degree_list)
                slot_marks.append(len(reads))
                reads.append(np.concatenate([vids, after]))
                entries.append(list(zip(range(len(vid_list)), vid_list,
                                        start_list, degree_list)))
            core_marks.append(slot_marks)
        marks.append(core_marks)
        st_rows.append(rows)

    # Distribution: the Weaver's scan of every core's epochs.
    logs = []
    runs = []           # (vid, first eid, count) of every batch
    batch_runs = []     # runs per batch, in scan order
    core_batches = []   # batches per core
    for rows in st_rows:
        log = []
        before = len(batch_runs)
        for epoch_rows in rows:
            decodes = fsm.scan_epoch(epoch_rows)
            log.append([(cycles, not work) for cycles, work in decodes])
            for _cycles, work in decodes:
                if work:
                    runs += work
                    batch_runs.append(len(work))
        logs.append(log)
        core_batches.append(len(batch_runs) - before)
    batches = len(batch_runs)
    warp_epochs = cfg.num_cores * cfg.warps_per_core * num_epochs
    # Every home epoch and every body ends in one batch request.
    iteration = compile(WARP_ITERATION, warp_epochs + batches)
    request = compile(DEC_ID, warp_epochs + batches)

    bodies: list = []
    if batches:
        vid, first, count = (np.array(column, dtype=np.int64)
                             for column in zip(*runs))
        ends = np.cumsum(count)
        bases = np.repeat(vid, count)
        eids = np.repeat(first - ends + count, count)
        eids += np.arange(eids.size, dtype=np.int64)
        others = graph.col_idx[eids]
        bounds = [0] + ends[np.cumsum(batch_runs) - 1].tolist()
        cuts = list(zip(bounds[:-1], bounds[1:]))
        batch_bases = [bases[a:b] for a, b in cuts]
        batch_eids = [eids[a:b] for a, b in cuts]
        batch_others = [others[a:b] for a, b in cuts]
        if alg.uses_weights:
            weights = graph.weights[eids]
            batch_weights = [weights[a:b] for a, b in cuts]
        else:
            batch_weights = [unit_weights(b - a) for a, b in cuts]
        # One column of records per body position (process_edge_batch).
        columns = [
            [compile(DEC_LOC, batches)] * batches,
            compile_run(Op.LOAD, Phase.EDGE_ACCESS, region("col_idx"),
                        batch_eids)]
        if alg.uses_weights:
            columns.append(compile_run(Op.LOAD, Phase.EDGE_ACCESS,
                                       region("weights"), batch_eids))
        for name in alg.edge_value_arrays:
            columns.append(compile_run(Op.LOAD, Phase.GATHER, region(name),
                                       batch_others))
        columns.append([compile(alu(Phase.GATHER, alg.gather_alu),
                                batches)] * batches)
        at = len(columns)
        targets = (batch_bases if alg.accumulate_target == "base"
                   else batch_others)
        columns.append(compile_run(Op.ATOMIC, Phase.GATHER,
                                   region(alg.acc_array), targets))
        columns += ([iteration] * batches, [request] * batches)
        bodies = list(zip(
            zip(*columns),
            [{at: [update]} for update in zip(batch_bases, batch_others,
                                              batch_weights, batch_eids)]))

    # Home streams: constants compile once, folded once per use.
    registering = len(reads)
    idle = warp_epochs - registering
    read_recs = (compile_run(Op.LOAD, Phase.REGISTRATION, region("row_ptr"),
                             reads) if registering else [])
    reg_recs = [compile(weaver_reg(Phase.REGISTRATION, warp_entries))
                for warp_entries in entries]
    reg_alu = (compile(alu(Phase.REGISTRATION), registering)
               if registering else None)
    reg_idle = compile(NO_REGISTRATION, idle) if idle else None
    tail = [compile(REGISTRATION_SYNC, warp_epochs), iteration, request]
    reset = (compile(EPOCH_RESET,
                     warp_epochs - cfg.num_cores * cfg.warps_per_core)
             if num_epochs > 1 else None)
    homes = []
    for core_marks in marks:
        warps = []
        for slot, slot_marks in enumerate(core_marks):
            records = []
            for epoch, k in enumerate(slot_marks):
                if k < 0:
                    records.append(reg_idle)
                else:
                    records += (read_recs[k], reg_alu, reg_recs[k])
                records += tail
                if epoch < num_epochs - 1:
                    records.append(reset)
            warps.append((slot, records))
        homes.append(warps)

    plans = []
    start = 0
    for log, size in zip(logs, core_batches):
        plans.append((log, bodies[start:start + size]))
        start += size
    return homes, plans
