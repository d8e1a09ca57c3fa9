"""Trace-and-replay fast-path execution engine.

The reference engine (:mod:`repro.sim.gpu`) re-runs every warp
generator and re-derives every cache-line set on every kernel launch.
For the schedules that opt in (``Schedule.trace_safe``), the
instruction stream of a kernel is *response-independent*: it depends
only on the topology and the launch geometry, never on simulated
latencies or on state values the kernel itself mutates.  ``FastGPU``
exploits that by storing each kernel's compiled records once and
feeding them to the one event loop on every later launch:

* **Drain** — run every warp generator once with ``next()`` (no
  simulation), compiling each instruction through the loop's own
  compiler into the same records a live launch issues, and keeping
  the static totals compiling folds.  Memory records' line sets are
  computed per chunk of accesses in one vectorized pass
  (:meth:`~repro.sim.memory.MemoryHierarchy.lines_of_many`), not one
  NumPy pass per access.  The drain is *barrier-aware*:
  warps advance in slot order one SYNC segment at a time, so schedules
  that coordinate through shared per-launch registries (cta_map, twc,
  twce) observe every sibling's registration before computing
  combined work — the same visibility order the reference barrier
  gives them.  Functional edge updates are captured, not applied.
* **Elementwise compile** — grid-stride init/apply kernels are
  compiled analytically from ``ReplayHint.elementwise`` without
  running a generator.
* **Compiled unit gather** — a schedule that lays out its own trace
  (``ReplayHint.build``: SparseWeaver's unfiltered gathers) hands the
  engine its home streams and plans, built from the registered
  topology through the loop's own compilers (:meth:`GPU._compilers`),
  so no generator resumes and no planning unit runs.
* **Unit plan** — any other hardware-unit gather drains against one
  planning unit per core.  With no filter or early exit a unit's batch
  contents depend only on the registered topology, and only *which
  warp* receives batch k depends on timing.  So each warp stores a *home*
  stream, and each work batch one *body*: the records its receiver
  issues up to and including its next batch request.  On replay the
  real unit keeps its timeline and answers each batch request with the
  body to run next, or with :data:`~repro.sim.gpu.HOME`.
* **Replay** — the stored records run through
  :meth:`GPU.run_kernel`'s loop: same heap, warp selection, barrier
  release, stall attribution, memory walk and observers, so cycles,
  stall cells, cache stats and provenance ledgers are
  **bit-identical** to the reference engine.  Captured edge updates
  are collected in issue order and applied against live state in one
  ``edge_update`` call on their concatenation after the loop: stored
  records never read algorithm state, and the ``edge_update``
  contract makes one call on concatenated batches equal to the batches
  in order, so float accumulation order is the reference's.

Launches without a replay hint (filtered or early-exit gathers, whose
streams read kernel-mutated state, and direct unit callers) run live.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.gpu import (_END, _FIXED, _READ, _SYNC, _UNIT, _WRITE, GPU,
                           KernelTrace, WarpContext)
from repro.sim.instructions import Op
from repro.sim.stats import KernelStats, stall_category

#: Unit requests whose reply hands the warp a batch of work.
_BATCH_OPS = (Op.WEAVER_DEC_ID, Op.EGHW_FETCH)

#: Memory accesses a drain collects before it computes their line sets
#: in one batch: enough to amortize the NumPy calls, few enough that a
#: scale-1.0 drain's temporary arrays stay small.
_LINE_CHUNK = 1024


class ReplayHint:
    """Replay directive one kernel launch hands to :class:`FastGPU`.

    ``key`` identifies the kernel within the GPU's trace store (the
    driver uses ``"init"`` / ``"gather"`` / ``"apply"``).  ``capture``
    is the list the kernels append tuples of argument arrays to during
    the trace drain (the driver's ``KernelEnv.capture``, which
    ``KernelEnv.edge_update`` appends to); ``effect`` is the callable a
    replay invokes once, after its loop, with each argument's arrays
    concatenated in issue order, to apply them against live state
    (``KernelEnv.apply_edges``).  Both are ``None`` for kernels without
    functional side effects.

    ``elementwise`` is an optional ``(reads, writes, alu_ops, phase,
    n)`` descriptor — region lists, ALU op count, issue phase, and the
    vertex count — for grid-stride elementwise kernels.  Because each
    warp touches a *contiguous* index range per epoch, the trace can be
    compiled analytically (cache lines are integer ranges) without ever
    running the warp generators; the launch may then pass
    ``warp_factory=None``.

    ``build`` is an optional ``build(compile, compile_run) -> (homes,
    plans)`` from :meth:`repro.sched.base.Schedule.trace_builder`: a
    unit gather's per-warp home records (without the end marker) and
    per-core plans, compiled through the given compilers.  The launch
    may then pass ``warp_factory=None``, and needs no ``capture``:
    the bodies carry their updates.
    """

    __slots__ = ("key", "capture", "effect", "elementwise", "build")

    def __init__(self, key: str, capture: Optional[list] = None,
                 effect: Optional[Callable] = None,
                 elementwise: Optional[tuple] = None,
                 build: Optional[Callable] = None) -> None:
        self.key = key
        self.capture = capture
        self.effect = effect
        self.elementwise = elementwise
        self.build = build


class FastGPU(GPU):
    """Drop-in :class:`GPU` that stores kernel traces and replays them."""

    supports_replay = True

    def __init__(self, config) -> None:
        super().__init__(config)
        self._traces: Dict[str, KernelTrace] = {}

    # ------------------------------------------------------------------
    def has_trace(self, key: str) -> bool:
        """Whether a kernel trace is already stored under ``key``."""
        return key in self._traces

    def _stored_trace(self, warp_factory, unit_factory, replay,
                      max_instructions) -> Optional[KernelTrace]:
        """The hinted trace, compiled on first use; ``None`` runs live.

        Launches without a hint run live: filtered or early-exit
        gathers (their streams read kernel-mutated state) and direct
        unit callers.
        """
        if replay is None:
            return None
        trace = self._traces.get(replay.key)
        if trace is None:
            if replay.elementwise is not None:
                trace = self._compile_elementwise(replay.elementwise)
            elif replay.build is not None:
                trace = self._build(replay.build, max_instructions)
            else:
                trace = self._drain(warp_factory, unit_factory,
                                    replay.capture, max_instructions)
            self._traces[replay.key] = trace
        return trace

    # ------------------------------------------------------------------
    def _compile_elementwise(self, desc: tuple) -> KernelTrace:
        """Compile a grid-stride elementwise kernel without generators.

        Mirrors ``frontend.framework._elementwise_kernel`` exactly:
        warp ``gwid`` covers indices ``[gwid*lanes + epoch*stride,
        ...)`` clipped to ``n``, a warp whose first index is out of
        range is never launched, and an epoch with no indices ends the
        warp.  Contiguous indices make every cache-line set an integer
        range, so records are built in O(1) per instruction.
        """
        reads, writes, alu_ops, phase, n = desc
        cfg = self.config
        span_lines = self.memory.span_lines
        lanes = cfg.threads_per_warp
        stride = cfg.total_threads
        num_epochs = max(1, -(-n // stride)) if n else 1
        memory_cat = stall_category(Op.LOAD)
        alu_rec = (_FIXED, alu_ops, alu_ops + cfg.alu_latency - 1, phase,
                   stall_category(Op.ALU), None, Op.ALU)
        store_delay = 1 + cfg.store_latency
        totals = KernelStats()
        counters = totals.counters
        epochs_run = 0
        cores = []
        for core_id in range(cfg.num_cores):
            entries = []
            for slot in range(cfg.warps_per_core):
                first = (core_id * cfg.warps_per_core + slot) * lanes
                if first >= n:
                    continue
                records = []
                for epoch in range(num_epochs):
                    a = first + epoch * stride
                    if a >= n:
                        break
                    b = min(a + lanes, n)
                    epochs_run += 1
                    for region in reads:
                        records.append((_READ, 1, 1, phase, memory_cat,
                                        span_lines(region, a, b),
                                        Op.LOAD))
                        counters[region.loads_key] += b - a
                    records.append(alu_rec)
                    for region in writes:
                        records.append((_WRITE, 1, store_delay, phase,
                                        memory_cat,
                                        span_lines(region, a, b),
                                        Op.STORE))
                records.append(_END)
                entries.append((slot, tuple(records), None))
            cores.append(entries)
        totals.warps_launched = sum(map(len, cores))
        if epochs_run:
            totals.instructions = epochs_run * (len(reads) + 1 + len(writes))
            if reads:
                totals.op_counts[Op.LOAD] = epochs_run * len(reads)
            totals.op_counts[Op.ALU] = epochs_run
            if writes:
                totals.op_counts[Op.STORE] = epochs_run * len(writes)
            totals.phase_cycles[phase] = epochs_run * (
                len(reads) + alu_ops + len(writes))
        return KernelTrace(cores, totals)

    # ------------------------------------------------------------------
    def _build(self, build: Callable, max_instructions: int) -> KernelTrace:
        """Store the trace a schedule lays out itself (``ReplayHint.
        build``): its records come from the loop's compilers, which fold
        the totals, and its warps' home streams get the end marker."""
        totals = KernelStats()
        homes, plans = build(*self._compilers(totals, max_instructions,
                                              has_unit=True))
        cores = [[(slot, (*records, _END), None) for slot, records in warps]
                 for warps in homes]
        totals.warps_launched = sum(map(len, cores))
        return KernelTrace(cores, totals, plans)

    # ------------------------------------------------------------------
    def _drain(self, warp_factory, unit_factory, capture: Optional[list],
               max_instructions: int) -> KernelTrace:
        """Drain every warp generator and compile its records.

        Barrier-aware round-robin: each pass advances every live warp
        (slot order) up to its next ``SYNC`` or to completion, so all
        pre-barrier shared-state writes land before any warp runs its
        post-barrier code — matching reference visibility because
        between-barrier shared writes are slot-keyed and post-barrier
        combination is idempotent (the ``trace_safe`` contract).
        Updates the kernels append to ``capture`` are moved, as they
        arrive, under the index of the record they precede.

        A unit launch drains against one *planning* unit per core, built
        by ``unit_factory`` and answering each unit record.  A batch
        request's reply that carries work starts a new body: the
        records the receiving warp issues up to and including its next
        batch request.  An empty reply sends the warp back to its home
        stream.  Bodies are filed in reply order, next to the unit's
        plan log, as the core's plan.
        """
        cfg = self.config
        if capture is None:
            capture = []
        capture.clear()
        totals = KernelStats()
        # Memory records get an empty line list on compile; every
        # _LINE_CHUNK accesses, and at the end, their lines are
        # computed in one batch and filled in.  The drain reads no
        # record's lines, and a kernel never writes to an index array
        # it has yielded (docs/extending.md).
        pending, accesses = [], []
        lines_of_many = self.memory.lines_of_many

        def fill_lines():
            for lines, found in zip(pending, lines_of_many(accesses)):
                lines += found
            pending.clear()
            accesses.clear()

        def defer_lines(region, indices):
            lines = []
            pending.append(lines)
            accesses.append((region, indices))
            if len(pending) == _LINE_CHUNK:
                fill_lines()
            return lines

        compile = self._compiler(totals, max_instructions,
                                 unit_factory is not None, defer_lines)
        cores = []
        plans = [] if unit_factory is not None else None
        for core_id in range(cfg.num_cores):
            # [slot, generator, home, sink] per launched warp; home and
            # sink are [records, effects] pairs, the sink the one the
            # warp's records currently go to.
            entries = []
            for slot in range(cfg.warps_per_core):
                gen = warp_factory(WarpContext(core_id, slot, cfg))
                if gen is not None:
                    home = [[], {}]
                    entries.append([slot, gen, home, home])
            totals.warps_launched += len(entries)
            if plans is not None:
                unit = unit_factory(core_id)
                log = unit.plan()
                bodies = []
            active = entries
            while active:
                for entry in active:
                    send = entry[1].send
                    records, effects = entry[3]
                    reply = None
                    while True:
                        try:
                            instr = send(reply)
                        except StopIteration:
                            instr = _END
                        if capture:
                            effects.setdefault(len(records), []).extend(
                                capture)
                            capture.clear()
                        if instr is _END:
                            entry[1] = None
                            records.append(_END)
                            break
                        rec = compile(instr)
                        records.append(rec)
                        kind = rec[0]
                        if kind == _SYNC:
                            break
                        reply = None
                        if kind == _UNIT:
                            _done, reply = unit.handle(rec[6], entry[0], 0,
                                                       rec[5])
                            if rec[6] in _BATCH_OPS:
                                if reply.exhausted:
                                    entry[3] = entry[2]
                                else:
                                    entry[3] = [[], {}]
                                    bodies.append(entry[3])
                                records, effects = entry[3]
                active = [entry for entry in active if entry[1] is not None]
            cores.append([(slot, tuple(home[0]), home[1] or None)
                          for slot, _gen, home, _sink in entries])
            if plans is not None:
                plans.append((log, [(tuple(recs), eff or None)
                                    for recs, eff in bodies]))
        fill_lines()
        return KernelTrace(cores, totals, plans)
