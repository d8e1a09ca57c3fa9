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
  the static totals compiling folds.  The drain is *barrier-aware*:
  warps advance in slot order one SYNC segment at a time, so schedules
  that coordinate through shared per-launch registries (cta_map, twc,
  twce) observe every sibling's registration before computing
  combined work — the same visibility order the reference barrier
  gives them.  Functional edge updates are captured, not applied.
* **Elementwise compile** — grid-stride init/apply kernels are
  compiled analytically from ``ReplayHint.elementwise`` without
  running a generator.
* **Replay** — the stored records run through
  :meth:`GPU.run_kernel`'s loop: same heap, warp selection, barrier
  release, stall attribution, memory walk and observers, so cycles,
  stall cells, cache stats and provenance ledgers are
  **bit-identical** to the reference engine.  Captured edge updates
  are re-applied in issue order against live state, preserving float
  accumulation order.

Kernels the fast path does not cover (hardware-unit schedules, and
launches without a replay hint such as filtered/early-exit gathers,
whose streams read kernel-mutated state) run live, counted in
``sim_engine_fallback_total``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.metrics import get_registry
from repro.sim.gpu import (_END, _FIXED, _READ, _SYNC, _WRITE, GPU,
                           KernelTrace, WarpContext)
from repro.sim.instructions import Op
from repro.sim.stats import KernelStats, stall_category


class ReplayHint:
    """Replay directive one kernel launch hands to :class:`FastGPU`.

    ``key`` identifies the kernel within the GPU's trace store (the
    driver uses ``"init"`` / ``"gather"`` / ``"apply"``).  ``capture``
    is the list a recording ``edge_update`` appends argument tuples to
    during the trace drain; ``effect`` is the callable replay invokes
    (in issue order) to apply each captured tuple against live state.
    Both are ``None`` for kernels without functional side effects.

    ``elementwise`` is an optional ``(reads, writes, alu_ops, phase,
    n)`` descriptor — region lists, ALU op count, issue phase, and the
    vertex count — for grid-stride elementwise kernels.  Because each
    warp touches a *contiguous* index range per epoch, the trace can be
    compiled analytically (cache lines are integer ranges) without ever
    running the warp generators; the launch may then pass
    ``warp_factory=None``.
    """

    __slots__ = ("key", "capture", "effect", "elementwise")

    def __init__(self, key: str, capture: Optional[list] = None,
                 effect: Optional[Callable] = None,
                 elementwise: Optional[tuple] = None) -> None:
        self.key = key
        self.capture = capture
        self.effect = effect
        self.elementwise = elementwise


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

        Hardware-unit launches run live: units reply through
        ``generator.send``, so their streams are response-dependent.
        """
        if replay is None or unit_factory is not None:
            get_registry().counter(
                "sim_engine_fallback_total",
                "Kernels the fast engine delegated to the reference loop",
            ).inc(reason="unit" if unit_factory is not None else "no_hint")
            return None
        trace = self._traces.get(replay.key)
        if trace is None:
            if replay.elementwise is not None:
                trace = self._compile_elementwise(replay.elementwise)
            else:
                trace = self._drain(warp_factory, replay.capture,
                                    max_instructions)
            self._traces[replay.key] = trace
        return trace

    # ------------------------------------------------------------------
    def _compile_elementwise(self, desc: tuple) -> KernelTrace:
        """Compile a grid-stride elementwise kernel without generators.

        Mirrors ``frontend.framework._elementwise_factory`` exactly:
        warp ``gwid`` covers indices ``[gwid*lanes + epoch*stride,
        ...)`` clipped to ``n``, a warp whose first index is out of
        range is never launched, and an epoch with no indices ends the
        warp.  Contiguous indices make every cache-line set an integer
        range, so records are built in O(1) per instruction.
        """
        reads, writes, alu_ops, phase, n = desc
        cfg = self.config
        shift = self.memory._line_shift
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
                                        _span_lines(region, a, b, shift),
                                        Op.LOAD))
                        counters["elements_loaded:" + region.name] += b - a
                    records.append(alu_rec)
                    for region in writes:
                        records.append((_WRITE, 1, store_delay, phase,
                                        memory_cat,
                                        _span_lines(region, a, b, shift),
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
    def _drain(self, warp_factory, capture: Optional[list],
               max_instructions: int) -> KernelTrace:
        """Drain every warp generator and compile its records.

        Barrier-aware round-robin: each pass advances every live warp
        (slot order) up to its next ``SYNC`` or to completion, so all
        pre-barrier shared-state writes land before any warp runs its
        post-barrier code — matching reference visibility because
        between-barrier shared writes are slot-keyed and post-barrier
        combination is idempotent (the ``trace_safe`` contract).
        Updates the recording ``edge_update`` appends to ``capture``
        are filed under the index of the record they precede.
        """
        cfg = self.config
        if capture is None:
            capture = []
        del capture[:]
        totals = KernelStats()
        compile = self._compiler(totals, max_instructions)
        cores = []
        for core_id in range(cfg.num_cores):
            # [slot, generator, records, effects] per launched warp
            entries = []
            for slot in range(cfg.warps_per_core):
                gen = warp_factory(WarpContext(core_id, slot, cfg))
                if gen is not None:
                    entries.append([slot, gen, [], {}])
            totals.warps_launched += len(entries)
            active = entries
            while active:
                for entry in active:
                    gen, records, effects = entry[1], entry[2], entry[3]
                    while True:
                        mark = len(capture)
                        try:
                            instr = next(gen)
                        except StopIteration:
                            entry[1] = None
                        if len(capture) > mark:
                            effects.setdefault(len(records), []).extend(
                                capture[mark:])
                        if entry[1] is None:
                            records.append(_END)
                            break
                        rec = compile(instr)
                        records.append(rec)
                        if rec[0] == _SYNC:
                            break
                active = [entry for entry in active if entry[1] is not None]
            cores.append([(slot, tuple(records), effects or None)
                          for slot, _gen, records, effects in entries])
        return KernelTrace(cores, totals)


def _span_lines(region, a: int, b: int, shift: int) -> range:
    """Cache lines of the contiguous element span ``region[a:b]``."""
    return range((region.base + a * region.itemsize) >> shift,
                 ((region.base + (b - 1) * region.itemsize) >> shift) + 1)
