"""Event-driven SIMT execution engine.

Execution model (DESIGN.md §5):

* Each core holds ``warps_per_core`` resident warps; a warp is a Python
  generator yielding :class:`~repro.sim.instructions.Instr`.
* A core issues at most one warp instruction per cycle. After issuing,
  the warp is blocked until the instruction's latency elapses; meanwhile
  other ready warps issue. This reproduces the latency hiding that
  in-order, scoreboarded GPUs such as Vortex get from warp-level
  parallelism.
* When no warp is ready, the gap is charged as a stall attributed to the
  instruction class the *next-ready* warp is blocked on — the same
  attribution idea behind Nsight's "long/short scoreboard" stalls.
* Cores interleave through a global event heap keyed by core time, so
  shared L2/L3 state is touched in approximately true time order.
* Each core keeps its running warps in a ready queue, a heap keyed
  ``(ready, slot)``: the warp issued next is the lowest-slot warp among
  those that become ready first.
* ``SYNC`` is a core-wide barrier over non-finished warps.  Arrivals
  wait on a per-core list; once no warp of the core is running, the
  list is released in slot order.
* Weaver/EGHW instructions are dispatched to a per-core hardware unit
  which manages its own busy-time serialization and replies through
  ``generator.send`` (a live warp) or with the stored batch body the
  warp runs next (a replayed one).

Every instruction is first compiled (:meth:`GPU._compiler`) into a flat
*record* ``(kind, cost, delay, phase, cat, arg, op)``: ``cost`` issue
cycles, ``delay`` the fixed part of its completion offset, ``phase`` /
``cat`` what a stall behind it is charged to, ``arg`` the sorted cache
lines of a memory op (or a unit op's payload).  Compiling also folds
the static totals (instruction and op counts, issue-phase cycles,
counters), so the event loop of :meth:`GPU.run_kernel` only schedules,
walks memory and attributes stalls.  Each warp draws its records from
one of two sources: its live generator, compiled on issue, or a trace
the fast engine (:mod:`repro.sim.fast`) stored on an earlier launch.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.profile import get_profiler
from repro.obs.provenance import get_digester
from repro.sim.config import GPUConfig
from repro.sim.instructions import Instr, Op, Phase, as_index_array
from repro.sim.memory import MemoryHierarchy
from repro.sim.stats import CacheStats, KernelStats, StallCat, stall_category

#: Record kinds: completion is ``t + delay`` (FIXED, SYNC), ``t + delay
#: + walk`` (READ: loads, atomics), a walk whose latency the warp does
#: not wait for (WRITE: buffered stores), or the unit's reply (UNIT).
_FIXED, _READ, _WRITE, _SYNC, _UNIT = 0, 1, 2, 3, 4

#: End-of-stream marker terminating every stored record tuple.
_END = (-1,)

#: A replaying unit's reply to a batch request that carries no work:
#: the warp resumes its home record stream where it left it.
HOME = object()

_COUNTER = Op.COUNTER
_EXEC_DEP = stall_category(Op.NOP)
_SYNC_CAT = StallCat.SYNC

#: Hardware-unit opcodes and the stall class a warp waiting on each
#: is charged to.
_UNIT_CATS = {op: stall_category(op) for op in (
    Op.WEAVER_REG,
    Op.WEAVER_DEC_ID,
    Op.WEAVER_DEC_LOC,
    Op.WEAVER_SKIP,
    Op.EGHW_PUSH,
    Op.EGHW_FETCH,
)}


class WarpContext:
    """Identity of one resident warp, passed to kernel factories."""

    __slots__ = (
        "core_id",
        "warp_slot",
        "global_warp_id",
        "config",
        "lane_ids",
        "thread_ids",
    )

    def __init__(self, core_id: int, warp_slot: int, config: GPUConfig) -> None:
        self.core_id = core_id
        self.warp_slot = warp_slot
        self.config = config
        self.global_warp_id = core_id * config.warps_per_core + warp_slot
        self.lane_ids = np.arange(config.threads_per_warp, dtype=np.int64)
        self.thread_ids = (
            self.global_warp_id * config.threads_per_warp + self.lane_ids
        )

    @property
    def num_lanes(self) -> int:
        """Threads per warp."""
        return self.config.threads_per_warp

    @property
    def total_threads(self) -> int:
        """Grid-wide thread count (stride of vertex/edge loops)."""
        return self.config.total_threads


class KernelTrace:
    """A kernel's compiled records per warp plus their static totals.

    ``cores[c]`` lists ``(slot, records, effects)`` per launched warp of
    core ``c``: ``records`` is a tuple ending in the end-of-stream
    marker; ``effects`` maps a record index to the functional updates
    captured before that record (or ``None``): a replay collects them
    as the record issues and applies them all once its loop ends.
    ``totals`` is the :class:`KernelStats` compiling them folded.

    A hardware-unit kernel also stores ``plans[c] = (log, bodies)``:
    the log core ``c``'s unit wrote while planning the launch, and one
    ``(records, effects)`` body per work batch in reply order.  A warp's
    ``records`` are then its *home* stream; the replaying unit answers
    each batch request with the body the warp runs next, or
    :data:`HOME`.  ``plans`` is ``None`` for kernels without a unit.
    """

    __slots__ = ("cores", "totals", "plans")

    def __init__(self, cores: list, totals: KernelStats,
                 plans: Optional[list] = None) -> None:
        self.cores = cores
        self.totals = totals
        self.plans = plans


class _Warp:
    """One resident warp: its record source and scoreboard state."""

    __slots__ = ("slot", "gen", "response", "recs", "i", "eff", "home",
                 "ready", "cat", "phase")

    def __init__(self, slot: int, gen: Optional[Iterator[Instr]] = None,
                 recs: tuple = (), eff: Optional[dict] = None) -> None:
        self.slot = slot
        self.gen = gen
        self.response: Any = None
        self.recs = recs
        self.i = 0
        self.eff = eff
        #: ``(recs, eff, i)`` of the home stream while a body runs.
        self.home: Optional[tuple] = None
        self.ready = 0
        self.cat = _EXEC_DEP
        self.phase = Phase.OTHER


WarpFactory = Callable[[WarpContext], Optional[Iterator[Instr]]]
UnitFactory = Callable[[int], Any]


def _conflicts(arrays: List[np.ndarray]) -> List[int]:
    """Per index array, how many of its lanes repeat an element an
    earlier lane holds: its size minus its distinct elements."""
    sizes = np.fromiter(map(len, arrays), np.int64, len(arrays))
    flat = np.concatenate(arrays)
    which = np.repeat(np.arange(len(arrays), dtype=np.int64), sizes)
    order = np.lexsort((flat, which))
    flat, which = flat[order], which[order]
    repeat = np.zeros(flat.size, dtype=bool)
    repeat[1:] = (flat[1:] == flat[:-1]) & (which[1:] == which[:-1])
    return np.bincount(which[repeat], minlength=len(arrays)).tolist()


def _too_many(max_instructions: int) -> SimulationError:
    return SimulationError(
        f"kernel exceeded {max_instructions} instructions; "
        "likely a non-terminating kernel")


class GPU:
    """The simulated GPU: cores + memory hierarchy + optional units."""

    #: Whether :meth:`run_kernel` consumes ``replay`` hints.  Drivers
    #: use this to decide when a gather's edge updates are recorded at
    #: trace time (the fast engine) instead of applied live (the
    #: reference engine).
    supports_replay = False

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.memory = MemoryHierarchy(config)

    # ------------------------------------------------------------------
    def has_trace(self, key: str) -> bool:
        """Whether a kernel trace is stored under ``key``.

        The reference engine never stores traces; the fast engine
        (:class:`repro.sim.fast.FastGPU`) overrides this so drivers can
        skip rebuilding warp factories for kernels that will replay.
        """
        return False

    def _stored_trace(self, warp_factory, unit_factory, replay,
                      max_instructions) -> Optional[KernelTrace]:
        """The trace a launch replays, or ``None`` to run it live.

        The reference engine runs every launch live; the fast engine
        returns (compiling and storing it first, if needed) the trace
        its ``replay`` hint names.
        """
        return None

    # ------------------------------------------------------------------
    def _compiler(self, totals: KernelStats, max_instructions: int,
                  has_unit: bool = False,
                  lines_of: Optional[Callable[[Any, np.ndarray], list]]
                  = None) -> Callable[..., tuple]:
        """The per-opcode cost table, as a ``compile(instr)`` function
        (the first of :meth:`_compilers`)."""
        return self._compilers(totals, max_instructions, has_unit,
                               lines_of)[0]

    def _compilers(self, totals: KernelStats, max_instructions: int,
                   has_unit: bool = False,
                   lines_of: Optional[Callable[[Any, np.ndarray], list]]
                   = None) -> Tuple[Callable[..., tuple],
                                    Callable[..., list]]:
        """The per-opcode cost table, as ``(compile, compile_run)``.

        ``compile(instr, uses=1)`` returns the instruction's record (see
        the module docstring) and folds its static totals into
        ``totals`` ``uses`` times: a live launch folds into its own
        stats, the fast engine into the totals it stores with a trace,
        and a trace that issues one record ``uses`` times compiles it
        once.  ``COUNTER`` pseudo-instructions fold their value and
        compile to a zero-cost record — it still resets the warp's
        ready time to *now*, which steers warp selection, so it stays
        in the stream.

        ``compile_run(op, phase, region, arrays)`` returns the records
        of one ``LOAD``, ``STORE`` or ``ATOMIC`` of ``region`` per index
        array (each a 1-D int64 array, as ``as_index_array`` returns),
        exactly what ``compile`` gives each, with every line set from
        one :meth:`MemoryHierarchy.lines_of_many` call.

        ``lines_of(region, indices)`` gives a memory record of
        ``compile`` its line list; it defaults to
        :meth:`MemoryHierarchy.lines_of`.  The fast engine's drain
        passes one that returns an empty list and fills it later,
        batched with other accesses.
        """
        cfg = self.config
        if lines_of is None:
            lines_of = self.memory.lines_of
        lines_of_many = self.memory.lines_of_many
        op_counts = totals.op_counts
        phase_cycles = totals.phase_cycles
        counters = totals.counters
        alu_delay = cfg.alu_latency - 1
        shmem_delay = cfg.shmem_latency - 1
        store_delay = 1 + cfg.store_latency
        atomic_extra = cfg.atomic_extra
        atomic_delay = 1 + atomic_extra
        memory_cat = stall_category(Op.LOAD)
        shared_cat = stall_category(Op.SHMEM_LOAD)
        LOAD, STORE, ATOMIC, ALU = Op.LOAD, Op.STORE, Op.ATOMIC, Op.ALU
        SHMEM_LOAD, SHMEM_STORE = Op.SHMEM_LOAD, Op.SHMEM_STORE
        SYNC, NOP = Op.SYNC, Op.NOP
        ndarray, int64 = np.ndarray, np.dtype(np.int64)

        def compile(instr: Instr, uses: int = 1) -> tuple:
            op = instr.op
            phase = instr.phase
            if op is LOAD or op is STORE or op is ATOMIC:
                idx = instr.indices
                # A 1-D int64 array is what ``as_index_array`` returns.
                if (type(idx) is not ndarray or idx.dtype is not int64
                        or idx.ndim != 1):
                    idx = as_index_array(idx)
                size = idx.size
                if not size:
                    rec = (_FIXED, 1, 1, phase, memory_cat, None, op)
                elif op is LOAD:
                    region = instr.region
                    # Element-level traffic accounting per array: lets
                    # tests check the Table I access formulas.
                    counters[region.loads_key] += size * uses
                    rec = (_READ, 1, 1, phase, memory_cat,
                           lines_of(region, idx), op)
                elif op is STORE:
                    # Write-allocate for cache state; the warp itself
                    # only pays the (buffered) store latency.
                    rec = (_WRITE, 1, store_delay, phase, memory_cat,
                           lines_of(instr.region, idx), op)
                else:
                    # Conflicting lanes (same element) serialize.
                    values = idx.tolist()
                    conflicts = len(values) - len(set(values))
                    rec = (_READ, 1, atomic_delay + atomic_extra * conflicts,
                           phase, memory_cat, lines_of(instr.region, idx),
                           op)
            elif op is ALU:
                c = instr.count
                rec = (_FIXED, c, c + alu_delay, phase, _EXEC_DEP, None, op)
            elif op in _UNIT_CATS:
                if not has_unit:
                    raise SimulationError(
                        f"{op.name} issued but the kernel was launched "
                        "without a hardware unit")
                rec = (_UNIT, 1, 0, phase, _UNIT_CATS[op], instr.payload,
                       op)
            elif op is SHMEM_LOAD or op is SHMEM_STORE:
                c = instr.count
                rec = (_FIXED, c, c + shmem_delay, phase, shared_cat, None,
                       op)
            elif op is _COUNTER:
                name, value = instr.payload
                counters[name] += value * uses
                return (_FIXED, 0, 0, phase, _EXEC_DEP, None, op)
            elif op is SYNC:
                rec = (_SYNC, 1, 1, phase, _SYNC_CAT, None, op)
            elif op is NOP:
                rec = (_FIXED, 1, 1, phase, _EXEC_DEP, None, op)
            else:
                raise SimulationError(f"unknown opcode {op!r}")
            totals.instructions += uses
            if totals.instructions > max_instructions:
                raise _too_many(max_instructions)
            op_counts[op] += uses
            phase_cycles[phase] += rec[1] * uses
            return rec

        def compile_run(op: Op, phase: Phase, region: Any,
                        arrays: List[np.ndarray]) -> list:
            if not all(map(len, arrays)):
                return [compile(Instr(op, phase, region, a))
                        for a in arrays]
            found = lines_of_many([(region, a) for a in arrays])
            uses = len(arrays)
            totals.instructions += uses
            if totals.instructions > max_instructions:
                raise _too_many(max_instructions)
            op_counts[op] += uses
            phase_cycles[phase] += uses
            if op is LOAD:
                counters[region.loads_key] += sum(map(len, arrays))
                return [(_READ, 1, 1, phase, memory_cat, lines, op)
                        for lines in found]
            if op is STORE:
                return [(_WRITE, 1, store_delay, phase, memory_cat, lines,
                         op) for lines in found]
            return [(_READ, 1, atomic_delay + atomic_extra * conflicts,
                     phase, memory_cat, lines, op)
                    for conflicts, lines in zip(_conflicts(arrays), found)]

        return compile, compile_run

    # ------------------------------------------------------------------
    def run_kernel(
        self,
        warp_factory: Optional[WarpFactory],
        unit_factory: Optional[UnitFactory] = None,
        flush_caches: bool = False,
        max_instructions: int = 500_000_000,
        tracer: Optional[Any] = None,
        replay: Optional[Any] = None,
    ) -> KernelStats:
        """Run one kernel to completion and return its statistics.

        Parameters
        ----------
        warp_factory:
            Called once per resident warp with a :class:`WarpContext`;
            returns the warp's instruction generator, or ``None`` when
            the warp has no work (it never participates in barriers).
        unit_factory:
            Optional per-core hardware unit constructor (Weaver or
            EGHW). The unit must expose
            ``handle(op, warp_slot, now, payload) -> (done_time, response)``.
            A unit launch the fast engine replays also calls
            ``plan()`` (while draining) and ``replay(log, bodies)``
            (per replayed launch); see :class:`KernelTrace`.
        flush_caches:
            Invalidate caches before the kernel (cold-start runs).
        max_instructions:
            Safety valve against runaway kernels.
        tracer:
            Optional observer (e.g. :class:`repro.sim.trace.
            ExecutionTracer`): ``on_issue(t, core, warp, op, phase,
            done)`` per issued instruction, ``on_stall(t, core, warp,
            cat, cycles)`` per attributed stall gap, ``on_mem(t, core,
            lines, latency)`` per memory walk and ``on_kernel(stats)``
            at kernel end.  The enabled provenance digester observes
            through the same hooks.
        replay:
            Optional :class:`repro.sim.fast.ReplayHint`.  The reference
            engine ignores it (every launch runs live); it exists so
            drivers can pass one hint down regardless of which engine
            built the GPU.
        """
        cfg = self.config
        mem = self.memory
        if flush_caches:
            mem.flush()
        mem.begin_kernel()
        stats = KernelStats()
        dram_before = mem.dram_accesses
        cache_before = mem.cache_counts()
        # Host-side profiler: every section timer below hides behind
        # this one local truth test, so a disabled profiler reads no
        # clocks — simulated cycles are bit-identical either way
        # (perf_counter never feeds the simulation).
        profiler = get_profiler()
        prof_on = profiler.enabled
        kernel_start = perf_counter() if prof_on else 0.0
        digester = get_digester()
        obs = tuple(o for o in (tracer, digester if digester.enabled
                                else None) if o is not None)
        mem.observers = obs

        units: Dict[int, Any] = {}
        cores = []
        compile = effect = None
        updates = []
        trace = self._stored_trace(warp_factory, unit_factory, replay,
                                   max_instructions)
        if trace is None:
            compile = self._compiler(stats, max_instructions,
                                     unit_factory is not None)
            for core_id in range(cfg.num_cores):
                warps = []
                for slot in range(cfg.warps_per_core):
                    gen = warp_factory(WarpContext(core_id, slot, cfg))
                    if gen is not None:
                        warps.append(_Warp(slot, gen))
                cores.append(warps)
                if unit_factory is not None:
                    units[core_id] = unit_factory(core_id)
            stats.warps_launched = sum(map(len, cores))
        else:
            totals = trace.totals
            if totals.instructions > max_instructions:
                raise _too_many(max_instructions)
            stats.instructions = totals.instructions
            stats.warps_launched = totals.warps_launched
            stats.op_counts.update(totals.op_counts)
            stats.phase_cycles.update(totals.phase_cycles)
            stats.counters.update(totals.counters)
            effect = replay.effect
            collect = updates.extend
            cores = [[_Warp(slot, recs=recs, eff=eff)
                      for slot, recs, eff in entries]
                     for entries in trace.cores]
            for core_id, (log, bodies) in enumerate(trace.plans or ()):
                units[core_id] = unit_factory(core_id)
                units[core_id].replay(log, bodies)
        # Per core: the running warps' ready queue, ``(ready, slot,
        # warp)`` entries in slot order at start (a valid heap), and
        # the warps waiting at a barrier.
        queues = [[(0, w.slot, w) for w in warps] for warps in cores]
        waiting = [[] for _ in cores]
        heap = [(0, core_id) for core_id, warps in enumerate(cores)
                if warps]
        walk = mem.walk
        if prof_on:
            profiler.add("setup", perf_counter() - kernel_start)
            untimed_walk = walk

            def walk(core_id, lines, now):
                start = perf_counter()
                latency = untimed_walk(core_id, lines, now)
                profiler.add("mem/access", perf_counter() - start)
                return latency

        stall_cells = stats.stall_cells
        phase_cycles = stats.phase_cycles
        core_time = [0] * cfg.num_cores
        pop = heapq.heappop
        pushpop = heapq.heappushpop
        replace = heapq.heapreplace
        event = pop(heap) if heap else None
        while event is not None:
            if prof_on:
                sched_start = perf_counter()
            t, core_id = event
            queue = queues[core_id]
            if not queue:
                blocked = waiting[core_id]
                if blocked:
                    blocked.sort(key=lambda w: w.slot)
                    release = max(max(w.ready for w in blocked), t)
                    # Barrier cost is warp-level waiting: early arrivals
                    # sit idle until the last warp shows up.
                    for w in blocked:
                        wait = release - w.ready
                        if wait:
                            stall_cells[(core_id, w.slot, _SYNC_CAT)] += wait
                            if obs:
                                for o in obs:
                                    o.on_stall(w.ready, core_id, w.slot,
                                               _SYNC_CAT, wait)
                        w.ready = release
                        queue.append((release, w.slot, w))
                    waiting[core_id] = []
                    event = pushpop(heap, (release, core_id))
                else:
                    event = pop(heap) if heap else None
                if prof_on:
                    profiler.add("schedule", perf_counter() - sched_start)
                continue

            best, _, warp = queue[0]
            if best > t:
                gap = best - t
                # Only the attribution cells accumulate in the loop;
                # the per-category counters are folded from them at
                # kernel end, keeping the hot path at one increment.
                stall_cells[(core_id, warp.slot, warp.cat)] += gap
                phase_cycles[warp.phase] += gap
                if obs:
                    for o in obs:
                        o.on_stall(t, core_id, warp.slot, warp.cat, gap)
                t = best
            if prof_on:
                draw_start = perf_counter()
                profiler.add("schedule", draw_start - sched_start)

            gen = warp.gen
            if gen is not None:
                try:
                    rec = gen.send(warp.response)
                except StopIteration:
                    rec = _END
            else:
                i = warp.i
                if warp.eff is not None:
                    # Functional updates captured at trace time are
                    # collected in issue order, the order the live
                    # generators would have applied them in.
                    collect(warp.eff.get(i, ()))
                rec = warp.recs[i]
                warp.i = i + 1
            if rec is _END:
                pop(queue)
                if t > core_time[core_id]:
                    core_time[core_id] = t
                if queue or waiting[core_id]:
                    event = pushpop(heap, (t, core_id))
                else:
                    event = pop(heap) if heap else None
                if prof_on:
                    profiler.add("kernel", perf_counter() - draw_start)
                continue
            if prof_on:
                execute_start = perf_counter()
                profiler.add("kernel", execute_start - draw_start)

            if gen is not None:
                warp.response = None
                rec = compile(rec)
            kind = rec[0]
            if kind == _FIXED:
                done = t + rec[2]
            elif kind == _READ:
                done = t + rec[2] + walk(core_id, rec[5], t)
            elif kind == _WRITE:
                walk(core_id, rec[5], t)
                done = t + rec[2]
            elif kind == _SYNC:
                done = t + rec[2]
            else:
                done, reply = units[core_id].handle(
                    rec[6], warp.slot, t + 1, rec[5])
                done += rec[2]
                if gen is not None:
                    warp.response = reply
                elif reply is HOME:
                    if warp.home is not None:
                        warp.recs, warp.eff, warp.i = warp.home
                        warp.home = None
                elif reply is not None:
                    # A stored batch body: its records run next, then
                    # a HOME reply resumes the saved home position.
                    if warp.home is None:
                        warp.home = (warp.recs, warp.eff, warp.i)
                    warp.recs, warp.eff = reply
                    warp.i = 0
            if prof_on:
                account_start = perf_counter()
                profiler.add_op(rec[6].name, account_start - execute_start)
            if obs and rec[6] is not _COUNTER:
                for o in obs:
                    o.on_issue(t, core_id, warp.slot, rec[6], rec[3], done)
            warp.ready = done
            warp.cat = rec[4]
            warp.phase = rec[3]
            if kind == _SYNC:
                pop(queue)
                waiting[core_id].append(warp)
            else:
                replace(queue, (done, warp.slot, warp))
            t += rec[1]
            if t > core_time[core_id]:
                core_time[core_id] = t
            event = pushpop(heap, (t, core_id))
            if prof_on:
                profiler.add("account", perf_counter() - account_start)

        finalize_start = perf_counter() if prof_on else 0.0
        if updates:
            # Stored records never read algorithm state, and one
            # ``edge_update`` on the updates concatenated in issue order
            # leaves the state applying them one by one leaves (see
            # ``frontend.udf.Algorithm``), so they apply in one call.
            effect(*map(np.concatenate, zip(*updates)))
        mem.observers = ()
        for core_id, warps in enumerate(cores):
            if waiting[core_id]:
                raise SimulationError(
                    f"core {core_id}: {len(waiting[core_id])} warps stuck "
                    "at a barrier at kernel end (mismatched SYNC counts)"
                )
            tail = max((w.ready for w in warps), default=0)
            core_time[core_id] = max(core_time[core_id], tail)

        stats.total_cycles = max(core_time)
        for (_core, _warp, cat), cycles in stall_cells.items():
            stats.stall_cycles[cat] += cycles
        # Cache tag state (and so its counters) persists across the
        # kernels of one GPU; a kernel's stats hold its own increments.
        stats.cache = {name: CacheStats(hits - cache_before[name][0],
                                        misses - cache_before[name][1])
                       for name, (hits, misses)
                       in mem.cache_counts().items()}
        stats.dram_accesses = mem.dram_accesses - dram_before
        for o in obs:
            o.on_kernel(stats)
        if prof_on:
            profiler.add("finalize", perf_counter() - finalize_start)
        return stats
