"""Property tests: the Weaver and EGHW units vs per-item reference models.

Both hardware units hand out work in runs (an ST entry's slice of an
OD batch, a warp-width chunk of a vertex's edge list).  The models
below produce the same replies one work item or edge record at a time,
the way ``ReferenceLRU`` serves the cache; every reply of the real unit
must match them exactly, timing included.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.core.eghw import EGHWUnit
from repro.core.unit import WeaverUnit
from repro.errors import WeaverError
from repro.graph.csr import CSRGraph
from repro.sim import CacheConfig, GPUConfig, MemoryMap
from repro.sim.config import KB
from repro.sim.gpu import HOME
from repro.sim.instructions import Op
from repro.sim.memory import MemoryHierarchy


# ----------------------------------------------------------------------
# Weaver
# ----------------------------------------------------------------------
class ReferenceWeaver:
    """Per-item Weaver: FSM states of Fig. 6 plus the unit's timing.

    The OD holds one ``(vid, eid)`` pair per work item; decode replies
    are plain lists and state names (``"S0"``..``"S8"``).
    """

    def __init__(self, lanes, zero_skip_width, prefetch_depth,
                 table_latency):
        self.lanes = lanes
        self.width = zero_skip_width
        self.depth = prefetch_depth
        self.table_latency = table_latency
        self.bypass = min(table_latency, WeaverUnit.DT_BYPASS_LATENCY)
        self.slots = {}
        self.dt = {}
        self.skipped = set()
        self.state = "S0"
        self.entries, self.pos, self.ced = [], 0, None
        self.ready = []
        self.scan_time = 0
        self.scan_started = False
        self.free_at = 0
        self.epoch_open = False

    # -- FSM -----------------------------------------------------------
    def _skip_zeros(self):
        count = 0
        while self.pos < len(self.entries):
            vid, _, degree = self.entries[self.pos]
            if degree > 0 and vid not in self.skipped:
                break
            self.pos += 1
            count += 1
        return -(-count // self.width)

    def _load(self):
        vid, loc, degree = self.entries[self.pos]
        self.pos += 1
        self.ced = [vid, loc, 0 if vid in self.skipped else degree]

    def _decode(self):
        if self.state == "S8":
            return self._reply([], [], 0, 1)
        states, bitmap, od = [], 0, []
        if self.state == "S0":
            self.entries = [self.slots[i] for i in sorted(self.slots)]
            self.pos, self.ced = 0, None
            bitmap += self._skip_zeros()
            states.append("S1")
            if self.pos < len(self.entries):
                self._load()
        while True:
            states.append("S2")
            while (self.ced is not None and self.ced[2] > 0
                   and len(od) < self.lanes):
                od.append((self.ced[0], self.ced[1]))
                self.ced[1] += 1
                self.ced[2] -= 1
            if len(od) == self.lanes:
                states += ["S5", "S6"]
                break
            bitmap += self._skip_zeros()
            if self.pos < len(self.entries):
                states.append("S3")
                self._load()
                states.append("S4")
                continue
            states += ["S7", "S8"]
            break
        self.state = states[-1]
        reads = states.count("S1") + states.count("S3")
        return self._reply(od, states, reads, len(states) + bitmap)

    def _reply(self, od, states, reads, cycles):
        pad = [-1] * (self.lanes - len(od))
        vids = [vid for vid, _ in od] + pad
        return {"vids": vids, "eids": [eid for _, eid in od] + pad,
                "mask": [v >= 0 for v in vids], "fsm_cycles": cycles,
                "st_reads": reads, "states": states}

    # -- timed unit ----------------------------------------------------
    def reg(self, warp, now, entries):
        if not self.epoch_open:
            self.slots.clear()
            self.dt.clear()
            self.skipped.clear()
            self.state, self.ced = "S0", None
            self.ready.clear()
            self.scan_started = False
            self.epoch_open = True
        for lane, vid, loc, degree in entries:
            self.slots[warp * self.lanes + lane] = (vid, loc, degree)
        start = max(now, self.free_at)
        self.free_at = start + 1
        return start + 1

    def _refill(self):
        if not self.scan_started and self.state != "S8":
            self.scan_time += self.table_latency
            self.scan_started = True
        while len(self.ready) < self.depth and self.state != "S8":
            reply = self._decode()
            self.scan_time += reply["fsm_cycles"]
            self.ready.append((reply, self.scan_time))
            if not any(reply["mask"]):
                break

    def dec_id(self, warp, now):
        start = max(now, self.free_at)
        self.scan_time = max(self.scan_time, start)
        if not self.ready:
            self._refill()
        if self.ready:
            reply, at = self.ready.pop(0)
            wait = max(0, at - start)
        else:
            reply = self._decode()
            wait = reply["fsm_cycles"]
        self.dt[warp] = reply["eids"]
        self._refill()
        if self.state == "S8" and not self.ready:
            self.epoch_open = False
        self.free_at = start + wait + 1
        return self.free_at, reply

    def dec_loc(self, warp, now):
        return now + self.bypass, self.dt[warp]

    def skip(self, vid, now):
        self.skipped.add(vid)
        if self.ced is not None and self.ced[0] == vid:
            self.ced[2] = 0
        return now + 1


def _decoded(result):
    return {"vids": result.vids.tolist(), "eids": result.eids.tolist(),
            "mask": result.mask.tolist(), "fsm_cycles": result.fsm_cycles,
            "st_reads": result.st_reads,
            "states": [s.value for s in result.states]}


WARPS = 4


@st.composite
def weaver_runs(draw):
    """Two registration epochs, each with decodes, skips and reads."""
    lanes = draw(st.sampled_from([1, 2, 4, 8]))
    knobs = (draw(st.sampled_from([1, 4, 32])),      # zero_skip_width
             draw(st.sampled_from([1, 4])),          # prefetch_depth
             draw(st.sampled_from([2, 40])))         # table latency
    degree = st.one_of(st.just(0), st.integers(0, 3),
                       st.integers(0, 3 * lanes + 1))
    epochs = []
    for _ in range(2):
        regs = []
        loc = 0
        for warp in range(WARPS):
            lanes_used = draw(st.lists(st.integers(0, lanes - 1),
                                       unique=True, max_size=lanes))
            entries = []
            for lane in sorted(lanes_used):
                d = draw(degree)
                entries.append((lane, draw(st.integers(0, 11)), loc, d))
                loc += d
            regs.append(entries)
        ops = draw(st.lists(st.tuples(
            st.sampled_from(["dec", "dec", "dec", "loc", "skip"]),
            st.integers(0, 11),                # vid; arg % WARPS is the warp
            st.integers(0, 60)), max_size=30))  # time step
        epochs.append((regs, ops))
    return lanes, knobs, epochs


@given(weaver_runs())
@settings(max_examples=150, deadline=None)
def test_weaver_unit_matches_per_item_model(run):
    lanes, (width, depth, latency), epochs = run
    cfg = GPUConfig(num_sockets=1, cores_per_socket=1,
                    warps_per_core=WARPS, threads_per_warp=lanes,
                    weaver_table_latency=latency)
    unit = WeaverUnit(cfg, prefetch_depth=depth)
    unit.fsm.zero_skip_width = width
    ref = ReferenceWeaver(lanes, width, depth, latency)
    now = 0
    for regs, ops in epochs:
        for warp, entries in enumerate(regs):
            now += 1
            done, _ = unit.handle(Op.WEAVER_REG, warp, now, entries)
            assert done == ref.reg(warp, now, entries)
        # Decode past exhaustion so the next epoch may register.
        ops = ops + [("dec", w, 5) for w in range(WARPS)] * (
            4 + sum(e[3] for r in regs for e in r) // lanes)
        for kind, arg, step in ops:
            now += step
            warp = arg % WARPS
            if kind == "skip":
                done, _ = unit.handle(Op.WEAVER_SKIP, warp, now, arg)
                assert done == ref.skip(arg, now)
            elif kind == "loc" and warp not in ref.dt:
                with pytest.raises(WeaverError):
                    unit.handle(Op.WEAVER_DEC_LOC, warp, now, None)
            elif kind == "loc":
                done, row = unit.handle(Op.WEAVER_DEC_LOC, warp, now, None)
                assert (done, row.tolist()) == ref.dec_loc(warp, now)
            else:
                done, result = unit.handle(Op.WEAVER_DEC_ID, warp, now,
                                           None)
                assert (done, _decoded(result)) == ref.dec_id(warp, now)
        assert unit.fsm.state.value == ref.state == "S8"


# ----------------------------------------------------------------------
# EGHW
# ----------------------------------------------------------------------
class ReferenceEGHW:
    """Per-record EGHW: one staged ``(vid, eid, other, weight, ready)``
    tuple per edge, memory charged through ``MemoryHierarchy.access``
    with element indices."""

    def __init__(self, graph, config, memory, regions):
        self.graph = graph
        self.cfg = config
        self.memory = memory
        self.regions = regions
        self.lanes = config.threads_per_warp
        self.mlp = max(1, config.eghw_mlp)
        self.inputs = []
        self.next = 0
        self.records = []
        self.time = 0
        self.free_at = 0

    def _charge(self, region, indices):
        lat, _ = self.memory.access(0, self.regions[region],
                                    np.asarray(indices, dtype=np.int64),
                                    now=self.time)
        self.time += -(-lat // self.mlp)

    def _produce(self):
        g = self.graph
        while self.next < len(self.inputs):
            vid = self.inputs[self.next]
            self.next += 1
            self.time += self.cfg.shmem_latency
            self._charge("row_ptr", [vid, vid + 1])
            lo, hi = int(g.row_ptr[vid]), int(g.row_ptr[vid + 1])
            if lo == hi:
                continue
            for first in range(lo, hi, self.lanes):
                chunk = list(range(first, min(first + self.lanes, hi)))
                self._charge("col", chunk)
                self._charge("w", chunk)
                self.time += self.cfg.shmem_latency
                for eid in chunk:
                    self.records.append((vid, eid, int(g.col_idx[eid]),
                                         float(g.weights[eid]), self.time))
            return

    def push(self, now, vids):
        start = max(now, self.free_at)
        self.inputs += vids
        self.free_at = start + self.cfg.shmem_latency
        self.time = max(self.time, self.free_at)
        return self.free_at

    def fetch(self, now):
        start = max(now, self.free_at)
        self.time = max(self.time, start)
        while len(self.records) < self.lanes and self.next < len(self.inputs):
            self._produce()
        taken = self.records[:self.lanes]
        del self.records[:self.lanes]
        ready = max([start] + [r[4] for r in taken])
        self.free_at = ready + self.cfg.shmem_latency
        pad = self.lanes - len(taken)
        batch = {
            "vids": [r[0] for r in taken] + [-1] * pad,
            "eids": [r[1] for r in taken] + [-1] * pad,
            "others": [r[2] for r in taken] + [-1] * pad,
            "weights": [r[3] for r in taken] + [0.0] * pad,
            "mask": [True] * len(taken) + [False] * pad,
        }
        return self.free_at, batch


def _batch(batch):
    return {"vids": batch.vids.tolist(), "eids": batch.eids.tolist(),
            "others": batch.others.tolist(),
            "weights": batch.weights.tolist(), "mask": batch.mask.tolist()}


def _memory_counts(memory):
    return ({name: (s.hits, s.misses)
             for name, s in memory.cache_stats().items()},
            memory.dram_accesses)


def _eghw_pair(graph, lanes, mlp):
    cfg = GPUConfig(num_sockets=1, cores_per_socket=1, warps_per_core=2,
                    threads_per_warp=lanes, eghw_mlp=mlp,
                    l1=CacheConfig(1 * KB, ways=2),
                    l2=CacheConfig(4 * KB, ways=4))
    mm = MemoryMap()
    regions = {"row_ptr": mm.alloc_like("row_ptr", graph.row_ptr),
               "col": mm.alloc_like("col", graph.col_idx),
               "w": mm.alloc_like("w", graph.weights)}
    unit = EGHWUnit(0, cfg, MemoryHierarchy(cfg), regions["row_ptr"],
                    regions["col"], regions["w"], graph.row_ptr,
                    graph.col_idx, graph.weights)
    ref = ReferenceEGHW(graph, cfg, MemoryHierarchy(cfg), regions)
    return unit, ref


@st.composite
def eghw_runs(draw):
    """A random graph (hubs longer than one chunk, zero degrees) and a
    push/fetch sequence with incremental pushes."""
    lanes = draw(st.sampled_from([2, 4]))
    mlp = draw(st.sampled_from([1, 4]))
    n = draw(st.integers(1, 24))
    degrees = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, 3),
                  st.integers(lanes + 1, 5 * lanes + 3)),
        min_size=n, max_size=n))
    row_ptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    m = int(row_ptr[-1])
    col = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 99), min_size=m, max_size=m))
    graph = CSRGraph(row_ptr, np.asarray(col, dtype=np.int64),
                     np.asarray(weights, dtype=np.float64) / 8)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("push"),
                  st.lists(st.integers(0, n - 1), max_size=2 * lanes),
                  st.integers(0, 40)),
        st.tuples(st.just("fetch"), st.none(), st.integers(0, 300))),
        max_size=25))
    return graph, lanes, mlp, ops


@given(eghw_runs())
@settings(max_examples=150, deadline=None)
def test_eghw_unit_matches_per_record_model(run):
    graph, lanes, mlp, ops = run
    unit, ref = _eghw_pair(graph, lanes, mlp)
    pushed = sum(int(graph.row_ptr[v + 1] - graph.row_ptr[v])
                 for kind, vids, _ in ops if kind == "push" for v in vids)
    now = 0
    # Fetch past the last record so the drained state is compared too.
    for kind, vids, step in ops + [("fetch", None, 50)] * (
            2 + pushed // lanes):
        now += step
        if kind == "push":
            done, _ = unit.handle(Op.EGHW_PUSH, 0, now, vids)
            assert done == ref.push(now, vids)
        else:
            done, batch = unit.handle(Op.EGHW_FETCH, 0, now, None)
            assert (done, _batch(batch)) == ref.fetch(now)
        assert _memory_counts(unit.memory) == _memory_counts(ref.memory)
    assert unit.drained
    assert unit.edges_generated == pushed


# ----------------------------------------------------------------------
# Planned and replayed units
# ----------------------------------------------------------------------
# With no WEAVER_SKIP a unit's batch contents follow from its requests'
# order alone, so the fast engine plans a launch (every request at time
# 0, as its drain issues them) and replays it on the real timeline.  A
# replaying unit must answer every request at the live unit's time,
# with the planned body of each work batch in order and HOME for each
# empty one.
@st.composite
def weaver_streams(draw):
    """One to three registration epochs, each drained by decodes with
    DEC_LOC reads between them, and no skips."""
    lanes = draw(st.sampled_from([1, 2, 4, 8]))
    knobs = (draw(st.sampled_from([1, 4, 32])),      # zero_skip_width
             draw(st.sampled_from([1, 4])),          # prefetch_depth
             draw(st.sampled_from([2, 40])))         # table latency
    degree = st.one_of(st.just(0), st.integers(0, 3),
                       st.integers(0, 3 * lanes + 1))
    epochs = []
    for _ in range(draw(st.integers(1, 3))):
        regs = []
        loc = 0
        for _warp in range(WARPS):
            entries = []
            for lane in sorted(draw(st.lists(st.integers(0, lanes - 1),
                                             unique=True, max_size=lanes))):
                d = draw(degree)
                entries.append((lane, draw(st.integers(0, 11)), loc, d))
                loc += d
            regs.append(entries)
        ops = draw(st.lists(st.tuples(
            st.sampled_from(["dec", "dec", "loc"]),
            st.integers(0, WARPS - 1),
            st.integers(0, 60)), max_size=30))
        # Decode past exhaustion so the next epoch may register.
        ops += [("dec", w, 5) for w in range(WARPS)] * (4 + loc // lanes)
        epochs.append((regs, ops))
    return lanes, knobs, epochs


def _drive_weaver(unit, epochs, timed):
    """``(op, done, reply)`` per request of the stream; untimed, every
    request comes at time 0.  DEC_LOC is only issued by a warp that
    decoded in the epoch, as a kernel issues it."""
    replies = []
    now = 0
    for regs, ops in epochs:
        for warp, entries in enumerate(regs):
            now += 1
            replies.append(("reg",) + unit.handle(
                Op.WEAVER_REG, warp, now if timed else 0, entries))
        decoded = set()
        for kind, warp, step in ops:
            now += step
            if kind == "loc" and warp not in decoded:
                continue
            op = Op.WEAVER_DEC_LOC if kind == "loc" else Op.WEAVER_DEC_ID
            decoded.add(warp)
            replies.append((kind,) + unit.handle(op, warp,
                                                 now if timed else 0, None))
    return replies


def _check_bodies(live_batches, replayed, bodies):
    """Replayed batch replies: the bodies in order for the live work
    batches, HOME for the live empty ones."""
    assert len(replayed) == len(live_batches)
    expected = iter(bodies)
    for live, got in zip(live_batches, replayed):
        assert got is (HOME if live.exhausted else next(expected))
    assert next(expected, None) is None


@given(weaver_streams())
@settings(max_examples=150, deadline=None)
def test_weaver_plan_replays_live_timeline(stream):
    lanes, (width, depth, latency), epochs = stream
    cfg = GPUConfig(num_sockets=1, cores_per_socket=1,
                    warps_per_core=WARPS, threads_per_warp=lanes,
                    weaver_table_latency=latency)

    def unit():
        weaver = WeaverUnit(cfg, prefetch_depth=depth)
        weaver.fsm.zero_skip_width = width
        return weaver

    live = _drive_weaver(unit(), epochs, timed=True)
    planner = unit()
    log = planner.plan()
    planned = [reply for kind, _done, reply
               in _drive_weaver(planner, epochs, timed=False)
               if kind == "dec" and not reply.exhausted]
    assert len(log) == len(epochs)
    live_batches = [reply for kind, _done, reply in live if kind == "dec"]
    # The plan's work batches are the live ones, in the same order.
    assert [(r.vids.tolist(), r.eids.tolist()) for r in planned] == [
        (r.vids.tolist(), r.eids.tolist())
        for r in live_batches if not r.exhausted]

    bodies = [("body", k) for k in range(len(planned))]
    replayer = unit()
    replayer.replay(log, bodies)
    replayed = _drive_weaver(replayer, epochs, timed=True)
    assert [(kind, done) for kind, done, _ in replayed] == [
        (kind, done) for kind, done, _ in live]
    _check_bodies(live_batches, [reply for kind, _done, reply in replayed
                                 if kind == "dec"], bodies)


def _drive_eghw(unit, ops, timed):
    """``(done, reply, memory counts)`` per request; untimed, every
    request comes at time 0."""
    replies = []
    now = 0
    for kind, vids, step in ops:
        now += step
        op = Op.EGHW_PUSH if kind == "push" else Op.EGHW_FETCH
        done, reply = unit.handle(op, 0, now if timed else 0, vids)
        replies.append((done, reply, _memory_counts(unit.memory)))
    return replies


@given(eghw_runs())
@settings(max_examples=150, deadline=None)
def test_eghw_plan_replays_live_timeline(run):
    graph, lanes, mlp, ops = run
    pushed = sum(int(graph.row_ptr[v + 1] - graph.row_ptr[v])
                 for kind, vids, _ in ops if kind == "push" for v in vids)
    ops = ops + [("fetch", None, 50)] * (2 + pushed // lanes)
    live_unit, _ = _eghw_pair(graph, lanes, mlp)
    live = _drive_eghw(live_unit, ops, timed=True)
    planner, _ = _eghw_pair(graph, lanes, mlp)
    log = planner.plan()
    planned = _drive_eghw(planner, ops, timed=False)
    # Planning reads no memory.
    assert planned[-1][2] == _memory_counts(MemoryHierarchy(planner.config))
    live_batches = [reply for (kind, _, _), (_, reply, _) in zip(ops, live)
                    if kind == "fetch"]
    assert log == [(batch.eids[0], batch.count)
                   for batch in live_batches if not batch.exhausted]

    bodies = [("body", k) for k in range(len(log))]
    replayer, _ = _eghw_pair(graph, lanes, mlp)
    replayer.replay(log, bodies)
    replayed = _drive_eghw(replayer, ops, timed=True)
    # Same done times, cache and DRAM counts after every request.
    assert [(done, counts) for done, _, counts in replayed] == [
        (done, counts) for done, _, counts in live]
    _check_bodies(live_batches,
                  [reply for (kind, _, _), (_, reply, _)
                   in zip(ops, replayed) if kind == "fetch"], bodies)
