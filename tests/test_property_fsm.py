"""Property-based tests on the Weaver FSM: for ANY registration the
dense work stream must enumerate exactly the registered edge ranges, in
order, packed to the lane width."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import SparseWorkloadTable, WeaverFSM
from repro.core.unit import WeaverUnit
from repro.sim import GPUConfig
from repro.sim.instructions import Op


@st.composite
def registrations(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    entries = []
    loc = 0
    for i in range(count):
        deg = draw(st.integers(min_value=0, max_value=9))
        entries.append((i, i, loc, deg))
        loc += deg
    lanes = draw(st.sampled_from([1, 2, 4, 8]))
    return entries, lanes


def drain(fsm):
    batches = []
    while True:
        r = fsm.decode()
        if r.exhausted:
            break
        batches.append(r)
    return batches


@given(registrations())
@settings(max_examples=80, deadline=None)
def test_stream_covers_every_edge_once_in_order(data):
    entries, lanes = data
    st_table = SparseWorkloadTable(16)
    for idx, vid, loc, deg in entries:
        st_table.register(idx, vid, loc, deg)
    fsm = WeaverFSM(st_table, lanes)
    eids = []
    for batch in drain(fsm):
        eids.extend(batch.eids[batch.mask].tolist())
    total = sum(e[3] for e in entries)
    assert eids == list(range(total))  # ordered scan, dense cover


@given(registrations())
@settings(max_examples=80, deadline=None)
def test_batches_are_fully_packed_except_last(data):
    entries, lanes = data
    st_table = SparseWorkloadTable(16)
    for idx, vid, loc, deg in entries:
        st_table.register(idx, vid, loc, deg)
    fsm = WeaverFSM(st_table, lanes)
    batches = drain(fsm)
    for batch in batches[:-1]:
        assert batch.work_count == lanes  # dense operation
    total = sum(e[3] for e in entries)
    if total:
        assert batches[-1].work_count == total - lanes * (len(batches) - 1)


@given(registrations())
@settings(max_examples=80, deadline=None)
def test_vid_eid_pairs_consistent(data):
    entries, lanes = data
    ranges = {vid: (loc, loc + deg) for _, vid, loc, deg in entries}
    st_table = SparseWorkloadTable(16)
    for idx, vid, loc, deg in entries:
        st_table.register(idx, vid, loc, deg)
    fsm = WeaverFSM(st_table, lanes)
    for batch in drain(fsm):
        for vid, eid in zip(batch.vids[batch.mask], batch.eids[batch.mask]):
            lo, hi = ranges[int(vid)]
            assert lo <= int(eid) < hi


@given(registrations(), st.integers(min_value=0, max_value=11))
@settings(max_examples=60, deadline=None)
def test_skip_removes_only_that_vertex_going_forward(data, skip_vid):
    entries, lanes = data
    st_table = SparseWorkloadTable(16)
    for idx, vid, loc, deg in entries:
        st_table.register(idx, vid, loc, deg)
    fsm = WeaverFSM(st_table, lanes)
    fsm.skip(skip_vid)
    seen_vids = set()
    for batch in drain(fsm):
        seen_vids.update(int(v) for v in batch.vids[batch.mask])
    assert skip_vid not in seen_vids


@given(registrations())
@settings(max_examples=40, deadline=None)
def test_unit_epoch_reset_roundtrip(data):
    """Register -> drain -> re-register must behave like a fresh unit."""
    entries, lanes = data
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=16,
        threads_per_warp=lanes,
    )
    unit = WeaverUnit(cfg)
    for epoch in range(2):
        per_warp = {}
        for idx, vid, loc, deg in entries:
            per_warp.setdefault(idx // lanes, []).append(
                (idx % lanes, vid, loc, deg)
            )
        for warp, regs in per_warp.items():
            unit.handle(Op.WEAVER_REG, warp, 1, regs)
        if not per_warp:
            unit.handle(Op.WEAVER_REG, 0, 1, [])
        seen = []
        t = 10
        while True:
            t += 10
            _, r = unit.handle(Op.WEAVER_DEC_ID, 0, t, None)
            if r.exhausted:
                break
            seen.extend(r.eids[r.mask].tolist())
        assert seen == list(range(sum(e[3] for e in entries))), epoch


@given(registrations(), st.sampled_from([None, 1, 3]))
@settings(max_examples=80, deadline=None)
def test_scan_epoch_is_the_decode_sequence_without_rows(data, width):
    """The row-free epoch scan the fast engine compiles from gives each
    decode's cycles, and the runs its lane rows hold, up to and
    including the decode that reaches S8."""
    entries, lanes = data
    st_table = SparseWorkloadTable(16)
    for idx, vid, loc, deg in entries:
        st_table.register(idx, vid, loc, deg)
    live = WeaverFSM(st_table, lanes, zero_skip_width=width)
    decodes = []
    while not live.exhausted:
        reply = live.decode()
        work = reply.work_count
        decodes.append((reply.fsm_cycles, list(zip(
            reply.vids[:work].tolist(), reply.eids[:work].tolist()))))
    scan = WeaverFSM(None, lanes, zero_skip_width=width).scan_epoch(
        st_table.rows())
    assert [(cycles, [(vid, first + i) for vid, first, count in runs
                      for i in range(count)]) for cycles, runs in scan
            ] == decodes
