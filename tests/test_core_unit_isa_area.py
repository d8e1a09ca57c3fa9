"""Timed WeaverUnit protocol, Table II ISA encodings, Table IV area."""

import numpy as np
import pytest

from repro.core import WeaverAreaModel, WeaverUnit
from repro.core.isa import (
    OPCODE_CUSTOM0,
    OPCODE_CUSTOM1,
    WEAVER_INSTRUCTIONS,
    decode_custom_type,
    decode_r_type,
    encode_custom_type,
    encode_r_type,
    encode_weaver,
    identify_weaver,
)
from repro.errors import ConfigError, WeaverError
from repro.sim import GPUConfig
from repro.sim.instructions import Op


def unit(table_latency=2):
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=2,
        threads_per_warp=4, weaver_table_latency=table_latency,
    )
    return WeaverUnit(cfg), cfg


# ----------------------------------------------------------------------
# WeaverUnit protocol
# ----------------------------------------------------------------------
def test_register_then_decode_roundtrip():
    u, _ = unit()
    done, _ = u.handle(Op.WEAVER_REG, 0, 1,
                       [(0, 0, 2, 1), (1, 2, 10, 2), (2, 4, 30, 5)])
    assert done > 1
    _, res = u.handle(Op.WEAVER_DEC_ID, 1, done, None)
    assert res.vids.tolist() == [0, 2, 2, 4]
    _, eids = u.handle(Op.WEAVER_DEC_LOC, 1, done + 5, None)
    assert eids.tolist() == [2, 10, 11, 30]


def test_dec_loc_is_per_warp():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 8), (1, 1, 8, 8)])
    _, r0 = u.handle(Op.WEAVER_DEC_ID, 0, 10, None)
    _, r1 = u.handle(Op.WEAVER_DEC_ID, 1, 11, None)
    _, e0 = u.handle(Op.WEAVER_DEC_LOC, 0, 12, None)
    _, e1 = u.handle(Op.WEAVER_DEC_LOC, 1, 13, None)
    assert e0.tolist() == r0.eids.tolist()
    assert e1.tolist() == r1.eids.tolist()
    assert e0.tolist() != e1.tolist()  # dynamic distribution by arrival


def test_dec_loc_before_dec_id_rejected():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 1)])
    with pytest.raises(WeaverError):
        u.handle(Op.WEAVER_DEC_LOC, 0, 2, None)


def test_unit_serializes_requests():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 64)])
    done0, _ = u.handle(Op.WEAVER_DEC_ID, 0, 10, None)
    done1, _ = u.handle(Op.WEAVER_DEC_ID, 1, 10, None)
    assert done1 > done0  # second request queues behind the first


def test_distribution_drains_to_minus_one_for_all_warps():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 4)])
    _, r = u.handle(Op.WEAVER_DEC_ID, 0, 5, None)
    assert r.work_count == 4
    _, r0 = u.handle(Op.WEAVER_DEC_ID, 0, 6, None)
    _, r1 = u.handle(Op.WEAVER_DEC_ID, 1, 7, None)
    assert r0.exhausted and r1.exhausted


def test_new_registration_resets_epoch():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 7, 0, 1)])
    while True:
        _, r = u.handle(Op.WEAVER_DEC_ID, 0, 100, None)
        if r.exhausted:
            break
    u.handle(Op.WEAVER_REG, 0, 200, [(0, 9, 4, 1)])
    _, r = u.handle(Op.WEAVER_DEC_ID, 0, 300, None)
    assert r.vids[0] == 9


def test_register_during_distribution_rejected():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 8)])
    u.handle(Op.WEAVER_DEC_ID, 0, 5, None)
    with pytest.raises(WeaverError):
        u.handle(Op.WEAVER_REG, 1, 6, [(0, 1, 8, 1)])


def test_skip_suppresses_future_batches():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 5, 0, 100)])
    _, first = u.handle(Op.WEAVER_DEC_ID, 0, 5, None)
    assert first.work_count == 4
    done, _ = u.handle(Op.WEAVER_SKIP, 0, 6, 5)
    # Precomputed batches may still carry vid 5; the scan stops though,
    # so the stream ends after at most prefetch_depth more batches.
    batches = 0
    while True:
        _, r = u.handle(Op.WEAVER_DEC_ID, 0, done + 10 * batches, None)
        if r.exhausted:
            break
        batches += 1
        assert batches <= u.prefetch_depth + 1
    assert u.skips == 1


def test_table_latency_affects_decode_cost():
    fast, _ = unit(table_latency=1)
    slow, _ = unit(table_latency=40)
    for u in (fast, slow):
        u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 4)])
    d_fast, _ = fast.handle(Op.WEAVER_DEC_ID, 0, 50, None)
    d_slow, _ = slow.handle(Op.WEAVER_DEC_ID, 0, 50, None)
    assert d_slow > d_fast


def test_lane_out_of_range_rejected():
    u, _ = unit()
    with pytest.raises(WeaverError):
        u.handle(Op.WEAVER_REG, 0, 1, [(9, 0, 0, 1)])


def test_unknown_op_rejected():
    u, _ = unit()
    with pytest.raises(WeaverError):
        u.handle(Op.EGHW_FETCH, 0, 1, None)


@pytest.mark.parametrize("entries", [
    [(0, 0, 0, -1)],                  # negative degree
    [(0, 0, -1, 1)],                  # negative location
    [(0, 0, 0, 1), (0, 1, 1, 1)],     # one lane twice
    [(4, 0, 0, 1)],                   # lane past the warp
])
def test_bad_registration_rejected(entries):
    u, _ = unit()
    with pytest.raises(WeaverError):
        u.handle(Op.WEAVER_REG, 0, 1, entries)


def test_slot_registered_twice_in_one_epoch_rejected():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 1)])
    with pytest.raises(WeaverError, match="twice"):
        u.handle(Op.WEAVER_REG, 0, 2, [(0, 1, 1, 1)])


def test_registration_past_st_capacity_rejected():
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=2,
        threads_per_warp=4, weaver_entries=4,
    )
    u = WeaverUnit(cfg)
    with pytest.raises(WeaverError, match="ST index 4 out of range"):
        u.handle(Op.WEAVER_REG, 1, 1, [(0, 0, 0, 1)])


def test_decode_from_unknown_warp_rejected():
    u, _ = unit()
    u.handle(Op.WEAVER_REG, 0, 1, [(0, 0, 0, 4)])
    with pytest.raises(WeaverError, match="warp id 5 out of range"):
        u.handle(Op.WEAVER_DEC_ID, 5, 10, None)


def test_capacity_respects_weaver_entries():
    cfg = GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=2,
        threads_per_warp=4, weaver_entries=4,
    )
    u = WeaverUnit(cfg)
    assert u.st.capacity == 4


# ----------------------------------------------------------------------
# ISA (Table II)
# ----------------------------------------------------------------------
def test_table2_instruction_specs():
    assert WEAVER_INSTRUCTIONS["WEAVER_REG"].opcode == OPCODE_CUSTOM1
    assert WEAVER_INSTRUCTIONS["WEAVER_REG"].funct == 1
    assert WEAVER_INSTRUCTIONS["WEAVER_DEC_ID"].opcode == OPCODE_CUSTOM0
    assert WEAVER_INSTRUCTIONS["WEAVER_DEC_ID"].funct == 7
    assert WEAVER_INSTRUCTIONS["WEAVER_DEC_LOC"].funct == 8
    assert WEAVER_INSTRUCTIONS["WEAVER_SKIP"].funct == 2
    assert WEAVER_INSTRUCTIONS["WEAVER_SKIP"].itype == "C"


def test_r_type_roundtrip():
    word = encode_r_type(OPCODE_CUSTOM0, rd=3, funct3=7, rs1=11, rs2=12,
                         funct7=0)
    fields = decode_r_type(word)
    assert fields == {"opcode": OPCODE_CUSTOM0, "rd": 3, "funct3": 7,
                      "rs1": 11, "rs2": 12, "funct7": 0}


def test_custom_type_roundtrip():
    word = encode_custom_type(OPCODE_CUSTOM1, rd=0, funct3=1, rs1=5,
                              rs2=6, funct2=1, rs3=7)
    fields = decode_custom_type(word)
    assert fields["rs3"] == 7
    assert fields["funct2"] == 1


def test_encode_weaver_identify_roundtrip():
    for name in WEAVER_INSTRUCTIONS:
        word = encode_weaver(name, rd=1, rs1=2, rs2=3, rs3=4)
        assert identify_weaver(word) == name


def test_non_weaver_word_rejected():
    with pytest.raises(ConfigError):
        identify_weaver(0x00000033)  # plain RISC-V ADD


def test_encoding_field_validation():
    with pytest.raises(ConfigError):
        encode_r_type(OPCODE_CUSTOM0, rd=32, funct3=0, rs1=0, rs2=0, funct7=0)
    with pytest.raises(ConfigError):
        encode_r_type(200, 0, 0, 0, 0, 0)
    with pytest.raises(ConfigError):
        encode_custom_type(OPCODE_CUSTOM1, 0, 0, 0, 0, funct2=5, rs3=0)
    with pytest.raises(ConfigError):
        encode_weaver("WEAVER_NOPE")


# ----------------------------------------------------------------------
# Area model (Table IV)
# ----------------------------------------------------------------------
def test_default_reproduces_paper_1core_row():
    rep = WeaverAreaModel().report(1)
    assert rep.base_alms == 105_094
    assert rep.sparseweaver_alms == 108_203
    assert rep.registers_added == 678
    assert rep.register_pct_increase == pytest.approx(0.045, abs=1e-3)
    assert rep.alm_pct_increase == pytest.approx(2.96, abs=0.01)


def test_default_reproduces_paper_16core_row():
    rep = WeaverAreaModel().report(16)
    assert rep.base_alms == 580_332
    assert rep.sparseweaver_alms == 591_971
    assert rep.alm_pct_increase == pytest.approx(2.01, abs=0.01)


def test_no_block_memory_increase():
    rep = WeaverAreaModel().report(1)
    assert rep.block_memory_pct_increase == 0.0
    assert rep.ram_pct_increase == 0.0
    assert rep.dsp_pct_increase == 0.0


def test_registers_scale_with_id_bits():
    small = WeaverAreaModel(id_bits=16).registers_per_core()
    big = WeaverAreaModel(id_bits=64).registers_per_core()
    assert small < 678 < big


def test_alm_overhead_scales_with_lanes():
    narrow = WeaverAreaModel(lanes=8).alm_overhead(1)
    wide = WeaverAreaModel(lanes=64).alm_overhead(1)
    assert narrow < wide


def test_rtl_line_overhead_matches_section5f():
    assert WeaverAreaModel.rtl_line_overhead() == pytest.approx(0.136, abs=0.001)


def test_utilization_summary_mentions_counts():
    text = WeaverAreaModel().utilization_summary(1)
    assert "105094" in text and "108203" in text


def test_area_model_validation():
    with pytest.raises(ConfigError):
        WeaverAreaModel(lanes=0)
    with pytest.raises(ConfigError):
        WeaverAreaModel().report(0)
