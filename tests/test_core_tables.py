"""ST and DT table semantics."""

import numpy as np
import pytest

from repro.core import DenseWorkIDTable, SparseWorkloadTable, STEntry
from repro.errors import WeaverError


def test_st_register_and_scan_in_index_order():
    st = SparseWorkloadTable(8)
    st.register(4, vid=40, loc=400, degree=4)
    st.register(1, vid=10, loc=100, degree=1)
    scanned = [e.vid for e in st.scan()]
    assert scanned == [10, 40]  # index order, not arrival order


def test_st_skips_unregistered_slots():
    st = SparseWorkloadTable(4)
    st.register(2, vid=5, loc=0, degree=2)
    assert len(st) == 1
    assert [e.vid for e in st.scan()] == [5]


def test_st_total_degree():
    st = SparseWorkloadTable(4)
    st.register(0, 0, 0, 3)
    st.register(1, 1, 3, 5)
    assert st.total_degree() == 8


def test_st_clear():
    st = SparseWorkloadTable(4)
    st.register(0, 0, 0, 3)
    st.clear()
    assert len(st) == 0
    assert list(st.scan()) == []


def test_st_capacity_overflow():
    st = SparseWorkloadTable(2)
    with pytest.raises(WeaverError):
        st.register(2, 0, 0, 0)


def test_st_double_registration_rejected():
    st = SparseWorkloadTable(2)
    st.register(0, 0, 0, 1)
    with pytest.raises(WeaverError):
        st.register(0, 1, 1, 1)


def test_st_entry_validation():
    with pytest.raises(WeaverError):
        STEntry(0, 0, -1)
    with pytest.raises(WeaverError):
        STEntry(0, -1, 1)
    with pytest.raises(WeaverError):
        SparseWorkloadTable(0)


def test_st_write_counter():
    st = SparseWorkloadTable(4)
    st.register(0, 0, 0, 1)
    st.register(1, 1, 1, 1)
    assert st.writes == 2


def test_dt_write_read_roundtrip():
    dt = DenseWorkIDTable(num_warps=2, lanes=4)
    row = np.array([2, 10, 11, 30])
    dt.write(1, row)
    assert dt.read(1).tolist() == [2, 10, 11, 30]


def test_dt_read_before_write_rejected():
    dt = DenseWorkIDTable(2, 4)
    with pytest.raises(WeaverError):
        dt.read(0)


def test_dt_wrong_lane_count_rejected():
    dt = DenseWorkIDTable(2, 4)
    with pytest.raises(WeaverError):
        dt.write(0, np.array([1, 2]))


def test_dt_bad_warp_rejected():
    dt = DenseWorkIDTable(2, 4)
    with pytest.raises(WeaverError):
        dt.write(5, np.zeros(4, dtype=np.int64))


def test_dt_keeps_the_written_row():
    """The DT parks the row it is handed, without a copy: the writer
    (the unit, with a fresh row per decode) never writes to it again."""
    dt = DenseWorkIDTable(1, 2)
    row = np.array([1, 2])
    dt.write(0, row)
    assert dt.read(0) is row


def test_dt_clear():
    dt = DenseWorkIDTable(1, 2)
    dt.write(0, np.array([1, 2]))
    dt.clear()
    with pytest.raises(WeaverError):
        dt.read(0)
