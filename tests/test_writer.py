import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetank import _writer
from wavetank._writer import row_blocks, write_csv, write_text


def _failing_source():
    yield np.ones((3, 2))
    raise RuntimeError("row source failed")


def test_failed_write_leaves_no_target_and_no_temp(tmp_path):
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(tmp_path / "out.csv", "a,b", _failing_source())
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_existing_target_untouched(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,contents\n1,2\n")
    with pytest.raises(RuntimeError):
        write_csv(target, "a,b", _failing_source())
    assert target.read_bytes() == b"old,contents\n1,2\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    write_text(tmp_path / "text.txt", "x\n")
    write_csv(tmp_path / "rows.csv", "a", row_blocks(np.zeros(3)))
    for name in ("text.txt", "rows.csv"):
        assert os.stat(tmp_path / name).st_mode == os.stat(plain).st_mode


def test_rows_independent_of_chunk_size(tmp_path, monkeypatch):
    t = np.linspace(0.0, 1.0, 11)
    z = np.arange(33.0).reshape(11, 3) / 7.0
    write_csv(tmp_path / "one.csv", "t,a,b,c", row_blocks(t, z))
    monkeypatch.setattr(_writer, "_CHUNK_VALUES", 5)  # one row per block
    assert len(list(row_blocks(t, z))) == 11
    write_csv(tmp_path / "many.csv", "t,a,b,c", row_blocks(t, z))
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "many.csv").read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8), elements=_finite))
@example(np.array([[-0.0, 5e-324, 2.2250738585072009e-308], [1e308, -1e308, 0.1]]))
def test_every_field_is_17g_and_round_trips(tmp_path_factory, a):
    path = tmp_path_factory.getbasetemp() / "hypothesis-rows.csv"
    write_csv(path, "h", row_blocks(a[:, 0], a[:, 1:]))
    lines = path.read_text().splitlines()
    assert lines[0] == "h"
    assert len(lines) == a.shape[0] + 1
    for row, line in zip(a, lines[1:]):
        fields = line.split(",")
        assert fields == [f"{v:.17g}" for v in row]
        back = np.array([float(f) for f in fields])
        assert back.tobytes() == row.tobytes()
