import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavetank import _writer
from wavetank._writer import grid_rows, row_blocks, write_csv, write_text

from oracles import writer_tables


def _failing_source():
    yield from row_blocks(np.ones((3, 2)))
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


@st.composite
def _grids(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    x = draw(hnp.arrays(np.float64, nx, elements=_finite))
    y = draw(hnp.arrays(np.float64, ny, elements=_finite))
    return x, y, draw(hnp.arrays(np.float64, (nx, ny), elements=_finite))


_EDGES = [-0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1e308]


@settings(max_examples=100, deadline=None)
@given(_grids())
@example((np.array(_EDGES), np.array(_EDGES), np.array([np.roll(_EDGES, i) for i in range(5)])))
def test_grid_rows_equal_row_blocks_of_repeated_coordinates(grid):
    x, y, values = grid
    expected = b"".join(row_blocks(np.repeat(x, y.size), np.tile(y, x.size), values.ravel())).decode()
    # the default block, one point per block, and one x row plus a point per block (splits rows)
    for chunk in (_writer._CHUNK_VALUES, 5, 3 * (y.size + 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_writer, "_CHUNK_VALUES", chunk)
            blocks = [b.decode() for b in grid_rows(x, y, values)]
        assert "".join(blocks) == expected
        assert all(b.count("\n") <= max(1, chunk // 3) for b in blocks)


_POWERS = np.array([10.0**k for k in range(-323, 309)])
_TIES = 2.0**50 + np.arange(-4.0, 4.0)
_EXACT_EXAMPLES = np.concatenate(
    [
        _POWERS,
        np.nextafter(_POWERS, -np.inf),
        np.nextafter(_POWERS, np.inf),
        [1e-6],
        _TIES + 0.25,
        _TIES + 0.75,
        [1e16, 1e17, 2.0**60, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 0.0, -0.0],
        [np.inf, -np.inf, np.nan],
    ]
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64), elements=_finite))
@example(_EXACT_EXAMPLES)
def test_every_float_is_laid_out_as_17g_by_both_formatters(v):
    # st.floats draws subnormals too; the example adds non-finite values
    expected = ["%.17g" % f for f in v.tolist()]
    assert b"".join(row_blocks(v)).decode().splitlines() == expected
    head = expected[0]
    # v as the x column, then as the y column, of a grid whose values are v again
    assert b"".join(grid_rows(v, v[:1], v[:, None])).decode().splitlines() == [f"{e},{head},{e}" for e in expected]
    assert b"".join(grid_rows(v[:1], v, v[None, :])).decode().splitlines() == [f"{head},{e},{e}" for e in expected]


def _peak_bytes(blocks):
    tracemalloc.start()
    try:
        for _ in blocks:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_independent_of_the_row_count():
    # O(block): the same peak at 1000 and 4000 rows, a few times one block's text
    rows = np.random.default_rng(5).standard_normal((4000, 515))
    block_text = len(next(row_blocks(rows)))
    peaks = [_peak_bytes(row_blocks(rows[:n])) for n in (1000, 4000)]
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 16 * block_text
    x, y = np.linspace(0.0, np.pi, 600), np.linspace(-1.0, 0.0, 600)
    values = np.add.outer(np.sin(x), y)
    block_text = len(next(grid_rows(x, y, values)))
    peaks = [_peak_bytes(grid_rows(x[:n], y, values[:n])) for n in (150, 600)]
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 16 * block_text


def _interleaved(*generators):
    """The text of each generator, taking one block from each in turn."""
    texts = [b""] * len(generators)
    for blocks in itertools.zip_longest(*generators, fillvalue=b""):
        texts = [t + b for t, b in zip(texts, blocks)]
    return texts


def test_generators_alive_at_once_share_no_workspace(monkeypatch):
    monkeypatch.setattr(_writer, "_CHUNK_VALUES", 12)  # several blocks per call
    rng = np.random.default_rng(11)
    tables = [rng.standard_normal((9, w)) * 10.0 ** rng.integers(-30, 30, (9, w)) for w in (3, 3, 5)]
    assert _interleaved(*map(row_blocks, tables)) == [b"".join(row_blocks(t)) for t in tables]
    # two grids of one block shape, and one whose x rows split across blocks
    grids = [
        (np.linspace(0.0, 1.0, 7), np.array([-1.0, -0.5]), rng.standard_normal((7, 2))),
        (np.linspace(1.0, 0.0, 7), np.array([-0.5, -1.0]), rng.standard_normal((7, 2))),
        (np.array([0.25, 3.0]), -rng.random(9), rng.standard_normal((2, 9)) * 1e-20),
    ]
    assert _interleaved(*(grid_rows(*g) for g in grids)) == [b"".join(grid_rows(*g)) for g in grids]


def test_tables_equal_the_exact_integer_construction():
    n = _writer._N_EXP
    hi, lo, pre, suf, dot, lead = writer_tables(_writer._X0)
    powers, words = _writer._exponents(np.arange(n))
    assert powers[0].tobytes() == hi.tobytes()
    assert powers[1].tobytes() == lo.tobytes()
    prefix, negative, keep_h, keep_l, dot_h, dot_l, suffix = np.asarray(words, "<u8")[..., None].view(np.uint8)
    keep, dots = np.hstack([keep_h, keep_l]), np.hstack([dot_h, dot_l])
    for i in range(n):
        text = bytes(pre[:, i]).rstrip(b"\0")
        assert bytes(prefix[i]) == text.rjust(7, b"\0") + b"\0"
        assert bytes(negative[i]) == (b"-" + text).rjust(7, b"\0") + b"\0"
        assert bytes(suffix[i]) == b"\0" + bytes(suf[:, i]) + b"\0\0"
        kept = int(np.count_nonzero(keep[i]))
        assert bytes(keep[i]) == b"\xff" * kept + b"\0" * (16 - kept)
        has_dot = dot[i] < 18  # at X = 16 after all 17 digits: no digit can follow it, and S has no byte for it
        assert bytes(dots[i]) == (b"\0" * kept + b"." if has_dot else b"").ljust(16, b"\0")[:16]
        assert (dot[i], lead[i]) == ((kept + 1, kept + 1) if has_dot else (18, 0))


def test_digit_table_holds_each_4_digit_group():
    table = np.asarray(_writer._digit_table(), "<u4").view(np.uint8).reshape(-1, 4)
    groups = [b"%04d" % q for q in range(10**4)]
    assert [bytes(row) for row in table] == groups + [g.rstrip(b"0").ljust(4, b"\0") for g in groups]
