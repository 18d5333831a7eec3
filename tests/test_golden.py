"""Every golden run writes the files recorded under tests/golden/: the same names, the same text, and every number
within GOLDEN_BOUND of its column's largest magnitude; on the recording platform, the same bytes."""

import re

import numpy as np
import pytest

from golden_runs import GOLDEN, PLATFORM_FILE, RUNS, platform_key, run

# a number may move by this much relative to the largest magnitude in its column (a CSV column; in a text file each
# number is a column of its own), for numpy's loops on another platform may round the last bits differently; an
# intended change of an output rewrites the golden files instead
GOLDEN_BOUND = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _cells(text, name):
    """(text pieces, numbers) of a file: for a CSV one column of numbers per header field, for text one per number."""
    lines = text.splitlines()
    if name.endswith(".csv"):
        header, *rows = lines
        columns = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        return [header, len(rows)], list(columns)
    pieces = [_NUMBER.split(line) for line in lines]
    numbers = [float(v) for line in lines for v in _NUMBER.findall(line)]
    return pieces, [np.array([v]) for v in numbers]


def _moved(golden, got):
    """The largest move of a number in a column, over that column's largest magnitude."""
    worst = 0.0
    for want, have in zip(golden, got):
        if np.array_equal(have, want, equal_nan=True):
            continue
        scale, moved = np.max(np.abs(want)), np.max(np.abs(have - want))
        worst = max(worst, moved / scale if scale and np.isfinite(moved) else np.inf)
    return worst


@pytest.mark.parametrize("name", RUNS)
def test_golden_run_writes_the_recorded_files(tmp_path, name):
    recorded = GOLDEN / name
    assert run(name, tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in recorded.iterdir())
    same_platform = (GOLDEN / PLATFORM_FILE).read_text().strip() == platform_key()
    for path in sorted(recorded.iterdir()):
        golden, got = path.read_text(), (tmp_path / path.name).read_text()
        (golden_text, golden_numbers), (got_text, got_numbers) = _cells(golden, path.name), _cells(got, path.name)
        assert got_text == golden_text, path.name
        assert [v.shape for v in got_numbers] == [v.shape for v in golden_numbers], path.name
        assert _moved(golden_numbers, got_numbers) <= GOLDEN_BOUND, path.name
        if same_platform:
            assert got == golden, f"{path.name} differs from its golden file in the last bits"
