"""Atomic output files, and the one CSV row format ('%.17g', which round-trips float64).

A file is written to a hidden sibling made by a plain `open` (so the umask
sets its mode) and moved over the target by `os.replace` once complete.  On
any exception the sibling is removed and an existing target is left as it was.

CSV text comes from two formatters, each yielding bounded blocks of rows:
`row_blocks` formats columns side by side, every value through '%.17g';
`grid_rows` formats the x,y,value rows of a tensor grid.  A grid repeats only
nx + ny distinct coordinates, so it formats each once and builds every x row's
line template from them; each block is then one '%' over its field values,
and its text equals that of `row_blocks` over the repeated coordinates.
"""

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CHUNK_VALUES = 1 << 16  # values formatted per block: bounds the writer's memory


@contextmanager
def _atomic(path):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    with _atomic(path) as fh:
        fh.write(text.encode("ascii"))


def block_rows(width: int) -> int:
    """Rows of `width` values that make one bounded block."""
    return max(1, _CHUNK_VALUES // width)


def row_blocks(*columns):
    """Yield the CSV text of 1-d (one column) and 2-d columns side by side, a bounded block at a time."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    width = sum(c.shape[1] for c in cols)
    row = ",".join(["%.17g"] * width) + "\n"
    step = block_rows(width)
    for i in range(0, cols[0].shape[0], step):
        block = np.hstack([c[i : i + step] for c in cols])
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def grid_rows(x, y, values):
    """Yield the CSV text of the rows x[i],y[j],values[i, j] (x outer, y inner), a bounded block at a time.

    A block holds `block_rows(3)` points: short x rows share a block, and a
    longer x row splits across blocks.
    """
    heads = ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]
    tails = [",%.17g,%%.17g\n" % v for v in np.asarray(y, dtype=float).tolist()]
    flat = np.asarray(values, dtype=float).ravel()
    ny, step = len(tails), block_rows(3)
    for start in range(0, flat.size, step):
        stop = min(start + step, flat.size)
        template = "".join(
            heads[i] + heads[i].join(tails[max(start - i * ny, 0) : stop - i * ny])
            for i in range(start // ny, (stop - 1) // ny + 1)
        )
        yield template % tuple(flat[start:stop].tolist())


def write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block of CSV text."""
    with _atomic(path) as fh:
        fh.write((header + "\n").encode("ascii"))
        for block in blocks:
            fh.write(block.encode("ascii"))
