"""Atomic output files, and the one CSV row format ('%.17g', which round-trips float64).

A file is written to a hidden sibling made by a plain `open` (so the umask
sets its mode) and moved over the target by `os.replace` once complete.  On
any exception the sibling is removed and an existing target is left as it was.
"""

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CHUNK_VALUES = 1 << 16  # values formatted per write: bounds the writer's memory


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
    """Yield 1-d (one CSV column) and 2-d columns side by side, a bounded block at a time."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    step = block_rows(sum(c.shape[1] for c in cols))
    for i in range(0, cols[0].shape[0], step):
        yield np.hstack([c[i : i + step] for c in cols])


def write_csv(path, header: str, blocks) -> None:
    """Write the header line, then every row of the 2-d blocks."""
    with _atomic(path) as fh:
        fh.write((header + "\n").encode("ascii"))
        for block in blocks:
            row = ",".join(["%.17g"] * block.shape[1]) + "\n"
            fh.write(((row * block.shape[0]) % tuple(block.ravel().tolist())).encode("ascii"))
