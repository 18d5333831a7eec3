"""Atomic output files, and the one CSV number format: '%.17g', which round-trips float64.

A file is written to a hidden sibling made by a plain `open` (so the umask
sets its mode) and moved over the target by `os.replace` once complete.  On
any exception the sibling is removed and an existing target is left as it was.

CSV text comes from two formatters, each yielding bounded blocks of rows:
`row_blocks` formats columns side by side; `grid_rows` formats the x,y,value
rows of a tensor grid, each of its nx + ny coordinates once per file, and its
text equals that of `row_blocks` over the repeated coordinates.  Both format
with `_layout`, which gives the bytes of '%.17g' for a whole array at once: it
scales |v| by 10**(16 - X), X = floor(log10 |v|), as a double-double (Dekker
products, each step its own ufunc so that no fused multiply-add creeps in),
rounds to the 17-digit integer and places sign, digits, '.' and exponent in
the 30 bytes of a row whose zero padding is deleted at the end.  A value that
it cannot settle exactly (within 1e-6 of a rounding tie, |v| outside
[1e-280, 1e280], not finite) goes through Python's '%'; +-0 is laid out directly.
"""

import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CHUNK_VALUES = 1 << 14  # values formatted per block: bounds the writer's memory
_X0 = -282  # the tables cover decimal exponents _X0..-_X0
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64


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


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = np.multiply(a, _SPLIT)
    hi = np.subtract(c, np.subtract(c, a))
    return hi, np.subtract(a, hi)


@functools.cache
def _tables():
    """Per exponent X: 10**(16 - X) as hi + lo (hi also split), and the '%.17g' layout at X.

    The layout: prefix ('0.' to '0.000'), exponent suffix ('e-07', 'e+300'), slot of '.' (18: none), digits kept.
    """
    n = 1 - 2 * _X0
    hi, lo = np.empty((2, n))
    pre, suf = np.zeros((2, 5, n), np.uint8)
    dot, lead = np.empty((2, n), np.uint8)
    for i, X in enumerate(range(_X0, 1 - _X0)):
        num, den = 10 ** max(16 - X, 0), 10 ** max(X - 16, 0)
        hi[i] = num / den  # int / int is correctly rounded
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
        p, s = b"", b""
        if X < -4 or X >= 17:
            s, dot[i], lead[i] = b"e%+03d" % X, 1, 1
        elif X < 0:
            p, dot[i], lead[i] = b"0." + b"0" * (-1 - X), 18, 0
        else:
            dot[i] = lead[i] = X + 1
        pre[: len(p), i] = list(p)
        suf[: len(s), i] = list(s)
    return (hi, *_split(hi), lo), pre, suf, dot, lead


def _scaled(a, xi):
    """Integer part and fraction of a * 10**(16 - X), xi = X - _X0, within 1e-14 (the tie margin is 1e-6)."""
    th, bh, bl, tl = (t.take(xi) for t in _tables()[0])
    p = np.multiply(a, th)
    ah, al = _split(a)
    e = np.subtract(np.multiply(ah, bh), p)  # a * th - p, exactly
    e += np.multiply(ah, bl)
    e += np.multiply(al, bh)
    e += np.multiply(al, bl)
    e += np.multiply(a, tl)
    f = np.floor(e)
    n = p.astype(np.int64)  # p is an integer (p >= 1e16 > 2**53) wherever n has 17 digits
    n += f.astype(np.int64)
    return n, np.subtract(e, f)


def _layout(v, sep):
    """(v.size, 30) bytes whose row i, zero bytes deleted, is '%.17g' % v[i] and then sep.

    Row i is column i of M: sign, 5-byte prefix, 17 digits and '.', 5-byte exponent suffix, sep.
    """
    _, pre, suf, dots, leads = _tables()
    a = np.abs(v)
    zero = a == 0
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp) - _X0
    N, frac = _scaled(a, xi)
    # log10 can miss X by one near a power of ten: rescale where N has not 17 digits
    low, high = N < 10**16, N >= 10**17
    fix = np.flatnonzero(low | high)
    if fix.size:
        xi[fix] += high[fix].astype(np.intp) - low[fix]
        N[fix], frac[fix] = _scaled(a[fix], xi[fix])
        ok[fix] &= (N[fix] >= 10**16) & (N[fix] < 10**17)
    frac -= 0.5
    N += frac > 0
    ok &= np.abs(frac) > 1e-6
    top = N == 10**17
    N[top] = 10**16
    xi += top
    ok |= zero
    digits = np.zeros((19, v.size), np.uint8)  # digits[1 + j] is digit j of N; rows 0 and 18 stay padding
    halves = [(N // 10**9).astype(np.uint32), (N % 10**9).astype(np.uint32)]  # digits 0-7, 8-16
    for j in range(16, -1, -1):
        q = halves[j >= 8]
        halves[j >= 8] = q // 10
        digits[1 + j] = q - halves[j >= 8] * 10
    keep = leads.take(xi)  # digits up to the last nonzero one, and the integer part of fixed notation
    for j in range(17):
        np.maximum(keep, (digits[1 + j] != 0) * np.uint8(j + 1), out=keep)
    slot = np.arange(18, dtype=np.uint8)[:, None]
    digits[1:] += (slot < keep) * np.uint8(ord("0"))
    digits[1] -= zero  # the stand-in 1.0 of +-0 reads '1': make it '0'
    dot = dots.take(xi)
    M = np.empty((30, v.size), np.uint8)
    M[0] = np.signbit(v) * np.uint8(ord("-"))
    M[1:6] = pre.take(xi, axis=1)
    M[6:24] = digits[1:] * (slot < dot)
    M[6:24] += digits[:-1] * (slot > dot)
    M[6:24] += (slot == dot) * ((keep > dot) * np.uint8(ord(".")))
    M[24:29] = suf.take(xi, axis=1)
    M[29] = sep
    for i in np.flatnonzero(~ok).tolist():
        text = b"%.17g" % v[i]
        M[:-1, i] = 0
        M[: len(text), i] = list(text)
    return M.T


def _text(rows) -> str:
    """The bytes of a (values, bytes) matrix in order, zero bytes deleted."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _cells(v):
    """'%.17g,' of each v, left-justified in the zero-padded rows of a byte matrix."""
    cells = np.array([w + "," for w in _text(_layout(v, ord(","))).split(",")[:-1]], dtype="S")
    return cells.view(np.uint8).reshape(-1, cells.itemsize)


def row_blocks(*columns):
    """Yield the CSV text of 1-d (one column) and 2-d columns side by side, a bounded block at a time."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    width = sum(c.shape[1] for c in cols)
    step = block_rows(width)
    seps = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint8)
    for i in range(0, cols[0].shape[0], step):
        block = np.hstack([c[i : i + step] for c in cols]).astype(float, copy=False)
        yield _text(_layout(block.ravel(), np.tile(seps, block.shape[0])))


def grid_rows(x, y, values):
    """Yield the CSV text of the rows x[i],y[j],values[i, j] (x outer, y inner), a bounded block at a time.

    A block holds `block_rows(3)` points: short x rows share a block, and a
    longer x row splits across blocks.
    """
    xs, ys = (_cells(np.asarray(c, dtype=float).ravel()) for c in (x, y))
    flat = np.asarray(values, dtype=float).ravel()
    ny, step = ys.shape[0], block_rows(3)
    for start in range(0, flat.size, step):
        idx = np.arange(start, min(start + step, flat.size))
        yield _text(np.hstack([xs[idx // ny], ys[idx % ny], _layout(flat[start : start + step], ord("\n"))]))


def write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block of CSV text."""
    with _atomic(path) as fh:
        fh.write((header + "\n").encode("ascii"))
        for block in blocks:
            fh.write(block.encode("ascii"))
