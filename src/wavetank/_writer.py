"""Atomic output files, and the one CSV number format: '%.17g', which round-trips float64.

A file is written to a hidden sibling made by a plain `open` (so the umask
sets its mode) and moved over the target by `os.replace` once complete.  On
any exception the sibling is removed and an existing target is left as it was.

CSV text comes from two formatters, each yielding bounded blocks of rows as
bytes: `table_blocks` formats a stream of 2-d float blocks, one line per row
(`row_blocks` stacks slices of whole columns into such blocks, and `simulate`
hands it the one reused block of `evolution._rows`); `grid_rows` formats the
x,y,value rows of a tensor grid, each of its nx + ny coordinates once per
file, and its text equals that of `row_blocks` over the repeated coordinates.
Each call allocates one 64-byte-aligned `_Workspace`, sized for one block,
and every block is formatted inside it: the rows are laid out in its
zero-padded, row-major text buffer, a bytearray, and the zero bytes are
deleted as the block is yielded, in place for a full block (which leaves as
a `bytearray`; a shorter block is first copied out).  A grid block holds
whole x rows (or a part of one), so its x and y cells are copied into that
buffer by broadcasting.

`_layout` gives the bytes of '%.17g' for a whole array at once.  It scales
|v| by 10**(16 - X), X = floor(log10 |v|), as a double-double (Dekker
products, each step its own ufunc so that no fused multiply-add creeps in)
and rounds to the 17-digit integer N.  The 16 digits after the leading one
are four 4-digit groups, each looked up as four ASCII bytes in a table whose
second half has the trailing zeros of the last nonzero group as zero bytes.
Per exponent X, tables of little-endian uint64 words then place sign and
'0.000' prefix, the '.' (the digit bytes after it move up by one), the '0'
digits of an integer part and the exponent suffix, in the 32 bytes of a value
whose zero bytes are deleted at the end.  A value that it cannot settle
exactly (within 1e-6 of a rounding tie, |v| outside [1e-280, 1e280], not
finite) goes through Python's '%'; +-0 is laid out directly.
"""

import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .basis import _aligned

_CHUNK_VALUES = 1 << 14  # values formatted per block: bounds the writer's memory
_X0 = -282  # the tables cover decimal exponents _X0..-_X0
_N_EXP = 1 - 2 * _X0
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_SLOT = 32  # text bytes of one value: four words
_WORD = np.dtype("<u8")  # the tables and the text are little-endian words; arithmetic is in native uint64
_G = 10**4  # one 4-digit group; the digit table's second half starts here
_ZEROS = np.uint64(0x3030303030303030)  # '0' in every byte of a word
_ROWS = 9  # 8-byte scratch rows of a workspace
_FLAGS = 5  # bool scratch rows of a workspace


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


def _exponent(X):
    """10**(16 - X) as hi + lo (hi correctly rounded, lo the correctly rounded rest), and the '%.17g' layout at X.

    The layout is seven words.  S is the 16 digits after the leading one, in
    two words.  Words 0 and 1: bytes 0-6 of a value's first word, the prefix
    ('0.' to '0.000') right-justified, and the same after a '-'.  Words 2 and
    3: the bytes of S that an integer part holds, which stay; the others move
    up by one byte.  Words 4 and 5: the '.' in the byte that frees (none when
    the prefix holds it).  Word 6: bytes 1-5 of the last word, the exponent
    suffix ('e-07', 'e+300').
    """
    num, den = 10 ** max(16 - X, 0), 10 ** max(X - 16, 0)
    hi = num / den  # int / int is correctly rounded
    h_num, h_den = hi.as_integer_ratio()
    prefix, suffix, at, dot = b"", b"", 0, b"."
    if X < -4 or X >= 17:
        suffix = b"e%+03d" % X
    elif X < 0:
        prefix, dot = b"0." + b"0" * (-1 - X), b""
    else:
        at = X
    words = [
        prefix.rjust(7, b"\0") + b"\0",
        (b"-" + prefix).rjust(7, b"\0") + b"\0",
        (b"\xff" * at).ljust(16, b"\0"),
        (b"\0" * at + dot).ljust(16, b"\0")[:16],
        (b"\0" + suffix).ljust(8, b"\0"),
    ]
    return (hi, (num * h_den - h_num * den) / (den * h_den)), np.frombuffer(b"".join(words), _WORD)


@functools.cache
def _exponent_table():
    """Per exponent index X - _X0: the two halves of 10**(16 - X), the seven layout words, and which are filled in."""
    return np.zeros((2, _N_EXP)), np.zeros((7, _N_EXP), _WORD), np.zeros(_N_EXP, bool)


def _exponents(xi):
    """The halves and layout words of `_exponent_table`, filled in for every exponent index in xi."""
    powers, words, filled = _exponent_table()
    if not filled[xi.min() : xi.max() + 1].all():
        need = np.zeros(_N_EXP, bool)
        need[xi] = True
        for i in np.flatnonzero(need & ~filled).tolist():
            powers[:, i], words[:, i] = _exponent(i + _X0)
        filled |= need
    return powers, words


@functools.cache
def _digit_table():
    """ASCII of the 4-digit groups 0000..9999 as uint32, first digit in the lowest byte; then, trailing zeros as 0."""
    pairs = [b"%02d" % i for i in range(100)]
    full, short = (
        np.frombuffer(b"".join(p.ljust(4, b"\0") for p in ps), "<u4") for ps in (pairs, [p.rstrip(b"0") for p in pairs])
    )
    # group 100 a + b is pair a, then pair b
    table = np.empty((2, 100, 100), "<u4")
    np.bitwise_or(full[:, None], full << 16, out=table[0])
    np.bitwise_or(full[:, None], short << 16, out=table[1])
    table[1, :, 0] = short  # a zero pair b ends the digits at pair a
    return table.ravel()


class _Workspace:
    """The scratch arrays of `_layout` for up to n values, in one allocation, and a zeroed text buffer.

    `f`, `i` and `u` are the same _ROWS rows of 8-byte slots, as float64,
    int64 and uint64: each stage of `_layout` reuses the rows an earlier one
    is done with.  Every row starts on a 64-byte boundary, and so does
    `text`, a view of the bytearray `raw` whose bytes before and after it
    stay zero: `_text` deletes a full block's padding from `raw` itself.
    """

    def __init__(self, n: int, text_shape):
        m = -(-n // 64) * 64
        rows, flags = 8 * m * _ROWS, m * _FLAGS
        buf = _aligned(rows + flags, np.uint8)
        self.f = buf[:rows].view(np.float64).reshape(_ROWS, m)
        self.i, self.u = self.f.view(np.int64), self.f.view(np.uint64)
        self.flags = buf[rows:].view(bool).reshape(_FLAGS, m)
        size = int(np.prod(text_shape))
        self.raw = bytearray(size + 63)
        text = np.frombuffer(self.raw, np.uint8)
        first = -text.ctypes.data % 64
        self.text = text[first : first + size].reshape(text_shape)


def _split(a, hi, lo):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    np.multiply(a, _SPLIT, out=hi)
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)


def _scaled(a, xi, w):
    """Integer part and fraction of a * 10**(16 - X), xi = X - _X0, within 1e-14 (the tie margin is 1e-6).

    w is seven float64 scratch rows; the integer part is an int64 view of w[4], the fraction w[6].
    """
    hi, lo = _exponents(xi)[0]
    th, p, bh, bl, ah, al, e = w
    np.take(hi, xi, out=th, mode="clip")
    np.multiply(a, th, out=p)
    _split(th, bh, bl)
    _split(a, ah, al)
    np.subtract(np.multiply(ah, bh, out=e), p, out=e)  # a * th - p, exactly
    e += np.multiply(ah, bl, out=th)
    e += np.multiply(al, bh, out=th)
    e += np.multiply(al, bl, out=th)
    np.take(lo, xi, out=th, mode="clip")
    e += np.multiply(a, th, out=th)
    f = np.floor(e, out=th)
    n, fi = ah.view(np.int64), bh.view(np.int64)
    np.copyto(n, p, casting="unsafe")  # p is an integer (p >= 1e16 > 2**53) wherever n has 17 digits
    np.copyto(fi, f, casting="unsafe")
    n += fi
    return n, np.subtract(e, f, out=e)


def _layout(v, sep, slots, ws):
    """Write '%.17g' % v[i] and then sep into row i of slots: four uint64 words whose zero bytes are padding.

    sep is the separator byte as a word shifted left by 48 bits, or one such
    word per value.  Bytes 0-7 hold sign, prefix and leading digit, 8-24 the
    other digits and '.', 25-29 the exponent suffix and 30 the separator.
    """
    n = v.size
    f, i, u = ws.f[:, :n], ws.i[:, :n], ws.u[:, :n]
    zero, ok, t, t2, t3 = ws.flags[:, :n]
    a, xi = f[0], i[1]
    np.abs(v, out=a)
    np.equal(a, 0.0, out=zero)
    np.greater_equal(a, 1e-280, out=ok)
    ok &= np.less_equal(a, 1e280, out=t)
    np.copyto(a, 1.0, where=np.logical_not(ok, out=t))
    np.floor(np.log10(a, out=f[2]), out=f[2])
    np.copyto(xi, f[2], casting="unsafe")
    xi -= _X0
    N, frac = _scaled(a, xi, f[2:9])
    # log10 can miss X by one near a power of ten: rescale where N has not 17 digits
    low, high = np.less(N, 10**16, out=t), np.greater_equal(N, 10**17, out=t2)
    fix = np.flatnonzero(np.logical_or(low, high, out=t3))
    if fix.size:
        xi[fix] += high[fix].astype(np.int64) - low[fix]
        N[fix], frac[fix] = _scaled(a[fix], xi[fix], np.empty((7, fix.size)))
        ok[fix] &= (N[fix] >= 10**16) & (N[fix] < 10**17)
    frac -= 0.5
    N += np.greater(frac, 0.0, out=t)
    ok &= np.greater(np.abs(frac, out=frac), 1e-6, out=t)
    top = np.equal(N, 10**17, out=t)
    np.copyto(N, 10**16, where=top)
    xi += top
    ok |= zero
    # the leading digit, then the four 4-digit groups of the rest as indices into the digit table
    rest, lead, ga, gb, gc, tmp = N.view(np.uint64), u[0], u[2], u[3], u[4], u[5]
    np.floor_divide(rest, 10**16, out=lead)
    rest -= np.multiply(lead, 10**16, out=tmp)
    np.floor_divide(rest, 10**8, out=gb)
    rest -= np.multiply(gb, 10**8, out=tmp)
    np.floor_divide(gb, _G, out=ga)
    gb -= np.multiply(ga, _G, out=tmp)
    np.floor_divide(rest, _G, out=gc)
    gd = rest
    gd -= np.multiply(gc, _G, out=tmp)
    # the group that holds the last nonzero digit, and every group after it, drop their trailing zeros
    gd += _G
    for g, later in ((gc, gd), (gb, gc), (ga, gb)):
        np.add(g, _G, out=g, where=np.equal(later, _G, out=t))
    table, group = _digit_table(), tmp.view("<u4")[:n]
    H, L = u[7], u[8]
    for word, left, right in ((H, ga, gb), (L, gc, gd)):
        np.take(table, right.view(np.int64), out=group, mode="clip")
        np.left_shift(group, 32, out=word, dtype=np.uint64)
        np.take(table, left.view(np.int64), out=group, mode="clip")
        word |= group
    # move the digits after the '.' up by one byte and put the '.' in the byte that frees, if any digit follows
    # (a kept byte is a digit of the integer part: a trailing zero there is '0'); the group rows are free now
    words = _exponents(xi)[1]
    keep_h, keep_l, dot_h, dot_l, suffix = words[2:]
    A, B, kh, kl = ga, gb, gc, gd
    for word, keep, kept, moved in ((H, keep_h, kh, A), (L, keep_l, kl, B)):
        np.take(keep, xi, out=kept, mode="clip")
        np.bitwise_and(word, np.invert(kept, out=moved), out=moved)
        kept &= np.bitwise_or(word, _ZEROS, out=word)
    frac_digits = np.not_equal(np.bitwise_or(A, B, out=tmp), 0, out=t)
    for word, dot, kept in ((H, dot_h, kh), (L, dot_l, kl)):
        np.take(dot, xi, out=word, mode="clip")
        word *= frac_digits
        word |= kept
    L |= np.right_shift(A, 56, out=tmp)
    np.bitwise_or(H, np.left_shift(A, 8, out=A), out=slots[:, 1])
    np.bitwise_or(L, np.left_shift(B, 8, out=tmp), out=slots[:, 2])
    np.right_shift(B, 56, out=B)
    np.take(suffix, xi, out=tmp, mode="clip")
    B |= tmp
    np.bitwise_or(B, sep, out=slots[:, 3])
    # the first word: sign and prefix from the table, then the leading digit ('0' for +-0)
    idx = i[2]
    np.multiply(np.signbit(v, out=t), _N_EXP, out=idx)
    idx += xi
    np.take(words[:2].ravel(), idx, out=tmp, mode="clip")
    lead += ord("0")
    lead -= zero
    np.bitwise_or(tmp, np.left_shift(lead, 56, out=lead), out=slots[:, 0])
    text = slots.view(np.uint8)
    for k in np.flatnonzero(np.logical_not(ok, out=t)).tolist():
        s = b"%.17g" % v[k]
        text[k, :30] = 0
        text[k, : len(s)] = np.frombuffer(s, np.uint8)


def _text(ws, n: int):
    """The first n rows of the workspace's text in order, zero bytes deleted: in place for a full block."""
    if n == len(ws.text):
        return ws.raw.translate(None, b"\0")
    return ws.text[:n].tobytes().translate(None, b"\0")


def _cells(v):
    """'%.17g,' of each v, left-justified in the zero-padded void cells of one width."""
    cells = np.array([w + b"," for w in b"".join(row_blocks(v)).split()], dtype="S")
    return cells.view(f"V{cells.itemsize}")


def table_blocks(blocks):
    """Yield the CSV text of each 2-d float block, one line per row.

    One workspace, sized by the first block, serves every block: each later
    block has the same width and at most as many rows.
    """
    ws = None
    for block in blocks:
        if ws is None:
            ws = _Workspace(block.size, (block.size, _SLOT))
            seps = np.full(block.shape, ord(","), _WORD)
            seps[:, -1] = ord("\n")
            seps = (seps << 48).ravel()
            slots = ws.text.view(_WORD)
        _layout(block.ravel(), seps[: block.size], slots[: block.size], ws)
        yield _text(ws, block.size)


def row_blocks(*columns):
    """Yield the CSV text of 1-d (one column) and 2-d columns side by side, a bounded block at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    step = block_rows(sum(1 if c.ndim == 1 else c.shape[1] for c in cols))
    return table_blocks(np.column_stack([c[i : i + step] for c in cols]) for i in range(0, len(cols[0]), step))


def grid_rows(x, y, values):
    """Yield the CSV text of the rows x[i],y[j],values[i, j] (x outer, y inner), a bounded block at a time.

    A block holds as many whole x rows as fit in `block_rows(3)` points; an x
    row longer than that splits across blocks.
    """
    xs, ys = (_cells(np.asarray(c, dtype=float).ravel()) for c in (x, y))
    nx, ny = xs.size, ys.size
    flat = np.ascontiguousarray(values, dtype=float).reshape(nx, ny)
    step = block_rows(3)
    per, cols = max(1, step // ny), min(ny, step)  # x rows per block, points per x row of a block
    head = -(-(xs.itemsize + ys.itemsize) // 8) * 8  # the value's words start on an 8-byte boundary
    ws = _Workspace(per * cols, (per * cols, head + _SLOT))
    row = {"names": ["x", "y"], "formats": [xs.dtype, ys.dtype], "offsets": [0, xs.itemsize], "itemsize": head + _SLOT}
    cells = ws.text.view(np.dtype(row))[:, 0]
    slots = ws.text[:, head:].view(_WORD)
    sep = np.uint64(ord("\n") << 48)
    for i in range(0, nx, per):
        for j in range(0, ny, cols):
            k, c = min(per, nx - i), min(cols, ny - j)
            block = cells[: k * c].reshape(k, c)
            block["x"] = xs[i : i + k, None]
            block["y"] = ys[j : j + c]
            _layout(flat[i : i + k, j : j + c].ravel(), sep, slots[: k * c], ws)
            yield _text(ws, k * c)


def write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block of CSV text (bytes or bytearray)."""
    with _atomic(path) as fh:
        fh.write((header + "\n").encode("ascii"))
        for block in blocks:
            fh.write(block)
