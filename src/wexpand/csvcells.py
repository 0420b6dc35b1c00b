"""The package's one CSV writer, and the bytes of `'%.17g' % x` it writes.

`write_csv(path, header, columns)` writes every CSV the CLI makes.  A small
table is formatted one `%` per row; a larger one BLOCK_ROWS rows at a time,
as a uint8 matrix of cells padded with 0 bytes and separators in fixed
columns, that `matrix.tobytes().translate(None, b"\\0")` compacts to rows.

`format_cells(values)` returns an (n, WIDTH) uint8 matrix whose row k holds
the ASCII bytes of `'%.17g' % values[k]`, padded with 0 bytes.

For 1e-6 < |x| < 1e16 the 17 significant digits come from integer
arithmetic that is exact.  Take the decimal exponent E (x in [10^E,
10^(E+1))) and s = 16 - E, in 1..22, so that 10^s is an exact double.
Dekker's product splits |x| * 10^s into hi + lo exactly, with hi >= 1e16 >
2^53 an even integer, so hi + rint(lo) is the product rounded half-even to
an integer: the 17 digits that a correctly rounded `%.17g` writes.  A zero
is written `0` or `-0` by its sign bit.  Every other value (non-finite
values, |x| outside that range) is formatted by Python's `%` alone, one
cell each.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

# Row layout, in six 8-byte words: the sign; the "0.", "0.0", "0.00" or
# "0.000" of a value in [1e-4, 1); each of the 17 digits followed by its own
# slot for the decimal point, so that where the digits sit does not depend on
# the exponent; and, in the last word, the "e-05" or "e-06" of a value in
# [1e-6, 1e-4).  %g switches to the exponent form below 1e-4 and at 1e17.
_PREFIX = 5
_DIGITS = 17
_EXPONENT = 1 + _PREFIX + 2 * _DIGITS
WIDTH = _EXPONENT + 8

_E_MIN, _E_MAX = -6, 15
# 10^s for s in 0..22, each exact.
_POW10 = np.array([float(10**s) for s in range(23)])


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = high + low, each with at most 26 significant bits."""
    c = v * 134217729.0  # 2^27 + 1
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _words(rows: list[bytes]) -> np.ndarray:
    """Byte strings of 8 bytes each, one uint64 per string."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


# Indexed by E - _E_MIN, for E in -6..16 (a rounded value can reach 10^16).
_EXPONENTS = range(_E_MIN, 17)
# The first word, less the sign, at index 10 * (E - _E_MIN) + first digit.
_HEADS = _words(
    [
        ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").encode().rjust(_PREFIX + 1, b"\0")
        + b"%d\0" % d
        for e in _EXPONENTS
        for d in range(10)
    ]
)
_TAILS = _words(
    [("e-%02d" % -e if e < -4 else "").encode().ljust(8, b"\0") for e in _EXPONENTS]
)


# Built on first use: a process that writes no large table (`verify`) never holds it.
@functools.cache
def _group_table() -> np.ndarray:
    """Row m: the four digits of m, each followed by an empty slot; row
    10^4 + m: the same with m's trailing zeros dropped."""
    scales = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10_000, dtype=np.uint16)[:, None] // scales % 10).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    table = np.zeros((2, 10_000, 8), dtype=np.uint8)
    table[:, :, ::2] = digits + ord("0")
    table[1, :, ::2][trailing] = 0
    return table.view(np.uint64).ravel()


# 10^(16 - p), where p is the digit whose slot takes the decimal point (the
# units digit in fixed notation, the first in exponent form): there is a
# point when q mod this is nonzero.  Below 1 the prefix holds the point.
_FRACTION = np.array(
    [10**16 if e < -4 else 1 if e < 0 else 10 ** (16 - e) for e in _EXPONENTS], dtype=np.int64
)
_DOT_COLUMN = np.array([1 + _PREFIX + 1 + 2 * max(e, 0) for e in _EXPONENTS])


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10^(16 - e) exactly (Dekker's product)."""
    s = 16 - e
    hi = a * _POW10[s]
    a_high, a_low = _split(a)
    b_high, b_low = _POW10_HIGH[s], _POW10_LOW[s]
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    return hi, lo


def _format_fast(a: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Rows for magnitudes a, each in (1e-6, 1e16)."""
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), _E_MIN, _E_MAX)
    hi, lo = _scaled(a, e)
    # log10 can miss E by one next to a power of ten; the exact product
    # says which way.  The corrected E is the true one, still in range.
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    redo = np.flatnonzero(below | above)
    if redo.size:
        e[redo] += above[redo].astype(np.int64) - below[redo]
        hi[redo], lo[redo] = _scaled(a[redo], e[redo])
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carried = q == 10**17
    q[carried] = 10**16
    e += carried
    at_e = e - _E_MIN  # the row of the per-exponent tables

    # q's 17 digits: the first, then four groups of four.
    first, rest = np.divmod(q, 10**16)
    high, low = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    # %g drops trailing zeros: each group from the trimming table when every
    # later group is zero.
    trim3 = g4 == 0
    trim2 = low == 0
    trim1 = trim2 & (g2 == 0)
    groups = _group_table()
    words = np.empty((a.size, WIDTH // 8), dtype=np.uint64)
    words[:, 0] = _HEADS[10 * at_e + first]
    words[:, 1] = groups[g1 + 10_000 * trim1]
    words[:, 2] = groups[g2 + 10_000 * trim2]
    words[:, 3] = groups[g3 + 10_000 * trim3]
    words[:, 4] = groups[g4 + 10_000]
    words[:, 5] = _TAILS[at_e]
    rows = words.view(np.uint8)
    rows[:, 0] = negative * ord("-")
    fraction = q % _FRACTION[at_e] != 0
    dotted = np.flatnonzero(fraction)
    rows[dotted, _DOT_COLUMN[at_e[dotted]]] = ord(".")
    # An integer above 9 keeps the zeros left of its units digit.
    whole = np.flatnonzero(~fraction & (e > 0))
    if whole.size:
        words[whole, 1:5] = groups[np.stack([g1, g2, g3, g4], axis=1)[whole]]
        rows[whole] *= np.arange(WIDTH) <= _DOT_COLUMN[at_e[whole]][:, None]
    return rows


def _padded_cells(cells: list[str]) -> np.ndarray:
    """Row k: the ASCII bytes of cells[k], padded with 0 bytes to the longest."""
    return np.array([cell.encode() for cell in cells]).view(np.uint8).reshape(len(cells), -1)


def format_cells(values) -> np.ndarray:
    """Row k: the bytes of `'%.17g' % values[k]`, padded with 0 bytes to WIDTH.

    `values` is read as a flat float64 array.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    negative = np.signbit(x)
    # The double nearest 1e-6 lies below 10^-6, so the lower bound is open.
    fast = (a > 1e-6) & (a < 1e16)
    if fast.all():
        return _format_fast(a, negative)
    rows = np.zeros((x.size, WIDTH), dtype=np.uint8)
    rows[fast] = _format_fast(a[fast], negative[fast])
    # A zero is "0" or "-0" by its sign bit; a `prepare --full` table is mostly zeros.
    zero = a == 0.0
    rows[zero & ~negative, 0] = ord("0")
    rows[zero & negative, :2] = np.frombuffer(b"-0", dtype=np.uint8)
    slow = ~(fast | zero)
    if slow.any():
        cells = _padded_cells(["%.17g" % v for v in x[slow].tolist()])
        rows[slow, : cells.shape[1]] = cells
    return rows


BLOCK_ROWS = 2048  # so that a block's byte matrices stay a few hundred KiB
_PER_ROW_MAX = 1000  # float cells; for fewer, a block's fixed cost exceeds `%` per row


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write `header` and then one LF-terminated row per index of `columns`.

    A column is a sequence of floats, written `%.17g`, or a pair (strings,
    index) of a list and an int array whose row k holds strings[index[k]]:
    a cell repeated along an axis is formatted once.  There is at least one
    float column, and no header or string cell needs CSV quoting.
    """
    strings = [k for k, c in enumerate(columns) if isinstance(c, tuple)]
    floats = [k for k in range(len(columns)) if k not in strings]
    n_rows, *others = {len(c[1]) if k in strings else len(c) for k, c in enumerate(columns)}
    if others:
        raise ValueError(f"columns must have one length, got {sorted([n_rows, *others])}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if n_rows * len(floats) < _PER_ROW_MAX:
            row = ",".join("%s" if k in strings else "%.17g" for k in range(len(columns))) + "\n"
            cells = [np.take(c[0], c[1]) if k in strings else c for k, c in enumerate(columns)]
            fh.write("".join([row % r for r in zip(*cells)]).encode())
            return
        padded = [_padded_cells(c[0]) if k in strings else None for k, c in enumerate(columns)]
        # Each cell, then its comma; the last cell's comma becomes LF.
        at = np.cumsum([0] + [WIDTH + 1 if p is None else p.shape[1] + 1 for p in padded])
        block = np.zeros((min(BLOCK_ROWS, n_rows), at[-1]), dtype=np.uint8)
        block[:, at[1:] - 1] = ord(",")
        block[:, -1] = ord("\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            rows, stop = block[: n_rows - start], start + BLOCK_ROWS
            for k in strings:
                rows[:, at[k] : at[k + 1] - 1] = padded[k][columns[k][1][start:stop]]
            # One format_cells call a block: each call has a fixed cost.
            cells = format_cells(np.concatenate([columns[k][start:stop] for k in floats]))
            for k, part in zip(floats, np.split(cells, len(floats))):
                rows[:, at[k] : at[k + 1] - 1] = part
            fh.write(rows.tobytes().translate(None, b"\0"))
