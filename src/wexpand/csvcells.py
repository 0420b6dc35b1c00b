"""The package's one CSV writer, and the bytes of `'%.17g' % x` it writes.

`write_csv(path, header, columns)` writes every CSV the CLI makes.  It checks
its inputs before it opens the file, and reads each float column once, as a
float64 array.  A table of fewer than _PER_ROW_MAX float cells is formatted
one `%` per row, each float column read as Python floats through one
`tolist`; a larger one BLOCK_ROWS rows at a time, in a bytearray of 8-byte
words.  The limit is where the two cost the same: on a
`fidelity-sweep` table (six float columns and one string column, 2 cores,
Xeon), `%` per row took about 0.54 us per float cell and a block about
160 us fixed plus 0.13 us per float cell, so they cross near 360 cells.  So
`prepare` tables (at most about 250 float cells) and 50-step sweeps go per
row, and longer sweeps and every cavity grid in blocks.
Each cell of a block row takes whole words, padded with 0 bytes, and holds its
separator (a comma, or the row's LF) in its own last byte.  Each run of
adjacent float columns is formatted by one call straight into its words, each
string cell is copied in whole words from a table of its column's strings, and
`bytearray.translate(None, b"\\0")` compacts the block to rows.

The file is opened without `O_TRUNC`; a regular file longer than one byte is
cut to its first byte, and the CSV is written from offset 0, its first write
replacing that byte.  So whenever the writer stops (it returns, raises, or its
process is killed), the file holds a prefix of the new CSV and no other byte
of the old file, as after `open(path, "wb")`, except that a run stopped before
its first bytes reach the file leaves the old first byte.  It is not cut to
zero because on ext4 with the default `auto_da_alloc` a file cut to zero has
its new data allocated and its writeback started when it is closed (a guard of
this very rewrite against a crash, paid on every request); a file cut to one
byte is left to the page cache.  Written in place, the file keeps its inode,
so a symlinked or hard-linked path is written through (a temporary file
renamed over it would replace the inode, and `auto_da_alloc` flushes on that
rename too).  Nothing is synced: after a power loss the file holds what the
filesystem kept, and its first block, written over in place, is not ordered
with the rest of the data.

`format_cells(values)` returns an (n, WIDTH) uint8 matrix whose row k holds
the ASCII bytes of `'%.17g' % values[k]`, padded with 0 bytes.

For 1e-6 < |x| < 10 the 17 significant digits come from integer
arithmetic that is exact.  Take the decimal exponent E (x in [10^E,
10^(E+1))) and s = 16 - E, in 16..22, so that 10^s is an exact double.
Dekker's product splits |x| * 10^s into hi + lo exactly, with hi >= 1e16 >
2^53 an even integer, so hi + rint(lo) is the product rounded half-even to
an integer: the 17 digits that a correctly rounded `%.17g` writes.  A zero
is written `0` or `-0` by its sign bit, on the same path: it is formatted
as 1.0, whose digit words are empty, and its first word is then replaced.
Every other value (non-finite values, |x| outside that range and not zero)
is formatted as 1.0 too, and then Python's `%` bytes of it, one cell each
and at most 24 bytes, are written over its first three words.
"""
from __future__ import annotations

import contextlib
import functools
import os
import stat
from typing import Sequence

import numpy as np

# A cell is four little-endian 8-byte words:
# - word 0: the sign; the "0.", "0.0", "0.00" or "0.000" of a value in
#   [1e-4, 1); the first digit; and a slot for the point after it;
# - words 1 and 2: the other 16 digits side by side, as four groups of four,
#   with trailing zeros left as 0 bytes;
# - word 3: the "e-05" or "e-06" of a value in [1e-6, 1e-4), and a last byte
#   that no cell uses (`write_csv` puts the separator there).
# %g switches to the exponent form below 1e-4.
_PREFIX = 5
WIDTH = 32
_WORD = np.dtype("<u8")


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = high + low, each with at most 26 significant bits."""
    c = v * 134217729.0  # 2^27 + 1
    high = c - (c - v)
    return high, v - high


def _words(rows: list[bytes]) -> np.ndarray:
    """Byte strings of 8 bytes each (or a multiple), as words."""
    return np.frombuffer(b"".join(rows), dtype=_WORD)


# The per-exponent tables are indexed by k = E - _E_MIN, for E in -6..1
# (log10 can overshoot to 1 next to 10, before the exact product corrects it).
_E_MIN = -6
_EXPONENTS = range(_E_MIN, 2)
# 10^(16 - E), exact, and Veltkamp's split of it.
_SCALES = np.array([float(10 ** (16 - e)) for e in _EXPONENTS])
_SCALES_HIGH, _SCALES_LOW = _split(_SCALES)
# Word 0 at index 4 * (10 * k + first digit) + 2 * point + sign,
# where point says that a later digit is nonzero.  The slot takes the point
# at E = 0 and in the exponent form; below 1 the prefix holds it.
_HEADS = _words(
    [
        (b"-" if negative else b"\0")
        + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").encode().rjust(_PREFIX, b"\0")
        + b"%d" % d
        + (b"." if point and (e == 0 or e < -4) else b"\0")
        for e in _EXPONENTS
        for d in range(10)
        for point in (False, True)
        for negative in (False, True)
    ]
)
_TAILS = _words(
    [("e-%02d" % -e if e < -4 else "").encode().ljust(8, b"\0") for e in _EXPONENTS]
)
_ZERO, _NEGATIVE_ZERO = _words([b"0".ljust(8, b"\0"), b"-0".ljust(8, b"\0")])


# Built on first use: a process that writes no large table (`verify`) never holds it.
@functools.cache
def _group_table() -> np.ndarray:
    """Entry m: the four digits of m, as a 4-byte group; entry 10^4 + m: the
    same with m's trailing zeros as 0 bytes."""
    scales = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10_000, dtype=np.uint16)[:, None] // scales % 10).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    table = np.empty((2, 10_000, 4), dtype=np.uint8)
    table[:] = digits + ord("0")
    table[1][trailing] = 0
    return table.view("<u4").ravel()


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10^(16 - E) exactly (Dekker's product), for
    k = E - _E_MIN."""
    hi = a * _SCALES[k]
    a_high, a_low = _split(a)
    b_high, b_low = _SCALES_HIGH[k], _SCALES_LOW[k]
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    return hi, lo


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k = E - _E_MIN and the 17 digits q, in [1e16, 1e17), of each of the
    magnitudes a, each in (1e-6, 10)."""
    # k = E - _E_MIN, the row of the per-exponent tables.  Truncation keeps
    # it at 0 or more where log10 falls just below -6.
    k = (np.log10(a) - _E_MIN).astype(np.int64)
    hi, lo = _scaled(a, k)
    # log10 can miss E by one next to a power of ten; the exact product
    # says which way.  The corrected E is the true one, in -6..0.
    near = (hi <= 1e16) | (hi >= 1e17)
    if near.any():
        hi_near, lo_near = hi[near], lo[near]
        below = (hi_near < 1e16) | ((hi_near == 1e16) & (lo_near < 0.0))
        above = (hi_near > 1e17) | ((hi_near == 1e17) & (lo_near >= 0.0))
        k[near] += above.astype(np.int64) - below
        hi[near], lo[near] = _scaled(a[near], k[near])
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carried = q == 10**17
    if carried.any():
        q[carried] = 10**16
        k[carried] += 1
    return k, q


def _format_fast(a: np.ndarray, negative: np.ndarray, out: np.ndarray, last) -> None:
    """Write the cells of magnitudes a, each in (1e-6, 10), into the words
    `out` of shape a.shape + (4,), with `last` in each cell's last word."""
    k, q = _digits(a)
    # q's 17 digits: the first, then four groups of four.  Integer division
    # by a scalar is several times faster than np.divmod.
    first = q // 10**16
    rest = q - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g1 = high // 10**4
    g2 = high - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    out[..., 0] = _HEADS[4 * (10 * k + first) + 2 * (rest != 0) + negative]
    groups = _group_table()
    digits = out[..., 1:3].view("<u4")
    digits[..., 0] = groups[g1]
    digits[..., 1] = groups[g2]
    digits[..., 2] = groups[g3]
    digits[..., 3] = groups[g4 + 10_000]
    # %g drops trailing zeros: where the last group is zero, each group from
    # the trimming half of the table when every later group is zero.
    short = g4 == 0
    if short.any():
        trim2 = low[short] == 0
        trim1 = trim2 & (g2[short] == 0)
        trimmed = [g1[short] + 10_000 * trim1, g2[short] + 10_000 * trim2, g3[short] + 10_000]
        digits[short, :3] = groups[np.stack(trimmed, axis=1)]
    out[..., 3] = last
    tiny = k < -4 - _E_MIN  # E < -4: the exponent form
    if tiny.any():
        out[tiny, 3] |= _TAILS[k[tiny]]


def _write_cells(x: np.ndarray, out: np.ndarray, last) -> None:
    """Write the cells of the float64 array x into the words `out`, of shape
    x.shape + (4,), with `last` ORed into each cell's last word."""
    a = np.abs(x)
    negative = np.signbit(x)
    # The double nearest 1e-6 lies below 10^-6, so the lower bound is open.
    fast = (a > 1e-6) & (a < 10.0)
    if fast.all():
        _format_fast(a, negative, out, last)
        return
    # 1.0 stands in for every other cell: its digit words are empty and its
    # last word holds only `last`.
    _format_fast(np.where(fast, a, 1.0), negative, out, last)
    # A zero is "0" or "-0" by its sign bit: every sweep's first theta, and
    # most cells of a `prepare --full` table.
    zero = a == 0.0
    out[zero, 0] = np.where(negative[zero], _NEGATIVE_ZERO, _ZERO)
    slow = ~(fast | zero)
    if slow.any():
        # Python's `%`, at most 24 bytes, over the first three words.
        text = np.array([("%.17g" % v).encode() for v in x[slow].tolist()], dtype="S24")
        out[slow, :3] = text.view(_WORD).reshape(-1, 3)


def format_cells(values) -> np.ndarray:
    """Row k: the bytes of `'%.17g' % values[k]`, padded with 0 bytes to WIDTH.

    `values` is read as a flat float64 array.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    words = np.empty((x.size, WIDTH // 8), dtype=_WORD)
    _write_cells(x, words, 0)
    return words.view(np.uint8)


BLOCK_ROWS = 2048  # so that a block's buffers stay a few hundred KiB
_PER_ROW_MAX = 400  # float cells; for fewer, a block's fixed cost exceeds `%` per row


def _float_column(k: int, column) -> np.ndarray:
    """Float column k as a 1-D float64 array, or a ValueError naming the fault.

    Its values must be real numbers (bools, ints or floats): a float64
    conversion alone would read "1.5" as 1.5 and drop the imaginary part of a
    complex array.  A Python int past int64 makes an object array, converted
    here unless it is past the float range.
    """
    try:
        values = np.asarray(column)
    except ValueError:  # a ragged nesting
        raise ValueError(f"column {k} must be one-dimensional") from None
    if values.dtype.kind == "O" and all(
        isinstance(v, (int, float, np.integer, np.floating)) for v in values.flat
    ):
        try:
            values = values.astype(np.float64)
        except OverflowError:
            raise ValueError(f"column {k} must be finite") from None
    if values.dtype.kind not in "biuf":
        raise ValueError(f"column {k} must hold real numbers, got {values.dtype} values")
    if values.ndim != 1:
        raise ValueError(f"column {k} must be one-dimensional, got shape {values.shape}")
    return values.astype(np.float64, copy=False)


def _string_index(k: int, column) -> np.ndarray:
    """The index of string column k, checked against its strings."""
    strings, index = column
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"column {k} must index its strings by a 1-D integer array")
    if index.size and (index.min() < 0 or index.max() >= len(strings)):
        raise ValueError(f"column {k} has a string index out of range 0..{len(strings) - 1}")
    return index


def _fields(strings: Sequence[str]) -> int:
    """The number of CSV fields that each of `strings` holds, read off the
    first and checked against the commas of all of them, counted at once."""
    if not strings:
        return 1
    fields = strings[0].count(",") + 1
    if ",".join(strings).count(",") != len(strings) * fields - 1:
        raise ValueError("the strings of one column hold different numbers of fields")
    return fields


def _string_cells(strings: Sequence[str], separator: str) -> np.ndarray:
    """Item i: strings[i] in whole words, padded with 0 bytes, and `separator`
    in the last byte, as one opaque item (so that a gather copies whole cells)."""
    cells = [s.encode() for s in strings]
    width = 8 * (max(map(len, cells), default=0) // 8 + 1)
    table = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width)
    table[:, -1] = ord(separator)
    return table.view(f"V{width}").ravel()


def _without_truncation(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _overwrite(path):
    """`path` opened for binary writing at offset 0, a regular file first cut
    to its first byte (see the module docstring).  The writer must write at
    least one byte, which replaces it."""
    with open(path, "wb", opener=_without_truncation) as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 1:
            os.ftruncate(fh.fileno(), 1)
        yield fh


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write `header` and then one LF-terminated row per index of `columns`.

    A column is a sequence of floats, written `%.17g`, or a pair (strings,
    index) of a list and an int array whose row k holds strings[index[k]]:
    a cell repeated along an axis is formatted once.  A string cell may hold
    several fields joined by commas, the same number in every string of its
    column.  There is at least one float column, and no header name or
    string field needs CSV quoting.

    Raises ValueError, before the file is opened, unless the header names
    every field of a row, each float column is a flat sequence of real
    numbers, each index lies in the range of its strings, and all columns
    have one length.

    The CSV is written from offset 0 over whatever the file held, cut first
    to its first byte (see the module docstring): the file keeps its inode,
    ends holding exactly the new CSV, and holds a prefix of it if the writer
    stops early.
    """
    if not columns:
        raise ValueError("a CSV needs at least one column")
    strings = {k: _string_index(k, c) for k, c in enumerate(columns) if isinstance(c, tuple)}
    floats = [k for k in range(len(columns)) if k not in strings]
    fields = len(floats) + sum(_fields(columns[k][0]) for k in strings)
    if len(header) != fields:
        raise ValueError(f"header names {len(header)} fields, but a row holds {fields}")
    values = {k: _float_column(k, columns[k]) for k in floats}
    lengths = {len(strings[k]) if k in strings else len(values[k]) for k in range(len(columns))}
    n_rows, *others = lengths
    if others:
        raise ValueError(f"columns must have one length, got {sorted(lengths)}")
    head = (",".join(header) + "\n").encode()
    if n_rows * len(floats) < _PER_ROW_MAX:
        row = ",".join("%s" if k in strings else "%.17g" for k in range(len(columns))) + "\n"
        # A float column is read as Python floats through one `tolist`.
        cells = [
            [c[0][i] for i in strings[k].tolist()] if k in strings else values[k].tolist()
            for k, c in enumerate(columns)
        ]
        text = "".join([row % r for r in zip(*cells)]).encode()
        with _overwrite(path) as fh:
            fh.write(head)
            fh.write(text)
        return
    separators = [","] * (len(columns) - 1) + ["\n"]
    tables = {k: _string_cells(columns[k][0], separators[k]) for k in strings}
    widths = [tables[k].itemsize // 8 if k in strings else WIDTH // 8 for k in range(len(columns))]
    at = np.cumsum([0] + widths)  # each cell's first word
    # Each run of adjacent float columns: its first word, its columns, and
    # each cell's last word, which holds its separator.
    runs = []
    for k in floats:
        if runs and k == runs[-1][-1] + 1:
            runs[-1].append(k)
        else:
            runs.append([k])
    runs = [
        (at[run[0]], [values[k] for k in run],
         np.array([ord(separators[k]) << 56 for k in run], dtype=_WORD))
        for run in runs
    ]
    block_rows = min(BLOCK_ROWS, n_rows)
    buffer = bytearray(block_rows * at[-1] * 8)
    block = np.frombuffer(buffer, dtype=_WORD).reshape(block_rows, at[-1])
    with _overwrite(path) as fh:
        fh.write(head)
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            rows = block[: stop - start]
            for k, table in tables.items():
                cells = rows[:, at[k] : at[k + 1]].view(table.dtype)[:, 0]
                np.take(table, strings[k][start:stop], out=cells, mode="clip")
            for first, run, last in runs:
                cells = rows[:, first : first + 4 * len(run)].reshape(len(rows), len(run), 4)
                _write_cells(np.stack([c[start:stop] for c in run], axis=1), cells, last)
            # A full block is compacted in place of a copy; the last may be short.
            full = stop - start == block_rows
            fh.write((buffer if full else buffer[: rows.nbytes]).translate(None, b"\0"))
