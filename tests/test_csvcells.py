"""The package's one CSV writer, `csvcells.write_csv`, and the vectorised
`%.17g` formatter it is built on.

The formatter is held to Python's `'%.17g' % x`, byte for byte.  The writer,
and through it every command's CSV (`prepare`, `fidelity-sweep` and
`cavity-sweep`), is held to the per-row `%` writer it replaced, which is
kept below as the oracle, and a CSV written over an existing file to a
fresh one.
"""
import math
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wexpand import csvcells, noise
from wexpand.cavity import reflection_grid
from wexpand.cli import main
from wexpand.csvcells import BLOCK_ROWS, WIDTH, format_cells, write_csv
from wexpand.wcircuit import PHOTON, SPIN, double_w_pairs


def _assert_formats_like_percent(values):
    x = np.asarray(values, dtype=np.float64)
    rows = format_cells(x)
    assert rows.dtype == np.uint8 and rows.shape == (x.size, WIDTH)
    expected = ["%.17g" % v for v in x.tolist()]
    got = [row.tobytes().translate(None, b"\0").decode() for row in rows]
    mismatches = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert mismatches == []


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# Cells of the fast path, 1e-6 < |x| < 10.
_FAST_CELLS = st.builds(
    lambda v, sign: sign * v,
    st.floats(1e-6, 10.0, exclude_min=True, exclude_max=True),
    st.sampled_from([1.0, -1.0]),
)
# Nine cells in ten a zero of either sign, as in a `prepare --full` table.
_MOSTLY_ZERO = st.integers(0, 9).flatmap(
    lambda k: _ANY_FLOAT if k == 0 else st.sampled_from([0.0, -0.0])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_FLOAT, max_size=40))
def test_format_cells_matches_percent_17g(values):
    _assert_formats_like_percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MOSTLY_ZERO, max_size=40))
def test_format_cells_matches_percent_17g_on_mostly_zero_cells(values):
    _assert_formats_like_percent(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_FAST_CELLS, st.sampled_from([0.0, -0.0])), min_size=1, max_size=40))
def test_format_cells_writes_zeros_among_fast_cells_in_one_fast_call(values):
    # Every sweep's first theta is 0.0: a zero must not cost the mixed path.
    calls = []
    format_fast = csvcells._format_fast
    csvcells._format_fast = lambda a, *rest: calls.append(a.shape) or format_fast(a, *rest)
    try:
        _assert_formats_like_percent(values)
    finally:
        csvcells._format_fast = format_fast
    assert calls == [(len(values),)]


def _ulps_around(x: float, count: int) -> list[float]:
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_format_cells_at_powers_of_ten():
    # log10 misses the decimal exponent by one next to some of these.
    values = [v for k in range(-9, 18) for v in _ulps_around(float(f"1e{k}"), 40)]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_at_the_fast_path_edges():
    # 1e-6 and 10 bound the exact integer path; outside it, and at 1e16, it
    # is Python's %.
    values = _ulps_around(1e-6, 3) + _ulps_around(10.0, 3) + _ulps_around(1e16, 3) + [0.0, -0.0]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_rounds_18_digit_ties_half_even():
    # 17 digits keep one decimal of a value in [1e15, 1e16), so one that
    # ends in .25 or .75 sits exactly halfway between two of them.
    rng = np.random.default_rng(17)
    k = rng.integers(8 * 10**15, 64 * 10**15, 20_000)
    ties = k / 8.0
    assert np.isin(np.modf(ties)[0], [0.25, 0.75]).sum() > 500
    # On the exact integer path, 17 digits keep 16 decimals of a value in
    # [1, 10): an odd m / 2^17 has 17, the last a 5, and is a tie.
    m = rng.integers(2**17, 10 * 2**17, 20_000)
    assert (m % 2).sum() > 5000
    fast_ties = m / 2.0**17
    _assert_formats_like_percent(np.concatenate([ties, -ties, fast_ties, -fast_ties]))


def test_format_cells_writes_integers_with_their_zeros():
    values = [1.0, 10.0, 1200.0, 3e15, 9999999999999998.0, 123456789.0, 0.5, 0.0001, 2e-5]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_falls_back_for_what_the_fast_path_leaves():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e-7, 1e17, 12345678901234567890.0]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_at_every_exponent_digit_count_and_point_position():
    # A fast-path cell packs the 16 digits after the first in four 4-digit
    # groups: every exponent, with its last nonzero digit at each of the 17
    # places (so trailing zeros end at each group boundary).  The cells of
    # 10 <= |x| < 1e16 go to `%`; they keep their inputs with zeros just
    # before and after the point, and whole numbers with the zeros left of
    # their units digit.
    assert WIDTH <= 32
    digits = "12345678912345678"
    values = []
    for e in range(-6, 17):
        for n in range(1, 18):
            values.append(float(f"{digits[0]}.{digits[1:n]}e{e}"))
            values.append(float(f"9.{'9' * (n - 1)}e{e}"))
        values += [float(f"1e{e}"), float(f"1.0000000000000001e{e}"), float(f"1.2e{e}")]
        values += [float(f"1.{'0' * k}5e{e}") for k in range(15)]
        values += [float("1" + "0" * e + ".5"), float("1" + "0" * e)] if e >= 0 else []
    values += [float(f"{k:.{e}f}") for k in (12345678912345678, 10**16 + 2) for e in range(3)]
    _assert_formats_like_percent(values + [-v for v in values])


# ---------------------------------------------------------------------------
# The per-row `%` writer: the oracle
# ---------------------------------------------------------------------------

def _write_rows(path, header, row_format, rows) -> None:
    """Write a CSV with one %-format string per row.

    Floats are written `%.17g` and ints and bools `%d`; a `%s` cell must be
    a string that needs no CSV quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([row_format % row for row in rows])


def _per_row_csv(path, header, row_format, rows) -> bytes:
    _write_rows(path, header, row_format, rows)
    return path.read_bytes()


# Cells the fast path leaves to Python's `%`, or that sit at its edges.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
                1e-7, -9.5e-7, 1e-6, 1e16, 1e17, -1.2345678901234567e300, 1.7976931348623157e308]
_FLOATS = st.one_of(_ANY_FLOAT, st.sampled_from(_EDGE_FLOATS))
# No comma, quote, line break or 0 byte: cells that need no CSV quoting.
_TEXT = st.text(alphabet="abcLR+-.|01_ ", max_size=12)


_KINDS = st.lists(st.booleans(), min_size=1, max_size=6).filter(lambda k: not all(k))


@st.composite
def _tables(draw, floats=_FLOATS, kinds=_KINDS, n_rows=st.integers(0, 40)):
    """(header, columns for write_csv, row format and rows for the oracle), the
    float cells drawn from ``floats``, the column kinds (True for a string
    column) from ``kinds`` and the number of rows from ``n_rows``."""
    n_rows = draw(n_rows)
    kinds = draw(kinds)
    columns, cells = [], []
    for is_string in kinds:
        if is_string:
            strings = draw(st.lists(_TEXT, min_size=1, max_size=5))
            rows = st.integers(0, len(strings) - 1)
            index = draw(st.lists(rows, min_size=n_rows, max_size=n_rows))
            columns.append((strings, np.array(index, dtype=np.intp)))
            cells.append([strings[i] for i in index])
        else:
            values = draw(st.lists(floats, min_size=n_rows, max_size=n_rows))
            # A float column may be a list or an array; write_csv reads either as an array.
            columns.append(values if draw(st.booleans()) else np.array(values, dtype=np.float64))
            cells.append(values)
    row_format = ",".join("%s" if is_string else "%.17g" for is_string in kinds) + "\n"
    return [f"c{k}" for k in range(len(kinds))], columns, row_format, list(zip(*cells))


def _assert_writes_like_per_row(tmp_path, monkeypatch, per_row_max, table):
    monkeypatch.setattr(csvcells, "_PER_ROW_MAX", per_row_max)
    header, columns, row_format, rows = table
    write_csv(tmp_path / "got.csv", header, columns)
    want = _per_row_csv(tmp_path / "want.csv", header, row_format, rows)
    assert (tmp_path / "got.csv").read_bytes() == want


@pytest.mark.parametrize("per_row_max", [10**9, 0], ids=["per-row path", "block path"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_tables())
def test_write_csv_matches_the_per_row_writer(tmp_path, monkeypatch, per_row_max, table):
    # Every table of either size through each of write_csv's two paths.
    _assert_writes_like_per_row(tmp_path, monkeypatch, per_row_max, table)


@pytest.mark.parametrize("per_row_max", [10**9, 0], ids=["per-row path", "block path"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_tables(_MOSTLY_ZERO))
def test_write_csv_matches_the_per_row_writer_on_mostly_zero_tables(
    tmp_path, monkeypatch, per_row_max, table
):
    # As a `prepare --full` table: nearly every float cell a zero of either sign.
    _assert_writes_like_per_row(tmp_path, monkeypatch, per_row_max, table)


# Runs of adjacent float columns, each formatted by one call into its words
# of the block, and float columns that string columns keep apart, with a
# float or a string cell last in the row.
_LAYOUTS = st.sampled_from([
    [False, False, False],
    [True, False, False, True, False],
    [False, True, False, True, False, True],
    [True, True, False, False, False, False, False, False, False],
    [False, False, True, False, False, False],
])


# Cells of the fast path alone, which the block path formats straight into
# the block, or mixed with those that go through `%`.
@pytest.mark.parametrize("per_row_max", [10**9, 0], ids=["per-row path", "block path"])
@pytest.mark.parametrize("floats", [_FAST_CELLS, _FLOATS], ids=["fast cells", "any cells"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_csv_matches_the_per_row_writer_on_runs_of_float_columns(
    tmp_path, monkeypatch, per_row_max, floats, data
):
    table = data.draw(_tables(floats, _LAYOUTS))
    _assert_writes_like_per_row(tmp_path, monkeypatch, per_row_max, table)


# Zeros of either sign, which the fast path writes by their sign bit in
# place of a formatted 1.0, exact ones, and the doubles next to each power of
# ten from 1e-7 to 100, on both sides of the fast path's edges.
_NEXT_TO_POWERS = [
    math.nextafter(10.0**e, toward) for e in range(-7, 3) for toward in (0.0, math.inf)
]
_BOUNDARY_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.sampled_from(_NEXT_TO_POWERS + [10.0**e for e in range(-7, 3)]).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    _FAST_CELLS,
)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["limit - 1", "limit", "limit + 1"])
@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_write_csv_matches_the_per_row_writer_at_the_per_row_limit(
    tmp_path, monkeypatch, offset, data
):
    # A table of exactly _PER_ROW_MAX + offset float cells, written with the
    # writer's own choice of path and with each path forced: the same bytes.
    cells = csvcells._PER_ROW_MAX + offset
    n_floats = data.draw(st.sampled_from([f for f in range(1, 7) if cells % f == 0]))
    n_strings = data.draw(st.integers(0, 2))
    kinds = st.permutations([False] * n_floats + [True] * n_strings)
    table = data.draw(_tables(_BOUNDARY_FLOATS, kinds, st.just(cells // n_floats)))
    header, columns, row_format, rows = table
    want = _per_row_csv(tmp_path / "want.csv", header, row_format, rows)
    blocks = []
    format_block = csvcells._write_cells
    # One context per example: the fixture outlives hypothesis's examples.
    with monkeypatch.context() as patch:
        patch.setattr(csvcells, "_write_cells", lambda *a: blocks.append(1) or format_block(*a))
        write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == want
        assert bool(blocks) == (offset >= 0)
        for per_row_max in (10**9, 0):
            patch.setattr(csvcells, "_PER_ROW_MAX", per_row_max)
            write_csv(tmp_path / "got.csv", header, columns)
            assert (tmp_path / "got.csv").read_bytes() == want


@pytest.mark.parametrize("n_rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
def test_write_csv_matches_the_per_row_writer_across_block_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # A fifth of the cells from the edge list, the rest normal values across
    # the fixed and exponent forms of %g.
    scaled = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-9, 19, (n_rows, 2))
    edges = rng.choice(_EDGE_FLOATS, (n_rows, 2))
    values = np.where(rng.random((n_rows, 2)) < 0.2, edges, scaled)
    strings = ["alpha", "b", "", "x|y"]
    index = rng.integers(0, len(strings), n_rows)
    columns = [(strings, index), values[:, 0], values[:, 1], (["0", "1"], index % 2)]
    rows = [(strings[k], a, b, k % 2) for k, (a, b) in zip(index.tolist(), values.tolist())]
    write_csv(tmp_path / "got.csv", ["s", "a", "b", "bit"], columns)
    want = _per_row_csv(tmp_path / "want.csv", ["s", "a", "b", "bit"], "%s,%.17g,%.17g,%d\n", rows)
    assert (tmp_path / "got.csv").read_bytes() == want


@pytest.mark.parametrize("n_rows", [3, csvcells._PER_ROW_MAX - 1, csvcells._PER_ROW_MAX + 1, BLOCK_ROWS + 1])
def test_write_csv_writes_a_table_of_string_columns_alone(tmp_path, n_rows):
    # As `prepare`'s table: whole rows of several fields as one column, here
    # read in reverse, beside a column of one field; no float column.
    rows = [f"r{i},{1 << i % 70},{'01'[i % 2] * 3}" for i in range(n_rows)]
    columns = [(rows, np.arange(n_rows)[::-1]), (["0", "1"], np.arange(n_rows) % 2)]
    write_csv(tmp_path / "got.csv", ["name", "index", "bits", "bit"], columns)
    want = [(r, i % 2) for i, r in enumerate(reversed(rows))]
    assert (tmp_path / "got.csv").read_bytes() == _per_row_csv(
        tmp_path / "want.csv", ["name", "index", "bits", "bit"], "%s,%d\n", want
    )
    for header in (["name", "index", "bits"], ["name", "index", "bits", "bit", "extra"]):
        with pytest.raises(ValueError, match=r"^header names %d fields, but a row holds 4$" % len(header)):
            write_csv(tmp_path / "got.csv", header, columns)


def test_write_csv_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match=r"columns must have one length, got \[2, 3\]"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros(3), (["x"], np.zeros(2, dtype=int))])


_LABELS = (["x", "y"], np.array([0, 1, 1]))


@pytest.mark.parametrize("per_row_max", [10**9, 0], ids=["per-row path", "block path"])
@pytest.mark.parametrize(
    "header, columns, message",
    [
        # Three names over two columns: a malformed CSV before.
        (["a", "b", "c"], [np.ones(3), _LABELS], r"^header names 3 fields, but a row holds 2$"),
        (["a"], [np.ones(3), _LABELS], r"^header names 1 fields, but a row holds 2$"),
        # A string cell may hold several fields, the same number in each.
        (["a", "b"], [np.ones(3), (["x,y", "z"], np.array([0, 1, 1]))], r"^the strings of one column hold different numbers of fields$"),
        # A TypeError before.
        (["a", "b"], [np.ones((3, 2)), _LABELS], r"^column 0 must be one-dimensional, got shape"),
        (["a", "b"], [[[1.0], [2.0], [3.0]], _LABELS], r"^column 0 must be one-dimensional"),
        (["a", "b"], [np.ones(3, dtype=complex), _LABELS], r"^column 0 must hold real numbers"),
        (["a", "b"], [["1.5", "2", "3"], _LABELS], r"^column 0 must hold real numbers"),
        (["a", "b"], [[1.0, None, 3.0], _LABELS], r"^column 0 must hold real numbers"),
        # An OverflowError before, on the per-row path, and later "must hold
        # real numbers": numpy holds such an int in an object array.
        (["a"], [[10**400]], r"^column 0 must be finite$"),
        # An IndexError before, after the file was cut to its header.
        (["a", "b"], [np.ones(3), (["x", "y"], np.array([0, 2, 1]))], r"^column 1 has a string "
         r"index out of range 0\.\.1$"),
        (["a", "b"], [np.ones(3), (["x", "y"], np.array([0, -1, 1]))], r"index out of range"),
        (["a", "b"], [np.ones(3), (["x", "y"], np.array([0.0, 1.0, 1.0]))], r"1-D integer array"),
        ([], [], r"^a CSV needs at least one column$"),
        (["a"], [[0.5, -10**400]], r"^column 0 must be finite$"),
    ],
)
def test_write_csv_checks_its_inputs_before_it_opens_the_file(
    tmp_path, monkeypatch, per_row_max, header, columns, message
):
    monkeypatch.setattr(csvcells, "_PER_ROW_MAX", per_row_max)
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier contents\n")
    with pytest.raises(ValueError, match=message):
        write_csv(out, header, columns)
    assert out.read_bytes() == b"earlier contents\n"


@pytest.mark.parametrize("per_row_max", [10**9, 0], ids=["per-row path", "block path"])
def test_write_csv_writes_an_int_past_int64_as_its_float(tmp_path, monkeypatch, per_row_max):
    # numpy holds 2**70 in an object array, which is converted once.
    monkeypatch.setattr(csvcells, "_PER_ROW_MAX", per_row_max)
    write_csv(tmp_path / "out.csv", ["a"], [[2**70, -3, 0.5]])
    assert (tmp_path / "out.csv").read_bytes() == b"a\n1.1805916207174113e+21\n-3\n0.5\n"


# ---------------------------------------------------------------------------
# Each command's CSV against the per-row writer
# ---------------------------------------------------------------------------

def _cli_csv(path, argv) -> bytes:
    assert main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


def _per_row_prepare_csv(path, n, mode, role, trace, full) -> bytes:
    """The rows `prepare` wrote through the per-row writer, from the same stages."""
    stage_amplitudes, _ = double_w_pairs(n, mode)
    labels = str.maketrans({"0": role.zero_label, "1": role.one_label})
    written = [(f"round_{k}", k) for k in range(n + 1)] * trace + [("final", n + 1)]
    rows = []
    for stage, k in written:
        # One amplitude per qubit; qubit p of m is index 2^(m - 1 - p).
        weight_one = stage_amplitudes(k)
        m = weight_one.size
        amps = np.zeros(1 << m, dtype=complex)
        amps[1 << (m - 1 - np.arange(m))] = weight_one
        kept = range(amps.size) if full else np.flatnonzero(np.abs(amps) > 1e-12).tolist()
        for idx in kept:
            bits = format(idx, f"0{m}b")
            rows.append((stage, idx, bits, bits.translate(labels), amps[idx].real, amps[idx].imag))
    header = ["stage", "index", "basis", "label", "re", "im"]
    return _per_row_csv(path, header, "%s,%d,%s,%s,%.17g,%.17g\n", rows)


@pytest.mark.parametrize(
    "n, mode, role, trace, full",
    [
        (1, "block", "photon", False, False),
        (2, "sequential", "spin", True, False),
        (3, "block", "photon", True, True),
        (4, "sequential", "spin", False, True),
        (6, "sequential", "photon", True, True),  # 4096 final rows: two blocks
        (8, "sequential", "spin", False, False),
    ],
)
def test_prepare_csv_matches_the_per_row_writer(tmp_path, capsys, n, mode, role, trace, full):
    argv = ["prepare", "--n", str(n), "--mode", mode, "--role", role]
    argv += ["--trace"] * trace + ["--full"] * full
    got = _cli_csv(tmp_path / "got.csv", argv)
    role = {"photon": PHOTON, "spin": SPIN}[role]
    assert got == _per_row_prepare_csv(tmp_path / "want.csv", n, mode, role, trace, full)


@pytest.mark.parametrize(
    "steps, n, theta_max",
    [(2, 1, 0.05), (50, 3, math.pi / 30), (100, 2, 0.07), (150, 1, math.pi / 31),
     (200, 2, math.pi / 60), (BLOCK_ROWS - 1, 1, 1.0), (BLOCK_ROWS, 3, 1e-4),
     (BLOCK_ROWS + 1, 2, -0.3)],
)
def test_fidelity_sweep_csv_matches_the_per_row_writer(tmp_path, capsys, steps, n, theta_max):
    # The benchmark's 50 to 200 steps lie on either side of the per-row limit.
    argv = ["fidelity-sweep", "--steps", str(steps), "--n", str(n), f"--theta-max={theta_max!r}"]
    got = _cli_csv(tmp_path / "got.csv", argv)
    table = noise.sweep(theta_max, steps, n)
    rows = zip(*(series.tolist() for series in table[:-1]), [n] * steps)
    row_format = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
    assert got == _per_row_csv(tmp_path / "want.csv", table._fields, row_format, rows)


def _per_row_cavity_csv(path, d_min, d_max, d_steps, g_min, g_max, g_steps, gamma_decay) -> bytes:
    """The rows `cavity-sweep` wrote through the per-row writer."""
    detunings = np.linspace(d_min, d_max, d_steps)
    g_ratios = np.linspace(g_min, g_max, g_steps)
    g = g_ratios * np.sqrt(gamma_decay)
    grid = reflection_grid(detunings[:, None], g[None, :], gamma_decay)
    n_g = g_ratios.size
    rows = zip(
        np.repeat(detunings, n_g).tolist(),
        np.tile(g_ratios, detunings.size).tolist(),
        grid.r.real.ravel().tolist(),
        grid.r.imag.ravel().tolist(),
        grid.phi.ravel().tolist(),
        np.repeat(grid.phi_0[:, 0], n_g).tolist(),
        grid.cz_pass.ravel().tolist(),
    )
    header = ["detuning", "g_ratio", "re_r", "im_r", "phi", "phi_0", "cz_pass"]
    return _per_row_csv(path, header, "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n", rows)


def _cli_cavity_csv(path, d_min, d_max, d_steps, g_min, g_max, g_steps, gamma_decay) -> bytes:
    argv = [
        "cavity-sweep", f"--detuning-min={d_min!r}", f"--detuning-max={d_max!r}",
        "--detuning-steps", str(d_steps), f"--g-min={g_min!r}", f"--g-max={g_max!r}",
        "--g-steps", str(g_steps), f"--gamma-decay={gamma_decay!r}",
    ]
    return _cli_csv(path, argv)


_BOUND = st.floats(-6.0, 6.0)
_COUPLING = st.floats(0.0, 12.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.tuples(
        _BOUND, _BOUND, st.integers(1, 60), _COUPLING, _COUPLING, st.integers(1, 60),
        st.floats(0.05, 20.0),
    )
)
def test_cavity_csv_matches_the_per_row_writer(tmp_path, capsys, grid):
    got = _cli_cavity_csv(tmp_path / "got.csv", *grid)
    assert got == _per_row_cavity_csv(tmp_path / "want.csv", *grid)


BLOCK = BLOCK_ROWS


@pytest.mark.parametrize(
    "d_steps, g_steps",
    [(1, 1), (1, 37), (1, BLOCK + 1), (41, 1), (BLOCK - 1, 1), (23, 89), (32, 64), (3, 683)],
)
def test_cavity_csv_matches_the_per_row_writer_at_block_edges(tmp_path, capsys, d_steps, g_steps):
    # 23 x 89, 32 x 64 and 3 x 683 are BLOCK - 1, BLOCK and BLOCK + 1 rows.
    grid = (-2.5, 3.25, d_steps, 0.0, 1.5, g_steps, 1.3)
    got = _cli_cavity_csv(tmp_path / "got.csv", *grid)
    assert got == _per_row_cavity_csv(tmp_path / "want.csv", *grid)


def test_the_block_edge_grids_straddle_one_block():
    assert (23 * 89, 32 * 64, 3 * 683) == (BLOCK - 1, BLOCK, BLOCK + 1)


# ---------------------------------------------------------------------------
# Writing over an existing file
# ---------------------------------------------------------------------------

_COMMANDS = {
    "prepare n=3": ["prepare", "--n", "3"],
    "prepare n=6 full trace": ["prepare", "--n", "6", "--full", "--trace"],
    "fidelity-sweep 50": ["fidelity-sweep", "--steps", "50"],
    "fidelity-sweep 3000": ["fidelity-sweep", "--steps", "3000"],
    "cavity-sweep 61x61": ["cavity-sweep", "--detuning-steps", "61", "--g-steps", "61"],
}
_BLOCK_PATH = {"fidelity-sweep 3000", "cavity-sweep 61x61"}


def test_the_commands_written_over_old_files_take_both_writer_paths(tmp_path, capsys, monkeypatch):
    block_path = set()
    for name, argv in _COMMANDS.items():
        calls = []
        monkeypatch.setattr(csvcells, "_write_cells", lambda *args: calls.append(args))
        main([*argv, "--out", str(tmp_path / "out.csv")])
        if calls:
            block_path.add(name)
    assert block_path == _BLOCK_PATH


@pytest.mark.parametrize("old_size", ["longer", "shorter"])
@pytest.mark.parametrize("argv", list(_COMMANDS.values()), ids=list(_COMMANDS))
def test_a_csv_written_over_an_old_file_equals_a_fresh_one(tmp_path, capsys, argv, old_size):
    fresh = _cli_csv(tmp_path / "fresh.csv", argv)
    rng = np.random.default_rng(len(fresh))
    size = len(fresh) + 4097 if old_size == "longer" else len(fresh) // 2
    out = tmp_path / "out.csv"
    out.write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    out.chmod(0o640)
    before = out.stat()
    assert _cli_csv(out, argv) == fresh
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_csv_gets_the_mode_of_a_fresh_open(tmp_path, capsys, umask):
    old_umask = os.umask(umask)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        _cli_csv(tmp_path / "out.csv", _COMMANDS["prepare n=3"])
    finally:
        os.umask(old_umask)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("reference", "out.csv")]
    assert modes == [0o666 & ~umask] * 2


@pytest.mark.parametrize("argv", list(_COMMANDS.values()), ids=list(_COMMANDS))
def test_a_csv_to_dev_null_exits_0_and_prints_what_a_file_does(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    _cli_csv(out, argv)
    to_file = capsys.readouterr()
    assert main([*argv, "--out", "/dev/null"]) == 0
    to_null = capsys.readouterr()
    assert to_null.err == to_file.err == ""
    assert to_null.out == to_file.out.replace(str(out), "/dev/null")


def test_a_failure_mid_write_leaves_the_rows_written_before_it(tmp_path, capsys, monkeypatch):
    argv = ["fidelity-sweep", "--steps", "5000"]
    fresh = _cli_csv(tmp_path / "fresh.csv", argv)
    calls = []
    write_cells = csvcells._write_cells

    def fail_on_the_second_block(*args):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError
        write_cells(*args)

    monkeypatch.setattr(csvcells, "_write_cells", fail_on_the_second_block)
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * (2 * len(fresh)))
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    # The header and then the first block's rows, as `open(path, "wb")` left it.
    lines = fresh.splitlines(keepends=True)
    assert out.read_bytes() == b"".join(lines[: 1 + BLOCK_ROWS])


# A `fidelity-sweep` that kills itself with the signal argv[1] when
# `_write_cells` is called for the argv[2]-th time, argv[3:] being its CLI
# arguments.
_KILLED_RUN = """
import os, sys
from wexpand import csvcells
from wexpand.cli import main

signum, call = int(sys.argv[1]), int(sys.argv[2])
calls = []
write_cells = csvcells._write_cells

def killed_on_a_call(*args):
    calls.append(None)
    if len(calls) == call:
        os.kill(os.getpid(), signum)
    write_cells(*args)

csvcells._write_cells = killed_on_a_call
main(sys.argv[3:])
"""


@pytest.mark.parametrize("call", [1, 2], ids=["before the first block", "after the first block"])
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_a_run_killed_mid_write_leaves_a_prefix_of_the_new_csv(tmp_path, capsys, signum, call):
    # The old file is a longer CSV of the same command: its rows after the
    # new prefix would read as a well-formed CSV that mixes the two runs.
    argv = ["fidelity-sweep", "--steps", "5000"]
    fresh = _cli_csv(tmp_path / "fresh.csv", argv)
    out = tmp_path / "out.csv"
    old = _cli_csv(out, ["fidelity-sweep", "--steps", "9000"])
    src = str(Path(csvcells.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _KILLED_RUN, str(int(signum)), str(call), *argv, "--out", str(out)],
        env=env, capture_output=True, check=False,
    )
    assert run.returncode == -signum, run.stderr
    killed = out.read_bytes()
    assert fresh.startswith(killed) and len(killed) < len(fresh) < len(old)
    if call == 2:
        # Some of the first block's rows reached the file before the kill.
        assert killed.count(b"\n") > 1
