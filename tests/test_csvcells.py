"""The vectorised `%.17g` formatter and the cavity-sweep CSV writer built on it.

The formatter is held to Python's `'%.17g' % x`, byte for byte, and the
writer to the per-row `%` writer it replaced, which is kept below as the
oracle.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wexpand import cli
from wexpand.cavity import reflection_grid
from wexpand.cli import main
from wexpand.csvcells import WIDTH, format_cells


def _assert_formats_like_percent(values):
    x = np.asarray(values, dtype=np.float64)
    rows = format_cells(x)
    assert rows.dtype == np.uint8 and rows.shape == (x.size, WIDTH)
    expected = ["%.17g" % v for v in x.tolist()]
    got = [row.tobytes().translate(None, b"\0").decode() for row in rows]
    mismatches = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert mismatches == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_format_cells_matches_percent_17g(values):
    _assert_formats_like_percent(values)


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
    # 1e-6 and 1e16 bound the exact integer path; outside it is Python's %.
    values = _ulps_around(1e-6, 3) + _ulps_around(1e16, 3) + [0.0, -0.0]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_rounds_18_digit_ties_half_even():
    # 17 digits keep one decimal of a value in [1e15, 1e16), so one that
    # ends in .25 or .75 sits exactly halfway between two of them.
    k = np.random.default_rng(17).integers(8 * 10**15, 64 * 10**15, 20_000)
    ties = k / 8.0
    assert np.isin(np.modf(ties)[0], [0.25, 0.75]).sum() > 500
    _assert_formats_like_percent(np.concatenate([ties, -ties]))


def test_format_cells_writes_integers_with_their_zeros():
    values = [1.0, 10.0, 1200.0, 3e15, 9999999999999998.0, 123456789.0, 0.5, 0.0001, 2e-5]
    _assert_formats_like_percent(values + [-v for v in values])


def test_format_cells_falls_back_for_what_the_fast_path_leaves():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e-7, 1e17, 12345678901234567890.0]
    _assert_formats_like_percent(values + [-v for v in values])


# ---------------------------------------------------------------------------
# The cavity-sweep writer against the per-row `%` writer
# ---------------------------------------------------------------------------

def _per_row_cavity_csv(d_min, d_max, d_steps, g_min, g_max, g_steps, gamma_decay) -> bytes:
    """The CSV as the per-row `%` writer wrote it: the oracle."""
    detunings = np.linspace(d_min, d_max, d_steps)
    g_ratios = np.linspace(g_min, g_max, g_steps)
    g = g_ratios * np.sqrt(gamma_decay)
    grid = reflection_grid(detunings[:, None], g[None, :], gamma_decay)
    n_g = g_ratios.size
    d_cells = ["%.17g," % d for d in detunings.tolist()]
    phi0_cells = [",%.17g," % p for p in grid.phi_0[:, 0].tolist()]
    rows = zip(
        [cell for cell in d_cells for _ in range(n_g)],
        ["%.17g," % ratio for ratio in g_ratios.tolist()] * detunings.size,
        grid.r.real.ravel().tolist(),
        grid.r.imag.ravel().tolist(),
        grid.phi.ravel().tolist(),
        [cell for cell in phi0_cells for _ in range(n_g)],
        grid.cz_pass.ravel().tolist(),
    )
    header = "detuning,g_ratio,re_r,im_r,phi,phi_0,cz_pass\n"
    return (header + "".join(["%s%s%.17g,%.17g,%.17g%s%d\n" % row for row in rows])).encode()


def _cli_cavity_csv(path, d_min, d_max, d_steps, g_min, g_max, g_steps, gamma_decay) -> bytes:
    argv = [
        "cavity-sweep", f"--detuning-min={d_min!r}", f"--detuning-max={d_max!r}",
        "--detuning-steps", str(d_steps), f"--g-min={g_min!r}", f"--g-max={g_max!r}",
        "--g-steps", str(g_steps), f"--gamma-decay={gamma_decay!r}", "--out", str(path),
    ]
    assert main(argv) == 0
    return path.read_bytes()


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
    assert _cli_cavity_csv(tmp_path / "out.csv", *grid) == _per_row_cavity_csv(*grid)


BLOCK = cli._CAVITY_BLOCK_ROWS


@pytest.mark.parametrize(
    "d_steps, g_steps",
    [(1, 1), (1, 37), (1, BLOCK + 1), (41, 1), (BLOCK - 1, 1), (23, 89), (32, 64), (3, 683)],
)
def test_cavity_csv_matches_the_per_row_writer_at_block_edges(tmp_path, capsys, d_steps, g_steps):
    # 23 x 89, 32 x 64 and 3 x 683 are BLOCK - 1, BLOCK and BLOCK + 1 rows.
    grid = (-2.5, 3.25, d_steps, 0.0, 1.5, g_steps, 1.3)
    assert _cli_cavity_csv(tmp_path / "out.csv", *grid) == _per_row_cavity_csv(*grid)


def test_the_block_edge_grids_straddle_one_block():
    assert (23 * 89, 32 * 64, 3 * 683) == (BLOCK - 1, BLOCK, BLOCK + 1)
