"""Cavity reflection coefficients, phases and CZ-quality judgments."""
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wexpand.cavity import (
    CavityParams,
    GridPointError,
    cz_quality,
    phase_pair,
    reflection_coupled,
    reflection_grid,
    reflection_uncoupled,
)

# libm pow(g, 2) differs from g * g in the last bit at this g.
POW_DIFFERS_FROM_PRODUCT = 2.3306818516602865


def test_resonant_coupled_formula_across_g_grid():
    # r = (4g^2 - kg)/(4g^2 + kg) on resonance, to machine precision.
    kappa, gd = 1.3, 0.7
    for g in np.linspace(0.0, 20.0, 1000):
        p = CavityParams(0.0, 0.0, 0.0, float(g), kappa, gd)
        expected = (4 * g * g - kappa * gd) / (4 * g * g + kappa * gd)
        r = reflection_coupled(p)
        assert abs(r - expected) < 1e-15
        assert abs(r.imag) < 1e-15


def test_resonant_uncoupled_is_minus_one_exactly():
    p = CavityParams.resonant(3.0)
    assert reflection_uncoupled(p) == -1.0


def test_coupled_reduces_to_uncoupled_at_zero_coupling():
    p = CavityParams.resonant(0.0)
    assert abs(reflection_coupled(p) - (-1.0)) < 1e-15


def test_coupled_approaches_uncoupled_as_g_vanishes():
    for d in np.linspace(-5.0, 5.0, 101):
        p = CavityParams(-float(d), 0.0, 0.0, 1e-8, 1.0, 1.0)
        assert abs(reflection_coupled(p) - reflection_uncoupled(p)) < 1e-6


def test_strong_coupling_point_value():
    # g = 5 sqrt(k*gd): r = 99/101 exactly, with zero phase.
    p = CavityParams.resonant(5.0)
    r = reflection_coupled(p)
    assert abs(r - 99.0 / 101.0) < 1e-15
    assert np.angle(r) == 0.0


def test_uncoupled_has_unit_modulus_over_detuning_grid():
    for d in np.linspace(-100.0, 100.0, 10_000):
        p = CavityParams(-float(d), 0.0, 0.0, 1.0, 1.0, 1.0)
        assert abs(abs(reflection_uncoupled(p)) - 1.0) < 1e-12


def test_large_detuning_uncoupled_phase():
    # Direct evaluation at w_C - w_p = 100k: arg r_0 = 2*arctan(k / (2*100k)).
    p = CavityParams(-100.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    expected = 2.0 * np.arctan(1.0 / 200.0)
    assert abs(np.angle(reflection_uncoupled(p)) - expected) < 1e-12


def test_resonant_sign_flips_exactly_at_4g2_equals_kg():
    kappa, gd = 1.0, 1.0
    g_flip = 0.5 * np.sqrt(kappa * gd)
    below = reflection_coupled(CavityParams(0, 0, 0, g_flip * 0.999, kappa, gd))
    above = reflection_coupled(CavityParams(0, 0, 0, g_flip * 1.001, kappa, gd))
    at = reflection_coupled(CavityParams(0, 0, 0, g_flip, kappa, gd))
    assert below.real < 0 < above.real
    assert abs(at) < 1e-12


def test_phase_pair_at_operating_points():
    pp = phase_pair(CavityParams.resonant(5.0))
    assert pp.phi == 0.0 and abs(pp.phi_0 - np.pi) < 1e-15
    pp0 = phase_pair(CavityParams.resonant(0.0))
    assert abs(pp0.phi - np.pi) < 1e-15 and abs(pp0.phi_0 - np.pi) < 1e-15
    # Below the sign flip the coupled reflection is negative: phi = pi.
    weak = phase_pair(CavityParams.resonant(0.25))
    assert abs(weak.phi - np.pi) < 1e-15


def test_cz_quality_at_canonical_coupling_passes_marginally():
    q = cz_quality(CavityParams.resonant(5.0))
    assert q.passed
    assert abs(q.modulus_error - 2.0 / 101.0) < 1e-15
    assert q.phi_error == 0.0 and q.phi0_error < 1e-15
    assert not q.strong_coupling  # exactly at the bound, not above it


def test_cz_quality_improves_with_stronger_coupling():
    q = cz_quality(CavityParams.resonant(10.0))
    assert q.passed and q.strong_coupling
    assert abs(q.modulus_error - 2.0 / 401.0) < 1e-15


def test_cz_quality_fails_in_weak_coupling():
    q = cz_quality(CavityParams.resonant(1.0))
    # Wrong sign branch never reached; modulus still too far from 1.
    assert not q.passed
    q_tiny = cz_quality(CavityParams.resonant(0.2))
    assert not q_tiny.passed and abs(q_tiny.phi_error - np.pi) < 1e-15


def test_cz_pass_region_is_monotone_in_g_on_resonance():
    grid = np.linspace(0.0, 12.0, 500)
    passes = [cz_quality(CavityParams.resonant(float(g))).passed for g in grid]
    first_pass = passes.index(True)
    assert all(passes[first_pass:])
    assert not any(passes[:first_pass])


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(0, 0, 0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CavityParams(0, 0, 0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        CavityParams(0, 0, 0, -0.1, 1.0, 1.0)
    CavityParams(1e308, 1e308, 0.0, 1.0, 1.0, 1.0)  # finite, though the sum overflows
    fields = ("omega_p", "omega_c", "omega_0", "g", "kappa", "gamma_decay")
    for i, field in enumerate(fields):
        for bad in (np.nan, np.inf, -np.inf):
            values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
            values[i] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                CavityParams(*values)


@pytest.mark.parametrize("bad", [True, np.False_, "1.0", None, 1.0 + 0j], ids=repr)
def test_rates_and_fields_must_be_real_numbers(bad):
    # True read as 1.0 and "1.0" escaped as a TypeError, which the CLI does not report.
    message = r" must be a real number, got "
    with pytest.raises(ValueError, match="^gamma_decay" + message):
        reflection_grid(0.0, 5.0, bad)
    with pytest.raises(ValueError, match="^kappa" + message):
        reflection_grid(0.0, 5.0, 1.0, kappa=bad)
    fields = ("omega_p", "omega_c", "omega_0", "g", "kappa", "gamma_decay")
    for i, field in enumerate(fields):
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        values[i] = bad
        with pytest.raises(ValueError, match=f"^{field}" + message):
            CavityParams(*values)


def test_rates_and_fields_take_any_real_number_in_the_float_range():
    with pytest.raises(ValueError, match=r"^gamma_decay must be finite, got 1000"):
        reflection_grid(0.0, 5.0, 10**400)
    with pytest.raises(ValueError, match=r"^kappa must be finite, got 1000"):
        CavityParams(0, 0, 0, 1, 10**400, 1)
    want = reflection_grid(0.0, 5.0, 1.0).r
    for one in (1, np.int64(1), np.float32(1.0)):
        assert reflection_grid(0.0, 5.0, one, kappa=one).r == want
        assert reflection_coupled(CavityParams(0, 0, 0, 5, one, one)) == want


_NOT_REAL = ["1.0", b"1.0", True, np.True_, [False, True], 1.0 + 0j, np.array([1.0 + 0j]),
             [1.0, None], np.array(["1e0"])]


@pytest.mark.parametrize(
    "axis, bad",
    # emitter_detuning=None is the co-resonant default.
    [(axis, bad) for axis in ("detuning", "g", "emitter_detuning") for bad in _NOT_REAL]
    + [("detuning", None), ("g", None)],
    ids=repr,
)
def test_grid_axes_must_hold_real_numbers(axis, bad):
    # Strings and bools were read as numbers ("0.0", "5.0" gave r = 0.9802,
    # False, True r = 0.6 with g = 1) and a complex value escaped as a
    # TypeError, which the CLI does not report.
    inputs = {"detuning": 0.0, "g": 5.0, "emitter_detuning": 0.0, axis: bad}
    with pytest.raises(ValueError, match=rf"^{axis} must hold real numbers, got "):
        reflection_grid(inputs["detuning"], inputs["g"], 1.0,
                        emitter_detuning=inputs["emitter_detuning"])


def test_grid_axes_take_any_real_numbers_in_the_float_range():
    want = reflection_grid(np.array([0.0, 1.0]), np.array([5.0, 1e30]), 1.0)
    for ints in ([0, 1], np.array([0, 1], dtype=np.uint8), [0, np.int64(1)]):
        got = reflection_grid(ints, [5, 10**30], 1.0, emitter_detuning=ints)
        assert got.r.tobytes() == want.r.tobytes()
    assert reflection_grid(np.float32(0.0), 5.0, 1.0).r == reflection_grid(0.0, 5.0, 1.0).r
    with pytest.raises(ValueError, match=r"^g must be finite, got \[10000"):
        reflection_grid(0.0, [10**400], 1.0)


# ---------------------------------------------------------------------------
# reflection_grid: the vectorised kernel against the scalar oracle
# ---------------------------------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _wrap(angle: float) -> float:
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


def _scalar_cz_pass(r: complex, r0: complex, phase_tol=0.01, modulus_tol=0.02) -> bool:
    """The CZ judgment written on Python scalars, as the kernel must reproduce it."""
    return (
        abs(_wrap(float(np.angle(r)))) < phase_tol
        and abs(_wrap(float(np.angle(r0)) - np.pi)) < phase_tol
        and abs(abs(r) - 1.0) < modulus_tol
    )


_detunings = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_couplings = st.one_of(
    st.sampled_from([0.0, 5.0, POW_DIFFERS_FROM_PRODUCT]),
    st.floats(0.0, 50.0, allow_nan=False),
)
_rates = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))


@settings(max_examples=60, deadline=None)
@example([0.0, -0.0, 1.5], [0.0, POW_DIFFERS_FROM_PRODUCT], 1.0, 1.0, None)
@given(
    st.lists(_detunings, min_size=1, max_size=6),
    st.lists(_couplings, min_size=1, max_size=6),
    _rates,
    _rates,
    st.one_of(st.none(), _detunings),
)
def test_reflection_grid_equals_the_scalar_oracle_bit_for_bit(
    detunings, couplings, gamma_decay, kappa, emitter_detuning
):
    grid = reflection_grid(
        np.array(detunings)[:, None],
        np.array(couplings)[None, :],
        gamma_decay,
        kappa=kappa,
        emitter_detuning=emitter_detuning,
    )
    assert grid.r.shape == grid.cz_pass.shape == (len(detunings), len(couplings))
    for i, d in enumerate(detunings):
        for j, g in enumerate(couplings):
            e = d if emitter_detuning is None else emitter_detuning
            p = CavityParams(0.0, d, e, g, kappa, gamma_decay)
            r, r0 = reflection_coupled(p), reflection_uncoupled(p)
            pair = phase_pair(p)
            expected = [r.real, r.imag, r0.real, r0.imag, float(np.angle(r)), float(np.angle(r0))]
            got = [
                grid.r[i, j].real, grid.r[i, j].imag, grid.r_0[i, j].real,
                grid.r_0[i, j].imag, grid.phi[i, j], grid.phi_0[i, j],
            ]
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]
            assert [_bits(pair.phi), _bits(pair.phi_0)] == [_bits(x) for x in expected[4:]]
            assert bool(grid.cz_pass[i, j]) == _scalar_cz_pass(r, r0)
            assert cz_quality(p).passed == _scalar_cz_pass(r, r0)


def test_cz_quality_reports_the_scalar_errors():
    for d, g in ((0.0, 5.0), (0.3, 7.0), (-2.0, 0.4), (0.0, 0.0)):
        p = CavityParams(0.0, d, d, g, 1.0, 1.0)
        r, r0 = reflection_coupled(p), reflection_uncoupled(p)
        q = cz_quality(p, phase_tol=0.05, modulus_tol=0.1)
        assert q.phi_error == abs(_wrap(float(np.angle(r))))
        assert q.phi0_error == abs(_wrap(float(np.angle(r0)) - np.pi))
        assert q.modulus_error == abs(abs(r) - 1.0)
        assert q.passed == _scalar_cz_pass(r, r0, 0.05, 0.1)
        assert (q.phase_tol, q.modulus_tol) == (0.05, 0.1)


def test_cz_quality_flags_are_python_bools():
    for g in (1.0, 5.0, 10.0):
        q = cz_quality(CavityParams.resonant(g))
        assert type(q.strong_coupling) is bool and type(q.passed) is bool


@pytest.mark.parametrize("name", ["phase_tol", "modulus_tol"])
@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 0.0, -0.01, True, np.True_, "0.01", None, 10**400],
    ids=repr,
)
def test_cz_thresholds_must_be_positive_finite_numbers(name, bad):
    # NaN would fail every point and True read as 1.0, both silently.
    message = rf"^{name} must be a positive finite number, got "
    with pytest.raises(ValueError, match=message):
        reflection_grid(0.0, 5.0, 1.0, **{name: bad})
    with pytest.raises(ValueError, match=message):
        cz_quality(CavityParams.resonant(5.0), **{name: bad})
    for good in (1, np.int64(1), np.float32(0.5)):
        assert bool(reflection_grid(0.0, 10.0, 1.0, **{name: good}).cz_pass)


def test_reflection_grid_at_a_single_point_is_zero_dimensional():
    grid = reflection_grid(0.0, 5.0, 1.0)
    assert grid.r.shape == grid.cz_pass.shape == ()
    assert grid.r == 99.0 / 101.0 and bool(grid.cz_pass)


@pytest.mark.parametrize(
    "detuning, g, gamma_decay, kwargs, message",
    [
        ([0.0, np.nan], [1.0], 1.0, {}, r"^detuning must be finite.*detuning nan"),
        ([0.0], [1.0, np.inf], 1.0, {}, r"^g must be finite.*g inf"),
        ([0.0], [0.0], 1.0, {"emitter_detuning": -np.inf}, r"^emitter detuning must be finite"),
        ([0.0], [0.5, -1.0], 1.0, {}, r"^g must be nonnegative.*g -1\.0"),
        ([0.0], [1.0], 0.0, {}, r"^gamma_decay must be positive"),
        ([0.0], [1.0], np.nan, {}, r"^gamma_decay must be finite"),
        ([0.0], [1.0], 1.0, {"kappa": -1.0}, r"^kappa must be positive"),
        ([0.0], [0.0], 1e-310, {}, r"^reflection denominator vanished.*detuning 0\.0, g 0\.0"),
        ([2.0], [0.0, 1e200], 1.0, {}, r"^reflection is not finite.*detuning 2\.0, g 1e\+200"),
        # A single point: the scalar oracle rejects it too, whatever the type
        # of g (a Python float's g**2 raises, an np.float64's warns).
        (0.0, 1e200, 1.0, {}, r"^reflection is not finite"),
        (0.0, np.float64(1e200), 1.0, {}, r"^reflection is not finite"),
        # Finite frequencies whose difference w_C - w_p overflows: the scalar
        # oracles, the bare cavity's included, see an infinite detuning.  The
        # grid takes the detuning itself, whose square overflows instead.
        (1e308, 1.0, 1.0, {"omega_p": -1e308}, r"^reflection is not finite"),
    ],
)
def test_reflection_grid_rejects_bad_points_by_name_without_warnings(
    detuning, g, gamma_decay, kwargs, message
):
    kwargs = dict(kwargs)
    omega_p = kwargs.pop("omega_p", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.ndim(g) == 0:
            p = CavityParams(omega_p or 0.0, detuning, detuning, g, 1.0, gamma_decay)
            with pytest.raises(ValueError, match=message):
                reflection_coupled(p)
            if omega_p is not None:
                with pytest.raises(ValueError, match=message):
                    reflection_uncoupled(p)
            with pytest.raises(ValueError, match=message):
                reflection_grid(detuning, g, gamma_decay, **kwargs)
        else:
            with pytest.raises(ValueError, match=message):
                reflection_grid(
                    np.array(detuning)[:, None], np.array(g)[None, :], gamma_decay, **kwargs
                )


def test_reflection_grid_error_gives_the_reason_and_index_of_the_point():
    with pytest.raises(GridPointError) as info:
        reflection_grid(np.array([0.0, 2.0])[:, None], np.array([1.0, 1e200])[None, :], 1.0)
    assert info.value.reason == "reflection is not finite"
    assert info.value.index == (0, 1)
    assert str(info.value) == (
        "reflection is not finite at the grid point with detuning 0.0, g 1e+200"
    )
    # The bare cavity's denominator depends on the detuning alone; the error
    # still names the first grid point that has it.
    with pytest.raises(GridPointError) as info:
        reflection_grid(np.array([1.0, 0.0])[:, None], np.array([1.0, 2.0])[None, :], 1.0,
                        kappa=1e-310)
    assert info.value.index == (1, 0)
    assert str(info.value).endswith("at the grid point with detuning 0.0, g 1.0")
