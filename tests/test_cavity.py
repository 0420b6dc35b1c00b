"""Cavity reflection coefficients, phases and CZ-quality judgments."""
import numpy as np
import pytest

from wexpand.cavity import (
    CavityParams,
    cz_quality,
    phase_pair,
    reflection_coupled,
    reflection_uncoupled,
)


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
