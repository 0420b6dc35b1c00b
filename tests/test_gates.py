"""Gate constructors: rotations, controlled phase, holonomic and HWP forms."""
import re

import numpy as np
import pytest

from wexpand.gates import (
    Gate,
    HolonomicParams,
    NoiseParams,
    controlled_phase,
    hadamard,
    holonomic_gate,
    hwp_gate,
    phase_aligned_deviation,
    rotation_gate,
    t_prime,
)

S2 = 1.0 / np.sqrt(2.0)


def test_rotation_at_pi_over_4_is_hadamard():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) * S2
    np.testing.assert_allclose(rotation_gate(np.pi / 4).matrix, expected, atol=1e-15)
    np.testing.assert_allclose(hadamard().matrix, expected, atol=1e-15)


def test_rotation_at_pi_over_8_is_t_prime():
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    expected = np.array([[c, s], [s, -c]], dtype=complex)
    np.testing.assert_allclose(rotation_gate(np.pi / 8).matrix, expected, atol=1e-15)
    np.testing.assert_allclose(t_prime().matrix, expected, atol=1e-15)


def test_rotation_is_involutory_for_any_angle():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-np.pi, np.pi, size=50):
        m = rotation_gate(float(theta)).matrix
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)


def test_imperfect_hadamard_is_shifted_rotation():
    rng = np.random.default_rng(2)
    for alpha in rng.uniform(-np.pi / 4, np.pi / 4, size=100):
        np.testing.assert_allclose(
            hadamard(float(alpha)).matrix,
            rotation_gate(np.pi / 4 - float(alpha)).matrix,
            atol=1e-15,
        )


def test_imperfect_t_prime_is_shifted_rotation():
    rng = np.random.default_rng(3)
    for beta in rng.uniform(-np.pi / 8, np.pi / 8, size=100):
        np.testing.assert_allclose(
            t_prime(float(beta)).matrix,
            rotation_gate(np.pi / 8 - float(beta)).matrix,
            atol=1e-15,
        )


def test_controlled_phase_ideal_is_cz():
    np.testing.assert_allclose(
        controlled_phase(0.0).matrix, np.diag([1, 1, 1, -1]), atol=1e-15
    )


def test_controlled_phase_at_pi_is_identity():
    np.testing.assert_allclose(controlled_phase(np.pi).matrix, np.eye(4), atol=1e-15)


def test_controlled_phase_composition_is_pure_phase_diagonal():
    gamma = 0.41
    product = (
        controlled_phase(gamma).matrix
        @ controlled_phase(-gamma).matrix
        @ controlled_phase().matrix.conj().T
    )
    off_diag = product - np.diag(np.diag(product))
    assert np.max(np.abs(off_diag)) < 1e-14
    np.testing.assert_allclose(np.abs(np.diag(product)), np.ones(4), atol=1e-14)


def test_every_constructor_output_is_unitary():
    rng = np.random.default_rng(4)
    gates = [
        hadamard(0.3),
        t_prime(-0.2),
        controlled_phase(1.1),
        hwp_gate(0.7),
        rotation_gate(2.9),
        holonomic_gate(HolonomicParams(1.2, 0.4, 0.8)),
    ]
    gates += [rotation_gate(float(t)) for t in rng.uniform(-np.pi, np.pi, 10)]
    for g in gates:
        dim = g.matrix.shape[0]
        np.testing.assert_allclose(g.matrix.conj().T @ g.matrix, np.eye(dim), atol=1e-12)


def test_gate_rejects_non_unitary_matrix():
    with pytest.raises(ValueError):
        Gate(np.array([[1, 1], [0, 1]], dtype=complex), "bad")
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        Gate(np.eye(8, dtype=complex), "three-qubit")
    with pytest.raises(ValueError):
        rotation_gate(float("nan"))  # every comparison with NaN is False


def test_gate_arity_follows_the_matrix_shape():
    assert (hadamard().arity, t_prime().arity, controlled_phase().arity) == (1, 1, 2)
    assert Gate(np.eye(4, dtype=complex), "I4").arity == 2
    assert repr(controlled_phase()) == "Gate('CZ', arity=2)"


def test_holonomic_zero_detuning_phase_is_pi():
    assert abs(HolonomicParams(0.5).geometric_phase - np.pi) < 1e-15


def test_holonomic_geometric_phase_stays_in_open_interval():
    rng = np.random.default_rng(5)
    for ratio in rng.uniform(-50.0, 50.0, size=100):
        phase = HolonomicParams(0.3, 0.0, float(ratio)).geometric_phase
        assert 0.0 < phase < 2.0 * np.pi


@pytest.mark.parametrize("ratio", [1e10, 1e155, 1e300, -1e300, np.float64(1e300)])
def test_holonomic_phase_at_a_huge_detuning_leaves_the_interval(ratio):
    # The phase tends to 0 (2 pi for a negative ratio).  Computing 1 + r^2
    # overflowed past |r| ~ 1e154 and gave pi, or numpy's overflow warning.
    with pytest.raises(ValueError, match=r"^geometric phase .* outside \(0, 2\*pi\)$"):
        HolonomicParams(0.3, 0.0, ratio).geometric_phase


def test_holonomic_hadamard_and_t_prime_rays():
    dev_h = phase_aligned_deviation(
        hadamard().matrix, holonomic_gate(HolonomicParams(np.pi / 4)).matrix
    )
    dev_tp = phase_aligned_deviation(
        t_prime().matrix, holonomic_gate(HolonomicParams(np.pi / 8)).matrix
    )
    assert dev_h < 1e-12 and dev_tp < 1e-12


def test_holonomic_matches_rotation_ray_for_random_angles():
    rng = np.random.default_rng(6)
    for theta in rng.uniform(-np.pi, np.pi, size=100):
        dev = phase_aligned_deviation(
            rotation_gate(float(theta)).matrix,
            holonomic_gate(HolonomicParams(float(theta))).matrix,
        )
        assert dev < 1e-12


def test_hwp_plate_angle_convention():
    np.testing.assert_allclose(hwp_gate(np.pi / 8).matrix, hadamard().matrix, atol=1e-15)
    np.testing.assert_allclose(hwp_gate(np.pi / 16).matrix, t_prime().matrix, atol=1e-15)
    np.testing.assert_allclose(hwp_gate(0.0).matrix, np.diag([1, -1]), atol=1e-15)


def test_noise_params_ideal_flag():
    assert NoiseParams().is_ideal
    assert not NoiseParams(alpha=1e-3).is_ideal


_ANGLE_TAKERS = [
    (rotation_gate, "theta"),
    (hadamard, "alpha"),
    (t_prime, "beta"),
    (controlled_phase, "gamma"),
    (hwp_gate, "plate_angle"),
    (HolonomicParams, "theta"),
    (lambda x: HolonomicParams(0.5, x), "phi"),
    (lambda x: HolonomicParams(0.5, 0.0, x), "delta_over_omega"),
]


@pytest.mark.parametrize("make, name", _ANGLE_TAKERS)
@pytest.mark.parametrize("value, problem", [
    # A bool would read as angle 0 or 1; the others escape as a TypeError,
    # a format error or numpy's warning on a NaN.
    (True, "be a real number"), ("0.5", "be a real number"), ("x", "be a real number"),
    (1j, "be a real number"), (None, "be a real number"),
    (np.inf, "be finite"), (-np.inf, "be finite"), (np.nan, "be finite"),
])
def test_every_angle_is_checked_by_name(make, name, value, problem):
    with pytest.raises(ValueError, match=f"^{name} must {problem}, got {re.escape(repr(value))}$"):
        make(value)
