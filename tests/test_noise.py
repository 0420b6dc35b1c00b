"""Closed-form fidelities, noisy end-to-end simulation and sweeps.

The dense end-to-end simulation is ``double_w`` under noise: its report's
fidelity is the post-selected overlap the closed forms describe.
"""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wexpand.gates import NoiseParams
from wexpand.noise import (
    FidelitySweep,
    doubling_overlap_fidelity,
    fidelity_combined,
    fidelity_controlled_phase,
    fidelity_hadamard,
    fidelity_t_prime,
    sweep,
)
from wexpand.statevec import fidelity_pure, zero_state
from wexpand.wcircuit import (
    EXPANSION_LAYOUT,
    build_w_state,
    double_w,
    expansion_maps,
    interleave_permutation,
    round_permutation,
    standard_expansion_circuit,
)

THETA_MAX = np.pi / 60.0


def _simulated(n, params, mode="block"):
    """Post-selected overlap fidelity of the dense noisy doubling run."""
    return double_w(n, mode, params)[1].fidelity


def _noisy_operator(alpha, beta, gamma):
    """Independent 8x8 composition of the 12 imperfect gates (plain numpy)."""
    def rot(t):
        return np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]], dtype=complex)

    h = rot(np.pi / 4 - alpha)
    tp = rot(np.pi / 8 - beta)
    eye = np.eye(2, dtype=complex)

    def on(q, u):
        mats = [eye, eye, eye]
        mats[q] = u
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    def cp(qa, qb):
        d = np.ones(8, dtype=complex)
        for idx in range(8):
            if (idx >> (2 - qa)) & 1 and (idx >> (2 - qb)) & 1:
                d[idx] = np.exp(1j * (np.pi - gamma))
        return np.diag(d)

    seq = [
        on(1, tp), cp(0, 1), on(1, tp),
        on(0, h), cp(0, 1), on(0, h),
        on(2, h), cp(1, 2), on(2, h),
        on(1, h), cp(1, 2), on(1, h),
    ]
    u = np.eye(8, dtype=complex)
    for m in seq:
        u = m @ u
    return u


def _oracle_fidelity(alpha, beta, gamma):
    """Post-selected overlap for one expansion round, straight from the matrix."""
    psi = _noisy_operator(alpha, beta, gamma)[:, 4]  # action on |100>
    target = np.zeros(8, dtype=complex)
    target[4] = target[1] = 1.0 / np.sqrt(2.0)
    return float(abs(np.vdot(target, psi)) ** 2)


def test_all_closed_forms_are_one_at_zero():
    assert abs(fidelity_hadamard(0.0) - 1.0) < 1e-15
    assert abs(fidelity_t_prime(0.0) - 1.0) < 1e-15
    assert abs(fidelity_controlled_phase(0.0) - 1.0) < 1e-15
    assert abs(fidelity_combined(0.0, 0.0, 0.0) - 1.0) < 1e-15


def test_combined_at_theta_max_exceeds_097():
    assert fidelity_combined(THETA_MAX, THETA_MAX, THETA_MAX) > 0.97


def test_cp_closed_form_matches_matrix_oracle():
    assert abs(fidelity_controlled_phase(0.05) - _oracle_fidelity(0, 0, 0.05)) < 1e-12


def test_closed_forms_match_matrix_oracle_at_random_points():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b, g = (float(x) for x in rng.uniform(0.0, THETA_MAX, size=3))
        assert abs(fidelity_combined(a, b, g) - _oracle_fidelity(a, b, g)) < 1e-12
        assert abs(fidelity_hadamard(a) - _oracle_fidelity(a, 0, 0)) < 1e-12
        assert abs(fidelity_t_prime(b) - _oracle_fidelity(0, b, 0)) < 1e-12


def test_single_imperfection_reductions():
    rng = np.random.default_rng(9)
    for t in rng.uniform(0.0, THETA_MAX, size=50):
        t = float(t)
        assert abs(fidelity_combined(t, 0, 0) - fidelity_hadamard(t)) < 1e-12
        assert abs(fidelity_combined(0, t, 0) - fidelity_t_prime(t)) < 1e-12
        assert abs(fidelity_combined(0, 0, t) - fidelity_controlled_phase(t)) < 1e-12


def test_simulation_is_one_for_ideal_gates_under_both_definitions():
    # The report's post-selected overlap (success probability times the
    # kept state's overlap) and the kept state's own overlap with |W_2n>.
    for n in (1, 2, 3):
        for mode in ("block", "sequential"):
            out, report = double_w(n, mode, NoiseParams())
            assert abs(report.fidelity - 1.0) < 1e-12
            assert abs(fidelity_pure(out, build_w_state(2 * n)) - 1.0) < 1e-12


def test_simulated_fidelity_independent_of_size():
    p = NoiseParams(0.02, 0.015, 0.03)
    values = [_simulated(n, p) for n in (1, 2, 3, 4)]
    assert max(values) - min(values) < 1e-9


def test_n1_equals_n3_at_same_parameters():
    p = NoiseParams(0.04, 0.01, 0.02)
    assert abs(_simulated(1, p) - _simulated(3, p)) < 1e-9


def test_closed_form_matches_simulation_at_50_random_points():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b, g = (float(x) for x in rng.uniform(0.0, THETA_MAX, size=3))
        p = NoiseParams(a, b, g)
        n = int(rng.integers(1, 4))
        assert abs(fidelity_combined(a, b, g) - _simulated(n, p)) < 1e-9


def test_simulation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="^n must be >= 1"):
        _simulated(0, NoiseParams())
    with pytest.raises(ValueError, match="^block mode supports n <= 8"):
        _simulated(9, NoiseParams())
    with pytest.raises(ValueError, match="^sequential mode supports n <= 8"):
        _simulated(9, NoiseParams(), "sequential")
    for field in ("alpha", "beta", "gamma"):
        for bad in (np.nan, np.inf, -np.inf, 10**400):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                NoiseParams(**{field: bad})
        for bad in (True, np.bool_(False), "0.1", 0.1j, None, np.array(0.1)):
            with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
                NoiseParams(**{field: bad})


def _table_bytes(table: FidelitySweep) -> tuple:
    """A sweep's table as something == compares: each series' bytes, then n."""
    return (*(series.tobytes() for series in table[:-1]), table.n)


def test_sweep_grid_and_endpoints():
    table = sweep(THETA_MAX, 5, n=2)
    assert table.theta.size == 5
    np.testing.assert_allclose(table.theta, np.linspace(0.0, THETA_MAX, 5), atol=1e-15)
    for series in (table.f_h, table.f_tp, table.f_cp, table.f_combined, table.f_simulated):
        assert abs(series[0] - 1.0) < 1e-12
    assert table.f_combined[-1] > 0.97
    assert np.all(np.abs(table.f_simulated - table.f_combined) < 1e-9)


def test_a_sweep_is_its_csv_table_of_float64_columns():
    # fidelity-sweep writes the six series as they are, under `_fields` as
    # the header, and n as its last column.
    assert ",".join(FidelitySweep._fields) == "theta,f_h,f_tp,f_cp,f_combined,f_simulated,n"
    table = sweep(THETA_MAX, 4, n=2)
    assert type(table) is FidelitySweep and type(table.n) is int and table.n == 2
    for name, series in zip(table._fields, table[:-1]):
        assert type(series) is np.ndarray, name
        assert (series.dtype, series.shape) == (np.float64, (4,)), name
    with pytest.raises(AttributeError):
        table.f_simulated = np.ones(4)
    assert _table_bytes(table) == _table_bytes(sweep(THETA_MAX, 4, n=2))


def test_sweep_rejects_single_step():
    with pytest.raises(ValueError):
        sweep(THETA_MAX, 1)
    for n in (0, 9):
        with pytest.raises(ValueError):
            sweep(THETA_MAX, 5, n=n)


def test_sweep_serves_the_block_sizes_past_the_old_cap():
    # n = 7 and 8 were refused while block mode held a 3n-qubit register.
    for n in (7, 8):
        table = sweep(THETA_MAX, 3, n=n)
        theta = float(table.theta[-1])
        p = NoiseParams(theta, theta, theta)
        assert abs(table.f_simulated[-1] - _simulated(n, p)) < 1e-13


@pytest.mark.parametrize("theta_max, message", [
    (1e308, "too large in magnitude"), (-1e308, "too large in magnitude"),
    (3e307, "too large in magnitude"), (np.inf, "must be finite"), (np.nan, "must be finite"),
])
def test_sweep_rejects_a_theta_max_with_non_finite_fidelities(theta_max, message):
    # 8 theta overflows past about 2.2e307; the sweep names theta_max
    # itself, without numpy's warnings (pyproject turns them into errors).
    with pytest.raises(ValueError, match=f"^theta_max .*{message}"):
        sweep(theta_max, 3)


def test_sweep_closed_form_columns_are_the_scalar_calls():
    table = sweep(THETA_MAX, 37, n=3)
    assert table.n == 3
    for t, f_h, f_tp, f_cp, f_combined in zip(*(series.tolist() for series in table[:5])):
        assert f_h == fidelity_hadamard(t)
        assert f_tp == fidelity_t_prime(t)
        assert f_cp == fidelity_controlled_phase(t)
        assert f_combined == fidelity_combined(t, t, t)


# Each sweep column's closed form, as a function of the grid's theta.
_CLOSED_FORMS = {
    "f_h": fidelity_hadamard,
    "f_tp": fidelity_t_prime,
    "f_cp": fidelity_controlled_phase,
    "f_combined": lambda t: fidelity_combined(t, t, t),
}


@settings(max_examples=60, deadline=None)
@given(st.floats(-np.pi, np.pi), st.integers(1, 400))
def test_array_closed_forms_are_the_scalar_calls_point_by_point(theta_max, steps):
    # One implementation: each point of an array call rounds exactly as the
    # scalar call on that point, over the sign and size of the grid.
    thetas = np.linspace(0.0, theta_max, steps)
    for name, f in _CLOSED_FORMS.items():
        got = f(thetas)
        assert got.shape == thetas.shape, name
        assert got.tolist() == [f(t) for t in thetas.tolist()], name


def _mp_closed_forms(t):
    """The four closed forms at the exact binary value of ``t``, to 40 digits."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        s8, c8 = mpmath.sin(mpmath.pi / 8), mpmath.cos(mpmath.pi / 8)
        x = (mpmath.pi + 8 * t) / 4
        eg = mpmath.expj(t)
        f_h = (mpmath.mpf(1) / 2 + mpmath.cos(2 * t) ** 3 / 2) ** 2
        f_tp = (mpmath.cos(x) + mpmath.sin(x)) ** 2 / 2
        f_cp = abs(
            mpmath.expj(-2 * t) * mpmath.cos(t / 2) ** 4 / 2
            + (c8**2 - mpmath.expj(-t) * s8**2) / mpmath.sqrt(2)
        ) ** 2
        f_combined = abs(
            mpmath.expj(-4 * t) * (1 + eg) ** 4 * mpmath.cos(2 * t) ** 3 * mpmath.cos(x)
            / (16 * mpmath.sqrt(2))
            + mpmath.expj(-t) * (-1 + eg + (1 + eg) * mpmath.sin(x)) / (2 * mpmath.sqrt(2))
        ) ** 2
        return {"f_h": f_h, "f_tp": f_tp, "f_cp": f_cp, "f_combined": f_combined}


def test_closed_forms_match_a_40_digit_reference_on_zero_to_pi():
    # Array and scalar calls alike; the largest error measured was 1.1e-15.
    thetas = np.linspace(0.0, np.pi, 700)
    reference = [_mp_closed_forms(t) for t in thetas.tolist()]
    for name, f in _CLOSED_FORMS.items():
        want = [float(ref[name]) for ref in reference]
        # The float rounding of the reference adds at most half an ulp of 1.
        assert np.max(np.abs(f(thetas) - want)) <= 2e-15, name
        assert max(abs(f(t) - w) for t, w in zip(thetas.tolist(), want)) <= 2e-15, name


def test_closed_forms_keep_the_shape_of_their_angles():
    grid = np.linspace(0.0, THETA_MAX, 12).reshape(3, 4)
    for name, f in _CLOSED_FORMS.items():
        assert f(grid).shape == (3, 4), name
        assert f(grid[:0]).shape == (0, 4), name
        for scalar in (0.01, np.float64(0.01), np.float32(0.01), 0, np.int64(0)):
            assert type(f(scalar)) is float, name
        assert f(0.01) == f(np.array([0.01]))[0] == f(np.array(0.01)), name
    # The three angles of the combined form broadcast against each other.
    a, b = np.linspace(0.0, THETA_MAX, 5), np.linspace(0.0, THETA_MAX, 3)
    got = fidelity_combined(a[:, None], b, 0.02)
    assert got.shape == (5, 3)
    assert got.tolist() == [[fidelity_combined(x, y, 0.02) for y in b.tolist()] for x in a.tolist()]


# Not real numbers, as a sweep's theta_max or as a closed form's angle.
_NOT_REAL = [True, np.True_, "0.1", None]


@pytest.mark.parametrize("bad", [*_NOT_REAL, [0.1], np.array(0.1), 1 + 0j, np.complex128(0.1)])
def test_sweep_rejects_a_theta_max_that_is_not_a_real_number(bad):
    with pytest.raises(ValueError, match="^theta_max must be a real number, got "):
        sweep(bad, 3)


@pytest.mark.parametrize(
    "bad", [*_NOT_REAL, 0.1j, np.complex128(0.1), np.nan, np.inf, -np.inf, np.array([0.1, np.nan])]
)
@pytest.mark.parametrize(
    "form, names",
    [
        (fidelity_hadamard, ["alpha"]),
        (fidelity_t_prime, ["beta"]),
        (fidelity_controlled_phase, ["gamma"]),
        (fidelity_combined, ["alpha", "beta", "gamma"]),
    ],
    ids=["hadamard", "t_prime", "controlled_phase", "combined"],
)
def test_closed_forms_reject_an_angle_that_is_not_a_finite_real_number(form, names, bad):
    for k, name in enumerate(names):
        angles = [0.1] * len(names)
        angles[k] = bad
        with pytest.raises(ValueError, match=f"^{name} must (hold real numbers|be finite), got "):
            form(*angles)


def test_sweep_takes_python_and_numpy_reals_as_theta_max():
    for good in (1, np.int64(1), np.int8(1), np.float32(1.0), np.float64(1.0)):
        assert _table_bytes(sweep(good, 4)) == _table_bytes(sweep(1.0, 4))
    with pytest.raises(ValueError, match="^theta_max must be finite"):
        sweep(10**400, 3)


def _fixed_point_deviation_40_digits(alpha, beta, gamma):
    """How far the 12 gates of ``EXPANSION_LAYOUT`` take |000>, composed in mpmath."""
    with mpmath.workdps(40):
        angles = {"h": mpmath.pi / 4 - alpha, "tp": mpmath.pi / 8 - beta}
        phase = -mpmath.expj(-gamma)
        psi = [mpmath.mpc(1)] + [mpmath.mpc(0)] * 7
        for kind, slots in EXPANSION_LAYOUT:
            if kind == "cp":
                for i in range(8):
                    if all((i >> (2 - t)) & 1 for t in slots):
                        psi[i] *= phase
                continue
            c, s = mpmath.cos(angles[kind]), mpmath.sin(angles[kind])
            bit = 1 << (2 - slots[0])
            for i in range(8):
                if not i & bit:
                    a, b = psi[i], psi[i | bit]
                    psi[i], psi[i | bit] = c * a + s * b, s * a - c * b
        return max(abs(psi[0] - 1), *(abs(x) for x in psi[1:]))


def test_the_noisy_operator_fixes_000_at_40_digits():
    # Why the doubling fidelity has no n: U|000> = |000> for every error.
    third, half, tenth = mpmath.mpf(1) / 3, mpmath.mpf(1) / 2, mpmath.mpf(1) / 10
    for angles in ((0, 0, 0), (1, third, -half), (3 * tenth, -2 * tenth, tenth),
                   (-half, 3 * tenth, 2), (2, -1, -3)):
        assert _fixed_point_deviation_40_digits(*(mpmath.mpf(a) for a in angles)) < 1e-35


def test_the_noisy_operator_and_its_maps_fix_000():
    a, b, g = np.random.default_rng(22).uniform(-0.3, 0.3, size=(3, 300))
    e0 = np.eye(8)[0]
    for p in zip(a.tolist(), b.tolist(), g.tolist()):
        u = standard_expansion_circuit(NoiseParams(*p)).matrix()
        assert np.max(np.abs(u[:, 0] - e0)) < 1e-15
        assert np.max(np.abs(u[0] - e0)) < 1e-15
    v, w = expansion_maps(a, b, g)
    assert np.max(np.abs(v[..., 0] - np.eye(4)[0].reshape(2, 2))) < 1e-15
    assert np.max(np.abs(w[..., 0])) < 1e-15


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(*(st.floats(-0.3, 0.3) for _ in range(3))),
    st.integers(1, 8),
    st.sampled_from(["block", "sequential"]),
)
def test_structured_overlap_matches_the_dense_simulation(angles, n, mode):
    # Differential: the formula on V against the full register, in either
    # layout, over (alpha, beta, gamma) in [-0.3, 0.3]^3.
    structured = doubling_overlap_fidelity(expansion_maps(*angles)[0])[0]
    assert abs(structured - _simulated(n, NoiseParams(*angles), mode)) < 1e-13


def test_structured_overlap_serves_sizes_past_the_dense_cap():
    # One value serves every n, so nothing drifts with n: it is the closed
    # form to rounding, however large the register it describes.
    v, _ = expansion_maps(0.0, 0.0, 0.0)
    assert abs(doubling_overlap_fidelity(v)[0] - 1.0) < 1e-15
    a, b, g = np.random.default_rng(23).uniform(-0.3, 0.3, size=(3, 2000))
    structured = doubling_overlap_fidelity(expansion_maps(a, b, g)[0])
    assert np.max(np.abs(structured - fidelity_combined(a, b, g))) < 1e-14
    with pytest.raises(ValueError):
        doubling_overlap_fidelity(np.eye(4))


# Each library entry point that takes a register size or count, as a call
# on that one value returning something comparable with ==, and the name the
# value is rejected under.
_SIZED_ENTRY_POINTS = {
    "double_w": (lambda n: double_w(n, "block")[0].amplitudes.tobytes(), "n"),
    "build_w_state": (lambda n: build_w_state(n).amplitudes.tobytes(), "n"),
    "sweep n": (lambda n: _table_bytes(sweep(THETA_MAX, 5, n=n)), "n"),
    "sweep steps": (lambda steps: _table_bytes(sweep(THETA_MAX, steps)), "steps"),
    "zero_state": (lambda n: zero_state(n).amplitudes.tobytes(), "num_qubits"),
    "interleave_permutation": (interleave_permutation, "n"),
    "round_permutation n": (lambda n: round_permutation(n, 2), "n"),
    "round_permutation k": (lambda k: round_permutation(4, k), "k"),
}


# Integer values each entry point rejects as out of range, by the same name.
_OUT_OF_RANGE = {
    "double_w": (0, 9),
    "build_w_state": (0,),
    "sweep n": (0, 9),
    "sweep steps": (1,),
    "zero_state": (0, -1),
    "interleave_permutation": (0, -1),
    "round_permutation n": (0,),
    "round_permutation k": (-1, 5),
}


@pytest.mark.parametrize("entry", sorted(_SIZED_ENTRY_POINTS))
def test_sizes_must_be_integers_at_the_boundary(entry):
    call, name = _SIZED_ENTRY_POINTS[entry]
    for bad in (True, np.True_, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(bad)
    for bad in _OUT_OF_RANGE[entry]:
        with pytest.raises(ValueError, match=rf"\b{name}\b.*\D{bad}$"):
            call(bad)
    # numpy integers are sizes too, with the same result as a Python int.
    for good in (np.int64(3), np.int32(3), np.uint8(3)):
        assert call(good) == call(3)


def test_each_series_is_monotone_non_increasing_on_the_window():
    thetas = np.linspace(0.0, THETA_MAX, 1000)
    for series in (
        [fidelity_hadamard(t) for t in thetas],
        [fidelity_t_prime(t) for t in thetas],
        [fidelity_controlled_phase(t) for t in thetas],
        [fidelity_combined(t, t, t) for t in thetas],
    ):
        diffs = np.diff(series)
        assert np.all(diffs <= 1e-12)
