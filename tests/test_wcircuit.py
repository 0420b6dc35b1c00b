"""Expansion circuit, W-state growth and the doubling protocol."""
import csv
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_8x8, operation_matrix, postselect_zero, stepwise_expansion_maps
from wexpand import wcircuit
from wexpand.checks import _register_doubling
from wexpand.cli import main
from wexpand.gates import NoiseParams, controlled_phase, hadamard, t_prime
from wexpand.statevec import (
    QubitPermutation,
    StateVector,
    _normalized,
    _qubit_density,
    apply_unitary,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from wexpand.wcircuit import (
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    ExpansionCircuit,
    build_w_state,
    create_epr,
    double_w,
    double_w_pairs,
    expand_by_one,
    expand_qubit,
    expansion_maps,
    interleave_permutation,
    _ancilla_density,
    _expansion_map,
    relabel,
    round_permutation,
    standard_expansion_circuit,
)

S2 = 1.0 / np.sqrt(2.0)


def vec(entries, n):
    v = np.zeros(1 << n, dtype=complex)
    for idx, amp in entries.items():
        v[idx] = amp
    return v


# ---------------------------------------------------------------------------
# W-state family
# ---------------------------------------------------------------------------

def test_w1_is_excited_qubit():
    np.testing.assert_allclose(build_w_state(1).amplitudes, [0, 1])


def test_w4_amplitudes():
    expected = vec({1: 0.5, 2: 0.5, 4: 0.5, 8: 0.5}, 4)
    np.testing.assert_allclose(build_w_state(4).amplitudes, expected, atol=1e-15)


def test_w7_matches_weight_one_enumeration():
    # Oracle: enumerate all 2^7 strings and put 1/sqrt(7) on weight-one ones.
    expected = np.zeros(128, dtype=complex)
    for i in range(128):
        if bin(i).count("1") == 1:
            expected[i] = 1.0 / np.sqrt(7)
    np.testing.assert_allclose(build_w_state(7).amplitudes, expected, atol=1e-15)


def test_w0_rejected():
    with pytest.raises(ValueError):
        build_w_state(0)


# ---------------------------------------------------------------------------
# Expansion circuit
# ---------------------------------------------------------------------------

def test_circuit_structure():
    circ = standard_expansion_circuit()
    assert len(circ.steps) == 12
    two_q = [slots for gate, slots in circ.steps if gate.arity == 2]
    assert two_q == [(0, 1), (0, 1), (1, 2), (1, 2)]
    labels = [gate.label for gate, _ in circ.steps]
    assert (labels.count("H"), labels.count("T'"), labels.count("CZ")) == (6, 2, 4)


def test_composed_matrix_equals_expansion_operator():
    dev = np.max(np.abs(standard_expansion_circuit().matrix() - EXPANSION_MATRIX))
    assert dev < 1e-12


def test_composed_matrix_against_independent_kron_oracle():
    # Rebuild the 12-gate product with plain numpy kron/matmul.
    h = hadamard().matrix
    tp = t_prime().matrix
    cp = controlled_phase().matrix
    eye = np.eye(2)

    def on(q, u):
        mats = [eye, eye, eye]
        mats[q] = u
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    cp_01 = np.kron(cp, eye)
    cp_12 = np.kron(eye, cp)
    seq = [
        on(1, tp), cp_01, on(1, tp),
        on(0, h), cp_01, on(0, h),
        on(2, h), cp_12, on(2, h),
        on(1, h), cp_12, on(1, h),
    ]
    u = np.eye(8, dtype=complex)
    for m in seq:
        u = m @ u
    assert np.max(np.abs(u - EXPANSION_MATRIX)) < 1e-12


def test_matrix_agrees_with_engine_application():
    circ = standard_expansion_circuit(NoiseParams(0.02, 0.01, 0.05))
    via_engine = operation_matrix(lambda s: circ.apply(s, 0, 1, 2), 3)
    assert np.max(np.abs(via_engine - circ.matrix())) < 1e-14


def test_stepwise_checkpoints_from_100():
    states = standard_expansion_circuit().stepwise_states(basis_state("100"))
    checkpoints = {
        2: vec({4: S2, 6: S2}, 3),    # |1>((|0>+|1>)/sqrt2)|0>
        5: vec({4: S2, 2: S2}, 3),    # ((|10>+|01>)/sqrt2)|0>
        8: vec({4: S2, 3: S2}, 3),    # (|100>+|011>)/sqrt2
        11: vec({4: S2, 1: S2}, 3),   # (|100>+|001>)/sqrt2
    }
    for k, expected in checkpoints.items():
        assert np.max(np.abs(states[k].amplitudes - expected)) < 1e-12


def test_circuit_fixes_all_zero_input():
    out = standard_expansion_circuit().apply(basis_state("000"), 0, 1, 2)
    np.testing.assert_allclose(out.amplitudes, vec({0: 1}, 3), atol=1e-12)


def test_circuit_constructor_rejects_wrong_gate_arity():
    with pytest.raises(ValueError, match="cp gate"):
        ExpansionCircuit(hadamard(), t_prime(), hadamard())
    with pytest.raises(ValueError, match="h gate"):
        ExpansionCircuit(controlled_phase(), t_prime(), controlled_phase())


# ---------------------------------------------------------------------------
# The expansion operation as one dense 8x8
# ---------------------------------------------------------------------------

def test_8x8_splits_excitation():
    out = apply_8x8(basis_state("100"), 0, 1, 2)
    np.testing.assert_allclose(out.amplitudes, vec({4: S2, 1: S2}, 3), atol=1e-12)


def test_8x8_term_splitting_coefficients():
    # A 1/sqrt(n) excitation splits into two 1/sqrt(2n) terms; the rest keep 1/sqrt(n).
    n = 3
    reg = tensor(build_w_state(n), zero_state(2))  # new at 3, anc at 4
    out = apply_8x8(reg, 1, 4, 3)
    amps = out.amplitudes.reshape((2,) * 5)
    assert abs(amps[0, 1, 0, 0, 0] - 1 / np.sqrt(6)) < 1e-12  # kept excitation
    assert abs(amps[0, 0, 0, 1, 0] - 1 / np.sqrt(6)) < 1e-12  # transferred
    assert abs(amps[1, 0, 0, 0, 0] - 1 / np.sqrt(3)) < 1e-12  # untouched terms
    assert abs(amps[0, 0, 1, 0, 0] - 1 / np.sqrt(3)) < 1e-12


def test_8x8_twice_builds_weighted_three_qubit_state():
    reg = tensor(basis_state("1"), zero_state(2))
    reg = apply_8x8(reg, 0, 1, 2)
    reg, _ = postselect_zero(reg, [1])  # Bell pair on (0, 1)
    reg = tensor(reg, zero_state(2))  # new qubit at 2, fresh ancilla at 3
    reg = apply_8x8(reg, 0, 3, 2)
    reg, _ = postselect_zero(reg, [3])
    # Slide the joined qubit next to its source to read the usual ordering.
    reg = permute(reg, QubitPermutation.swap(3, 1, 2))
    expected = vec({0b100: 0.5, 0b010: 0.5, 0b001: S2}, 3)
    np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-12)


def _gram_reduced(state, qubit):
    """A qubit's reduced 2x2 the general way: move its axis first, then a @ a^dagger.

    Each entry is summed with math.fsum: at 8 qubits BLAS's own zgemm
    rounds a diagonal entry up to 1.2e-15 away from the exact sum.
    """
    n = state.num_qubits
    rest = [q for q in range(n) if q != qubit]
    a = state.tensor_view().transpose([qubit] + rest).reshape(2, -1)
    products = a[:, None, :] * a.conj()[None, :, :]
    return np.array(
        [[complex(math.fsum(p.real), math.fsum(p.imag)) for p in row] for row in products]
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    fresh=st.sampled_from([None, "zero", "negative zero"]),
)
def test_single_qubit_reduction_matches_the_gram_oracle(n, seed, fresh):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    fresh_qubit = int(rng.integers(n)) if fresh else None
    if fresh_qubit is not None:
        # An exactly zero |1> slice on one qubit, with its zeros signed.
        sign = -1.0 if fresh == "negative zero" else 1.0
        v.reshape(1 << fresh_qubit, 2, -1)[:, 1] = complex(sign * 0.0, sign * 0.0)
    state = StateVector(v / np.linalg.norm(v))
    for q in range(n):
        rho = _qubit_density(state, q)
        assert np.max(np.abs(rho - _gram_reduced(state, q))) <= 1e-15
        assert partial_trace(state, {q}).entries.tobytes() == rho.tobytes()
        if q == fresh_qubit:
            assert rho[1, 1] == 0 and rho[0, 1] == 0


def test_8x8_order_does_not_matter_on_disjoint_triples():
    reg = tensor(build_w_state(2), zero_state(4))
    reg = permute(reg, interleave_permutation(2))
    forward = apply_8x8(apply_8x8(reg, 0, 1, 2), 3, 4, 5)
    backward = apply_8x8(apply_8x8(reg, 3, 4, 5), 0, 1, 2)
    assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) < 1e-14


_ANGLE = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def _register_and_slots(draw):
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    slots = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    return StateVector(v / np.linalg.norm(v)), tuple(slots)


@settings(max_examples=60, deadline=None)
@given(_register_and_slots(), _ANGLE, _ANGLE, _ANGLE)
def test_fused_8x8_matches_the_12_gate_circuit(reg_slots, alpha, beta, gamma):
    state, (q1, anc, q2) = reg_slots
    noise = NoiseParams(alpha, beta, gamma)
    # A random register has no |0> slots: contract the 8x8 directly.
    circuit = standard_expansion_circuit(noise)
    fused = apply_unitary(state, circuit.matrix(), (q1, anc, q2))
    stepwise = circuit.apply(state, q1, anc, q2)
    assert np.max(np.abs(fused.amplitudes - stepwise.amplitudes)) < 1e-14


def test_noisy_8x8_matches_the_12_gate_circuit():
    noise = NoiseParams(0.02, 0.01, 0.05)
    reg = tensor(build_w_state(3), zero_state(2))
    fused = apply_8x8(reg, 1, 3, 4, noise)
    stepwise = standard_expansion_circuit(noise).apply(reg, 1, 3, 4)
    assert np.max(np.abs(fused.amplitudes - stepwise.amplitudes)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(*(st.floats(-0.5, 0.5, allow_nan=False) for _ in range(3))),
        min_size=1,
        max_size=12,
    )
)
def test_batched_expansion_maps_match_the_circuit_matrix(points):
    # V and W are the ancilla-|0> and ancilla-|1> rows of columns 0 and 4.
    alpha, beta, gamma = (np.array(x) for x in zip(*points))
    v, w = expansion_maps(alpha, beta, gamma)
    assert v.shape == w.shape == (len(points), 2, 2, 2)
    for vj, wj, p in zip(v, w, points):
        dense = standard_expansion_circuit(NoiseParams(*p)).matrix()
        columns = dense.reshape(2, 2, 2, 8)[..., [0, 4]]
        assert np.max(np.abs(vj - columns[:, 0])) < 1e-14
        assert np.max(np.abs(wj - columns[:, 1])) < 1e-14


def test_batched_expansion_maps_broadcast_scalars_and_reject_grids():
    v, w = expansion_maps(0.0, [0.0, 0.01], 0.0)
    assert v.shape == w.shape == (2, 2, 2, 2)
    columns = EXPANSION_MATRIX.reshape(2, 2, 2, 8)[..., [0, 4]]
    assert np.max(np.abs(v[0] - columns[:, 0])) < 1e-14
    assert np.max(np.abs(w[0])) < 1e-14
    with pytest.raises(ValueError):
        expansion_maps(np.zeros((2, 2)), 0.0, 0.0)


@st.composite
def _noise_angle_points(draw):
    """Three angle arrays of one length k in 1..300, each possibly a scalar instead.

    Each angle draws a scale (0, 1e-8, 1e-3 or 1.5), values uniform within
    it, and about a quarter of them set to exactly -scale, 0 or +scale.
    """
    k = draw(st.integers(1, 300))
    angles = []
    for _ in range(3):
        scale = draw(st.sampled_from((0.0, 1e-8, 1e-3, 1.5)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = scale * rng.uniform(-1.0, 1.0, k)
        exact = rng.random(k) < 0.25
        values[exact] = scale * rng.choice([-1.0, 0.0, 1.0], k)[exact]
        angles.append(float(values[0]) if draw(st.booleans()) else values)
    return angles


@settings(max_examples=150, deadline=None)
@given(_noise_angle_points())
def test_expansion_maps_equal_the_stepwise_composition(angles):
    # The gather and multiply-add take each entry's IEEE operations up to
    # exact commutation and negation, so V and W are equal bit for bit.
    v, w = expansion_maps(*angles)
    want_v, want_w = stepwise_expansion_maps(*angles)
    assert v.shape == w.shape == want_v.shape
    assert np.array_equal(v, want_v) and np.array_equal(w, want_w)


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad, message", [
    (np.nan, "must be finite, got nan"),
    (np.inf, "must be finite, got inf"),
    ([0.1, -np.inf], "must be finite, got -inf"),
    (10**400, "must be finite, got "),
    (True, "must hold real numbers, got True"),
    ("0.1", "must hold real numbers, got '0.1'"),
    (0.1j, "must hold real numbers, got 0.1j"),
    ([0.1, None], "must hold real numbers, got "),
    ([0.1, True], "must hold real numbers, got [0.1, True]"),
    ([1, True], "must hold real numbers, got [1, True]"),
    ([0.1, np.True_], "must hold real numbers, got "),
])
def test_expansion_maps_reject_an_angle_that_is_not_a_finite_real_by_name(slot, bad, message):
    # Unchecked, NaN would give NaN maps, inf a RuntimeWarning, True 1 rad
    # (alone or in a list), "0.1" 0.1 rad and a complex angle a TypeError.
    angles = [0.01, 0.02, 0.03]
    angles[slot] = bad
    name = ("alpha", "beta", "gamma")[slot]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {message}")):
        expansion_maps(*angles)


def test_expansion_maps_judge_a_float_array_by_its_dtype_alone(monkeypatch):
    # fidelity-sweep passes a linspace grid; no angle is read one by one.
    theta = np.linspace(0.0, 0.1, 7)
    want = expansion_maps(theta, theta, theta)
    monkeypatch.setattr("wexpand.statevec._is_real", None)
    got = expansion_maps(theta, theta, theta)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("angles, message", [
    (([], 0.0, 0.0), "noise angles must hold at least one point"),
    (([0.1, 0.2], [0.1, 0.2, 0.3], 0.0), "shape mismatch"),
])
def test_expansion_maps_reject_an_empty_or_mismatched_grid(angles, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        expansion_maps(*angles)


# ---------------------------------------------------------------------------
# EPR creation and growth
# ---------------------------------------------------------------------------

def test_create_epr_fidelity_and_symmetry():
    epr = create_epr()
    bell = StateVector(vec({1: S2, 2: S2}, 2))
    assert abs(1.0 - fidelity_pure(epr, bell)) < 1e-12
    swapped = permute(epr, QubitPermutation.swap(2, 0, 1))
    assert abs(1.0 - fidelity_pure(epr, swapped)) < 1e-12


def test_create_epr_restores_ancilla():
    out = apply_8x8(basis_state("100"), 0, 1, 2)
    anc = partial_trace(out, {1}).entries
    assert np.max(np.abs(anc - np.array([[1, 0], [0, 0]]))) < 1e-12


def test_expand_w2_at_first_qubit():
    out = expand_by_one(build_w_state(2), 0)
    expected = vec({0b100: 0.5, 0b010: 0.5, 0b001: S2}, 3)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_expand_weighted_state_to_w4():
    out = expand_by_one(build_w_state(2), 0)
    w4 = expand_by_one(out, 2)
    assert abs(1.0 - fidelity_pure(w4, build_w_state(4))) < 1e-12


def test_expansion_keeps_weight_one_support():
    rng = np.random.default_rng(13)
    state = build_w_state(3)
    for _ in range(3):
        target = int(rng.integers(state.num_qubits))
        state = expand_by_one(state, target)
        for i, a in enumerate(state.amplitudes):
            if abs(a) > 1e-10:
                assert bin(i).count("1") == 1


def test_expand_rejects_non_weight_one_input():
    ghz = StateVector(np.array([S2, 0, 0, S2], dtype=complex))
    with pytest.raises(ValueError):
        expand_by_one(ghz, 0)


def test_non_weight_one_message_counts_and_stays_short():
    # A random 14-qubit register has support on all 2^14 strings, 14 of
    # them of weight one; listing the rest once took 294 706 characters.
    rng = np.random.default_rng(5)
    v = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    with pytest.raises(ValueError) as info:
        expand_by_one(StateVector(v / np.linalg.norm(v)), 0)
    message = str(info.value)
    assert len(message) < 200
    assert f"on {2**14 - 14} basis strings" in message
    assert message.endswith("00000000000000, 00000000000011, 00000000000101, 00000000000110, ...")


def test_coefficient_bookkeeping_after_k_expansions():
    # k distinct-target expansions of |W_n>: n+k terms, 2k at 1/sqrt(2n),
    # n-k untouched at 1/sqrt(n).
    n, targets = 4, [2, 0]
    state = build_w_state(n)
    for t in targets:
        state = expand_by_one(state, t)
    mags = sorted(abs(a) for a in state.amplitudes if abs(a) > 1e-10)
    assert len(mags) == n + len(targets)
    expected = sorted([1 / np.sqrt(2 * n)] * (2 * len(targets)) + [1 / np.sqrt(n)] * (n - len(targets)))
    np.testing.assert_allclose(mags, expected, atol=1e-12)


def test_expansion_order_invariance_under_ideal_gates():
    final_states = []
    for order in ([0, 1], [1, 0]):
        state = build_w_state(2)
        # Map original target indices to current positions as insertions shift them.
        positions = list(range(2))
        for t in order:
            pos = positions[t]
            state = expand_by_one(state, pos)
            positions = [p if p <= pos else p + 1 for p in positions]
        final_states.append(state)
    assert abs(1.0 - fidelity_pure(final_states[0], build_w_state(4))) < 1e-12
    assert abs(1.0 - fidelity_pure(final_states[1], build_w_state(4))) < 1e-12


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["block", "sequential"])
@pytest.mark.parametrize("schedule", ["serial", "parallel"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_doubling_reaches_w2n(n, mode, schedule, tmp_path):
    # ``prepare --schedule`` is still accepted and must not change the state.
    csv_path = tmp_path / "prepare.csv"
    argv = ["prepare", "--n", str(n), "--mode", mode, "--schedule", schedule]
    assert main(argv + ["--out", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["stage"] == "final"]
    dumped = np.zeros(1 << (2 * n), dtype=complex)
    for r in rows:
        dumped[int(r["index"])] = complex(float(r["re"]), float(r["im"]))
    np.testing.assert_allclose(dumped, build_w_state(2 * n).amplitudes, atol=1e-12)

    out, report = double_w(n, mode)
    assert abs(1.0 - report.fidelity) < 1e-10
    assert abs(1.0 - fidelity_pure(out, build_w_state(2 * n))) < 1e-10
    assert all(abs(p - 1.0) < 1e-12 for p in report.ancilla_purities)
    assert abs(report.success_probability - 1.0) < 1e-12


def test_doubling_n1_equals_epr():
    # Bell-pair creation is the n = 1 doubling: the expansion operation on
    # |100> with the ancilla projected out, bit for bit.  The exact ideal
    # operator puts fl(1/sqrt 2) on |100> and |001>, so the projection
    # probability is 2 fl(1/sqrt 2)^2, one ulp below 1.
    out, _ = double_w(1, "block")
    projected, prob = postselect_zero(apply_8x8(basis_state("100"), 0, 1, 2), [1])
    assert prob == 2 * (1 / np.sqrt(2)) ** 2 == 0.9999999999999998
    assert np.array_equal(out.amplitudes, projected.amplitudes)
    assert np.array_equal(out.amplitudes, create_epr().amplitudes)


def test_block_and_sequential_agree_under_noise():
    noise = NoiseParams(0.03, 0.02, 0.05)
    out_b, rep_b = double_w(2, "block", noise)
    out_s, rep_s = double_w(2, "sequential", noise)
    rho_b = np.outer(out_b.amplitudes, out_b.amplitudes.conj())
    rho_s = np.outer(out_s.amplitudes, out_s.amplitudes.conj())
    assert np.max(np.abs(rho_b - rho_s)) < 1e-10
    assert abs(rep_b.fidelity - rep_s.fidelity) < 1e-12


def test_noisy_ancilla_purity_below_one_is_recorded():
    out, report = double_w(2, "sequential", NoiseParams(0.1, 0.1, 0.2))
    assert all(p < 1.0 - 1e-6 for p in report.ancilla_purities)
    assert report.success_probability < 1.0
    assert report.overlap == fidelity_pure(out, build_w_state(4))
    assert report.fidelity == report.success_probability * report.overlap


def test_double_w_caps():
    # Both doubling engines check n and the mode with the same messages.
    cases = (
        (9, "block", "block mode supports n <= 8, got n=9"),
        (9, "sequential", "sequential mode supports n <= 8, got n=9"),
        (2, "giant", "mode must be 'block' or 'sequential', got 'giant'"),
        (0, "block", "n must be >= 1, got 0"),
        # n is checked before the mode.
        (0, "giant", "n must be >= 1, got 0"),
        (2.0, "block", "n must be an integer, got 2.0"),
    )
    for engine in (double_w, double_w_pairs):
        for n, mode, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                engine(n, mode)


@pytest.mark.parametrize("mode", ["block", "sequential"])
@pytest.mark.parametrize("n", range(1, 9))
def test_weight_one_doubling_matches_the_dense_run(n, mode, tmp_path, capsys):
    # Each stage's entries are c10, c01 and V[0,0,0], each divided once by the
    # stage's closed-form norm, so values may differ from the dense run's in
    # the last bit.  Traced round k is the dense sequential round k with each
    # joined qubit moved in after its source.
    stage, report = double_w_pairs(n, mode)
    dense_out, dense_report = double_w(n, mode)
    dense_rounds = dense_report.rounds or double_w(n, "sequential")[1].rounds
    assert report.rounds == ()
    wanted = [permute(r, round_permutation(n, k)) for k, r in enumerate(dense_rounds)]
    for k, want in enumerate([*wanted, dense_out]):
        got = stage(k)
        assert got.size == want.num_qubits
        scattered = np.zeros_like(want.amplitudes)
        scattered[1 << np.arange(got.size)[::-1]] = got
        assert np.max(np.abs(scattered - want.amplitudes)) <= 2.2e-16
        assert not want.amplitudes[scattered == 0].any()
    # The report's numbers are closed forms of c, where the dense run sums
    # up to 2^(2n) terms (at most 2.0e-15 apart for n <= 8).
    for field in ("overlap", "success_probability"):
        assert abs(getattr(report, field) - getattr(dense_report, field)) <= 1e-14
    assert np.max(np.abs(np.subtract(report.ancilla_purities, dense_report.ancilla_purities))) <= 1e-14
    # `prepare` prints the output as `relabel` renders the dense one.
    for role in (PHOTON, SPIN):
        argv = ["prepare", "--n", str(n), "--mode", mode, "--role", role.kind]
        assert main(argv + ["--out", str(tmp_path / "p.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == relabel(dense_out, role)


def test_pair_doubling_rejects_a_stage_out_of_range():
    stage, _ = double_w_pairs(3, "block")
    for k in (-1, 5):
        with pytest.raises(ValueError, match=r"^stage must be in 0\.\.4, got %d$" % k):
            stage(k)


@pytest.mark.parametrize("entry", [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)])
def test_weight_one_doubling_rejects_a_map_that_changes_the_weight(entry, monkeypatch):
    v, w = (m.copy() for m in _expansion_map(NoiseParams()))
    v[entry] = 1e-300
    monkeypatch.setattr(wcircuit, "_expansion_map", lambda noise: (v, w))
    message = r"^V\[%d, %d, %d\] = \(1e-300\+0j\) changes the number of excitations" % entry
    for mode in ("block", "sequential"):
        with pytest.raises(ValueError, match=message):
            double_w_pairs(2, mode)


def test_weight_one_doubling_rejects_a_leaking_ancilla(monkeypatch):
    v, w = (m.copy() for m in _expansion_map(NoiseParams()))
    w[1, 0, 1] = 1e-300
    monkeypatch.setattr(wcircuit, "_expansion_map", lambda noise: (v, w))
    with pytest.raises(ValueError, match=r"^W, the map onto ancilla \|1>, is not zero"):
        double_w_pairs(2, "sequential")


def test_pair_doubling_rejects_a_phase_on_the_vacuum(monkeypatch):
    # Round k's unexpanded qubits would carry V[0,0,0]^k, and pair i
    # V[0,0,0]^(k-1-i): no longer one closed form per round.
    v, w = (m.copy() for m in _expansion_map(NoiseParams()))
    v[0, 0, 0] = 1j
    monkeypatch.setattr(wcircuit, "_expansion_map", lambda noise: (v, w))
    for mode in ("block", "sequential"):
        with pytest.raises(ValueError, match=r"^V\[0, 0, 0\] = 1j; the pair doubling needs it to be 1$"):
            double_w_pairs(2, mode)


def test_pair_doubling_rejects_a_map_that_loses_the_excitation(monkeypatch):
    # c = V|1> = 0 passes the weight checks; it is rejected by name before
    # the output would divide 0 by 0 (pyproject turns numpy's warning into
    # an error, so a division would fail this test).
    v, w = (m.copy() for m in _expansion_map(NoiseParams()))
    v[0, 1, 1] = v[1, 0, 1] = 0
    monkeypatch.setattr(wcircuit, "_expansion_map", lambda noise: (v, w))
    for mode in ("block", "sequential"):
        with pytest.raises(ValueError, match=r"^c = V\|1> has \|c\|\^2 = 0\.0; the pair doubling"):
            double_w_pairs(2, mode)


def test_role_labels_are_single_characters():
    with pytest.raises(ValueError, match=r"^role labels must be single characters"):
        wcircuit.QubitRole("photon", "R0", "L1")


def test_interleave_matches_pairwise_swap_list_on_doubling_input():
    # 1-based pairs (2,7), (3,4), (5,9) applied in that order.
    reg = tensor(build_w_state(3), zero_state(6))
    via_perm = permute(reg, interleave_permutation(3))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    assert np.max(np.abs(via_perm.amplitudes - via_swaps.amplitudes)) < 1e-12


def _fixed_register_sequential_doubling(n, noise=None):
    """Sequential doubling on the dense register (anc, w_0..w_{n-1}, new_0..new_i) of round i.

    Each round puts a fresh ancilla first and a fresh new qubit last, so
    that the post-selected half is contiguous, as the kernel writes it.  A
    register holding every new qubit from the start would hold the live
    amplitudes at a stride, and a strided norm rounds differently.
    """
    reg = build_w_state(n)
    prob, purities = 1.0, []
    for i in range(n):
        reg = tensor(tensor(zero_state(1), reg), zero_state(1))
        reg = apply_8x8(reg, 1 + i, 0, 1 + n + i, noise)
        purities.append(partial_trace(reg, {0}).purity())
        reg, p = postselect_zero(reg, [0])
        prob *= p
    fidelity = prob * fidelity_pure(reg, build_w_state(2 * n))
    return reg, fidelity, prob, purities


def _assert_matches_fixed_register(n, noise=None):
    # Bit for bit with ideal gates.  Under noise the kernel's two products
    # per amplitude cannot round as the 8x8 contraction's fused sum does;
    # over 1500 noise points at n <= 6 the amplitudes sat within 4.9e-32,
    # the probabilities and fidelities were equal and the purities within
    # 2.2e-16.
    out, report = double_w(n, "sequential", noise)
    ref, fidelity, prob, purities = _fixed_register_sequential_doubling(n, noise)
    if noise is None:
        assert np.array_equal(out.amplitudes, ref.amplitudes)
    else:
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-15
    assert abs(report.fidelity - fidelity) <= 1e-15
    assert abs(report.success_probability - prob) <= 1e-15
    assert len(report.ancilla_purities) == n
    for got, want in zip(report.ancilla_purities, purities):
        assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_growing_sequential_register_matches_the_fixed_one(n):
    _assert_matches_fixed_register(n)


_SMALL_ANGLE = st.floats(0.0, np.pi / 30, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), _SMALL_ANGLE, _SMALL_ANGLE, _SMALL_ANGLE)
def test_noisy_growing_sequential_register_matches_the_fixed_one(n, alpha, beta, gamma):
    _assert_matches_fixed_register(n, NoiseParams(alpha, beta, gamma))


def _block_register_doubling(n, noise=None):
    """Block doubling on a 3n-qubit register (anc_0..anc_{n-1}, w_0..w_{n-1}, new_0..new_{n-1}).

    Every ancilla's purity is read off the full register before one joint
    projection of all n ancillas, whose |0...0> block comes first and so is
    contiguous, as the kernel writes it.  ``verify`` runs the 12 gates on
    the paper's interleaved triples, one by one, against ``double_w``.

    The purities are read off the register renormalized: after n noisy
    8x8s its norm drifts by up to about 5e-15, which a purity doubles.
    """
    reg = tensor(zero_state(n), tensor(build_w_state(n), zero_state(n)))
    for i in range(n):
        reg = apply_8x8(reg, n + i, i, 2 * n + i, noise)
    unit = StateVector(reg.amplitudes / np.linalg.norm(reg.amplitudes))
    purities = [partial_trace(unit, {a}).purity() for a in range(n)]
    out, prob = postselect_zero(reg, range(n))
    return out, prob * fidelity_pure(out, build_w_state(2 * n)), prob, purities


def _assert_matches_block_register(n, noise=None):
    # Block mode reads each ancilla's 2x2 off w_i's 2x2 in |W_n>, where the
    # oracle sums over the 3n register; over 1500 noise points at n <= 4 the
    # probabilities and fidelities were equal and the amplitudes within
    # 2.5e-32, and over 400 points in [0, pi/30]^3 (seed 7) the purities sat
    # within 3.2e-15 of the renormalized oracle's (9.1e-15 without it).
    out, report = double_w(n, "block", noise)
    ref, fidelity, prob, purities = _block_register_doubling(n, noise)
    if noise is None:
        assert np.array_equal(out.amplitudes, ref.amplitudes)
    else:
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-15
    assert abs(report.fidelity - fidelity) <= 1e-15
    assert abs(report.success_probability - prob) <= 1e-15
    assert len(report.ancilla_purities) == n
    for got, want in zip(report.ancilla_purities, purities):
        assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("n", range(1, 7))
def test_block_doubling_matches_the_3n_qubit_register(n):
    _assert_matches_block_register(n)


@pytest.mark.parametrize("n", [7, 8])
def test_block_doubling_reaches_w2n_past_the_3n_register_oracle(n):
    # The 3n-qubit oracle would need 2^24 amplitudes at n = 8; block mode
    # holds at most 2n qubits.
    out, report = double_w(n, "block")
    assert np.max(np.abs(out.amplitudes - build_w_state(2 * n).amplitudes)) <= 1e-15
    assert abs(1.0 - report.fidelity) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), _SMALL_ANGLE, _SMALL_ANGLE, _SMALL_ANGLE)
def test_noisy_block_doubling_matches_the_3n_qubit_register(n, alpha, beta, gamma):
    _assert_matches_block_register(n, NoiseParams(alpha, beta, gamma))


@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(0.1, -0.2, 0.3)], ids=["ideal", "noisy"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_register_run_matches_the_fused_block_register(n, noise):
    # verify's reference runs the 12 gates one by one on the paper's
    # interleaved triples; this oracle runs one 8x8 per triple, ancillas
    # first.  At n <= 5 the two sat within 3.4e-16 and P within 1.6e-15.
    out, prob = _register_doubling(n, noise)
    ref, _, ref_prob, _ = _block_register_doubling(n, noise)
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-15
    assert abs(prob - ref_prob) <= 1e-14


@pytest.mark.parametrize("n", [1, 4, 8])
def test_sequential_register_grows_by_one_qubit_per_round(n, monkeypatch):
    sizes = []
    real_expand_qubit = wcircuit.expand_qubit

    def recording_expand_qubit(psi, *args, **kwargs):
        sizes.append(psi.size.bit_length() - 1)
        return real_expand_qubit(psi, *args, **kwargs)

    monkeypatch.setattr(wcircuit, "expand_qubit", recording_expand_qubit)
    double_w(n, "sequential")
    assert sizes == list(range(n, 2 * n))


# ---------------------------------------------------------------------------
# The exact ideal operator and the sequential rounds
# ---------------------------------------------------------------------------

def test_ideal_operator_is_the_expansion_matrix_and_noisy_is_the_batched_one(monkeypatch):
    def no_composition(self):
        raise AssertionError("the operator must not be composed from the 12 gates")

    monkeypatch.setattr(ExpansionCircuit, "matrix", no_composition)
    v, w = _expansion_map(NoiseParams())
    columns = EXPANSION_MATRIX.reshape(2, 2, 2, 8)[..., [0, 4]]
    assert np.array_equal(v, columns[:, 0])
    assert not w.any()
    for angles in ((0.01, 0.02, 0.03), (0.01, -0.02, 0.03)):
        v, w = _expansion_map(NoiseParams(*angles))
        batched_v, batched_w = expansion_maps(*angles)
        assert np.array_equal(v, batched_v[0])
        assert np.array_equal(w, batched_w[0])


_DOUBLING_RUNS = [(mode, n) for mode in ("block", "sequential") for n in range(1, 9)]


@pytest.mark.parametrize("mode, n", _DOUBLING_RUNS)
def test_ideal_ancillas_are_exactly_zero_and_never_gathered(mode, n, monkeypatch):
    # The exact operator maps the protocol's inputs |x,0,0> onto ancilla-|0>
    # rows only: its ancilla-|1> rows are exact zeros on columns 0 and 4, so
    # each ancilla's 2x2 is the input's norm alone, with no contiguous copy
    # of any register.
    assert not EXPANSION_MATRIX[[2, 3, 6, 7]][:, [0, 4]].any()
    _, w = _expansion_map(NoiseParams())
    assert not w.any()
    gathers = []
    real_contiguous = np.ascontiguousarray

    def counting_contiguous(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "wexpand.statevec":
            gathers.append(args[0].shape)
        return real_contiguous(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", counting_contiguous)
    double_w(n, mode)
    assert gathers == []


def _random_register(draw_seed, num_qubits):
    rng = np.random.default_rng(draw_seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


@st.composite
def _kernel_cases(draw):
    m = draw(st.integers(1, 7))
    target = draw(st.integers(0, m - 1))
    noisy = draw(st.booleans())
    noise = NoiseParams(*(draw(_SMALL_ANGLE) for _ in range(3))) if noisy else NoiseParams()
    return _random_register(draw(st.integers(0, 2**32 - 1)), m), target, noise


def _dense_expansion(state, target, noise):
    """The kernel's dense oracle: the 8x8 on (target, ancilla, new), with
    ``state`` between a fresh ancilla, put first, and a fresh new qubit.

    Its ancilla-|0> half is the first, contiguous one, as the kernel's
    output is: the norm of a sum rounds with the order and stride of its
    terms.
    """
    reg = tensor(tensor(zero_state(1), state), zero_state(1))
    return apply_8x8(reg, 1 + target, 0, state.num_qubits + 1, noise)


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_expand_qubit_matches_the_dense_8x8_on_a_fresh_pair(case):
    # The oracle projects its ancilla onto |0> with `postselect_zero`, and
    # reads the ancilla's 2x2 before the projection.
    state, target, noise = case
    m = state.num_qubits
    dense = _dense_expansion(state, target, noise)
    want = dense.amplitudes[: 1 << (m + 1)]
    want_state, want_prob = postselect_zero(dense, [0])
    v, w = _expansion_map(noise)
    got = expand_qubit(state.amplitudes, target, v)
    got_state, prob = _normalized(got)
    if noise.is_ideal:
        assert np.array_equal(got, want)
        assert np.array_equal(got_state.amplitudes, want_state.amplitudes)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(got_state.amplitudes - want_state.amplitudes)) <= 1e-15
    assert abs(prob - want_prob) <= 1e-15
    want_rho = _qubit_density(dense, 0)
    for p0 in (None, prob):
        rho = _ancilla_density(state, target, v, w, p0)
        assert np.max(np.abs(rho - want_rho)) <= 1e-15


def test_expand_qubit_rejects_a_target_out_of_range():
    v, _ = _expansion_map(NoiseParams())
    with pytest.raises(ValueError, match="target 3 out of range for 3 qubits"):
        expand_qubit(build_w_state(3).amplitudes, 3, v)


@pytest.mark.parametrize(
    "v",
    [expansion_maps([0.01, 0.02], 0, 0)[0], np.ones((2, 2, 3))],
    ids=["a stack of two maps", "a 2x2x3 map"],
)
def test_expand_qubit_rejects_a_map_of_the_wrong_shape(v):
    with pytest.raises(ValueError, match=r"v must be one 4x2 map of shape \(2, 2, 2\)"):
        expand_qubit(build_w_state(3).amplitudes, 1, v)


class _NanEmptyNumpy:
    """numpy, but ``empty`` returns arrays filled with NaN (real and imaginary)."""

    def __init__(self):
        self.empty_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float, **kwargs):
        self.empty_calls += 1
        a = np.full(shape, np.nan, dtype=dtype, **kwargs)
        if np.iscomplexobj(a):
            a.imag = np.nan
        return a


@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(0.03, 0.02, 0.05)], ids=["ideal", "noisy"])
def test_expand_qubit_writes_every_amplitude_of_its_buffer(noise, monkeypatch):
    # With ideal gates the row v[1, 1] is exactly zero, so only an explicit
    # zero fill writes those amplitudes of the uninitialised buffer.
    state = _random_register(11, 5)
    v, _ = _expansion_map(noise)
    wants = [_dense_expansion(state, t, noise).amplitudes[: 1 << 6] for t in range(5)]
    nan_numpy = _NanEmptyNumpy()
    monkeypatch.setattr(wcircuit, "np", nan_numpy)
    for target, want in enumerate(wants):
        got = expand_qubit(state.amplitudes, target, v)
        assert np.isfinite(got).all()
        if noise.is_ideal:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15
    assert nan_numpy.empty_calls == 5


@pytest.mark.parametrize("n, mode, bound_mib", [(6, "block", 0.25),
                                               (8, "sequential", 4.5),
                                               (8, "block", 3.5)],
                         ids=["block-6", "sequential-8", "block-8"])
def test_doubling_peak_memory_stays_below_the_old_register(n, mode, bound_mib):
    # Block n = 6's old 3n-qubit register peaked at 12.1 MiB; it peaks at
    # 0.19 MiB now that every new qubit is appended last, with no regroup.
    # Sequential n = 8 peaks at 4.0 MiB (9.0 on the old appended fresh
    # pair, 5.0 with a buffer for each round's ancilla): its last round
    # writes 2^16 amplitudes, 1 MiB, beside the rounds it keeps, the
    # normalized copy and the target |W_16>.  Block n = 8 peaks at 3.0 MiB
    # on the same 2^16-amplitude register, keeping no rounds.
    double_w(n, mode)  # a first call's one-off allocations are not the run's
    tracemalloc.start()
    try:
        double_w(n, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_round_permutation_puts_each_joined_qubit_after_its_source():
    # Round 2 of n = 3: (w0, w1, w2, new0, new1) -> (w0, new0, w1, new1, w2).
    assert round_permutation(3, 2).map == (0, 2, 4, 1, 3)
    assert round_permutation(3, 0).map == (0, 1, 2)
    assert round_permutation(3, 3).map == (0, 2, 4, 1, 3, 5)
    assert round_permutation(1, 1).map == (0, 1)


def _dense_chain_round(state, k, u):
    """Join one qubit after qubit k of ``state`` the dense way, with the 8x8 ``u``.

    Appends a fresh |0>|0> (new, ancilla), contracts ``u`` on (qubit k,
    ancilla, new), projects the ancilla onto |0> and moves the new qubit
    in after qubit k.
    """
    m = state.num_qubits
    reg = apply_unitary(tensor(state, zero_state(2)), u, (k, m + 1, m))
    reg, _ = postselect_zero(reg, [m + 1])
    return permute(reg, QubitPermutation(tuple(range(k + 1)) + tuple(range(k + 2, m + 1)) + (k + 1,)))


def _chain_rounds(n, noise=None):
    """|W_n> grown by n dense rounds, round k joining its qubit after w_k.

    Each round contracts the 8x8 composed from the 12 gates over a fresh
    pair, sharing neither the operator nor the kernel that `double_w` uses.
    """
    composed = standard_expansion_circuit(noise).matrix()
    rounds = [build_w_state(n)]
    for k in range(n):
        rounds.append(_dense_chain_round(rounds[-1], 2 * k, composed))
    return rounds


def _assert_rounds_match_the_chain(n, noise=None):
    out, report = double_w(n, "sequential", noise)
    chain = _chain_rounds(n, noise)
    assert len(report.rounds) == n + 1
    assert report.rounds[-1] is out
    for k, (got, want) in enumerate(zip(report.rounds, chain)):
        assert got.num_qubits == n + k
        traced = permute(got, round_permutation(n, k))
        assert np.max(np.abs(traced.amplitudes - want.amplitudes)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_sequential_rounds_match_the_expand_by_one_chain(n):
    _assert_rounds_match_the_chain(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), _SMALL_ANGLE, _SMALL_ANGLE, _SMALL_ANGLE)
def test_noisy_sequential_rounds_match_the_noisy_chain(n, alpha, beta, gamma):
    _assert_rounds_match_the_chain(n, NoiseParams(alpha, beta, gamma))


def test_block_mode_keeps_no_rounds():
    _, report = double_w(3, "block")
    assert report.rounds == ()


def test_doubling_is_deterministic():
    a, _ = double_w(3, "sequential")
    b, _ = double_w(3, "sequential")
    assert np.array_equal(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# Role labeling
# ---------------------------------------------------------------------------

def test_relabel_photonic_bell():
    assert relabel(create_epr(), PHOTON) == "(|LR⟩+|RL⟩)/√2"


def test_relabel_spin_bell():
    assert relabel(create_epr(), SPIN) == "(|-+⟩+|+-⟩)/√2"


def test_relabel_all_zero_photonic():
    assert relabel(zero_state(4), PHOTON) == "|RRRR⟩"


def test_relabel_does_not_change_amplitudes():
    # Equal amplitudes are written over their common denominator, unequal
    # ones each beside its relabeled term, as the state holds them.
    assert relabel(build_w_state(3), SPIN) == "(|-++⟩+|+-+⟩+|++-⟩)/√3"
    grown = expand_by_one(build_w_state(2), 0)
    assert relabel(grown, SPIN) == "0.5|-++⟩ + 0.5|+-+⟩ + 0.707107|++-⟩"
