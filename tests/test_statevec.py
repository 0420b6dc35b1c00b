"""State-vector engine: kernels, partial trace, fidelity, permutations."""
import numpy as np
import pytest

from wexpand.statevec import (
    DensityMatrix,
    MixedStateError,
    QubitPermutation,
    StateVector,
    apply_1q,
    apply_2q,
    apply_controlled,
    apply_unitary,
    basis_state,
    extract_pure,
    fidelity_mixed,
    fidelity_pure,
    operation_matrix,
    partial_trace,
    permute,
    postselect_zero,
    tensor,
    zero_state,
)

S2 = 1.0 / np.sqrt(2.0)
H = np.array([[1, 1], [1, -1]], dtype=complex) * S2
TP = np.array(
    [[np.cos(np.pi / 8), np.sin(np.pi / 8)], [np.sin(np.pi / 8), -np.cos(np.pi / 8)]],
    dtype=complex,
)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v))


def test_index_convention_msb_first():
    # Qubit 0 is the most significant bit: |100> sits at index 4.
    assert basis_state("100").amplitudes[4] == 1.0
    assert basis_state("001").amplitudes[1] == 1.0


def test_apply_hadamard_to_zero():
    out = apply_1q(basis_state("0"), H, 0)
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-15)


def test_apply_t_prime_on_middle_qubit_matches_kron_oracle():
    state = basis_state("100")
    expected = np.kron(np.kron(np.eye(2), TP), np.eye(2)) @ state.amplitudes
    out = apply_1q(state, TP, 1)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)
    # |1>(cos pi/8 |0> + sin pi/8 |1>)|0>
    np.testing.assert_allclose(out.amplitudes[4], np.cos(np.pi / 8), atol=1e-15)
    np.testing.assert_allclose(out.amplitudes[6], np.sin(np.pi / 8), atol=1e-15)


def test_apply_identity_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    state = random_state(4, rng)
    out = apply_1q(state, np.eye(2, dtype=complex), 2)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_apply_1q_rejects_bad_target_and_nonunitary():
    state = basis_state("00")
    with pytest.raises(ValueError):
        apply_1q(state, H, 2)
    with pytest.raises(ValueError):
        apply_1q(state, np.array([[1, 1], [0, 1]], dtype=complex), 0)


def test_cz_on_11_flips_sign():
    out = apply_controlled(basis_state("11"), Z, 0, 1)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=1e-15)


def test_cz_on_10_unchanged():
    out = apply_controlled(basis_state("10"), Z, 0, 1)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_controlled_phase_imperfect_angle():
    gamma = 0.37
    phase = np.diag([1.0, -np.exp(-1j * gamma)])
    out = apply_controlled(basis_state("11"), phase, 0, 1)
    np.testing.assert_allclose(out.amplitudes[3], np.exp(1j * (np.pi - gamma)), atol=1e-15)


def test_apply_controlled_rejects_equal_indices():
    with pytest.raises(ValueError):
        apply_controlled(basis_state("00"), Z, 1, 1)


def test_cz_symmetric_under_control_target_swap():
    m1 = operation_matrix(lambda s: apply_controlled(s, Z, 0, 2), 3)
    m2 = operation_matrix(lambda s: apply_controlled(s, Z, 2, 0), 3)
    assert np.max(np.abs(m1 - m2)) < 1e-14


def test_apply_2q_matches_kron_oracle():
    rng = np.random.default_rng(3)
    cz4 = np.diag([1, 1, 1, -1]).astype(complex)
    state = random_state(3, rng)
    expected = np.kron(cz4.reshape(4, 4), np.eye(1))  # placeholder to keep shapes obvious
    full = np.kron(np.eye(2), cz4)  # acts on qubits (1, 2)
    np.testing.assert_allclose(
        apply_2q(state, cz4, 1, 2).amplitudes, full @ state.amplitudes, atol=1e-15
    )


def test_apply_unitary_on_unordered_qubits_matches_kron_oracle():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    state = random_state(4, rng)
    # Move (2, 0, 3) to the front in that order, apply q there, move back.
    perm = QubitPermutation((1, 3, 0, 2))
    moved = permute(state, perm).amplitudes
    expected = permute(StateVector(np.kron(q, np.eye(2)) @ moved), perm.inverse())
    out = apply_unitary(state, q, (2, 0, 3))
    np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-14)
    with pytest.raises(ValueError):
        apply_unitary(state, q, (2, 0, 2))
    with pytest.raises(ValueError):
        apply_unitary(state, q, (2, 0, 4))
    with pytest.raises(ValueError):
        apply_unitary(state, q[:, ::-1] * 2, (0, 1, 2))


def test_terms_lists_the_amplitudes_above_tolerance_in_index_order():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        v[rng.random(1 << n) < 0.5] = 0.0
        v[0] = 1.0
        v[-1] = 1e-11  # below the default tolerance
        state = StateVector(v / np.linalg.norm(v))
        for tol in (1e-10, 0.1):
            expected = [
                (format(i, f"0{n}b"), complex(a))
                for i, a in enumerate(state.amplitudes)
                if abs(a) > tol
            ]
            assert state.terms(tol) == expected


def test_partial_trace_bell_pair_from_three_qubits():
    # Tracing the middle qubit of (|100> + |001>)/sqrt(2) leaves a pure Bell pair.
    amps = np.zeros(8, dtype=complex)
    amps[4] = amps[1] = S2
    rho = partial_trace(StateVector(amps), {0, 2})
    bell = np.zeros(4, dtype=complex)
    bell[2] = bell[1] = S2
    np.testing.assert_allclose(rho.entries, np.outer(bell, bell.conj()), atol=1e-15)


def test_partial_trace_product_state():
    rho = partial_trace(basis_state("00"), {0})
    np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_bell_gives_maximally_mixed():
    bell = StateVector(np.array([S2, 0, 0, S2], dtype=complex))
    rho = partial_trace(bell, {0})
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(basis_state("00"), set())


def test_partial_trace_is_trace_one_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_state(5, rng)
        keep = sorted(rng.choice(5, size=int(rng.integers(1, 5)), replace=False))
        rho = partial_trace(state, keep)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12


def test_extract_pure_rank_one():
    rng = np.random.default_rng(5)
    psi = random_state(3, rng)
    rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    out = extract_pure(rho)
    assert abs(1.0 - fidelity_pure(out, psi)) < 1e-12


def test_extract_pure_rejects_maximally_mixed():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(MixedStateError) as err:
        extract_pure(rho)
    assert abs(err.value.purity - 0.5) < 1e-12


def test_extract_pure_recovers_doubling_output_against_eigh_oracle():
    # Ideal doubling register, ancillas traced: the reduced state is pure and
    # extract_pure must match a test-local eigendecomposition.
    from wexpand.wcircuit import apply_O, build_w_state, interleave_permutation

    reg = tensor(build_w_state(2), zero_state(4))
    reg = permute(reg, interleave_permutation(2))
    for i in range(2):
        reg = apply_O(reg, 3 * i, 3 * i + 1, 3 * i + 2)
    rho = partial_trace(reg, {0, 2, 3, 5})
    got = extract_pure(rho)
    evals, evecs = np.linalg.eigh(rho.entries)
    oracle = evecs[:, -1]
    overlap = abs(np.vdot(oracle, got.amplitudes))
    assert abs(overlap - 1.0) < 1e-12
    assert abs(1.0 - fidelity_pure(got, build_w_state(4))) < 1e-12


def test_extract_pure_phase_convention():
    psi = StateVector(np.array([0, 1j * S2, -S2, 0], dtype=complex))
    rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    out = extract_pure(rho)
    # First nonzero amplitude comes out real and positive.
    assert out.amplitudes[1].real > 0 and abs(out.amplitudes[1].imag) < 1e-12


def test_fidelity_pure_trivial_cases():
    rng = np.random.default_rng(2)
    psi = random_state(3, rng)
    assert abs(fidelity_pure(psi, psi) - 1.0) < 1e-12
    assert fidelity_pure(basis_state("0"), basis_state("1")) == 0.0
    with pytest.raises(ValueError):
        fidelity_pure(basis_state("0"), basis_state("00"))


def test_fidelity_mixed_maximally_mixed():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert abs(fidelity_mixed(rho, basis_state("0")) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity_mixed(rho, basis_state("00"))


def test_permute_swap_and_identity():
    swapped = permute(basis_state("01"), QubitPermutation.swap(2, 0, 1))
    np.testing.assert_allclose(swapped.amplitudes, basis_state("10").amplitudes)
    rng = np.random.default_rng(17)
    state = random_state(4, rng)
    same = permute(state, QubitPermutation.identity(4))
    np.testing.assert_allclose(same.amplitudes, state.amplitudes)


def test_permute_rejects_size_mismatch():
    with pytest.raises(ValueError):
        permute(basis_state("000"), QubitPermutation.identity(2))


def test_swap_sequence_equals_composed_permutation():
    # Three pairwise swaps applied one by one equal the single composed map.
    rng = np.random.default_rng(23)
    state = random_state(9, rng)
    swaps = [(1, 6), (2, 3), (4, 8)]
    seq = state
    for i, j in swaps:
        seq = permute(seq, QubitPermutation.swap(9, i, j))
    composed = QubitPermutation.identity(9)
    for i, j in swaps:
        composed = composed.then(QubitPermutation.swap(9, i, j))
    once = permute(state, composed)
    assert np.max(np.abs(seq.amplitudes - once.amplitudes)) < 1e-14


def test_permutation_inverse_roundtrip_on_random_states():
    rng = np.random.default_rng(29)
    for _ in range(20):
        perm = QubitPermutation(tuple(rng.permutation(6)))
        state = random_state(6, rng)
        back = permute(permute(state, perm), perm.inverse())
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-14


def test_norm_drift_under_long_gate_sequence():
    # 1000 mixed gate applications on 12 qubits keep the norm within 1e-12.
    rng = np.random.default_rng(41)
    state = random_state(12, rng)
    cp = lambda g: np.diag([1.0, 1.0, 1.0, -np.exp(-1j * g)]).astype(complex)
    rot = lambda t: np.array(
        [[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]], dtype=complex
    )
    for k in range(1000):
        if k % 3 == 2:
            a, b = rng.choice(12, size=2, replace=False)
            state = apply_2q(state, cp(rng.uniform(0, np.pi)), int(a), int(b))
        else:
            state = apply_1q(state, rot(rng.uniform(0, np.pi)), int(rng.integers(12)))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_postselect_zero_extracts_component():
    # (|100> + |001>)/sqrt(2): fixing the middle qubit at |0> keeps everything.
    amps = np.zeros(8, dtype=complex)
    amps[4] = amps[1] = S2
    kept, prob = postselect_zero(StateVector(amps), [1])
    assert abs(prob - 1.0) < 1e-12
    np.testing.assert_allclose(kept.amplitudes, [0, S2, S2, 0], atol=1e-15)
    # |+>|0>: projecting the first qubit keeps half the weight.
    plus = tensor(StateVector(np.array([S2, S2])), zero_state(1))
    kept, prob = postselect_zero(plus, [0])
    assert abs(prob - 0.5) < 1e-12
    np.testing.assert_allclose(kept.amplitudes, [1, 0], atol=1e-15)


def test_statevector_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0], dtype=complex))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))
    ok = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert abs(ok.purity() - 0.25) < 1e-12


def test_statevector_copies_a_callers_array():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    kept = v.copy()
    # A writable array, and a read-only view whose base stays writable.
    view = v.view()
    view.setflags(write=False)
    states = [StateVector(v), StateVector(view), StateVector(v.reshape(2, 4))]
    v[:] = 0.0
    for state in states:
        assert not state.amplitudes.flags.writeable
        assert not np.shares_memory(state.amplitudes, v)
        assert state.amplitudes.tobytes() == kept.tobytes()


def _kernel_outputs(state):
    """(name, input state, output state) for every kernel that allocates a register."""
    n = state.num_qubits
    yield "apply_unitary", state, apply_unitary(state, H, (n - 1,))
    yield "apply_unitary in order", state, apply_unitary(state, np.kron(H, TP), (0, 1))
    yield "apply_controlled", state, apply_controlled(state, H, 0, n - 1)
    fresh = zero_state(2)
    yield "tensor (left)", state, tensor(state, fresh)
    yield "tensor (right)", fresh, tensor(state, fresh)
    yield "permute", state, permute(state, QubitPermutation.swap(n, 0, n - 1))
    yield "permute (identity)", state, permute(state, QubitPermutation.identity(n))
    yield "postselect_zero (leading qubit)", state, postselect_zero(state, [0])[0]
    yield "postselect_zero (last qubit)", state, postselect_zero(state, [n - 1])[0]


def test_kernel_outputs_are_read_only_and_share_no_memory_with_their_input():
    state = random_state(4, np.random.default_rng(12))
    for name, inp, out in _kernel_outputs(state):
        assert not out.amplitudes.flags.writeable, name
        assert not np.shares_memory(out.amplitudes, inp.amplitudes), name
        # Nothing writable stands behind the adopted array either.
        base = out.amplitudes.base
        while base is not None:
            assert not base.flags.writeable, name
            base = base.base


def test_statevector_adopts_a_sealed_array_without_a_copy():
    state = random_state(3, np.random.default_rng(13))
    assert StateVector(state.amplitudes).amplitudes is state.amplitudes
