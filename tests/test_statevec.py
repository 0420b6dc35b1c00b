"""State-vector engine: kernels, partial trace, fidelity, permutations."""
import re

import numpy as np
import pytest

from oracles import operation_matrix, postselect_zero
from wexpand.gates import NoiseParams, hadamard
from wexpand.statevec import (
    DensityMatrix,
    QubitPermutation,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from wexpand.wcircuit import (
    _expansion_map,
    build_w_state,
    expand_by_one,
    expand_qubit,
    standard_expansion_circuit,
)

S2 = 1.0 / np.sqrt(2.0)
H = np.array([[1, 1], [1, -1]], dtype=complex) * S2
TP = np.array(
    [[np.cos(np.pi / 8), np.sin(np.pi / 8)], [np.sin(np.pi / 8), -np.cos(np.pi / 8)]],
    dtype=complex,
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v))


def test_index_convention_msb_first():
    # Qubit 0 is the most significant bit: |100> sits at index 4.
    assert basis_state("100").amplitudes[4] == 1.0
    assert basis_state("001").amplitudes[1] == 1.0


def test_apply_hadamard_to_zero():
    out = apply_unitary(basis_state("0"), H, (0,))
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-15)


def test_apply_t_prime_on_middle_qubit_matches_kron_oracle():
    state = basis_state("100")
    expected = np.kron(np.kron(np.eye(2), TP), np.eye(2)) @ state.amplitudes
    out = apply_unitary(state, TP, (1,))
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)
    # |1>(cos pi/8 |0> + sin pi/8 |1>)|0>
    np.testing.assert_allclose(out.amplitudes[4], np.cos(np.pi / 8), atol=1e-15)
    np.testing.assert_allclose(out.amplitudes[6], np.sin(np.pi / 8), atol=1e-15)


def test_apply_identity_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    state = random_state(4, rng)
    out = apply_unitary(state, np.eye(2, dtype=complex), (2,))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_apply_unitary_rejects_bad_target_and_nonunitary():
    state = basis_state("00")
    with pytest.raises(ValueError, match="out of range"):
        apply_unitary(state, H, (2,))
    with pytest.raises(ValueError, match="not unitary"):
        apply_unitary(state, np.array([[1, 1], [0, 1]], dtype=complex), (0,))
    with pytest.raises(ValueError, match="expected a 4x4"):
        apply_unitary(state, H, (0, 1))


def test_cz_on_11_flips_sign():
    out = apply_unitary(basis_state("11"), CZ, (0, 1))
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=1e-15)


def test_cz_on_10_unchanged():
    out = apply_unitary(basis_state("10"), CZ, (0, 1))
    np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_controlled_phase_imperfect_angle():
    gamma = 0.37
    phase = np.diag([1.0, 1.0, 1.0, -np.exp(-1j * gamma)])
    out = apply_unitary(basis_state("11"), phase, (0, 1))
    np.testing.assert_allclose(out.amplitudes[3], np.exp(1j * (np.pi - gamma)), atol=1e-15)


def test_apply_unitary_rejects_repeated_qubits():
    with pytest.raises(ValueError, match="distinct"):
        apply_unitary(basis_state("00"), CZ, (1, 1))


def test_cz_symmetric_under_control_target_swap():
    m1 = operation_matrix(lambda s: apply_unitary(s, CZ, (0, 2)), 3)
    m2 = operation_matrix(lambda s: apply_unitary(s, CZ, (2, 0)), 3)
    assert np.max(np.abs(m1 - m2)) < 1e-14


def test_apply_unitary_on_a_qubit_pair_matches_kron_oracle():
    rng = np.random.default_rng(3)
    state = random_state(3, rng)
    full = np.kron(np.eye(2), CZ)  # acts on qubits (1, 2)
    np.testing.assert_allclose(
        apply_unitary(state, CZ, (1, 2)).amplitudes, full @ state.amplitudes, atol=1e-15
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


def test_fidelity_pure_trivial_cases():
    rng = np.random.default_rng(2)
    psi = random_state(3, rng)
    assert abs(fidelity_pure(psi, psi) - 1.0) < 1e-12
    assert fidelity_pure(basis_state("0"), basis_state("1")) == 0.0
    with pytest.raises(ValueError):
        fidelity_pure(basis_state("0"), basis_state("00"))


def test_permute_swap_and_identity():
    swapped = permute(basis_state("01"), QubitPermutation.swap(2, 0, 1))
    np.testing.assert_allclose(swapped.amplitudes, basis_state("10").amplitudes)
    rng = np.random.default_rng(17)
    state = random_state(4, rng)
    same = permute(state, QubitPermutation((0, 1, 2, 3)))
    np.testing.assert_allclose(same.amplitudes, state.amplitudes)


def test_permute_rejects_size_mismatch():
    with pytest.raises(ValueError):
        permute(basis_state("000"), QubitPermutation((0, 1)))


def test_swap_sequence_equals_composed_permutation():
    # Three pairwise swaps applied one by one equal the single composed map.
    rng = np.random.default_rng(23)
    state = random_state(9, rng)
    swaps = [(1, 6), (2, 3), (4, 8)]
    seq = state
    for i, j in swaps:
        seq = permute(seq, QubitPermutation.swap(9, i, j))
    # Qubit q ends where the swaps, applied in order, take it.
    dest = list(range(9))
    for i, j in swaps:
        dest = [j if d == i else i if d == j else d for d in dest]
    once = permute(state, QubitPermutation(tuple(dest)))
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
            state = apply_unitary(state, cp(rng.uniform(0, np.pi)), (int(a), int(b)))
        else:
            state = apply_unitary(state, rot(rng.uniform(0, np.pi)), (int(rng.integers(12)),))
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
    """(name, input state, output state) for every kernel that allocates a register.

    The post-selection oracle's state comes from the library's `_normalized`.
    """
    n = state.num_qubits
    yield "apply_unitary", state, apply_unitary(state, H, (n - 1,))
    yield "apply_unitary in order", state, apply_unitary(state, np.kron(H, TP), (0, 1))
    fresh = zero_state(2)
    yield "tensor (left)", state, tensor(state, fresh)
    yield "tensor (right)", fresh, tensor(state, fresh)
    yield "permute", state, permute(state, QubitPermutation.swap(n, 0, n - 1))
    yield "permute (identity)", state, permute(state, QubitPermutation(tuple(range(n))))
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


def _with_signed_zeros(size, rng):
    """A random state whose amplitudes include -0.0 parts and one exact zero."""
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v.real[0::3] = -0.0
    v.imag[1::2] = -0.0
    v[-1] = complex(-0.0, -0.0)
    return StateVector(v / np.linalg.norm(v))


@pytest.mark.parametrize("second", [2, 4, 8, 16])
@pytest.mark.parametrize("first", [2, 32])
def test_tensor_is_bit_identical_to_the_outer_product(first, second):
    rng = np.random.default_rng(first * 100 + second)
    a, b = _with_signed_zeros(first, rng), _with_signed_zeros(second, rng)
    expected = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    parts = np.concatenate([expected.real, expected.imag])
    assert np.any((parts == 0) & np.signbit(parts)), "no signed zero to compare"
    assert tensor(a, b).amplitudes.tobytes() == expected.tobytes()


# Each entry point that takes a qubit index, as a call on that one index
# where index 1 is valid, and the name the index is rejected under.
_QUBIT_INDEX_ENTRY_POINTS = {
    "apply_unitary": (lambda q: apply_unitary(basis_state("10"), hadamard(), [q]), "qubit"),
    "partial_trace": (lambda q: partial_trace(build_w_state(2), [q]), "qubit"),
    "postselect_zero": (lambda q: postselect_zero(basis_state("10"), [q]), "qubit"),
    "QubitPermutation": (lambda q: QubitPermutation((q, 0)), "permutation entry"),
    "QubitPermutation.swap": (lambda q: QubitPermutation.swap(3, q, 0), "i"),
    "expand_by_one": (lambda q: expand_by_one(build_w_state(2), q), "target_qubit"),
    "expand_qubit": (
        lambda q: expand_qubit(
            build_w_state(2).amplitudes, q, _expansion_map(NoiseParams())[0]
        ).tobytes(),
        "target",
    ),
    "ExpansionCircuit.apply": (
        lambda q: standard_expansion_circuit().apply(basis_state("100"), 0, q, 2), "qubit"
    ),
}


def _comparable(result):
    if isinstance(result, tuple):
        return tuple(_comparable(r) for r in result)
    for field in ("amplitudes", "entries"):
        if hasattr(result, field):
            return getattr(result, field).tobytes()
    return result


@pytest.mark.parametrize("entry", sorted(_QUBIT_INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, 1.9, True, "1"])
def test_qubit_indices_must_be_integers(entry, bad):
    # int() would truncate 0.5 and 1.9, read True as 1 and parse "1".
    call, name = _QUBIT_INDEX_ENTRY_POINTS[entry]
    message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)
    assert _comparable(call(np.int64(1))) == _comparable(call(1))


@pytest.mark.parametrize("i, j, bad", [(-1, 0, "i = -1"), (0, 3, "j = 3")])
def test_swap_rejects_a_qubit_outside_the_register(i, j, bad):
    # A negative index would otherwise count from the end of the register.
    with pytest.raises(ValueError, match=f"^{bad} out of range for 3 qubits$"):
        QubitPermutation.swap(3, i, j)
