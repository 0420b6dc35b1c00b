"""Expansion circuit, W-state growth and the doubling protocol."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wexpand.gates import NoiseParams, controlled_phase, hadamard, t_prime
from wexpand.statevec import (
    QubitPermutation,
    StateVector,
    _qubit_density,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    postselect_zero,
    tensor,
    zero_state,
)
from wexpand.wcircuit import (
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    AncillaStateError,
    CircuitStep,
    DoublingPlan,
    ExpansionCircuit,
    apply_O,
    build_w_state,
    create_epr,
    double_w,
    expand_by_one,
    expansion_unitaries,
    interleave_permutation,
    _expansion_unitary,
    _require_zero_slot,
    relabel,
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
    two_q = [s for s in circ.steps if s.gate.arity == 2]
    assert len(two_q) == 4
    orders = [s.order_index for s in circ.steps]
    assert orders == sorted(orders) and len(set(orders)) == 12
    assert circ.roles == {0: "input1", 1: "ancilla", 2: "input2"}


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
    from wexpand.statevec import operation_matrix

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


def test_circuit_constructor_rejects_wrong_step_count():
    steps = tuple(
        CircuitStep(hadamard(), (0,), k + 1) for k in range(6)
    )
    with pytest.raises(ValueError):
        ExpansionCircuit(steps)


# ---------------------------------------------------------------------------
# apply_O
# ---------------------------------------------------------------------------

def test_apply_O_splits_excitation():
    out = apply_O(basis_state("100"), 0, 1, 2)
    np.testing.assert_allclose(out.amplitudes, vec({4: S2, 1: S2}, 3), atol=1e-12)


def test_apply_O_term_splitting_coefficients():
    # A 1/sqrt(n) excitation splits into two 1/sqrt(2n) terms; the rest keep 1/sqrt(n).
    n = 3
    reg = tensor(build_w_state(n), zero_state(2))  # new at 3, anc at 4
    out = apply_O(reg, 1, 4, 3, check=True)
    amps = out.amplitudes.reshape((2,) * 5)
    assert abs(amps[0, 1, 0, 0, 0] - 1 / np.sqrt(6)) < 1e-12  # kept excitation
    assert abs(amps[0, 0, 0, 1, 0] - 1 / np.sqrt(6)) < 1e-12  # transferred
    assert abs(amps[1, 0, 0, 0, 0] - 1 / np.sqrt(3)) < 1e-12  # untouched terms
    assert abs(amps[0, 0, 1, 0, 0] - 1 / np.sqrt(3)) < 1e-12


def test_apply_O_twice_builds_weighted_three_qubit_state():
    reg = tensor(basis_state("1"), zero_state(2))
    reg = apply_O(reg, 0, 1, 2)
    reg, _ = postselect_zero(reg, [1])  # Bell pair on (0, 1)
    reg = tensor(reg, zero_state(2))  # new qubit at 2, fresh ancilla at 3
    reg = apply_O(reg, 0, 3, 2)
    reg, _ = postselect_zero(reg, [3])
    # Slide the joined qubit next to its source to read the usual ordering.
    reg = permute(reg, QubitPermutation.swap(3, 1, 2))
    expected = vec({0b100: 0.5, 0b010: 0.5, 0b001: S2}, 3)
    np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-12)


def test_apply_O_rejects_duplicate_slots_and_bad_ancilla():
    state = basis_state("100")
    with pytest.raises(ValueError):
        apply_O(state, 0, 0, 2)
    with pytest.raises(AncillaStateError):
        apply_O(basis_state("110"), 0, 1, 2)  # ancilla in |1>
    with pytest.raises(AncillaStateError):
        apply_O(basis_state("101"), 0, 1, 2)  # second input in |1>
    # The error carries the slot's reduced state, as a partial trace gives it.
    rng = np.random.default_rng(5)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    state = StateVector(v / np.linalg.norm(v))
    with pytest.raises(AncillaStateError) as err:
        apply_O(state, 0, 2, 4)
    assert err.value.slot == "ancilla"
    assert np.max(np.abs(err.value.reduced - _gram_reduced(state, 2))) < 1e-15


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
            _require_zero_slot(state, q, "ancilla")
        else:
            # A random slot is far from |0>: the error carries the same 2x2.
            with pytest.raises(AncillaStateError) as err:
                _require_zero_slot(state, q, "second input")
            assert err.value.slot == "second input"
            assert err.value.reduced.tobytes() == rho.tobytes()


def test_apply_O_order_does_not_matter_on_disjoint_triples():
    reg = tensor(build_w_state(2), zero_state(4))
    reg = permute(reg, interleave_permutation(2))
    forward = apply_O(apply_O(reg, 0, 1, 2), 3, 4, 5)
    backward = apply_O(apply_O(reg, 3, 4, 5), 0, 1, 2)
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
def test_fused_apply_O_matches_the_12_gate_circuit(reg_slots, alpha, beta, gamma):
    state, (q1, anc, q2) = reg_slots
    noise = NoiseParams(alpha, beta, gamma)
    fused = apply_O(state, q1, anc, q2, noise, check=False)
    stepwise = standard_expansion_circuit(noise).apply(state, q1, anc, q2)
    assert np.max(np.abs(fused.amplitudes - stepwise.amplitudes)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(*(st.floats(-0.5, 0.5, allow_nan=False) for _ in range(3))),
        min_size=1,
        max_size=12,
    )
)
def test_batched_expansion_unitaries_match_the_circuit_matrix(points):
    alpha, beta, gamma = (np.array(x) for x in zip(*points))
    stack = expansion_unitaries(alpha, beta, gamma)
    assert stack.shape == (len(points), 8, 8)
    for u, p in zip(stack, points):
        dense = standard_expansion_circuit(NoiseParams(*p)).matrix()
        assert np.max(np.abs(u - dense)) < 1e-14


def test_batched_expansion_unitaries_broadcast_scalars_and_reject_grids():
    u = expansion_unitaries(0.0, [0.0, 0.01], 0.0)
    assert u.shape == (2, 8, 8)
    assert np.max(np.abs(u[0] - EXPANSION_MATRIX)) < 1e-14
    with pytest.raises(ValueError):
        expansion_unitaries(np.zeros((2, 2)), 0.0, 0.0)


def test_cached_expansion_unitary_is_the_read_only_operator():
    for noise in (NoiseParams(), NoiseParams(0.01, -0.02, 0.03)):
        u = _expansion_unitary(noise)
        assert u is _expansion_unitary(noise)
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
    assert np.max(np.abs(_expansion_unitary(NoiseParams()) - EXPANSION_MATRIX)) < 1e-12


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
    out = apply_O(basis_state("100"), 0, 1, 2)
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
def test_doubling_reaches_w2n(n, mode, schedule):
    out, report = double_w(DoublingPlan(n, mode, schedule))
    assert abs(1.0 - report.fidelity) < 1e-10
    assert abs(1.0 - fidelity_pure(out, build_w_state(2 * n))) < 1e-10
    assert all(abs(p - 1.0) < 1e-12 for p in report.ancilla_purities)
    assert abs(report.success_probability - 1.0) < 1e-12


def test_doubling_n1_equals_epr():
    out, _ = double_w(DoublingPlan(1, "block", "serial"))
    np.testing.assert_allclose(out.amplitudes, create_epr().amplitudes, atol=1e-12)


def test_block_and_sequential_agree_under_noise():
    noise = NoiseParams(0.03, 0.02, 0.05)
    out_b, rep_b = double_w(DoublingPlan(2, "block", "serial"), noise)
    out_s, rep_s = double_w(DoublingPlan(2, "sequential", "parallel"), noise)
    rho_b = np.outer(out_b.amplitudes, out_b.amplitudes.conj())
    rho_s = np.outer(out_s.amplitudes, out_s.amplitudes.conj())
    assert np.max(np.abs(rho_b - rho_s)) < 1e-10
    assert abs(rep_b.fidelity - rep_s.fidelity) < 1e-12


def test_noisy_ancilla_purity_below_one_is_recorded():
    _, report = double_w(DoublingPlan(2, "sequential", "serial"), NoiseParams(0.1, 0.1, 0.2))
    assert all(p < 1.0 - 1e-6 for p in report.ancilla_purities)
    assert report.success_probability < 1.0


def test_doubling_plan_caps():
    with pytest.raises(ValueError):
        DoublingPlan(7, "block", "serial")
    with pytest.raises(ValueError):
        DoublingPlan(9, "sequential", "serial")
    with pytest.raises(ValueError):
        DoublingPlan(2, "giant", "serial")
    with pytest.raises(ValueError):
        DoublingPlan(0, "block", "serial")


def test_interleave_matches_pairwise_swap_list_on_doubling_input():
    # 1-based pairs (2,7), (3,4), (5,9) applied in that order.
    reg = tensor(build_w_state(3), zero_state(6))
    via_perm = permute(reg, interleave_permutation(3))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    assert np.max(np.abs(via_perm.amplitudes - via_swaps.amplitudes)) < 1e-12


def test_doubling_is_deterministic():
    a, _ = double_w(DoublingPlan(3, "sequential", "serial"))
    b, _ = double_w(DoublingPlan(3, "sequential", "serial"))
    assert np.array_equal(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# Role labeling
# ---------------------------------------------------------------------------

def test_relabel_photonic_bell():
    assert relabel(create_epr(), PHOTON).text == "(|LR⟩+|RL⟩)/√2"


def test_relabel_spin_bell():
    assert relabel(create_epr(), SPIN).text == "(|-+⟩+|+-⟩)/√2"


def test_relabel_all_zero_photonic():
    assert relabel(zero_state(4), PHOTON).text == "|RRRR⟩"


def test_relabel_does_not_change_amplitudes():
    state = build_w_state(3)
    labeled = relabel(state, SPIN)
    amps = dict(labeled.terms)
    assert abs(amps["-++"] - 1 / np.sqrt(3)) < 1e-12
