"""The paper's anchored identities: the registry that `wexpand verify` runs.

`CHECKS` holds one `Check` per identity, in the order they run and print.
`run_verification` runs them; the acceptance suite runs the same list.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cavity as cav
from . import noise as noi
from .gates import (
    HolonomicParams,
    NoiseParams,
    controlled_phase,
    hadamard,
    holonomic_gate,
    hwp_gate,
    phase_aligned_deviation,
    t_prime,
)
from .statevec import (
    QubitPermutation,
    StateVector,
    _normalized,
    apply_unitary,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from .wcircuit import (
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    build_w_state,
    create_epr,
    double_w,
    double_w_pairs,
    expand_by_one,
    interleave_permutation,
    relabel,
    round_permutation,
    standard_expansion_circuit,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max deviation {self.deviation:.3e} "
            f"(tol {self.tolerance:g}) — {self.detail}"
        )


@dataclass(frozen=True)
class Check:
    """One anchored identity of the paper.

    `measure(rng)` returns the largest deviation from the anchor; `rng` is
    the run's seeded generator, shared by the checks in order.  A check
    passes when its deviation is below `tolerance`.
    """

    name: str
    tolerance: float
    detail: str
    measure: Callable[[np.random.Generator], float]


_S2 = 1.0 / np.sqrt(2.0)
_THETA_MAX = np.pi / 60.0
# The two fixed imperfection triples (alpha, beta, gamma) of "size independence".
_FIXED_TRIPLES = (NoiseParams(0.02, 0.015, 0.03), NoiseParams(0.025, 0.018, 0.033))
# The smallest positive float: a deviation is below it only when it is 0.
_EXACT = math.ulp(0.0)


def _vec(entries: dict[int, complex], num_qubits: int) -> np.ndarray:
    v = np.zeros(1 << num_qubits, dtype=complex)
    for idx, amp in entries.items():
        v[idx] = amp
    return v


def _max_abs(diff) -> float:
    return float(np.max(np.abs(diff)))


def _fixed_noise_sample() -> tuple[list[tuple[NoiseParams, int]], list[float]]:
    """50 noise points, each with a register size in 1..3, then 25 angles.

    Drawn in this order from seed 2024, whatever the run's seed, so these
    inputs are the same in every run.
    """
    rng = np.random.default_rng(2024)
    points = [
        (NoiseParams(*(float(x) for x in rng.uniform(0.0, _THETA_MAX, size=3))),
         int(rng.integers(1, 4)))
        for _ in range(50)
    ]
    return points, [float(t) for t in rng.uniform(0.0, _THETA_MAX, size=25)]


# The one place the package checks its 12-gate composition against the operator.
def _expansion_matrix(rng) -> float:
    return _max_abs(standard_expansion_circuit().matrix() - EXPANSION_MATRIX)


def _stepwise_checkpoints(rng) -> float:
    checkpoints = {
        2: _vec({4: _S2, 6: _S2}, 3),
        5: _vec({4: _S2, 2: _S2}, 3),
        8: _vec({4: _S2, 3: _S2}, 3),
        11: _vec({4: _S2, 1: _S2}, 3),
    }
    states = standard_expansion_circuit().stepwise_states(basis_state("100"))
    return max(_max_abs(states[k].amplitudes - v) for k, v in checkpoints.items())


def _gate_conventions(rng) -> float:
    h_ref = np.array([[1, 1], [1, -1]], dtype=complex) * _S2
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    tp_ref = np.array([[c, s], [s, -c]], dtype=complex)
    return max(_max_abs(hadamard().matrix - h_ref), _max_abs(t_prime().matrix - tp_ref))


def _controlled_phase_convention(rng) -> float:
    cz = controlled_phase()
    return max(
        _max_abs(cz.matrix - np.diag([1, 1, 1, -1])),
        abs(controlled_phase(0.3).matrix[3, 3] - np.exp(1j * (np.pi - 0.3))),
        _max_abs(apply_unitary(basis_state("11"), cz, (0, 1)).amplitudes - _vec({3: -1}, 2)),
        _max_abs(apply_unitary(basis_state("10"), cz, (0, 1)).amplitudes - _vec({2: 1}, 2)),
    )


def _bell_pair(rng) -> float:
    bell = StateVector(_vec({1: _S2, 2: _S2}, 2))
    pair_rho = np.outer(bell.amplitudes, bell.amplitudes.conj())
    # The 12-gate sequence on |100>.
    out = standard_expansion_circuit().apply(basis_state("100"), 0, 1, 2)
    return max(
        abs(1.0 - fidelity_pure(create_epr(), bell)),
        _max_abs(partial_trace(out, {1}).entries - np.diag([1, 0])),
        _max_abs(partial_trace(out, {0, 2}).entries - pair_rho),
    )


def _term_splitting(rng) -> float:
    # One excitation of 1/sqrt(n) weight splits into two of 1/sqrt(2n) each,
    # other terms untouched.
    third, sixth = 1 / np.sqrt(3), 1 / np.sqrt(6)
    expected = _vec({0b1000: third, 0b0100: sixth, 0b0010: sixth, 0b0001: third}, 4)
    return _max_abs(expand_by_one(build_w_state(3), 1).amplitudes - expected)


def _growth_strategy(rng) -> float:
    # |1> -> Bell pair -> weighted 3-qubit state -> |W_4>, from the pair the
    # circuit creates and from the reference |W_2>.
    w4_ref = _vec({1: 0.5, 2: 0.5, 4: 0.5, 8: 0.5}, 4)
    w4 = build_w_state(4).amplitudes
    dev = _max_abs(w4 - w4_ref)
    for pair in (create_epr(), build_w_state(2)):
        three = expand_by_one(pair, 0)
        four = expand_by_one(three, 2).amplitudes
        dev = max(
            dev,
            _max_abs(three.amplitudes - _vec({4: 0.5, 2: 0.5, 1: _S2}, 3)),
            _max_abs(four - w4_ref),
            _max_abs(four - w4),
        )
    return dev


def _doubling_w6(rng) -> float:
    return abs(1.0 - double_w(3, "block")[1].fidelity)


def _doubling_sweep(rng) -> float:
    return max(
        abs(1.0 - double_w(n, mode)[1].fidelity)
        for n in (1, 2, 3, 4)
        for mode in ("block", "sequential")
    )


def _pair_engine(rng) -> float:
    # What `prepare` writes and prints: each stage scattered onto the dense
    # run's register, a round's joined qubits moved in after their sources.
    dev = 0.0
    for n, mode in itertools.product((1, 2, 3, 4), ("block", "sequential")):
        stage, report = double_w_pairs(n, mode)
        (out, dense), rounds = double_w(n, mode), double_w(n, "sequential")[1].rounds
        wanted = [permute(r, round_permutation(n, k)) for k, r in enumerate(rounds)] + [out]
        for k, want in enumerate(wanted):
            got = np.zeros_like(want.amplitudes)
            got[1 << np.arange(want.num_qubits)] = stage(k)[::-1]
            dev = max(dev, _max_abs(got - want.amplitudes))
        for field in ("overlap", "success_probability", "ancilla_purities"):
            dev = max(dev, _max_abs(np.subtract(getattr(report, field), getattr(dense, field))))
    return dev


def _register_doubling(n: int, noise: NoiseParams) -> tuple[StateVector, float]:
    """|W_n> -> |W_2n> on the paper's 3n-qubit register, gate by gate.

    |W_n> |0>^{2n} laid out as n triples (w_i, anc_i, new_i), the 12 gates
    run one by one on each triple, then every ancilla sliced to |0> and the
    rest ordered (w..., new...).  Returns the renormalized output and the
    probability of that projection.
    """
    reg = permute(tensor(build_w_state(n), zero_state(2 * n)), interleave_permutation(n))
    circuit = standard_expansion_circuit(noise)
    for i in range(n):
        reg = circuit.apply(reg, 3 * i, 3 * i + 1, 3 * i + 2)
    pairs = reg.tensor_view()[(slice(None), 0, slice(None)) * n]  # (w_0, new_0, w_1, ...)
    return _normalized(pairs.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(-1))


def _register_vs_dense(rng) -> float:
    points = (NoiseParams(), *_FIXED_TRIPLES, NoiseParams(_THETA_MAX, _THETA_MAX, _THETA_MAX))
    dev = 0.0
    for n, noise in itertools.product((1, 2, 3, 4), points):
        want, prob = _register_doubling(n, noise)
        for mode in ("block", "sequential"):
            out, report = double_w(n, mode, noise)
            dev = max(dev, _max_abs(out.amplitudes - want.amplitudes),
                      abs(report.success_probability - prob))
    return dev


def _swap_network(rng) -> float:
    # The interleave permutation acts on the doubling input exactly like the
    # pairwise swap sequence (2,7)(3,4)(5,9), 1-based.
    reg = tensor(build_w_state(3), zero_state(6))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    return _max_abs(permute(reg, interleave_permutation(3)).amplitudes - via_swaps.amplitudes)


def _closed_forms(rng) -> float:
    dev = max(
        abs(1.0 - noi.fidelity_hadamard(0.0)),
        abs(1.0 - noi.fidelity_t_prime(0.0)),
        abs(1.0 - noi.fidelity_controlled_phase(0.0)),
        abs(1.0 - noi.fidelity_combined(0.0, 0.0, 0.0)),
    )
    seeded = [float(rng.uniform(0.0, _THETA_MAX)) for _ in range(20)]
    for t in seeded + _fixed_noise_sample()[1]:
        dev = max(
            dev,
            abs(noi.fidelity_combined(t, 0, 0) - noi.fidelity_hadamard(t)),
            abs(noi.fidelity_combined(0, t, 0) - noi.fidelity_t_prime(t)),
            abs(noi.fidelity_combined(0, 0, t) - noi.fidelity_controlled_phase(t)),
        )
    f_comb = noi.fidelity_combined(_THETA_MAX, _THETA_MAX, _THETA_MAX)
    if f_comb <= 0.97:
        dev = max(dev, 0.97 - f_comb + 1.0)
    return dev


def _noisy_doubling_fidelity(n: int, p: NoiseParams) -> float:
    return double_w(n, "block", p)[1].fidelity


def _noisy_agreement(rng) -> float:
    points = [
        NoiseParams(*(float(x) for x in rng.uniform(0.0, _THETA_MAX, size=3))) for _ in range(10)
    ]
    seeded = [(p, n) for p in points for n in (1, 2, 3)]
    return max(
        abs(noi.fidelity_combined(p.alpha, p.beta, p.gamma) - _noisy_doubling_fidelity(n, p))
        for p, n in seeded + _fixed_noise_sample()[0]
    )


def _vacuum_fixed_point(rng) -> float:
    # U|000> = |000> under any gate errors, so column 0 and row 0 are e_0:
    # why the doubling fidelity does not depend on n.
    e0 = np.eye(8)[0]
    dev = 0.0
    for p, _ in _fixed_noise_sample()[0]:
        u = standard_expansion_circuit(p).matrix()
        dev = max(dev, _max_abs(u[:, 0] - e0), _max_abs(u[0] - e0))
    return dev


def _size_independence(rng) -> float:
    spreads = []
    for p in _FIXED_TRIPLES:
        sims = [_noisy_doubling_fidelity(n, p) for n in (1, 2, 3, 4)]
        spreads.append(max(sims) - min(sims))
    return max(spreads)


def _resonant_reflection(rng) -> float:
    # r = (4g^2 - kappa gamma)/(4g^2 + kappa gamma) with everything on resonance.
    dev = 0.0
    for kappa, gamma_decay, g_max in ((1.0, 1.0, 10.0), (1.7, 0.4, 25.0)):
        kg = kappa * gamma_decay
        for g in np.linspace(0.0, g_max, 1000).tolist():
            r = cav.reflection_coupled(cav.CavityParams(0.0, 0.0, 0.0, g, kappa, gamma_decay))
            dev = max(dev, abs(r - (4.0 * g * g - kg) / (4.0 * g * g + kg)))
    return dev


def _resonant_uncoupled(rng) -> float:
    return abs(cav.reflection_uncoupled(cav.CavityParams.resonant(1.0)) + 1.0)


def _resonant_phase_pair(rng) -> float:
    pp = cav.phase_pair(cav.CavityParams.resonant(5.0))
    return max(abs(pp.phi), abs(pp.phi_0 - np.pi))


def _uncoupled_unit_modulus(rng) -> float:
    return max(
        abs(abs(cav.reflection_uncoupled(cav.CavityParams(-d, 0.0, 0.0, 1.0, 1.0, 1.0))) - 1.0)
        for span in (50.0, 80.0)
        for d in np.linspace(-span, span, 10_000).tolist()
    )


def _physical_gates(rng) -> float:
    return max(
        phase_aligned_deviation(
            hadamard().matrix, holonomic_gate(HolonomicParams(np.pi / 4)).matrix
        ),
        phase_aligned_deviation(
            t_prime().matrix, holonomic_gate(HolonomicParams(np.pi / 8)).matrix
        ),
        _max_abs(hwp_gate(np.pi / 8).matrix - hadamard().matrix),
        _max_abs(hwp_gate(np.pi / 16).matrix - t_prime().matrix),
    )


def _role_labeling(rng) -> float:
    epr = create_epr()
    ok = (
        relabel(epr, PHOTON) == "(|LR⟩+|RL⟩)/√2"
        and relabel(epr, SPIN) == "(|-+⟩+|+-⟩)/√2"
        and "|-+++⟩" in relabel(build_w_state(4), SPIN)
    )
    return 0.0 if ok else 1.0


# The paper's anchored identities, in the order `wexpand verify` runs and
# prints them; the acceptance suite runs the same list.
CHECKS: tuple[Check, ...] = (
    Check("expansion operator matrix", 1e-12,
          "12-gate composition vs the 8x8 operator", _expansion_matrix),
    Check("stepwise construction checkpoints", 1e-12,
          "four intermediate states from |100>", _stepwise_checkpoints),
    Check("single-qubit gate conventions", 1e-12,
          "Hadamard and T' matrices", _gate_conventions),
    Check("controlled-phase convention", 1e-12,
          "CZ flips |11> only; imperfect phase e^{i(pi-gamma)}", _controlled_phase_convention),
    Check("bell pair creation", 1e-12,
          "(|10>+|01>)/sqrt(2) with the ancilla back in |0>, 12-gate", _bell_pair),
    Check("term splitting", 1e-12,
          "1/sqrt(n) term -> two 1/sqrt(2n) terms", _term_splitting),
    Check("growth strategy amplitudes", 1e-12,
          "weighted 3-qubit state, then |W_4>", _growth_strategy),
    Check("doubling n=3 (W_6)", 1e-10, "block-mode |W_3> -> |W_6>", _doubling_w6),
    Check("doubling sweep n=1..4", 1e-10,
          "both register modes", _doubling_sweep),
    Check("pair engine vs dense doubling", 1e-14,
          "every stage and the report of prepare's run, both modes, n = 1..4", _pair_engine),
    Check("swap network layout", 1e-12,
          "interleaved triples vs pairwise swap list", _swap_network),
    Check("paper's register vs dense doubling", 1e-14,
          "12 gates on each of n triples vs both modes, n = 1..4, ideal and 3 noise points",
          _register_vs_dense),
    Check("fidelity closed forms", 1e-12,
          "unity at zero, reductions exact; combined at pi/60 > 0.97", _closed_forms),
    Check("noisy-circuit agreement", 1e-9,
          "closed form vs full simulation, n = 1..3", _noisy_agreement),
    Check("noisy operator fixes |000>", 1e-12,
          "column and row 0 of the 12-gate 8x8 at 50 fixed noise points", _vacuum_fixed_point),
    Check("size independence", 1e-9,
          "n = 1..4 at two fixed imperfection triples", _size_independence),
    Check("cavity resonant reflection", 1e-14,
          "(4g^2 - kappa gamma)/(4g^2 + kappa gamma) up to g = 10 and 25", _resonant_reflection),
    Check("cavity uncoupled reflection on resonance", _EXACT,
          "r_0 = -1 exactly", _resonant_uncoupled),
    Check("cavity phase pair", 1e-15,
          "phi = 0 and phi_0 = pi at g = 5 sqrt(kappa gamma)", _resonant_phase_pair),
    Check("cavity uncoupled unit modulus", 1e-12,
          "|r_0| = 1 for detunings up to 80 kappa", _uncoupled_unit_modulus),
    Check("physical single-qubit gate realizations", 1e-12,
          "holonomic and half-wave-plate forms", _physical_gates),
    Check("role labeling", 0.5,
          "photon and spin renderings of the Bell pair and |W_4>", _role_labeling),
)


def run_verification(seed: int = 0) -> list[CheckResult]:
    """Run every check of `CHECKS` in order; returns one result per check."""
    rng = np.random.default_rng(seed)
    results = []
    for check in CHECKS:
        dev = float(check.measure(rng))
        passed = dev < check.tolerance
        results.append(CheckResult(check.name, dev, check.tolerance, passed, check.detail))
    return results
