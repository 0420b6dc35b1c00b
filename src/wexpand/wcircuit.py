"""The three-qubit expansion operation and the W-state protocols built on it.

A single operation acts on (input1, ancilla, input2).  Fed a qubit of a
W-type state on input1 and fresh |0> qubits on the other two slots, it
splits that qubit's excitation coherently between input1 and input2 while
returning the ancilla to |0>, so the two logical qubits become entangled
without ever interacting directly.  Twelve one- and two-qubit gates realize
it: four controlled-Z gates between the ancilla and the logical qubits, six
Hadamards and two T' gates.

Chaining the operation grows a W state one qubit at a time (create a Bell
pair from |1>|0>, then keep joining |0> qubits), and applying it once to
every qubit of |W_n> doubles the state to |W_2n> in one round.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .gates import (
    HADAMARD_ANGLE,
    T_PRIME_ANGLE,
    Gate,
    NoiseParams,
    controlled_phase,
    hadamard,
    t_prime,
)
from .statevec import (
    QubitPermutation,
    StateVector,
    _qubit_density,
    apply_1q,
    apply_2q,
    apply_unitary,
    basis_state,
    extract_pure,
    fidelity_pure,
    partial_trace,
    permute,
    postselect_zero,
    tensor,
    zero_state,
)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The three-qubit expansion operation in the computational basis |q1 anc q2>.
# Weight-one inputs with anc = q2 = 0 (columns 0 and 4) are the ones the
# protocol uses: |000> is fixed and |100> -> (|100> + |001>)/sqrt(2).
EXPANSION_MATRIX = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, _INV_SQRT2, 0, -_INV_SQRT2, 0],
        [0, 0, 0, 0, 0, _INV_SQRT2, 0, -_INV_SQRT2],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, _INV_SQRT2, 0, _INV_SQRT2, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, _INV_SQRT2, 0, _INV_SQRT2],
    ],
    dtype=complex,
)
EXPANSION_MATRIX.setflags(write=False)

# Memory caps: block mode holds 3n qubits at once, sequential mode peaks at
# 2n+1.  Desk-scale verification only, so the register stays under 2^18
# amplitudes.
BLOCK_MODE_MAX_N = 6
SEQUENTIAL_MODE_MAX_N = 8

ROLE_NAMES = {0: "input1", 1: "ancilla", 2: "input2"}


class AncillaStateError(ValueError):
    """An expansion slot that must hold |0> holds something else."""

    def __init__(self, slot: str, reduced: np.ndarray):
        self.slot = slot
        self.reduced = reduced
        super().__init__(
            f"{slot} qubit is not in |0>: reduced state\n{np.array_str(reduced, precision=6)}"
        )


@dataclass(frozen=True)
class CircuitStep:
    """One gate of the expansion circuit, with its position in the order."""

    gate: Gate
    targets: tuple[int, ...]
    order_index: int

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if len(self.targets) != self.gate.arity:
            raise ValueError(
                f"gate {self.gate.label!r} has arity {self.gate.arity} "
                f"but {len(self.targets)} targets"
            )
        if any(t not in (0, 1, 2) for t in self.targets):
            raise ValueError(f"targets {self.targets} outside the three-qubit register")


@dataclass(frozen=True, eq=False)
class ExpansionCircuit:
    """The 12-step gate sequence realizing the expansion operation."""

    steps: tuple[CircuitStep, ...]
    roles: dict = field(default_factory=lambda: dict(ROLE_NAMES))

    def __post_init__(self):
        steps = tuple(self.steps)
        if len(steps) != 12:
            raise ValueError(f"expansion circuit has 12 steps, got {len(steps)}")
        order = [s.order_index for s in steps]
        if any(b <= a for a, b in zip(order, order[1:])):
            raise ValueError("order_index must be strictly increasing")
        two_q = sum(1 for s in steps if s.gate.arity == 2)
        h_like = sum(1 for s in steps if s.gate.arity == 1 and s.gate.label.startswith("H"))
        t_like = sum(1 for s in steps if s.gate.arity == 1 and s.gate.label.startswith("T'"))
        if (two_q, h_like, t_like) != (4, 6, 2):
            raise ValueError(
                f"expected 4 controlled-phase, 6 Hadamard-type and 2 T'-type steps, "
                f"got ({two_q}, {h_like}, {t_like})"
            )
        object.__setattr__(self, "steps", steps)

    def _run(self, state: StateVector, slots: tuple[int, int, int]):
        """Yield the state after each step, the slots on register qubits `slots`."""
        for step in self.steps:
            where = [slots[t] for t in step.targets]
            if step.gate.arity == 1:
                state = apply_1q(state, step.gate, *where)
            else:
                state = apply_2q(state, step.gate, *where)
            yield state

    def apply(self, state: StateVector, q1: int, anc: int, q2: int) -> StateVector:
        """Run the circuit with register qubits (q1, anc, q2) in the three slots."""
        for state in self._run(state, (q1, anc, q2)):
            pass
        return state

    def matrix(self) -> np.ndarray:
        """Composed 8x8 matrix of the circuit on a standalone (q1, anc, q2) register."""
        eye2 = np.eye(2, dtype=complex)
        u = np.eye(8, dtype=complex)
        for step in self.steps:
            if step.gate.arity == 1:
                mats = [eye2, eye2, eye2]
                mats[step.targets[0]] = step.gate.matrix
                embedded = np.kron(np.kron(mats[0], mats[1]), mats[2])
            else:
                a, b = step.targets
                if b != a + 1:
                    raise NotImplementedError(
                        f"two-qubit step on non-adjacent slots {step.targets}"
                    )
                embedded = (
                    np.kron(step.gate.matrix, eye2)
                    if a == 0
                    else np.kron(eye2, step.gate.matrix)
                )
            u = embedded @ u
        return u

    def stepwise_states(self, initial: StateVector) -> list[StateVector]:
        """States of a standalone three-qubit register after each of the 12 steps."""
        if initial.num_qubits != 3:
            raise ValueError("stepwise evaluation runs on a three-qubit register")
        return list(self._run(initial, (0, 1, 2)))


# The 12 steps of the expansion circuit as (gate kind, slots), in order, with
# slots 0 = input1, 1 = ancilla, 2 = input2 and kinds "h" (Hadamard), "tp"
# (T') and "cp" (controlled phase).  Every composition of the circuit reads
# this one table.
EXPANSION_LAYOUT: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("tp", (1,)),
    ("cp", (0, 1)),
    ("tp", (1,)),
    ("h", (0,)),
    ("cp", (0, 1)),
    ("h", (0,)),
    ("h", (2,)),
    ("cp", (1, 2)),
    ("h", (2,)),
    ("h", (1,)),
    ("cp", (1, 2)),
    ("h", (1,)),
)


def expansion_circuit_from_gates(h: Gate, tp: Gate, cp: Gate) -> ExpansionCircuit:
    """The 12-step expansion circuit with the given gates at the H, T' and CP steps.

    Unlike ``standard_expansion_circuit`` it does not check the result
    against ``EXPANSION_MATRIX``, so a miscalibrated gate can be laid out
    and left for a later check to catch.
    """
    gates = {"h": h, "tp": tp, "cp": cp}
    return ExpansionCircuit(
        tuple(
            CircuitStep(gates[kind], targets, k + 1)
            for k, (kind, targets) in enumerate(EXPANSION_LAYOUT)
        )
    )


def standard_expansion_circuit(noise: NoiseParams | None = None) -> ExpansionCircuit:
    """The 12-gate realization of the expansion operation.

    Slot assignment (0 = input1, 1 = ancilla, 2 = input2), in order:
    T'(anc), CZ(q1, anc), T'(anc), H(q1), CZ(q1, anc), H(q1),
    H(q2), CZ(anc, q2), H(q2), H(anc), CZ(anc, q2), H(anc).

    With ``noise`` given, every Hadamard becomes H(alpha), every T' becomes
    T'(beta) and every CZ the controlled phase e^{i(pi-gamma)}.
    """
    p = noise if noise is not None else NoiseParams()
    circuit = expansion_circuit_from_gates(
        hadamard(p.alpha), t_prime(p.beta), controlled_phase(p.gamma)
    )
    if p.is_ideal:
        dev = float(np.max(np.abs(circuit.matrix() - EXPANSION_MATRIX)))
        if dev > 1e-12:
            raise RuntimeError(f"ideal circuit drifted from the expansion matrix by {dev!r}")
    return circuit


def expansion_unitaries(alpha, beta, gamma) -> np.ndarray:
    """Composed 8x8s of the 12-gate circuit at k noise points, shape (k, 8, 8).

    ``alpha``, ``beta`` and ``gamma`` broadcast to one length-k axis; point
    j is ``standard_expansion_circuit(NoiseParams(alpha[j], beta[j],
    gamma[j])).matrix()`` up to rounding (within 1e-15).  No gate or 8x8
    embedding is built: the partial products are held as an (8, 8, k)
    stack, a rotation [[cos, sin], [sin, -cos]] on slot t mixes the two
    halves of that slot's row axis, and a controlled phase scales the rows
    where both of its slots are |1>.
    """
    alpha, beta, gamma = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (alpha, beta, gamma))
    )
    if alpha.ndim != 1:
        raise ValueError(f"noise angles must broadcast to one axis, got shape {alpha.shape}")
    k = alpha.shape[0]
    cos_sin = {
        kind: (np.cos(theta), np.sin(theta))
        for kind, theta in (("h", HADAMARD_ANGLE - alpha), ("tp", T_PRIME_ANGLE - beta))
    }
    phase = -np.exp(-1j * gamma)
    u = np.eye(8, dtype=complex)[:, :, None] * np.ones(k)
    for kind, targets in EXPANSION_LAYOUT:
        if kind == "cp":
            # Slot t is bit 2 - t of the row index.
            rows = [i for i in range(8) if all((i >> (2 - t)) & 1 for t in targets)]
            u[rows] *= phase
        else:
            c, s = cos_sin[kind]
            halves = u.reshape(1 << targets[0], 2, -1, k)
            u0, u1 = halves[:, 0], halves[:, 1]
            u = np.stack([c * u0 + s * u1, s * u0 - c * u1], axis=1).reshape(8, 8, k)
    return np.ascontiguousarray(np.moveaxis(u, -1, 0))


@functools.lru_cache(maxsize=4)
def _expansion_unitary(noise: NoiseParams) -> np.ndarray:
    """Composed 8x8 of the 12-gate circuit under ``noise``, shared read-only.

    A sweep visits each noise point once and a doubling run reuses one, so a
    few entries suffice.
    """
    u = standard_expansion_circuit(noise).matrix()
    u.setflags(write=False)
    return u


# ---------------------------------------------------------------------------
# W states and expansion
# ---------------------------------------------------------------------------

def build_w_state(n: int) -> StateVector:
    """|W_n>: equal 1/sqrt(n) superposition of all weight-one basis strings."""
    if n < 1:
        raise ValueError(f"W state needs at least one qubit, got n={n}")
    if n == 1:
        return basis_state("1")
    amps = np.zeros(1 << n, dtype=complex)
    for i in range(n):
        amps[1 << i] = 1.0 / np.sqrt(n)
    return StateVector(amps)


def _require_zero_slot(state: StateVector, qubit: int, slot: str) -> None:
    rho = _qubit_density(state, qubit)
    if not float(np.max(np.abs(rho - np.array([[1.0, 0.0], [0.0, 0.0]])))) <= 1e-10:
        raise AncillaStateError(slot, rho)


def apply_O(
    state: StateVector,
    q1: int,
    anc: int,
    q2: int,
    noise: NoiseParams | None = None,
    check: bool = True,
) -> StateVector:
    """Apply the expansion operation on the register triple (q1, anc, q2).

    ``anc`` and ``q2`` must hold |0> (their reduced states are verified
    unless ``check`` is disabled); ``q1`` carries the qubit whose excitation
    is being split.  The 12 gates act as their composed 8x8 matrix in one
    contraction; ``ExpansionCircuit.apply`` runs them one by one.
    """
    n = state.num_qubits
    if len({q1, anc, q2}) != 3:
        raise ValueError(f"slots must be distinct, got ({q1}, {anc}, {q2})")
    for q in (q1, anc, q2):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if check:
        _require_zero_slot(state, anc, "ancilla")
        _require_zero_slot(state, q2, "second input")
    u = _expansion_unitary(noise if noise is not None else NoiseParams())
    return apply_unitary(state, u, (q1, anc, q2))


def create_epr() -> StateVector:
    """Entangle two never-interacting qubits into (|10> + |01>)/sqrt(2).

    Runs the expansion operation on |1>|0>|0>, checks the ancilla came back
    to |0>, traces it out, and extracts the pure two-qubit state left on
    the logical pair.
    """
    out = apply_O(basis_state("100"), 0, 1, 2)
    anc = partial_trace(out, {1}).entries
    dev = float(np.max(np.abs(anc - np.array([[1.0, 0.0], [0.0, 0.0]]))))
    if dev > 1e-12:
        raise AncillaStateError("ancilla (after the operation)", anc)
    return extract_pure(partial_trace(out, {0, 2}))


def _weight_one_support(state: StateVector, tol: float = 1e-10) -> None:
    bad = [
        format(i, f"0{state.num_qubits}b")
        for i in np.flatnonzero(np.abs(state.amplitudes) > tol).tolist()
        if bin(i).count("1") != 1
    ]
    if bad:
        raise ValueError(f"state has support outside weight-one strings: {bad}")


def expand_by_one(
    w: StateVector, target_qubit: int, noise: NoiseParams | None = None
) -> StateVector:
    """Join one fresh |0> qubit to a W or W-like state at ``target_qubit``.

    The new qubit is inserted directly after the target, whose excitation
    amplitude splits evenly between the two.  The internal ancilla is
    projected back onto its ideal |0> state before being dropped; for ideal
    gates it is exactly there already.
    """
    _weight_one_support(w)
    n = w.num_qubits
    if not 0 <= target_qubit < n:
        raise ValueError(f"target {target_qubit} out of range for {n} qubits")
    reg = tensor(w, zero_state(2))  # new qubit at n, ancilla at n+1
    reg = apply_O(reg, target_qubit, n + 1, n, noise)
    reg, _ = postselect_zero(reg, [n + 1])
    dest = list(range(target_qubit + 1)) + list(range(target_qubit + 2, n + 1))
    dest.append(target_qubit + 1)  # the appended qubit slides in after the target
    return permute(reg, QubitPermutation(tuple(dest)))


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublingPlan:
    """Size, register strategy and ancilla schedule for |W_n> -> |W_2n>.

    ``block`` lays out all n triples in one 3n-qubit register; ``sequential``
    applies the operation round by round on a 2n+1-qubit register, reusing a
    single ancilla (serial) or dedicating a fresh one per round (parallel).
    """

    n: int
    mode: str = "sequential"
    schedule: str = "serial"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.mode not in ("block", "sequential"):
            raise ValueError(f"mode must be 'block' or 'sequential', got {self.mode!r}")
        if self.schedule not in ("serial", "parallel"):
            raise ValueError(
                f"schedule must be 'serial' or 'parallel', got {self.schedule!r}"
            )
        cap = BLOCK_MODE_MAX_N if self.mode == "block" else SEQUENTIAL_MODE_MAX_N
        if self.n > cap:
            raise ValueError(f"{self.mode} mode supports n <= {cap}, got n={self.n}")


@dataclass(frozen=True)
class RunReport:
    """Diagnostics of one doubling run."""

    n: int
    mode: str
    schedule: str
    fidelity: float
    ancilla_purities: tuple[float, ...]
    success_probability: float
    wall_time_s: float


def interleave_permutation(n: int) -> QubitPermutation:
    """Layout permutation for block mode.

    Takes the register ordered (w_0..w_{n-1}, new_0..new_{n-1},
    anc_0..anc_{n-1}) to n adjacent triples (w_i, anc_i, new_i).
    """
    dest = [0] * (3 * n)
    for i in range(n):
        dest[i] = 3 * i
        dest[n + i] = 3 * i + 2
        dest[2 * n + i] = 3 * i + 1
    return QubitPermutation(tuple(dest))


def double_w(
    plan: DoublingPlan, noise: NoiseParams | None = None
) -> tuple[StateVector, RunReport]:
    """Run |W_n> -> |W_2n>, returning the 2n-qubit state and a report.

    The output qubits are ordered original-W qubits first, joined qubits
    second.  Each ancilla is projected onto its ideal |0> state before
    removal (a no-op for ideal gates); the report's fidelity against the
    ideal |W_2n> accounts for the projection probability, and the report
    records each ancilla's pre-projection purity.
    """
    t0 = time.perf_counter()
    n = plan.n
    target = build_w_state(2 * n)

    if plan.mode == "block":
        reg = tensor(build_w_state(n), zero_state(2 * n))
        reg = permute(reg, interleave_permutation(n))
        for i in range(n):
            reg = apply_O(reg, 3 * i, 3 * i + 1, 3 * i + 2, noise)
        anc_positions = [3 * i + 1 for i in range(n)]
        purities = tuple(
            partial_trace(reg, {a}).purity() for a in anc_positions
        )
        reg, prob = postselect_zero(reg, anc_positions)
        # Kept order is (w_0, new_0, w_1, new_1, ...); regroup to w's then new's.
        dest = [0] * (2 * n)
        for i in range(n):
            dest[2 * i] = i
            dest[2 * i + 1] = n + i
        out = permute(reg, QubitPermutation(tuple(dest)))
    else:
        reg = tensor(build_w_state(n), zero_state(n))
        prob = 1.0
        purities_list = []
        for i in range(n):
            reg = tensor(reg, zero_state(1))  # ancilla at index 2n
            reg = apply_O(reg, i, 2 * n, n + i, noise)
            purities_list.append(partial_trace(reg, {2 * n}).purity())
            reg, p = postselect_zero(reg, [2 * n])
            prob *= p
        purities = tuple(purities_list)
        out = reg

    fidelity = prob * fidelity_pure(out, target)
    report = RunReport(
        n=n,
        mode=plan.mode,
        schedule=plan.schedule,
        fidelity=float(fidelity),
        ancilla_purities=purities,
        success_probability=float(prob),
        wall_time_s=time.perf_counter() - t0,
    )
    return out, report


# ---------------------------------------------------------------------------
# Physical role labeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitRole:
    """Mapping of logical |0>/|1> onto physical labels; purely presentational."""

    kind: str
    zero_label: str
    one_label: str


PHOTON = QubitRole("photon", "R", "L")  # circular polarization
SPIN = QubitRole("spin", "+", "-")


@dataclass(frozen=True)
class LabeledState:
    """Human-readable rendering of a state in physical labels."""

    text: str
    terms: tuple[tuple[str, complex], ...]

    def __str__(self) -> str:
        return self.text


def _common_amp_denominator(amps: list[complex]) -> int | None:
    mags = [abs(a) for a in amps]
    if max(mags) - min(mags) > 1e-10:
        return None
    if any(abs(a.imag) > 1e-10 for a in amps):
        return None
    k = 1.0 / (mags[0] ** 2)
    k_int = round(k)
    if k_int < 1 or abs(k - k_int) > 1e-9:
        return None
    return k_int


def relabel(state: StateVector, role: QubitRole) -> LabeledState:
    """Render a state's amplitudes in the physical labels of ``role``.

    Terms are listed excitation-leftmost first (descending basis index),
    the conventional way W-type states are written out.
    """
    terms = tuple(
        ("".join(role.one_label if c == "1" else role.zero_label for c in bits), amp)
        for bits, amp in reversed(state.terms())
    )
    amps = [a for _, a in terms]
    k = _common_amp_denominator(amps)
    if k == 1 and len(terms) == 1:
        text = f"|{terms[0][0]}⟩"
    elif k is not None:
        body = ""
        for label, amp in terms:
            sign = "+" if amp.real >= 0 else "−"
            body += (sign if body else ("−" if sign == "−" else "")) + f"|{label}⟩"
        root = int(round(np.sqrt(k)))
        denom = str(root) if root * root == k else f"√{k}"
        text = f"({body})/{denom}"
    else:
        def coeff(a: complex) -> str:
            return f"{a.real:.6g}" if abs(a.imag) <= 1e-12 else f"({a:.6g})"

        text = " + ".join(f"{coeff(amp)}|{label}⟩" for label, amp in terms)
    return LabeledState(text=text, terms=terms)
