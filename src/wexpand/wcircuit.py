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

On the protocol's inputs, where the ancilla and input2 hold |0> and the
ancilla is projected back onto |0>, the operation is the 4x2 map
V = <q1',0,q2'|U|x,0,0>.  The protocols run on ``expand_qubit``, which
applies V to one qubit and returns a register one qubit larger.
``ExpansionCircuit`` is the full operation, gate by gate: ``wexpand
verify`` runs it on every triple of the paper's 3n-qubit register as the
reference for the doubling.

Ideal V keeps the number of excitations (|0> -> |00>, |1> -> (|10> +
|01>)/sqrt(2)), so each stage of the ideal doubling is c = V|1> on some
pairs (w_i, new_i) and |0> elsewhere, normalized.  ``double_w_pairs``
gives the stages and the report in closed form from c, with no per-round
loop, each stage as one amplitude per qubit: that of the string whose one
excitation is on that qubit.  ``prepare`` writes and prints them (through
``render_terms``, which ``relabel`` also uses), and ``double_w`` is their
oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

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
    DensityMatrix,
    QubitPermutation,
    StateVector,
    _contract,
    _finite_real_array,
    _normalized,
    _qubit_density,
    _require_int,
    _require_normalized,
    _seal,
    apply_unitary,
    fidelity_pure,
    permute,
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

# Memory cap of both doubling modes: each grows the register by one qubit
# per expansion, to 2n qubits, so the last expansion writes 2^(2n)
# amplitudes.  Desk-scale verification only, so the register stays at or
# under 2^16 amplitudes.
DOUBLING_MAX_N = 8

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


@dataclass(frozen=True, eq=False)
class ExpansionCircuit:
    """The 12-step gate sequence of ``EXPANSION_LAYOUT`` with the given H, T' and CP."""

    h: Gate
    tp: Gate
    cp: Gate

    def __post_init__(self):
        for kind, arity in (("h", 1), ("tp", 1), ("cp", 2)):
            gate = getattr(self, kind)
            if gate.arity != arity:
                raise ValueError(
                    f"{kind} gate {gate.label!r} has arity {gate.arity}, expected {arity}"
                )

    @property
    def steps(self) -> tuple[tuple[Gate, tuple[int, ...]], ...]:
        """The 12 (gate, slots) steps in order."""
        return tuple((getattr(self, kind), slots) for kind, slots in EXPANSION_LAYOUT)

    def _run(self, state: StateVector, where: tuple[int, int, int]):
        """Yield the state after each step, the slots on register qubits `where`."""
        for gate, slots in self.steps:
            state = apply_unitary(state, gate, [where[t] for t in slots])
            yield state

    def apply(self, state: StateVector, q1: int, anc: int, q2: int) -> StateVector:
        """Run the circuit with register qubits (q1, anc, q2) in the three slots."""
        for state in self._run(state, (q1, anc, q2)):
            pass
        return state

    def matrix(self) -> np.ndarray:
        """Composed 8x8 of the circuit on (q1, anc, q2): its columns contracted gate by gate."""
        u = np.eye(8, dtype=complex).reshape(2, 2, 2, 8)
        for gate, slots in self.steps:
            u = _contract(gate.matrix, u, slots)
        return u.reshape(8, 8)

    def stepwise_states(self, initial: StateVector) -> list[StateVector]:
        """States of a standalone three-qubit register after each of the 12 steps."""
        if initial.num_qubits != 3:
            raise ValueError("stepwise evaluation runs on a three-qubit register")
        return list(self._run(initial, (0, 1, 2)))


def standard_expansion_circuit(noise: NoiseParams | None = None) -> ExpansionCircuit:
    """The 12-gate realization of the expansion operation.

    Slot assignment (0 = input1, 1 = ancilla, 2 = input2), in order:
    T'(anc), CZ(q1, anc), T'(anc), H(q1), CZ(q1, anc), H(q1),
    H(q2), CZ(anc, q2), H(q2), H(anc), CZ(anc, q2), H(anc).

    With ``noise`` given, every Hadamard becomes H(alpha), every T' becomes
    T'(beta) and every CZ the controlled phase e^{i(pi-gamma)}.  Nothing
    is composed here: ``wexpand verify`` checks the ideal circuit's 8x8
    against ``EXPANSION_MATRIX``.
    """
    p = noise if noise is not None else NoiseParams()
    return ExpansionCircuit(hadamard(p.alpha), t_prime(p.beta), controlled_phase(p.gamma))


def _noise_angles(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three noise angles as float arrays broadcast to one length-k axis, k >= 1.

    By name, a ValueError for an angle that is not a real number (a bool, a
    string or a complex value) or not finite (see ``_finite_real_array``);
    then numpy's for shapes that do not broadcast, and one for a grid that
    is not one non-empty axis.
    """
    angles = (("alpha", alpha), ("beta", beta), ("gamma", gamma))
    alpha, beta, gamma = np.broadcast_arrays(
        *(np.atleast_1d(_finite_real_array(name, value)) for name, value in angles)
    )
    if alpha.ndim != 1:
        raise ValueError(f"noise angles must broadcast to one axis, got shape {alpha.shape}")
    if alpha.size == 0:
        raise ValueError("noise angles must hold at least one point, got none")
    return alpha, beta, gamma


def _expansion_plan():
    """``expansion_maps``'s steps and rotation coefficients, read from ``EXPANSION_LAYOUT``.

    Slot t is bit 2 - t of the row index.  A rotation [[cos, sin], [sin,
    -cos]] on slot t sets row i to sign_i cos u[i] + sin u[i ^ bit], with
    sign_i -1 where row i has the bit: one gather of 16 rows (i, then
    i ^ bit), one multiply by their coefficients (signed cosines, then
    sines) and one add of the two halves.  Each distinct (kind, slot) is one
    rotation j, numbered in first use.  A step is (j, its 16 gather rows),
    or (None, the rows a controlled phase scales, where both of its slots
    are 1, as a slice).  Coefficient row r of rotation j is sign[j, r]
    times cos (r < 8) or sin (r >= 8) of its kind's angle: entry [kind,
    part] of a (2, 2, k) table of (H, T') by (cos, sin), at the index
    arrays returned second.
    """
    rows = np.arange(8)
    rotations, steps = [], []
    for kind, targets in EXPANSION_LAYOUT:
        bits = [4 >> t for t in targets]
        if kind == "cp":
            first, last = (i for i in range(8) if all(i & b for b in bits))
            steps.append((None, slice(first, last + 1, last - first)))
            continue
        if (kind, targets[0]) not in rotations:
            rotations.append((kind, targets[0]))
        steps.append((rotations.index((kind, targets[0])), np.r_[rows, rows ^ bits[0]]))
    kinds = np.array([("h", "tp").index(kind) for kind, _ in rotations])
    parts = np.repeat([0, 1], 8)
    signs = np.array([np.r_[np.where(rows & (4 >> t), -1.0, 1.0), np.ones(8)] for _, t in rotations])
    return tuple(steps), (kinds[:, None], parts[None, :]), signs[:, :, None, None]


_EXPANSION_PLAN, _ROTATION_ROWS, _ROTATION_SIGN = _expansion_plan()


def expansion_maps(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """The maps V and W of the 12-gate circuit at k noise points.

    V = <q1',0,q2'|U|x,0,0> and its ancilla-|1> complement W, each of shape
    (k, 2, 2, 2) and indexed [point, q1', q2', x]: columns 0 and 4 of point
    j's ``standard_expansion_circuit(NoiseParams(alpha[j], beta[j],
    gamma[j])).matrix()`` within 1e-14, the angles broadcast to one
    length-k axis.  Only those two columns are composed, as an (8, 2, k)
    stack.  Each rotation step is one gather and one in-place multiply-add
    (see ``_expansion_plan``), and a controlled phase scales the rows where
    both of its slots are |1> by -e^{-i gamma}.  Every entry takes the IEEE
    operations of the gate-by-gate composition, up to exact commutation and
    negation, so the maps equal it bit for bit.

    Raises ValueError, naming the angle, for one that is not a finite real
    number; and for angles that do not broadcast to one non-empty axis.
    """
    alpha, beta, gamma = _noise_angles(alpha, beta, gamma)
    k = alpha.shape[0]
    cos_sin = np.empty((2, 2, k))
    for kind, theta in enumerate((HADAMARD_ANGLE - alpha, T_PRIME_ANGLE - beta)):
        np.cos(theta, out=cos_sin[kind, 0])
        np.sin(theta, out=cos_sin[kind, 1])
    # Full (16, 2, k) coefficients, cast to complex once: a multiply that
    # broadcasts over the column axis runs k elements per inner loop.
    coef = np.empty((len(_ROTATION_SIGN), 16, 2, k), dtype=complex)
    np.multiply(_ROTATION_SIGN, cos_sin[_ROTATION_ROWS][:, :, None], out=coef)
    phase = -np.exp(-1j * gamma)
    u = np.zeros((8, 2, k), dtype=complex)
    u[0, 0] = u[4, 1] = 1.0
    terms = np.empty((16, 2, k), dtype=complex)
    for rotation, rows in _EXPANSION_PLAN:
        if rotation is None:
            u[rows] *= phase
            continue
        # mode="wrap" (the rows are in range): the default "raise" buffers `out`.
        u.take(rows, axis=0, out=terms, mode="wrap")
        terms *= coef[rotation]
        np.add(terms[:8], terms[8:], out=u)
    u = u.reshape(2, 2, 2, 2, k).transpose(4, 0, 1, 2, 3)
    return u[:, :, 0], u[:, :, 1]


def _expansion_map(noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """The expansion operator on the protocol's inputs |x,0,0>, split by ancilla.

    Returns V and W, each indexed [q1', q2', x] (see ``expansion_maps``).
    V is the 4x2 map the post-selected protocol applies; W is what leaks to
    ancilla |1>.  Ideal gates split the columns of ``EXPANSION_MATRIX``, so
    W is exactly zero; other noise gives point 0 of ``expansion_maps``,
    composed afresh on every call (one per doubling run or
    ``expand_by_one``).
    """
    if noise.is_ideal:
        u = EXPANSION_MATRIX.reshape(2, 2, 2, 8)[..., [0, 4]]
        return u[:, 0], u[:, 1]
    v, w = expansion_maps(noise.alpha, noise.beta, noise.gamma)
    return v[0], w[0]


# ---------------------------------------------------------------------------
# W states and expansion
# ---------------------------------------------------------------------------

def build_w_state(n: int) -> StateVector:
    """|W_n>: equal 1/sqrt(n) superposition of all weight-one basis strings."""
    n = _require_int("n", n)
    if n < 1:
        raise ValueError(f"W state needs at least one qubit, got n={n}")
    amps = np.zeros(1 << n, dtype=complex)
    for i in range(n):
        amps[1 << i] = 1.0 / np.sqrt(n)
    return StateVector(_seal(amps))


def create_epr() -> StateVector:
    """Entangle two never-interacting qubits into (|10> + |01>)/sqrt(2).

    The n = 1 case of doubling: the expansion operation on |1>|0>|0>, with
    the ancilla projected out, leaves the pure two-qubit state on the
    logical pair.
    """
    return double_w(1, "block")[0]


def _weight_one_support(state: StateVector, tol: float = 1e-10) -> None:
    """Reject a state with support on any basis string of weight other than one.

    The message counts those strings and shows the first few, so that it
    stays short for a register of any size.
    """
    idx = np.flatnonzero(np.abs(state.amplitudes) > tol)
    bad = idx[(idx == 0) | ((idx & (idx - 1)) != 0)]
    if bad.size:
        shown = [format(i, f"0{state.num_qubits}b") for i in bad[:4].tolist()]
        raise ValueError(
            f"state has support on {bad.size} basis strings outside weight one: "
            + ", ".join(shown) + (", ..." if bad.size > len(shown) else "")
        )


def expand_qubit(psi: np.ndarray, target: int, v: np.ndarray) -> np.ndarray:
    """Expand qubit ``target`` of the m-qubit amplitudes ``psi`` by the 4x2 map ``v``.

    ``v`` is indexed [q1', q2', x] (see ``_expansion_map``): the target
    |x> becomes sum v[q1', q2', x] |q1'> in place and |q2'> on a new
    qubit, appended last.  The m+1-qubit result is not renormalized; its
    squared norm is the probability that the ancilla the 8x8 would use
    returns to |0>.
    """
    target = _require_int("target", target)
    if np.shape(v) != (2, 2, 2):
        raise ValueError(f"v must be one 4x2 map of shape (2, 2, 2), got shape {np.shape(v)}")
    m = psi.size.bit_length() - 1
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range for {m} qubits")
    src = psi.reshape(1 << target, 2, -1)
    out = np.empty(src.shape + (2,), dtype=complex)
    for q1 in (0, 1):
        for q2 in (0, 1):
            dst = out[:, q1, :, q2]
            c0, c1 = v[q1, q2].tolist()
            np.multiply(c0, src[:, 0], out=dst)
            dst += c1 * src[:, 1]
    return out.reshape(-1)


def _ancilla_density(
    state: StateVector,
    target: int,
    v: np.ndarray,
    w: np.ndarray,
    p0: float | None = None,
) -> np.ndarray:
    """Reduced 2x2 of the ancilla that expands ``target`` of ``state``, before projection.

    Entry (a, b) is tr(M_a r M_b^+), with r the target's 2x2 and M_0, M_1
    the maps ``v`` and ``w`` onto ancilla |0> and |1>.  A caller that has
    the expansion's output passes its squared norm as ``p0``, the (0, 0)
    entry, which then rounds as the post-selection does.  With ``w``
    exactly zero the 2x2 is diag(p0, 0), p0 defaulting to |psi|^2, and the
    target's 2x2 is never gathered.
    """
    if not w.any():
        if p0 is None:
            p0 = float(np.vdot(state.amplitudes, state.amplitudes).real)
        return np.array([[p0, 0.0], [0.0, 0.0]], dtype=complex)
    r = _qubit_density(state, target)
    m = np.stack([v, w]).reshape(2, 4, 2)
    rho = np.einsum("aij,jk,bik->ab", m, r, m.conj())
    if p0 is not None:
        rho[0, 0] = p0
    return rho


def expand_by_one(
    w: StateVector, target_qubit: int, noise: NoiseParams | None = None
) -> StateVector:
    """Join one fresh |0> qubit to a W or W-like state at ``target_qubit``.

    The new qubit is inserted directly after the target, whose excitation
    amplitude splits evenly between the two.  The internal ancilla is
    projected back onto its ideal |0> state before being dropped; for ideal
    gates it is exactly there already.
    """
    target_qubit = _require_int("target_qubit", target_qubit)
    _weight_one_support(w)
    v, _ = _expansion_map(noise if noise is not None else NoiseParams())
    grown, _ = _normalized(expand_qubit(w.amplitudes, target_qubit, v))
    m = w.num_qubits
    # Move the new qubit from the end to right after its target.
    dest = [q + (q > target_qubit) for q in range(m)] + [target_qubit + 1]
    return permute(grown, QubitPermutation(tuple(dest)))


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Diagnostics of one doubling run.

    ``overlap`` is |<W_2n|out>|^2 of the post-selected output.  ``rounds``
    holds the post-selected register of each sequential round, round 0
    being |W_n> and round i ordered (w_0..w_{n-1}, new_0..new_{i-1}); it
    is empty in block mode.
    """

    overlap: float
    ancilla_purities: tuple[float, ...]
    success_probability: float
    rounds: tuple[StateVector, ...]

    @property
    def fidelity(self) -> float:
        """Overlap with |W_2n> times the projection probability."""
        return self.success_probability * self.overlap


def interleave_permutation(n: int) -> QubitPermutation:
    """Layout permutation of the paper's 3n-qubit block register.

    Takes the register ordered (w_0..w_{n-1}, new_0..new_{n-1},
    anc_0..anc_{n-1}) to n adjacent triples (w_i, anc_i, new_i).
    ``double_w`` never holds that register (it expands each w_i in
    place); ``wexpand verify``'s reference doubling does, running the 12
    gates on each triple, and ``verify`` checks this layout against the
    paper's swap network.
    """
    n = _require_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dest = [0] * (3 * n)
    for i in range(n):
        dest[i] = 3 * i
        dest[n + i] = 3 * i + 2
        dest[2 * n + i] = 3 * i + 1
    return QubitPermutation(tuple(dest))


def round_permutation(n: int, k: int) -> QubitPermutation:
    """Layout permutation of sequential round k of |W_n> -> |W_2n>.

    Takes the round's register, ordered (w_0..w_{n-1}, new_0..new_{k-1}),
    to each joined qubit right after its source: (w_0, new_0, ...,
    w_{k-1}, new_{k-1}, w_k, ..., w_{n-1}), the order in which a chain of
    ``expand_by_one`` rounds grows the state.
    """
    n, k = _require_int("n", n), _require_int("k", k)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    dest = [2 * j if j < k else k + j for j in range(n)]
    dest += [2 * j + 1 for j in range(k)]
    return QubitPermutation(tuple(dest))


def _require_doubling(n: int, mode: str) -> int:
    """The doubling's size as an int, once it and the mode are checked, in this order."""
    n = _require_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("block", "sequential"):
        raise ValueError(f"mode must be 'block' or 'sequential', got {mode!r}")
    if n > DOUBLING_MAX_N:
        raise ValueError(f"{mode} mode supports n <= {DOUBLING_MAX_N}, got n={n}")
    return n


def double_w(
    n: int, mode: str = "sequential", noise: NoiseParams | None = None
) -> tuple[StateVector, RunReport]:
    """Run |W_n> -> |W_2n>, returning the 2n-qubit state and a report.

    ``block`` mode expands every qubit of |W_n> before a single joint
    post-selection of all n ancillas; ``sequential`` post-selects round by
    round, each round joining one new qubit.  Either way the register grows
    by one qubit per expansion, to 2n qubits; each ancilla is never held,
    only its projection applied (a no-op for ideal gates).

    The output qubits are ordered original-W qubits first, joined qubits
    second.  The report holds the output's overlap with the ideal |W_2n>,
    the projection probability, each ancilla's pre-projection purity and,
    in sequential mode, the register after each round.
    """
    n = _require_doubling(n, mode)
    target = build_w_state(2 * n)
    v, w = _expansion_map(noise if noise is not None else NoiseParams())
    w_n = build_w_state(n)
    block = mode == "block"

    # Round i expands w_i and appends new_i last, after the i already joined.
    out, amps, prob = w_n, w_n.amplitudes, 1.0
    purities, rounds = [], [w_n]
    for i in range(n):
        amps = expand_qubit(amps, i, v)
        if block:
            # Each U acts on its own triple, so ancilla i reduces to a
            # function of w_i's 2x2 in |W_n> alone.
            purities.append(DensityMatrix(_ancilla_density(w_n, i, v, w)).purity())
            continue
        grown, p = _normalized(amps)
        purities.append(DensityMatrix(_ancilla_density(out, i, v, w, p)).purity())
        out, amps, prob = grown, grown.amplitudes, prob * p
        rounds.append(out)
    if block:
        # One joint post-selection of all n ancillas.
        out, prob = _normalized(amps)
        rounds = []

    report = RunReport(
        overlap=fidelity_pure(out, target),
        ancilla_purities=tuple(purities),
        success_probability=float(prob),
        rounds=tuple(rounds),
    )
    return out, report


def _require_weight_preserving(v: np.ndarray, w: np.ndarray) -> None:
    """Reject maps under which one pair c = V|1> no longer gives the doubling.

    V[q1', q2', x] with q1' + q2' != x moves amplitude to a string with a
    different number of excitations, a nonzero W leaves the ancilla mixed,
    and V[0,0,0] != 1 would put a different phase on the pairs of each
    round; for ideal gates none of these happens.
    """
    for q1, q2, x in itertools.product((0, 1), repeat=3):
        if q1 + q2 != x and v[q1, q2, x] != 0:
            raise ValueError(
                f"V[{q1}, {q2}, {x}] = {complex(v[q1, q2, x])!r} changes the number of "
                "excitations; the weight-one doubling needs it to be exactly 0"
            )
    if w.any():
        raise ValueError("W, the map onto ancilla |1>, is not zero; the weight-one "
                         "doubling needs the ancilla to stay in |0>")
    if v[0, 0, 0] != 1:
        raise ValueError(f"V[0, 0, 0] = {complex(v[0, 0, 0])!r}; the pair doubling needs it to be 1")


def double_w_pairs(n: int, mode: str = "sequential") -> tuple[Callable[[int], np.ndarray], RunReport]:
    """``double_w(n, mode)`` for ideal gates, in closed form from the pair c = V|1>.

    V|0> = |00>, so round k holds c on its first k pairs (w_i, new_i) and
    V[0,0,0] on each other w_i, divided once by sqrt(n P_k), with P_k =
    (k |c|^2 + n - k) / n; the output holds c on every pair.  Returns
    ``stage`` and the report.  ``stage(k)`` is one amplitude per qubit in
    qubit order: for k <= n round k, ordered (w_0, new_0, ..., w_{k-1},
    new_{k-1}, w_k, ..., w_{n-1}); for k = n + 1 the output, ordered
    (w_0..w_{n-1}, new_0..new_{n-1}).  The report holds the overlap |c10 +
    c01|^2 / (2 |c|^2), the success probability |c|^2 and the purities
    p0^2 (each ancilla's 2x2 is diag(p0, 0)): p0 = P_0 = <W_n|W_n> in block
    mode, P_{k+1} / P_k in round k.  Its ``rounds`` is empty.  Raises
    ValueError as ``double_w`` does for n and the mode, for V and W as
    ``_require_weight_preserving`` does, for a pair c = 0, before dividing by
    it, and for an output that is not normalized.
    """
    n = _require_doubling(n, mode)
    v, w = _expansion_map(NoiseParams())
    _require_weight_preserving(v, w)
    stay, moved, split = v[0, 0, 0], v[0, 1, 1], v[1, 0, 1]
    c2 = float(abs(moved) ** 2 + abs(split) ** 2)
    # Round n and the output are divided by sqrt(n |c|^2).
    if c2 == 0.0:
        raise ValueError("c = V|1> has |c|^2 = 0.0; the pair doubling needs it to keep the excitation")
    k = np.arange(n + 1)
    norms2 = k * c2 + (n - k) * abs(stay) ** 2  # n P_k
    # Row k is round k's (V[0,0,0], c01, c10).  The layout names each
    # qubit's column: round k's at [2(n - k), 3n - k), the output's, from
    # row n, at [3n, 5n).
    values = np.array([stay, moved, split]) / np.sqrt(norms2)[:, None]
    layout = np.array([2, 1] * n + [0] * n + [2] * n + [1] * n)
    purities = np.full(n, (norms2[0] / n) ** 2) if mode == "block" else (norms2[1:] / norms2[:-1]) ** 2
    report = RunReport(
        overlap=float(abs(split + moved) ** 2 / (2.0 * c2)),
        ancilla_purities=tuple(purities.tolist()),
        success_probability=c2,
        rounds=(),
    )

    def stage(k: int) -> np.ndarray:
        if not 0 <= k <= n + 1:
            raise ValueError(f"stage must be in 0..{n + 1}, got {k}")
        return values[min(k, n)].take(layout[3 * n:] if k > n else layout[2 * (n - k):3 * n - k])

    _require_normalized(stage(n + 1))
    return stage, report


# ---------------------------------------------------------------------------
# Physical role labeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitRole:
    """Mapping of logical |0>/|1> onto physical labels; purely presentational."""

    kind: str
    zero_label: str
    one_label: str
    # The `str.translate` table from a bit string to its labels, built once.
    labels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # One character a bit, so a window of a translated template is a label.
        if len(self.zero_label) != 1 or len(self.one_label) != 1:
            raise ValueError(
                f"role labels must be single characters, got {self.zero_label!r}, {self.one_label!r}"
            )
        table = str.maketrans({"0": self.zero_label, "1": self.one_label})
        object.__setattr__(self, "labels", table)


PHOTON = QubitRole("photon", "R", "L")  # circular polarization
SPIN = QubitRole("spin", "+", "-")


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


def relabel(state: StateVector, role: QubitRole) -> str:
    """Render a state's amplitudes in the physical labels of ``role``.

    Terms are listed excitation-leftmost first (descending basis index),
    the conventional way W-type states are written out.
    """
    return render_terms([(bits.translate(role.labels), amp) for bits, amp in reversed(state.terms())])


def render_terms(terms: list[tuple[str, complex]]) -> str:
    """Write (label, amplitude) terms, in the order given, as one state.

    Real amplitudes of one magnitude 1/sqrt(k), k an integer, share one
    denominator and keep their signs; any others stand before their terms.
    """
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
    return text
