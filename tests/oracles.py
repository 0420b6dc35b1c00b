"""Dense oracles that only the tests use: post-selection on the full register,
the matrix of a state transformation, built column by column, the expansion
operation as one dense 8x8, and the noisy maps V and W composed step by
step."""
from typing import Callable, Iterable

import numpy as np

from wexpand.gates import HADAMARD_ANGLE, T_PRIME_ANGLE, NoiseParams
from wexpand.statevec import StateVector, _normalized, _require_int, apply_unitary, basis_state
from wexpand.wcircuit import (
    EXPANSION_LAYOUT,
    EXPANSION_MATRIX,
    _expansion_map,
    standard_expansion_circuit,
)


def postselect_zero(state: StateVector, qubits: Iterable[int]) -> tuple[StateVector, float]:
    """Project the given qubits onto |0>, drop them, and renormalize.

    Returns the renormalized state over the remaining qubits (ascending
    original order) and the projection probability.
    """
    qs = sorted(set(_require_int("qubit", q) for q in qubits))
    n = state.num_qubits
    if not qs or qs[0] < 0 or qs[-1] >= n:
        raise ValueError(f"invalid qubit set {qs} for {n} qubits")
    if len(qs) == n:
        raise ValueError("cannot project away every qubit")
    sel: list = [slice(None)] * n
    for q in qs:
        sel[q] = 0
    return _normalized(state.tensor_view()[tuple(sel)].reshape(-1))


def apply_8x8(
    state: StateVector, q1: int, anc: int, q2: int, noise: NoiseParams | None = None
) -> StateVector:
    """The expansion operation on register qubits (q1, anc, q2) as one dense 8x8.

    ``EXPANSION_MATRIX`` for ideal gates.  Under noise, the 12-gate
    circuit's composed ``matrix()`` with columns 0 and 4 taken from
    ``_expansion_map``: on the protocol's inputs |x,0,0> only those two are
    read, so an oracle built on this differs from the kernel
    ``expand_qubit`` only in how the register is contracted.  The composed
    columns agree with ``expansion_maps`` within 1e-14 but not bit for bit
    (``test_batched_expansion_maps_match_the_circuit_matrix``).
    """
    if noise is None or noise.is_ideal:
        return apply_unitary(state, EXPANSION_MATRIX, (q1, anc, q2))
    u = standard_expansion_circuit(noise).matrix()
    u.reshape(2, 2, 2, 8)[..., [0, 4]] = np.stack(_expansion_map(noise), axis=1)
    return apply_unitary(state, u, (q1, anc, q2))


def operation_matrix(op: Callable[[StateVector], StateVector], num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a state transformation, column by column."""
    dim = 1 << num_qubits
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        cols[:, i] = op(basis_state(format(i, f"0{num_qubits}b"))).amplitudes
    return cols


def stepwise_expansion_maps(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """``wexpand.wcircuit.expansion_maps`` composed step by step, its oracle.

    V and W of the 12-gate circuit at k noise points, each (k, 2, 2, 2) and
    indexed [point, q1', q2', x], composed as an (8, 2, k) stack of columns
    0 and 4: a rotation [[cos, sin], [sin, -cos]] on slot t mixes the two
    halves of that slot's row axis, and a controlled phase scales the rows
    where both of its slots are |1>.  ``expansion_maps`` takes the same IEEE
    operations per entry, up to exact commutation and negation, so the two
    agree bit for bit.
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
    u = np.eye(8, dtype=complex)[:, [0, 4], None] * np.ones(k)
    for kind, targets in EXPANSION_LAYOUT:
        if kind == "cp":
            # Slot t is bit 2 - t of the row index.
            rows = [i for i in range(8) if all((i >> (2 - t)) & 1 for t in targets)]
            u[rows] *= phase
        else:
            c, s = cos_sin[kind]
            halves = u.reshape(1 << targets[0], 2, -1, k)
            u0, u1 = halves[:, 0], halves[:, 1]
            u = np.stack([c * u0 + s * u1, s * u0 - c * u1], axis=1).reshape(8, 2, k)
    u = np.moveaxis(u.reshape(2, 2, 2, 2, k), -1, 0)
    return u[:, :, 0], u[:, :, 1]


def two_branch_complex_quotient(a_re, a_im, b_re, b_im):
    """``wexpand.cavity._complex_quotient`` with both of Smith's branches
    evaluated at every point and the point's own one picked after, its oracle.

    CPython's `_Py_c_quot`: divide through by whichever of b's parts is
    larger in magnitude, the real part on a tie, and NaN where neither
    comparison holds (a NaN in b).
    """
    real_larger = np.abs(b_re) >= np.abs(b_im)
    imag_larger = np.abs(b_im) >= np.abs(b_re)
    ratio = b_im / b_re
    denom = b_re + b_im * ratio
    re_1 = (a_re + a_im * ratio) / denom
    im_1 = (a_im - a_re * ratio) / denom
    ratio = b_re / b_im
    denom = b_re * ratio + b_im
    re_2 = (a_re * ratio + a_im) / denom
    im_2 = (a_im * ratio - a_re) / denom
    return (
        np.where(real_larger, re_1, np.where(imag_larger, re_2, np.nan)),
        np.where(real_larger, im_1, np.where(imag_larger, im_2, np.nan)),
    )
