"""Gate-imperfection fidelity analysis for the doubling protocol.

Closed-form fidelities of |W_n> -> |W_2n> under shared coherent gate errors
(Hadamard angle ``alpha``, T' angle ``beta``, controlled-phase ``gamma``),
an end-to-end noisy simulation of the same quantity, and sweep generation.

Fidelity definition.  Two candidates are implemented and were calibrated
against the closed forms:

* ``post-selected-overlap``: |<W_2n, anc-ideal | psi_final>|^2, the squared
  overlap of the full final state with the target joined to all ancillas in
  their ideal |0> state;
* ``reduced-density``: <W_2n| tr_anc(rho_final) |W_2n>.

The post-selected overlap reproduces the closed forms exactly and is
independent of n (each round acts as the exact identity on the n-1 terms
whose control qubit is |0>, even with imperfect gates, so the overlap
amplitude is the same single-triple quantity for every n).  The reduced-
density variant adds the ancilla-excited branches, whose weight decays like
1/n.  The calibrated default is therefore ``post-selected-overlap``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import IDEAL, NoiseParams
from .statevec import StateVector, permute, tensor, zero_state
from .wcircuit import (
    BLOCK_MODE_MAX_N,
    apply_O,
    build_w_state,
    expansion_unitaries,
    interleave_permutation,
)

POST_SELECTED_OVERLAP = "post-selected-overlap"
REDUCED_DENSITY = "reduced-density"
# Selected by calibration against the closed forms (see module docstring).
CALIBRATED_DEFINITION = POST_SELECTED_OVERLAP

_S8 = np.sin(np.pi / 8.0)
_C8 = np.cos(np.pi / 8.0)


@dataclass(frozen=True)
class FidelityRecord:
    """One sweep point: the four closed forms plus the simulated value."""

    theta: float
    f_h: float
    f_tp: float
    f_cp: float
    f_combined: float
    f_simulated: float
    n: int


def fidelity_hadamard(alpha: float) -> float:
    """Doubling fidelity when only the Hadamards carry an angle error."""
    return float(abs(0.5 + 0.5 * np.cos(2.0 * alpha) ** 3) ** 2)


def fidelity_t_prime(beta: float) -> float:
    """Doubling fidelity when only the T' gates carry an angle error."""
    x = (np.pi + 8.0 * beta) / 4.0
    return float(abs((np.cos(x) + np.sin(x)) / np.sqrt(2.0)) ** 2)


def fidelity_controlled_phase(gamma: float) -> float:
    """Doubling fidelity when only the controlled-phase gates are off."""
    amp = 0.5 * np.exp(-2j * gamma) * np.cos(gamma / 2.0) ** 4 + (
        _C8**2 - np.exp(-1j * gamma) * _S8**2
    ) / np.sqrt(2.0)
    return float(abs(amp) ** 2)


def fidelity_combined(alpha: float, beta: float, gamma: float) -> float:
    """Doubling fidelity with all three imperfections acting together."""
    eg = np.exp(1j * gamma)
    x = (np.pi + 8.0 * beta) / 4.0
    amp = np.exp(-4j * gamma) * (1.0 + eg) ** 4 * np.cos(2.0 * alpha) ** 3 * np.cos(x) / (
        16.0 * np.sqrt(2.0)
    ) + np.exp(-1j * gamma) * (-1.0 + eg + (1.0 + eg) * np.sin(x)) / (2.0 * np.sqrt(2.0))
    return float(abs(amp) ** 2)


def _noisy_final_register(n: int, params: NoiseParams) -> StateVector:
    """Full 3n-qubit state after all n noisy expansion rounds, ancillas kept."""
    reg = tensor(build_w_state(n), zero_state(2 * n))
    reg = permute(reg, interleave_permutation(n))
    for i in range(n):
        reg = apply_O(reg, 3 * i, 3 * i + 1, 3 * i + 2, params)
    return reg


def simulate_noisy_fidelity(
    n: int, params: NoiseParams, definition: str = CALIBRATED_DEFINITION
) -> float:
    """End-to-end noisy doubling fidelity against |W_2n>.

    Runs the full doubling register with every gate replaced by its
    imperfect variant and evaluates the requested fidelity definition.
    """
    if not 1 <= n <= BLOCK_MODE_MAX_N:
        raise ValueError(f"n must be in 1..{BLOCK_MODE_MAX_N}, got {n}")
    reg = _noisy_final_register(n, params)
    target = build_w_state(2 * n).amplitudes

    # Group the 3n axes as all logical qubits first, all ancillas last.  The
    # target is invariant under qubit reordering, so the interleaved logical
    # order needs no fixup.
    logical = [q for i in range(n) for q in (3 * i, 3 * i + 2)]
    ancillas = [3 * i + 1 for i in range(n)]
    m = reg.tensor_view().transpose(logical + ancillas).reshape(1 << (2 * n), -1)

    if definition == POST_SELECTED_OVERLAP:
        return float(abs(np.vdot(target, m[:, 0])) ** 2)
    if definition == REDUCED_DENSITY:
        return float(np.sum(np.abs(target.conj() @ m) ** 2))
    raise ValueError(
        f"unknown fidelity definition {definition!r}; expected "
        f"{POST_SELECTED_OVERLAP!r} or {REDUCED_DENSITY!r}"
    )


def doubling_overlap_fidelity(u: np.ndarray, n: int) -> np.ndarray:
    """Post-selected overlap fidelity of |W_n> -> |W_2n> from the noisy 8x8s.

    ``u`` holds 8x8 expansion unitaries along its leading axes (for example
    the (k, 8, 8) stack of ``expansion_unitaries``); the result has the
    leading shape.  It equals ``simulate_noisy_fidelity(n, ...)`` without
    building the 3n-qubit register: the final state is
    (1/sqrt n) sum_i U|100>_i (x) prod_{j != i} U|000>_j, a sum of n product
    states, so its overlap with |W_2n>|0..0>_anc needs only
    a = U[0,0], b = U[4,0] + U[1,0], c = U[0,4] and d = U[4,4] + U[1,4]:

        amplitude = (n d a^(n-1) + n(n-1) c b a^(n-2)) / (n sqrt 2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = np.asarray(u)
    if u.shape[-2:] != (8, 8):
        raise ValueError(f"expected 8x8 unitaries along the last two axes, got {u.shape}")
    a = u[..., 0, 0]
    d = u[..., 4, 4] + u[..., 1, 4]
    amp = n * d * a ** (n - 1)
    if n > 1:
        b = u[..., 4, 0] + u[..., 1, 0]
        c = u[..., 0, 4]
        amp = amp + n * (n - 1) * c * b * a ** (n - 2)
    return np.abs(amp / (n * np.sqrt(2.0))) ** 2


def sweep(theta_max: float, steps: int, n: int = 2) -> list[FidelityRecord]:
    """Evaluate all fidelity series on the shared grid theta_k = k*theta_max/(steps-1).

    The three single-imperfection series each set the other two angles to
    zero; the combined series (closed-form and simulated) drives all three
    with the same theta.  The simulated series composes the noisy 8x8 at
    every grid point in one batch and reads each fidelity from two of its
    columns (``doubling_overlap_fidelity``); ``simulate_noisy_fidelity``
    is its dense oracle.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 1 <= n <= BLOCK_MODE_MAX_N:
        raise ValueError(f"n must be in 1..{BLOCK_MODE_MAX_N}, got {n}")
    thetas = np.linspace(0.0, theta_max, steps)
    simulated = doubling_overlap_fidelity(expansion_unitaries(thetas, thetas, thetas), n)
    return [
        FidelityRecord(
            theta=theta,
            f_h=fidelity_hadamard(theta),
            f_tp=fidelity_t_prime(theta),
            f_cp=fidelity_controlled_phase(theta),
            f_combined=fidelity_combined(theta, theta, theta),
            f_simulated=f_sim,
            n=n,
        )
        for theta, f_sim in zip(thetas.tolist(), simulated.tolist())
    ]


__all__ = [
    "CALIBRATED_DEFINITION",
    "FidelityRecord",
    "IDEAL",
    "NoiseParams",
    "POST_SELECTED_OVERLAP",
    "REDUCED_DENSITY",
    "doubling_overlap_fidelity",
    "fidelity_combined",
    "fidelity_controlled_phase",
    "fidelity_hadamard",
    "fidelity_t_prime",
    "simulate_noisy_fidelity",
    "sweep",
]
