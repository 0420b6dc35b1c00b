"""Gate-imperfection fidelity analysis for the doubling protocol.

Closed-form fidelities of |W_n> -> |W_2n> under shared coherent gate errors
(Hadamard angle ``alpha``, T' angle ``beta``, controlled-phase ``gamma``),
the same fidelity read exactly from the noisy 8x8 expansion operator, and
sweep generation.

Fidelity definition.  The doubling fidelity is the post-selected overlap
|<W_2n, anc-ideal | psi_final>|^2: the squared overlap of the full final
state with the target joined to all ancillas in their ideal |0> state
(``RunReport.fidelity`` of ``wcircuit.double_w``, the dense oracle).  It
reproduces the closed forms exactly and is independent of n: each round
acts as the exact identity on the n-1 terms whose control qubit is |0>,
even with imperfect gates, so the overlap amplitude is the same
single-triple quantity for every n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import _require_int
from .wcircuit import DOUBLING_MAX_N, expansion_unitaries

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


def doubling_overlap_fidelity(u: np.ndarray, n: int) -> np.ndarray:
    """Post-selected overlap fidelity of |W_n> -> |W_2n> from the noisy 8x8s.

    ``u`` holds 8x8 expansion unitaries along its leading axes (for example
    the (k, 8, 8) stack of ``expansion_unitaries``); the result has the
    leading shape.  It equals the dense
    ``double_w(DoublingPlan(n, "block"), noise)[1].fidelity`` without
    building its 2n-qubit register: the final state is
    (1/sqrt n) sum_i U|100>_i (x) prod_{j != i} U|000>_j, a sum of n product
    states, so its overlap with |W_2n>|0..0>_anc needs only
    a = U[0,0], b = U[4,0] + U[1,0], c = U[0,4] and d = U[4,4] + U[1,4]:

        amplitude = (n d a^(n-1) + n(n-1) c b a^(n-2)) / (n sqrt 2).
    """
    n = _require_int("n", n)
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
    columns (``doubling_overlap_fidelity``); ``double_w`` run in block
    mode with the same noise is its dense oracle.

    A ``theta_max`` whose grid gives a non-finite fidelity (past |theta|
    ~ 2.2e307 the closed forms' 8 theta overflows) is rejected by name,
    without numpy's warnings.
    """
    steps = _require_int("steps", steps)
    n = _require_int("n", n)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 1 <= n <= DOUBLING_MAX_N:
        raise ValueError(f"n must be in 1..{DOUBLING_MAX_N}, got {n}")
    if not np.isfinite(theta_max):
        raise ValueError(f"theta_max must be finite, got {theta_max!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = np.linspace(0.0, theta_max, steps)
        simulated = doubling_overlap_fidelity(expansion_unitaries(thetas, thetas, thetas), n)
        records = [
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
    values = [(r.theta, r.f_h, r.f_tp, r.f_cp, r.f_combined, r.f_simulated) for r in records]
    if not np.isfinite(values).all():
        raise ValueError(
            f"theta_max {theta_max!r} is too large in magnitude: "
            "the sweep's fidelities are not finite"
        )
    return records


__all__ = [
    "FidelityRecord",
    "doubling_overlap_fidelity",
    "fidelity_combined",
    "fidelity_controlled_phase",
    "fidelity_hadamard",
    "fidelity_t_prime",
    "sweep",
]
