"""Gate constructors.

The whole protocol runs on three gate families:

* real reflection rotations R(theta) = [[cos, sin], [sin, -cos]], which give
  the Hadamard at theta = pi/4 and the T' gate at theta = pi/8, and whose
  angle-shifted variants model calibration errors in those gates;
* the controlled-phase gate diag(1, 1, 1, e^{i(pi-gamma)}), an ideal CZ at
  gamma = 0;
* two physical realizations of the reflection rotation: a half-wave plate
  acting on polarization qubits, and a holonomic (geometric-phase) gate
  acting on spin qubits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import ATOL_ALGEBRA, _readonly, _require_finite_real

HADAMARD_ANGLE = np.pi / 4
T_PRIME_ANGLE = np.pi / 8


@dataclass(frozen=True, eq=False)
class Gate:
    """Small dense one- or two-qubit unitary with a display label."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate {self.label!r} must be 2x2 or 4x4, got shape {m.shape}")
        if not np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= ATOL_ALGEBRA:
            raise ValueError(f"gate {self.label!r} is not unitary")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def arity(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def __repr__(self) -> str:
        return f"Gate({self.label!r}, arity={self.arity})"


@dataclass(frozen=True)
class NoiseParams:
    """Coherent gate-imperfection angles, shared across all gate instances.

    ``alpha`` shifts every Hadamard, ``beta`` every T', and ``gamma`` turns
    every CZ into the controlled phase e^{i(pi-gamma)}.  Each must be a
    finite real number: an int or a float, Python or numpy, but not a bool.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            _require_finite_real(name, getattr(self, name))

    @property
    def is_ideal(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0


def rotation_gate(theta: float, label: str | None = None) -> Gate:
    """Real reflection rotation [[cos t, sin t], [sin t, -cos t]].

    Involutory for every angle; R(pi/4) is the Hadamard and R(pi/8) the T'.
    """
    _require_finite_real("theta", theta)
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[c, s], [s, -c]], dtype=complex)
    return Gate(m, label if label is not None else f"R({theta:.6g})")


def hadamard(alpha: float = 0.0) -> Gate:
    """Hadamard, optionally with an angle miscalibration ``alpha``."""
    _require_finite_real("alpha", alpha)
    label = "H" if alpha == 0.0 else f"H({alpha:.6g})"
    return rotation_gate(HADAMARD_ANGLE - alpha, label)


def t_prime(beta: float = 0.0) -> Gate:
    """T' gate (reflection rotation at pi/8), optionally miscalibrated."""
    _require_finite_real("beta", beta)
    label = "T'" if beta == 0.0 else f"T'({beta:.6g})"
    return rotation_gate(T_PRIME_ANGLE - beta, label)


def controlled_phase(gamma: float = 0.0) -> Gate:
    """diag(1, 1, 1, e^{i(pi-gamma)}); an ideal CZ for gamma = 0.

    The phase is evaluated as -e^{-i gamma} so the ideal case is exactly -1.
    """
    _require_finite_real("gamma", gamma)
    m = np.diag([1.0, 1.0, 1.0, -np.exp(-1j * gamma)]).astype(complex)
    label = "CZ" if gamma == 0.0 else f"CP({gamma:.6g})"
    return Gate(m, label)


@dataclass(frozen=True)
class HolonomicParams:
    """Control parameters of the cyclic two-tone drive realizing a spin gate.

    ``theta`` and ``phi`` set the dark/bright-state decomposition of the
    qubit subspace; ``delta_over_omega`` is the detuning-to-Rabi ratio, the
    only combination the acquired geometric phase depends on.  Each must be
    a finite real number, as ``NoiseParams``'s angles are.
    """

    theta: float
    phi: float = 0.0
    delta_over_omega: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi", "delta_over_omega"):
            _require_finite_real(name, getattr(self, name))

    @property
    def geometric_phase(self) -> float:
        r = self.delta_over_omega
        # hypot, not sqrt(1 + r^2): r^2 overflows past |r| ~ 1e154 and
        # would read as a phase of pi.
        phase = np.pi * (1.0 - r / np.hypot(1.0, r))
        if not 0.0 < phase < 2.0 * np.pi:
            raise ValueError(f"geometric phase {phase!r} outside (0, 2*pi)")
        return float(phase)


def holonomic_gate(p: HolonomicParams) -> Gate:
    """Geometric gate |d><d| + e^{i*phase}|b><b| in the {|->, |+>} basis.

    The dark state |d> = cos(theta/2)|-> + e^{i phi} sin(theta/2)|+> is
    decoupled from the drive; the bright state (its orthogonal complement)
    picks up the geometric phase over one cyclic evolution.  For zero
    detuning and phi = 0 the phase is pi and the gate reduces to the real
    reflection rotation at ``theta``.
    """
    gph = p.geometric_phase
    c, s = np.cos(p.theta / 2.0), np.sin(p.theta / 2.0)
    eph = np.exp(1j * p.phi)
    d = np.array([c, eph * s], dtype=complex)
    b = np.array([s, -eph * c], dtype=complex)
    m = np.outer(d, d.conj()) + np.exp(1j * gph) * np.outer(b, b.conj())
    return Gate(m, f"U({p.theta:.6g},{p.phi:.6g},{p.delta_over_omega:.6g})")


def hwp_gate(plate_angle: float) -> Gate:
    """Half-wave plate at physical angle ``plate_angle``.

    Rotating the plate by ``a`` rotates polarization by ``2a``, so the gate
    equals ``rotation_gate(2 * plate_angle)``: a plate at pi/8 implements
    the Hadamard and a plate at pi/16 the T'.
    """
    _require_finite_real("plate_angle", plate_angle)
    return rotation_gate(2.0 * plate_angle, f"HWP({plate_angle:.6g})")


def phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise deviation between two matrices after global-phase alignment.

    The phase is fixed on the largest-magnitude entry of ``a``; physical
    gates are rays, so tests compare them this way.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    idx = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    if abs(b[idx]) < 1e-300:
        return float(np.max(np.abs(a - b)))
    phase = (a[idx] / abs(a[idx])) * (abs(b[idx]) / b[idx])
    return float(np.max(np.abs(a - phase * b)))
