"""Spin-photon interface: cavity reflection coefficients and CZ-gate quality.

A photon reflecting off a single-sided cavity containing a spin-selective
emitter picks up a conditional phase.  When the emitter couples (spin state
matching the photon polarization), the reflection coefficient is

    r(w_p) = {[i(w_C - w_p) - k/2][i(w_0 - w_p) + g_d/2] + g^2}
             / {[i(w_C - w_p) + k/2][i(w_0 - w_p) + g_d/2] + g^2},

with w_p, w_C, w_0 the photon, cavity and transition frequencies, g the
coupling, k the cavity decay and g_d the emitter decay.  Uncoupled, the
same photon sees the bare-cavity coefficient

    r_0(w_p) = [i(w_C - w_p) - k/2] / [i(w_C - w_p) + k/2],

which has unit modulus at every detuning.  On resonance these reduce to
r = (4g^2 - k*g_d)/(4g^2 + k*g_d) and r_0 = -1, so for strong coupling
(g > 5 sqrt(k*g_d)) the conditional phases approach (0, pi) and, with a pi
phase shifter on the output path, the reflection implements a controlled-Z
between spin and photon.

Only frequency differences and rate ratios matter; any shared unit works.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of the emitter-cavity reflection."""

    omega_p: float
    omega_c: float
    omega_0: float
    g: float
    kappa: float
    gamma_decay: float

    def __post_init__(self):
        # cavity-sweep builds one instance per grid point, so the common case
        # costs one sum: it is finite whenever every field is, unless it
        # overflows, and only then does the per-field loop run.
        if not math.isfinite(
            self.omega_p + self.omega_c + self.omega_0 + self.g + self.kappa + self.gamma_decay
        ):
            for name in ("omega_p", "omega_c", "omega_0", "g", "kappa", "gamma_decay"):
                value = getattr(self, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.gamma_decay <= 0.0:
            raise ValueError(f"gamma_decay must be positive, got {self.gamma_decay}")
        if self.g < 0.0:
            raise ValueError(f"g must be nonnegative, got {self.g}")

    @classmethod
    def resonant(
        cls, g: float, kappa: float = 1.0, gamma_decay: float = 1.0
    ) -> "CavityParams":
        """All three frequencies equal (set to zero); rates in units of kappa."""
        return cls(0.0, 0.0, 0.0, g, kappa, gamma_decay)


@dataclass(frozen=True)
class PhasePair:
    """Reflection phases: coupled (phi) and uncoupled (phi_0), in (-pi, pi]."""

    phi: float
    phi_0: float


@dataclass(frozen=True)
class CzQuality:
    """How close the conditional reflection phases come to an ideal CZ."""

    phi_error: float
    phi0_error: float
    modulus_error: float
    strong_coupling: bool
    passed: bool
    phase_tol: float
    modulus_tol: float


def reflection_coupled(p: CavityParams) -> complex:
    """Reflection coefficient with the emitter coupled to the cavity."""
    dc = 1j * (p.omega_c - p.omega_p)
    de = 1j * (p.omega_0 - p.omega_p)
    num = (dc - p.kappa / 2.0) * (de + p.gamma_decay / 2.0) + p.g**2
    den = (dc + p.kappa / 2.0) * (de + p.gamma_decay / 2.0) + p.g**2
    if abs(den) < 1e-300:
        raise ValueError("reflection denominator vanished (unphysical parameters)")
    return complex(num / den)


def reflection_uncoupled(p: CavityParams) -> complex:
    """Bare-cavity reflection coefficient; unit modulus at any detuning."""
    dc = 1j * (p.omega_c - p.omega_p)
    den = dc + p.kappa / 2.0
    if abs(den) < 1e-300:
        raise ValueError("reflection denominator vanished (unphysical parameters)")
    return complex((dc - p.kappa / 2.0) / den)


def phase_pair(p: CavityParams) -> PhasePair:
    """Arguments of the coupled and uncoupled reflection coefficients."""
    return PhasePair(
        phi=float(np.angle(reflection_coupled(p))),
        phi_0=float(np.angle(reflection_uncoupled(p))),
    )


def _wrap(angle: float) -> float:
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


def cz_quality(
    p: CavityParams, phase_tol: float = 0.01, modulus_tol: float = 0.02
) -> CzQuality:
    """Judge whether the reflection realizes a CZ gate.

    Reports how far the coupled phase is from 0, the uncoupled phase from
    pi, and |r| from 1, passing when all three stay under the thresholds.
    The default thresholds let the canonical strong-coupling operating
    point g = 5 sqrt(kappa * gamma_decay) pass marginally on resonance.
    Also reports whether g exceeds that strong-coupling bound.
    """
    r = reflection_coupled(p)
    r0 = reflection_uncoupled(p)
    phi_error = abs(_wrap(float(np.angle(r))))
    phi0_error = abs(_wrap(float(np.angle(r0)) - np.pi))
    modulus_error = abs(abs(r) - 1.0)
    passed = (
        phi_error < phase_tol and phi0_error < phase_tol and modulus_error < modulus_tol
    )
    return CzQuality(
        phi_error=phi_error,
        phi0_error=phi0_error,
        modulus_error=modulus_error,
        strong_coupling=p.g > 5.0 * np.sqrt(p.kappa * p.gamma_decay),
        passed=passed,
        phase_tol=phase_tol,
        modulus_tol=modulus_tol,
    )
