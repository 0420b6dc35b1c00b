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

`reflection_grid` evaluates both coefficients, their phases and the CZ
judgment over a whole (detuning, g) grid at once; `phase_pair` and
`cz_quality` read it at a single point.  `reflection_coupled` and
`reflection_uncoupled` stay as its scalar oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import _is_finite, _is_real, _real_array, _require_finite_real


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of the emitter-cavity reflection.

    Each field must be a finite real number: an int or a float, Python or
    numpy, but not a bool.
    """

    omega_p: float
    omega_c: float
    omega_0: float
    g: float
    kappa: float
    gamma_decay: float

    def __post_init__(self):
        for name in ("omega_p", "omega_c", "omega_0", "g", "kappa", "gamma_decay"):
            _require_finite_real(name, getattr(self, name))
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
    """Reflection coefficient with the emitter coupled to the cavity.

    The scalar oracle of `reflection_grid`, which reproduces it bit for bit.
    Every real operand is made complex first (`complex(x)` is x + 0j), so
    the rounding and the sign of each zero are the same on every CPython:
    3.14 combines a float with a complex number by the C99 mixed-mode
    rules, where earlier versions promote the float to complex.

    Raises ValueError if the denominator vanishes or the reflection is not
    finite (g^2 overflows past g ~ 1.34e154, whatever the type of g).
    """
    dc = 1j * complex(p.omega_c - p.omega_p)
    de = 1j * complex(p.omega_0 - p.omega_p)
    b = de + complex(p.gamma_decay / 2.0)
    g2 = complex(_square(float(p.g)))
    num = (dc - complex(p.kappa / 2.0)) * b + g2
    den = (dc + complex(p.kappa / 2.0)) * b + g2
    if abs(den) < 1e-300:
        raise ValueError("reflection denominator vanished (unphysical parameters)")
    r = complex(num / den)
    if not (math.isfinite(r.real) and math.isfinite(r.imag)):
        raise ValueError("reflection is not finite")
    return r


def reflection_uncoupled(p: CavityParams) -> complex:
    """Bare-cavity reflection coefficient; unit modulus at any detuning.

    The scalar oracle of `reflection_grid`, which reproduces it bit for bit;
    real operands are made complex first, as in `reflection_coupled`.

    Raises ValueError if the denominator vanishes or the reflection is not
    finite (w_C - w_p overflows for finite frequencies near 1.8e308).
    """
    dc = 1j * complex(p.omega_c - p.omega_p)
    den = dc + complex(p.kappa / 2.0)
    if abs(den) < 1e-300:
        raise ValueError("reflection denominator vanished (unphysical parameters)")
    r = complex((dc - complex(p.kappa / 2.0)) / den)
    if not (math.isfinite(r.real) and math.isfinite(r.imag)):
        raise ValueError("reflection is not finite")
    return r


@dataclass(frozen=True)
class ReflectionGrid:
    """Reflection coefficients, phases and CZ judgment at every grid point.

    Every field has the broadcast shape of the grid's inputs.  The errors
    are how far phi is from 0, phi_0 from pi and |r| from 1; `cz_pass`
    holds where all three stay under their thresholds.  `r_0`, `phi_0` and
    `phi0_error` depend on the cavity detuning alone: they are read-only
    views that broadcast the detuning's own values to the grid's shape.
    """

    r: np.ndarray
    r_0: np.ndarray
    phi: np.ndarray
    phi_0: np.ndarray
    phi_error: np.ndarray
    phi0_error: np.ndarray
    modulus_error: np.ndarray
    cz_pass: np.ndarray


class GridPointError(ValueError):
    """A point of a `reflection_grid` grid cannot be evaluated.

    `reason` says what is wrong and `index` is the point's index in the
    broadcast grid, so a caller can name the point in its own terms.
    """

    def __init__(self, reason: str, index: tuple[int, ...], point: str):
        super().__init__(f"{reason} at the grid point with {point}")
        self.reason = reason
        self.index = index


def _complex_quotient(a_re, a_im, b_re, b_im):
    """(a_re + i a_im) / (b_re + i b_im) with CPython's `_Py_c_quot`.

    Smith's algorithm: divide through by whichever of b's parts is larger
    in magnitude; a NaN in b gives NaN.  numpy's complex division rounds
    differently, so the grid does its own.
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


def _square(v: float) -> float:
    # libm pow(v, 2), which a Python float's `**` calls; inf on overflow,
    # where a Python float raises.
    try:
        return v**2
    except OverflowError:
        return math.inf


def _require_threshold(name: str, value) -> None:
    # A bool or NaN would compare without error and silently decide every point.
    if not (_is_real(value) and _is_finite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def _wrap(angle):
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def reflection_grid(
    detuning,
    g,
    gamma_decay: float,
    *,
    kappa: float = 1.0,
    emitter_detuning=None,
    phase_tol: float = 0.01,
    modulus_tol: float = 0.02,
) -> ReflectionGrid:
    """Coupled and uncoupled reflection, phases and CZ judgment over a grid.

    `detuning` is w_C - w_p and `emitter_detuning` is w_0 - w_p (by
    default equal to `detuning`: emitter and cavity co-resonant); they
    broadcast against the coupling `g`.  Each point equals
    `reflection_coupled`, `reflection_uncoupled` and their `np.angle` at
    the same parameters bit for bit: the complex arithmetic is written out
    on real and imaginary parts in their order of operations (each real
    operand made complex, so signed zeros survive), and g^2 is the same
    libm `pow` (`_square`) as in the scalar code, which differs from
    `g * g` in the last bit for some g.  What depends on the detunings
    alone (r_0, and the products that g^2 is added to) is computed on
    their own shape, with the same operations in the same order; only the
    sums with g^2 and what follows from them take the whole grid.

    Raises ValueError for a grid input that does not hold real numbers
    (ints or floats; a bool, a string or a complex number is not one), for
    a rate that is not a finite real number and for a threshold that is
    not a positive finite number; and GridPointError (a
    ValueError), naming the first offending grid point, for non-finite
    or negative grid inputs, a vanishing denominator, or a reflection
    that overflows to a non-finite value.
    """
    for name, rate in (("kappa", kappa), ("gamma_decay", gamma_decay)):
        _require_finite_real(name, rate)
        if rate <= 0.0:
            raise ValueError(f"{name} must be positive, got {rate}")
    _require_threshold("phase_tol", phase_tol)
    _require_threshold("modulus_tol", modulus_tol)
    coresonant = emitter_detuning is None
    detuning, g = _real_array("detuning", detuning), _real_array("g", g)
    emitter = detuning if coresonant else _real_array("emitter_detuning", emitter_detuning)
    g2 = np.array([_square(v) for v in g.ravel().tolist()]).reshape(g.shape)
    x_c, x_e, g = np.broadcast_arrays(detuning, emitter, g)

    def fail(reason: str, bad: np.ndarray):
        k = int(np.argmax(np.broadcast_to(bad, g.shape)))
        point = f"detuning {float(x_c.flat[k])!r}, g {float(g.flat[k])!r}"
        if not coresonant:
            point += f", emitter detuning {float(x_e.flat[k])!r}"
        index = tuple(int(i) for i in np.unravel_index(k, g.shape))
        raise GridPointError(reason, index, point)

    for name, values in (("detuning", x_c), ("emitter detuning", x_e), ("g", g)):
        finite = np.isfinite(values)
        if not finite.all():
            fail(f"{name} must be finite", ~finite)
    if (g < 0.0).any():
        fail("g must be nonnegative", g < 0.0)

    k2 = kappa / 2.0
    with np.errstate(all="ignore"):
        # 1j * complex(x) as complex(0, 1) * complex(x, 0); then dc -+ kappa/2
        # and de + gamma_decay/2, each real made complex as in the oracle.
        # dc, and with it r_0, is computed on the detuning's own shape, and
        # the products (dc -+ kappa/2) * b, imaginary parts in full, on the
        # detunings' shape; only the real g^2 is added on the whole grid.
        dc_re, dc_im = 0.0 * detuning - 0.0, 0.0 + detuning
        a_re, a_im = dc_re - k2, dc_im - 0.0
        c_re, c_im = dc_re + k2, dc_im + 0.0
        b_re, b_im = (0.0 * emitter - 0.0) + gamma_decay / 2.0, (0.0 + emitter) + 0.0
        num_re, num_im = (a_re * b_re - a_im * b_im) + g2, (a_re * b_im + a_im * b_re) + 0.0
        den_re, den_im = (c_re * b_re - c_im * b_im) + g2, (c_re * b_im + c_im * b_re) + 0.0
        for re, im in ((den_re, den_im), (c_re, c_im)):
            vanished = np.hypot(re, im) < 1e-300
            if vanished.any():
                fail("reflection denominator vanished (unphysical parameters)", vanished)
        r_re, r_im = _complex_quotient(num_re, num_im, den_re, den_im)
        r0_re, r0_im = _complex_quotient(a_re, a_im, c_re, c_im)
        finite = np.isfinite(r_re) & np.isfinite(r_im) & np.isfinite(r0_re) & np.isfinite(r0_im)
        if not finite.all():
            fail("reflection is not finite", ~finite)
        phi = np.arctan2(r_im, r_re)
        phi_0 = np.arctan2(r0_im, r0_re)
        phi_error = np.abs(_wrap(phi))
        phi0_error = np.abs(_wrap(phi_0 - np.pi))
        modulus_error = np.abs(np.hypot(r_re, r_im) - 1.0)
    r = np.empty(g.shape, dtype=complex)
    r.real, r.imag = r_re, r_im
    r_0 = np.empty(detuning.shape, dtype=complex)
    r_0.real, r_0.imag = r0_re, r0_im
    return ReflectionGrid(
        r=r,
        r_0=np.broadcast_to(r_0, g.shape),
        phi=phi,
        phi_0=np.broadcast_to(phi_0, g.shape),
        phi_error=phi_error,
        phi0_error=np.broadcast_to(phi0_error, g.shape),
        modulus_error=modulus_error,
        cz_pass=(phi_error < phase_tol) & (phi0_error < phase_tol) & (modulus_error < modulus_tol),
    )


def _reflection_at(p: CavityParams, **thresholds) -> ReflectionGrid:
    return reflection_grid(
        p.omega_c - p.omega_p,
        p.g,
        p.gamma_decay,
        kappa=p.kappa,
        emitter_detuning=p.omega_0 - p.omega_p,
        **thresholds,
    )


def phase_pair(p: CavityParams) -> PhasePair:
    """Arguments of the coupled and uncoupled reflection coefficients."""
    grid = _reflection_at(p)
    return PhasePair(phi=float(grid.phi), phi_0=float(grid.phi_0))


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
    grid = _reflection_at(p, phase_tol=phase_tol, modulus_tol=modulus_tol)
    return CzQuality(
        phi_error=float(grid.phi_error),
        phi0_error=float(grid.phi0_error),
        modulus_error=float(grid.modulus_error),
        strong_coupling=bool(p.g > 5.0 * np.sqrt(p.kappa * p.gamma_decay)),
        passed=bool(grid.cz_pass),
        phase_tol=phase_tol,
        modulus_tol=modulus_tol,
    )
