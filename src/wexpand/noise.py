"""Gate-imperfection fidelity analysis for the doubling protocol.

Closed-form fidelities of |W_n> -> |W_2n> under shared coherent gate errors
(Hadamard angle ``alpha``, T' angle ``beta``, controlled-phase ``gamma``),
the same fidelity read exactly from the noisy expansion map V, and sweep
generation.

Fidelity definition.  The doubling fidelity is the post-selected overlap
|<W_2n, anc-ideal | psi_final>|^2: the squared overlap of the full final
state with the target joined to all ancillas in their ideal |0> state
(``RunReport.fidelity`` of ``wcircuit.double_w``, the dense oracle).  It
reproduces the closed forms exactly and is independent of n: the 12-gate
operator fixes |000> for every (alpha, beta, gamma) (``wexpand verify``
checks it), so each round acts as the exact identity on the n-1 terms
whose qubit is |0>, and the overlap amplitude is the same single-triple
quantity for every n.

Closed forms on arrays.  Each of the four closed forms is one array
implementation: an array of angles in gives an array of fidelities of the
same shape out, and a scalar in gives a Python ``float`` out, computed by
the same code on a length-1 array, so a scalar call and the matching point
of an array call agree bit for bit.  ``sweep`` evaluates each once over its
whole grid.
"""
from __future__ import annotations

import functools
import inspect
from typing import NamedTuple

import numpy as np

from .statevec import _finite_real_array, _require_finite_real, _require_int
from .wcircuit import DOUBLING_MAX_N, _expansion_maps

_S8 = np.sin(np.pi / 8.0)
_C8 = np.cos(np.pi / 8.0)


class FidelitySweep(NamedTuple):
    """A sweep's table: one float64 array per fidelity series, and n.

    ``_fields`` is the ``fidelity-sweep`` CSV header, in column order;
    the six series are one-dimensional float64 arrays of the grid's length,
    and ``n``, the integer every row is labelled with, is the last column.
    """

    theta: np.ndarray
    f_h: np.ndarray
    f_tp: np.ndarray
    f_cp: np.ndarray
    f_combined: np.ndarray
    f_simulated: np.ndarray
    n: int


def _elementwise(formula):
    """One implementation of a closed form for arrays and scalars alike.

    Each angle must be a finite real number, or an array of them: anything
    else (a bool, a string, None, a complex or non-finite value) is rejected
    with a ValueError that names it by ``formula``'s parameter name (see
    ``statevec._finite_real_array``).  The angles are broadcast to one shape
    and handed to ``formula`` as contiguous one-dimensional float arrays, so
    every point rounds through the same numpy loops whatever the call's
    shape.  An array call returns an array of the broadcast shape; a call on
    scalars runs the same code on a length-1 array and returns a Python
    ``float``.
    """
    names = inspect.getfullargspec(formula).args

    @functools.wraps(formula)
    def evaluate(*angles):
        if len(angles) != len(names):
            return formula(*angles)  # Python's own TypeError for a wrong count
        arrays = np.broadcast_arrays(*map(_finite_real_array, names, angles))
        shape = arrays[0].shape
        values = formula(*(np.ascontiguousarray(a).reshape(-1) for a in arrays))
        return values.reshape(shape) if shape else float(values[0])

    return evaluate


@_elementwise
def fidelity_hadamard(alpha):
    """Doubling fidelity when only the Hadamards carry an angle error.

    Array in, array of the same shape out; scalar in, ``float`` out.
    """
    return np.abs(0.5 + 0.5 * np.cos(2.0 * alpha) ** 3) ** 2


@_elementwise
def fidelity_t_prime(beta):
    """Doubling fidelity when only the T' gates carry an angle error.

    Array in, array of the same shape out; scalar in, ``float`` out.
    """
    x = (np.pi + 8.0 * beta) / 4.0
    return np.abs((np.cos(x) + np.sin(x)) / np.sqrt(2.0)) ** 2


@_elementwise
def fidelity_controlled_phase(gamma):
    """Doubling fidelity when only the controlled-phase gates are off.

    Array in, array of the same shape out; scalar in, ``float`` out.
    """
    amp = 0.5 * np.exp(-2j * gamma) * np.cos(gamma / 2.0) ** 4 + (
        _C8**2 - np.exp(-1j * gamma) * _S8**2
    ) / np.sqrt(2.0)
    return np.abs(amp) ** 2


@_elementwise
def fidelity_combined(alpha, beta, gamma):
    """Doubling fidelity with all three imperfections acting together.

    The three angles broadcast against each other: arrays in, an array of
    the broadcast shape out; three scalars in, ``float`` out.
    """
    eg = np.exp(1j * gamma)
    x = (np.pi + 8.0 * beta) / 4.0
    amp = np.exp(-4j * gamma) * (1.0 + eg) ** 4 * np.cos(2.0 * alpha) ** 3 * np.cos(x) / (
        16.0 * np.sqrt(2.0)
    ) + np.exp(-1j * gamma) * (-1.0 + eg + (1.0 + eg) * np.sin(x)) / (2.0 * np.sqrt(2.0))
    return np.abs(amp) ** 2


def doubling_overlap_fidelity(v: np.ndarray) -> np.ndarray:
    """Post-selected overlap fidelity of |W_n> -> |W_2n> from the noisy maps V, for every n.

    ``v`` holds maps V = <q1',0,q2'|U|x,0,0>, indexed [..., q1', q2', x],
    along its leading axes (for example the (k, 2, 2, 2) V of
    ``expansion_maps``); the result has the leading shape.  It equals the
    dense ``double_w(n, "block", noise)[1].fidelity`` at every n, because
    U|000> = |000> for every (alpha, beta, gamma): on |000> each controlled
    phase acts while one of its slots holds |0>, and the rotations around it
    come in equal pairs, each a reflection that squares to the identity.  So
    V|0> = |00>, the post-selected block output is (1/sqrt n) sum_i V|1> on
    pair i with |0..0> elsewhere, and its overlap amplitude with
    |W_2n>|0..0>_anc is d / sqrt 2 with d = V[1,0,1] + V[0,1,1].
    """
    v = np.asarray(v)
    if v.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected 4x2 maps V along the last three axes, got {v.shape}")
    d = v[..., 1, 0, 1] + v[..., 0, 1, 1]
    return np.abs(d / np.sqrt(2.0)) ** 2


def sweep(theta_max: float, steps: int, n: int = 2) -> FidelitySweep:
    """Evaluate all fidelity series on the shared grid theta_k = k*theta_max/(steps-1).

    The three single-imperfection series each set the other two angles to
    zero; the combined series (closed-form and simulated) drives all three
    with the same theta.  Each closed form is evaluated once over the whole
    grid.  The simulated series composes the noisy map V at every grid point
    in one batch and reads each fidelity from it
    (``doubling_overlap_fidelity``); ``double_w`` run in block mode with the
    same noise is its dense oracle.  ``n`` (1..``DOUBLING_MAX_N``) only
    labels the rows: no fidelity depends on it.  Each series is returned
    as the float64 array it was computed as.

    ``theta_max`` must be a real number (a Python or numpy int or float,
    not a bool).  One whose grid gives a non-finite fidelity (past |theta|
    ~ 2.2e307 the closed forms' 8 theta overflows) is rejected by name,
    without numpy's warnings.
    """
    steps = _require_int("steps", steps)
    n = _require_int("n", n)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 1 <= n <= DOUBLING_MAX_N:
        raise ValueError(f"n must be in 1..{DOUBLING_MAX_N}, got {n}")
    _require_finite_real("theta_max", theta_max)
    # The grid of a finite theta_max is finite, so it goes to the unchecked
    # cores: each closed form's formula and the maps' batch.
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = np.linspace(0.0, float(theta_max), steps)
        series = (
            thetas,
            fidelity_hadamard.__wrapped__(thetas),
            fidelity_t_prime.__wrapped__(thetas),
            fidelity_controlled_phase.__wrapped__(thetas),
            fidelity_combined.__wrapped__(thetas, thetas, thetas),
            doubling_overlap_fidelity(_expansion_maps(thetas, thetas, thetas)[0]),
        )
    if not all(np.isfinite(s).all() for s in series):
        raise ValueError(
            f"theta_max {theta_max!r} is too large in magnitude: "
            "the sweep's fidelities are not finite"
        )
    return FidelitySweep(*series, n)


__all__ = [
    "FidelitySweep",
    "doubling_overlap_fidelity",
    "fidelity_combined",
    "fidelity_controlled_phase",
    "fidelity_hadamard",
    "fidelity_t_prime",
    "sweep",
]
