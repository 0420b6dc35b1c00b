"""Dense state-vector and density-matrix engine.

Gate application, tensoring, qubit permutation, partial trace and fidelity
for small registers (doubling grows its register one qubit per expansion,
to 2n <= 16 qubits in either mode, so the last expansion holds 2^16
amplitudes, and dense complex128 storage is used throughout).

A qubit index (and, in ``wcircuit`` and ``noise``, a register size or
count) must be a Python or numpy integer: ``_require_int`` rejects anything
else by name rather than truncating it.  Likewise a rate, frequency or
angle must be a finite real number, not a bool, string or complex value
(``_require_finite_real``; ``_real_array`` for an array of them, and
``_finite_real_array`` for one whose entries must be finite too).

Index convention: qubit 0 is the *most significant* bit of the basis index.
For a three-qubit register ordered |q0 q1 q2>, the string |100> sits at
index 4.  Reshaping the amplitude array to shape (2,)*n therefore puts
qubit k on axis k.

All public values are immutable after construction; operations return new
objects and never mutate their inputs.  A state's amplitude array is
read-only.  ``StateVector`` copies the array it is given unless that array
is sealed: read-only, and viewing only read-only arrays down to the one
that owns its memory.  Every kernel here (``apply_unitary``, ``tensor``,
``permute``, ...) seals the array it has just allocated, which nothing
else holds, so the new state adopts it without a copy; a caller's
writable array, or a read-only view of one, is copied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Tolerance for algebraic identities (unitarity, normalization, hermiticity).
ATOL_ALGEBRA = 1e-12


def _require_int(name: str, value) -> int:
    """A register size, count or qubit index as an int: Python and numpy integers
    pass; a bool, a float (even an integral one) or anything else is rejected by name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    # A bool would otherwise read as 0 or 1 and a numeric string escape as a TypeError.
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a Python int past the float range
        return False


def _require_finite_real(name: str, value) -> None:
    """Reject, by name, a rate, frequency or angle that is not a finite real number."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _real_array(name: str, value) -> np.ndarray:
    """An array input (a cavity grid axis, noise angles) as a float array.

    By name, a ValueError for a bool, string, complex or other entry that is
    not a real number: `np.asarray(..., dtype=float)` would read "1e0" as 1.0
    and True as 1.0, and let a complex value escape as a TypeError.  An
    ndarray is judged by its dtype alone; anything else entry by entry, since
    `np.asarray([0.1, True])` is already a float array.
    """
    values = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    kind = values.dtype.kind
    if not (kind in "iuf" or kind == "O" and all(_is_real(v) for v in values.flat)):
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    try:
        return values.astype(float, copy=False)
    except OverflowError:  # a Python int past the float range
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def _finite_real_array(name: str, value) -> np.ndarray:
    """``_real_array``, and by name a ValueError for an entry that is not
    finite.  A float64 ndarray costs one dtype check and one ``isfinite`` pass."""
    values = _real_array(name, value)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {float(values[~finite].flat[0])!r}")
    return values


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


def _seal(a: np.ndarray) -> np.ndarray:
    """Make a freshly allocated array, and every array it views, read-only.

    Only for arrays that nothing else holds: the output of a kernel.
    """
    b = a
    while isinstance(b, np.ndarray):
        b.setflags(write=False)
        b = b.base
    return a


def _sealed(a: np.ndarray) -> bool:
    """Whether ``a`` and every array it views, down to the memory's owner, are read-only."""
    while a is not None:
        if not isinstance(a, np.ndarray) or a.flags.writeable:
            return False
        a = a.base
    return True


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over ``num_qubits`` qubits.

    ``amplitudes[i]`` is the coefficient of the computational basis state
    whose bit string (qubit 0 first) is the binary expansion of ``i``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not (amps.ndim == 1 and amps.flags.c_contiguous and _sealed(amps)):
            amps = _readonly(amps.ravel())
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != (1 << n):
            raise ValueError(
                f"amplitude array of length {amps.size} is not a power of two >= 2"
            )
        _require_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to (2,)*num_qubits with qubit k on axis k."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def terms(self, tol: float = 1e-10) -> list[tuple[str, complex]]:
        """Nonzero basis terms as (bit string, amplitude) pairs."""
        n = self.num_qubits
        amps = self.amplitudes
        return [
            (format(i, f"0{n}b"), complex(amps[i]))
            for i in np.flatnonzero(np.abs(amps) > tol).tolist()
        ]

    def __repr__(self) -> str:
        shown = self.terms()
        if len(shown) > 6:
            body = ", ".join(f"|{b}>:{a:.4g}" for b, a in shown[:6]) + ", ..."
        else:
            body = ", ".join(f"|{b}>:{a:.4g}" for b, a in shown)
        return f"StateVector({self.num_qubits} qubits; {body})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix over k qubits."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        dim = rho.shape[0]
        n = dim.bit_length() - 1
        if dim != (1 << n):
            raise ValueError(f"density-matrix dimension {dim} is not a power of two")
        if not np.max(np.abs(rho - rho.conj().T)) <= ATOL_ALGEBRA:
            raise ValueError("density matrix is not Hermitian")
        _require_unit_trace(complex(np.trace(rho)))
        pur = float(np.vdot(rho, rho).real)
        if not (1.0 / dim - 1e-10 <= pur <= 1.0 + 1e-10):
            raise ValueError(f"purity {pur!r} outside [{1.0 / dim}, 1]")
        # The O(d^3) eigensolve runs at every size; `verify` builds none
        # larger than 4x4.
        lo = float(np.linalg.eigvalsh(rho)[0])
        if not lo >= -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
        object.__setattr__(self, "entries", _readonly(rho))

    @property
    def num_qubits(self) -> int:
        return self.entries.shape[0].bit_length() - 1

    def purity(self) -> float:
        """tr(rho^2), computed as the squared Frobenius norm."""
        return float(np.vdot(self.entries, self.entries).real)


@dataclass(frozen=True)
class QubitPermutation:
    """Bijection on qubit positions.

    ``map[i]`` is the destination position of the qubit currently at
    position ``i``.
    """

    map: tuple[int, ...]

    def __post_init__(self):
        m = tuple(_require_int("permutation entry", x) for x in self.map)
        if sorted(m) != list(range(len(m))):
            raise ValueError(f"not a permutation of 0..{len(m) - 1}: {m}")
        object.__setattr__(self, "map", m)

    @property
    def size(self) -> int:
        return len(self.map)

    @staticmethod
    def swap(k: int, i: int, j: int) -> "QubitPermutation":
        """Exchange qubits ``i`` and ``j`` of a ``k``-qubit register."""
        k, i, j = _require_int("k", k), _require_int("i", i), _require_int("j", j)
        for name, q in (("i", i), ("j", j)):
            if not 0 <= q < k:
                raise ValueError(f"{name} = {q} out of range for {k} qubits")
        m = list(range(k))
        m[i], m[j] = m[j], m[i]
        return QubitPermutation(tuple(m))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.size
        for src, dst in enumerate(self.map):
            inv[dst] = src
        return QubitPermutation(tuple(inv))


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def basis_state(bits: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ``basis_state("100")``."""
    if any(c not in "01" for c in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(_seal(amps))


def zero_state(num_qubits: int) -> StateVector:
    num_qubits = _require_int("num_qubits", num_qubits)
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    return basis_state("0" * num_qubits)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; qubits of ``b`` are appended after those of ``a``."""
    return StateVector(_seal(np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)))


def _as_matrix(gate) -> np.ndarray:
    """Accept either a bare matrix or any object with a ``.matrix`` attribute."""
    return np.asarray(getattr(gate, "matrix", gate), dtype=complex)


def _require_unitary(m: np.ndarray, dim: int) -> None:
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.max(np.abs(m.conj().T @ m - np.eye(dim))) <= ATOL_ALGEBRA:
        raise ValueError("gate matrix is not unitary")


# ---------------------------------------------------------------------------
# Gate application: the one kernel every gate runs on
# ---------------------------------------------------------------------------

def apply_unitary(state: StateVector, matrix, qubits: Iterable[int]) -> StateVector:
    """Apply a k-qubit unitary to the register qubits ``qubits``.

    ``qubits[0]`` is the most significant slot of ``matrix``, so a
    three-qubit operator in the basis |q1 anc q2> is applied with
    ``qubits=(q1, anc, q2)``.  One contraction touches the register once,
    however many gates were composed into ``matrix``.
    """
    qubits = tuple(_require_int("qubit", q) for q in qubits)
    k = len(qubits)
    m = _as_matrix(matrix)
    _require_unitary(m, 1 << k)
    n = state.num_qubits
    if len(set(qubits)) != k:
        raise ValueError(f"a {k}-qubit gate needs {k} distinct qubits, got {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    return StateVector(_seal(_contract(m, state.tensor_view(), qubits).reshape(-1)))


def _contract(m: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """``m`` on axes ``qubits`` of ``psi``, in ``psi``'s axis order; trailing axes pass through."""
    k = len(qubits)
    out = np.tensordot(m.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


# ---------------------------------------------------------------------------
# Reduction and overlap
# ---------------------------------------------------------------------------

def _qubit_density(state: StateVector, qubit: int) -> np.ndarray:
    """Reduced 2x2 of one qubit: [[p0, c], [c*, p1]], with c = <psi1|psi0>.

    psi0 and psi1 are the |0> and |1> slices of the qubit's axis, gathered
    into one contiguous array and reduced from there.
    """
    view = state.amplitudes.reshape(1 << qubit, 2, -1)
    psi0, psi1 = np.ascontiguousarray(view.transpose(1, 0, 2)).reshape(2, -1)
    c = np.vdot(psi1, psi0)
    return np.array(
        [[np.vdot(psi0, psi0).real, c], [np.conj(c), np.vdot(psi1, psi1).real]],
        dtype=complex,
    )


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (ascending original order)."""
    kept = sorted(set(_require_int("qubit", q) for q in keep))
    n = state.num_qubits
    if not kept:
        raise ValueError("keep-set must be nonempty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep-set {kept} out of range for {n} qubits")
    if len(kept) == 1:
        return DensityMatrix(_qubit_density(state, kept[0]))
    traced = [q for q in range(n) if q not in kept]
    a = state.tensor_view().transpose(kept + traced).reshape(1 << len(kept), -1)
    return DensityMatrix(a @ a.conj().T)


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<b|a>|^2 for two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)


def permute(state: StateVector, perm: QubitPermutation) -> StateVector:
    """Reindex qubits: the qubit at position i moves to position perm.map[i]."""
    n = state.num_qubits
    if perm.size != n:
        raise ValueError(f"permutation size {perm.size} != {n} qubits")
    inv = perm.inverse()
    out = state.tensor_view().transpose(inv.map).copy()
    return StateVector(_seal(out.reshape(-1)))


def _require_unit_trace(tr: complex) -> None:
    """Reject a density matrix whose trace ``tr`` is not within ATOL_ALGEBRA of 1."""
    if not abs(tr - 1.0) <= ATOL_ALGEBRA:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")


def _require_normalized(amps: np.ndarray) -> None:
    """Reject amplitudes whose squared norm is not within ATOL_ALGEBRA of 1."""
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= ATOL_ALGEBRA:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")


def _normalized(sub: np.ndarray) -> tuple[StateVector, float]:
    """The projected amplitudes ``sub`` renormalized, as a state, and their squared norm.

    The norm is one ``vdot`` over ``sub`` as laid out, so a strided view
    rounds as the same view always has.
    """
    prob = float(np.vdot(sub, sub).real)
    if prob < 1e-12:
        raise ValueError(f"projection onto |0...0> has vanishing probability {prob!r}")
    return StateVector(_seal(sub / np.sqrt(prob))), prob
