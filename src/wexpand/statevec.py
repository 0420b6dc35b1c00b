"""Dense state-vector and density-matrix engine.

Gate application, tensoring, qubit permutation, partial trace and fidelity
for small registers (the protocols here never exceed 24 qubits, so dense
complex128 storage is used throughout).

Index convention: qubit 0 is the *most significant* bit of the basis index.
For a three-qubit register ordered |q0 q1 q2>, the string |100> sits at
index 4.  Reshaping the amplitude array to shape (2,)*n therefore puts
qubit k on axis k.

All public values are immutable after construction; operations return new
objects and never mutate their inputs.  A state's amplitude array is
read-only.  ``StateVector`` copies the array it is given unless that array
is sealed: read-only, and viewing only read-only arrays down to the one
that owns its memory.  Every kernel here (``apply_unitary``, ``tensor``,
``permute``, ``postselect_zero``, ...) seals the array it has just
allocated, which nothing else holds, so the new state adopts it without a
copy; a caller's writable array, or a read-only view of one, is copied.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Tolerance for algebraic identities (unitarity, normalization, hermiticity).
ATOL_ALGEBRA = 1e-12
# Density-matrix eigenvalues are only validated up to this dimension; the
# O(d^3) eigensolve is skipped for larger matrices (hermiticity, trace and
# purity are always checked).
_EIG_CHECK_MAX_DIM = 256


class MixedStateError(ValueError):
    """A pure state was requested from a significantly mixed density matrix."""

    def __init__(self, purity: float, threshold: float):
        self.purity = float(purity)
        self.threshold = float(threshold)
        super().__init__(
            f"cannot extract a pure state: purity {self.purity:.12g} "
            f"is below the required {self.threshold:.12g}"
        )


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
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", amps)
        # Kept for the single-qubit reduction of a slot whose |1> slice is zero.
        object.__setattr__(self, "_norm2", norm2)

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
        tr = complex(np.trace(rho))
        if not abs(tr - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"density matrix trace {tr!r} differs from 1")
        pur = float(np.vdot(rho, rho).real)
        if not (1.0 / dim - 1e-10 <= pur <= 1.0 + 1e-10):
            raise ValueError(f"purity {pur!r} outside [{1.0 / dim}, 1]")
        if dim <= _EIG_CHECK_MAX_DIM:
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
        m = tuple(int(x) for x in self.map)
        if sorted(m) != list(range(len(m))):
            raise ValueError(f"not a permutation of 0..{len(m) - 1}: {m}")
        object.__setattr__(self, "map", m)

    @property
    def size(self) -> int:
        return len(self.map)

    @staticmethod
    def identity(k: int) -> "QubitPermutation":
        return QubitPermutation(tuple(range(k)))

    @staticmethod
    def swap(k: int, i: int, j: int) -> "QubitPermutation":
        m = list(range(k))
        m[i], m[j] = m[j], m[i]
        return QubitPermutation(tuple(m))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.size
        for src, dst in enumerate(self.map):
            inv[dst] = src
        return QubitPermutation(tuple(inv))

    def then(self, other: "QubitPermutation") -> "QubitPermutation":
        """Permutation equivalent to applying ``self`` first, then ``other``."""
        if other.size != self.size:
            raise ValueError("permutation sizes differ")
        return QubitPermutation(tuple(other.map[d] for d in self.map))


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def basis_state(bits: str, num_qubits: int | None = None) -> StateVector:
    """Computational basis state from a bit string, e.g. ``basis_state("100")``."""
    if num_qubits is None:
        num_qubits = len(bits)
    if len(bits) != num_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid bit string {bits!r} for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(_seal(amps))


def zero_state(num_qubits: int) -> StateVector:
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
# Gate application kernels
# ---------------------------------------------------------------------------

def apply_unitary(state: StateVector, matrix, qubits: Iterable[int]) -> StateVector:
    """Apply a k-qubit unitary to the register qubits ``qubits``.

    ``qubits[0]`` is the most significant slot of ``matrix``, so a
    three-qubit operator in the basis |q1 anc q2> is applied with
    ``qubits=(q1, anc, q2)``.  One contraction touches the register once,
    however many gates were composed into ``matrix``.
    """
    qubits = tuple(int(q) for q in qubits)
    k = len(qubits)
    m = _as_matrix(matrix)
    _require_unitary(m, 1 << k)
    n = state.num_qubits
    if len(set(qubits)) != k:
        raise ValueError(f"a {k}-qubit gate needs {k} distinct qubits, got {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    psi = state.tensor_view()
    out = np.tensordot(m.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), list(qubits)))
    out = np.moveaxis(out, list(range(k)), list(qubits))
    return StateVector(_seal(out.reshape(-1)))


def apply_1q(state: StateVector, gate, target: int) -> StateVector:
    """Apply a single-qubit unitary to ``target``."""
    return apply_unitary(state, gate, (target,))


def apply_2q(state: StateVector, gate, qubit_a: int, qubit_b: int) -> StateVector:
    """Apply a two-qubit unitary; ``qubit_a`` is the more significant slot."""
    return apply_unitary(state, gate, (qubit_a, qubit_b))


def apply_controlled(state: StateVector, gate, control: int, target: int) -> StateVector:
    """Apply a single-qubit unitary to ``target`` where ``control`` is |1>."""
    m = _as_matrix(gate)
    _require_unitary(m, 2)
    n = state.num_qubits
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    psi = state.tensor_view().copy()
    sel: list = [slice(None)] * n
    sel[control] = 1
    sub = psi[tuple(sel)]
    t_ax = target - 1 if target > control else target
    sub = np.moveaxis(np.tensordot(m, sub, axes=([1], [t_ax])), 0, t_ax)
    psi[tuple(sel)] = sub
    return StateVector(_seal(psi.reshape(-1)))


# ---------------------------------------------------------------------------
# Reduction, extraction, overlap
# ---------------------------------------------------------------------------

def _qubit_density(state: StateVector, qubit: int) -> np.ndarray:
    """Reduced 2x2 of one qubit: [[p0, c], [c*, p1]], with c = <psi1|psi0>.

    psi0 and psi1 are the |0> and |1> slices of the qubit's axis.  A |1>
    slice that is exactly zero, as in every fresh slot, gives
    diag(|psi|^2, 0) with no further read; otherwise both slices are
    gathered into one contiguous array and reduced from there.
    """
    view = state.amplitudes.reshape(1 << qubit, 2, -1)
    if not view[:, 1].any():
        return np.array([[state._norm2, 0.0], [0.0, 0.0]], dtype=complex)
    psi0, psi1 = np.ascontiguousarray(view.transpose(1, 0, 2)).reshape(2, -1)
    c = np.vdot(psi1, psi0)
    return np.array(
        [[np.vdot(psi0, psi0).real, c], [np.conj(c), np.vdot(psi1, psi1).real]],
        dtype=complex,
    )


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (ascending original order)."""
    kept = sorted(set(int(q) for q in keep))
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


def extract_pure(rho: DensityMatrix, tol: float = 1e-9) -> StateVector:
    """Dominant eigenvector of an (almost) pure density matrix.

    The global phase is fixed by making the first nonzero amplitude real
    and positive.  Raises :class:`MixedStateError` when tr(rho^2) <= 1-tol.
    """
    pur = rho.purity()
    if pur <= 1.0 - tol:
        raise MixedStateError(pur, 1.0 - tol)
    evals, evecs = np.linalg.eigh(rho.entries)
    vec = evecs[:, -1]
    return _phase_normalized(vec)


def _phase_normalized(vec: np.ndarray) -> StateVector:
    idx = int(np.argmax(np.abs(vec) > 1e-10))
    phase = vec[idx] / abs(vec[idx])
    vec = vec * phase.conjugate()
    return StateVector(_seal(vec / np.linalg.norm(vec)))


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<b|a>|^2 for two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)


def fidelity_mixed(rho: DensityMatrix, target: StateVector) -> float:
    """<target|rho|target> for a mixed state against a pure target."""
    if rho.num_qubits != target.num_qubits:
        raise ValueError("dimension mismatch between density matrix and target")
    t = target.amplitudes
    return float(np.real(np.vdot(t, rho.entries @ t)))


def permute(state: StateVector, perm: QubitPermutation) -> StateVector:
    """Reindex qubits: the qubit at position i moves to position perm.map[i]."""
    n = state.num_qubits
    if perm.size != n:
        raise ValueError(f"permutation size {perm.size} != {n} qubits")
    inv = perm.inverse()
    out = state.tensor_view().transpose(inv.map).copy()
    return StateVector(_seal(out.reshape(-1)))


def postselect_zero(state: StateVector, qubits: Iterable[int]) -> tuple[StateVector, float]:
    """Project the given qubits onto |0>, drop them, and renormalize.

    Returns the renormalized state over the remaining qubits (ascending
    original order) and the projection probability.
    """
    qs = sorted(set(int(q) for q in qubits))
    n = state.num_qubits
    if not qs or qs[0] < 0 or qs[-1] >= n:
        raise ValueError(f"invalid qubit set {qs} for {n} qubits")
    if len(qs) == n:
        raise ValueError("cannot project away every qubit")
    sel: list = [slice(None)] * n
    for q in qs:
        sel[q] = 0
    sub = state.tensor_view()[tuple(sel)].reshape(-1)
    prob = float(np.vdot(sub, sub).real)
    if prob < 1e-12:
        raise ValueError(f"projection onto |0...0> has vanishing probability {prob!r}")
    return StateVector(_seal(sub / np.sqrt(prob))), prob


def operation_matrix(op: Callable[[StateVector], StateVector], num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a state transformation, column by column."""
    dim = 1 << num_qubits
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        cols[:, i] = op(basis_state(format(i, f"0{num_qubits}b"))).amplitudes
    return cols
