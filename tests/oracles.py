"""Dense oracles that only the tests use: post-selection on the full register
and the matrix of a state transformation, built column by column."""
from typing import Callable, Iterable

import numpy as np

from wexpand.statevec import StateVector, _normalized, _require_int, basis_state


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


def operation_matrix(op: Callable[[StateVector], StateVector], num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a state transformation, column by column."""
    dim = 1 << num_qubits
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        cols[:, i] = op(basis_state(format(i, f"0{num_qubits}b"))).amplitudes
    return cols
