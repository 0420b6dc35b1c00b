"""Acceptance suite: every check of `wexpand verify`, plus two timing bounds.

The anchored identities live in one registry, `wexpand.checks.CHECKS`;
this module runs it through `run_verification`, exactly as `wexpand
verify` does, and prints one verdict line per check.  Run with
``pytest tests/test_acceptance.py -v -s`` to see each measured deviation
next to its pinned tolerance.
"""
import time

import numpy as np
import pytest

from wexpand.checks import CHECKS, run_verification
from wexpand.wcircuit import EXPANSION_MATRIX, double_w, standard_expansion_circuit


@pytest.fixture(scope="module")
def verification():
    return {r.name: r for r in run_verification()}


@pytest.mark.parametrize("name", [check.name for check in CHECKS])
def test_check(verification, name):
    result = verification[name]
    print(result)
    assert result.passed, str(result)


def test_criterion_01_matrix_anchor():
    # Composing the 12 gates and comparing with the 8x8 takes under 1 ms.
    circuit = standard_expansion_circuit()
    circuit.matrix()  # warm caches before timing
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        np.max(np.abs(circuit.matrix() - EXPANSION_MATRIX))
        best = min(best, time.perf_counter() - t0)
    print(f"best compose-and-compare {best * 1e3:.3f} ms (< 1 ms)")
    assert best < 1e-3


def test_criterion_05_doubling_all_strategies():
    # Doubling n = 1..4 in both register modes takes under 5 s.
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        for mode in ("block", "sequential"):
            double_w(n, mode)
    elapsed = time.perf_counter() - t0
    print(f"n=1..4 x 2 modes in {elapsed:.2f}s (< 5s)")
    assert elapsed < 5.0
