"""Command-line surface: verify | prepare | fidelity-sweep | cavity-sweep.

All commands are deterministic: identical configurations produce
byte-identical output files (floats are written with 17 significant
digits, rows end with LF).  Options may come from flags or from a JSON
config file passed via --config; flags win on conflict.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cavity as cav
from . import noise as noi
from .csvcells import write_csv
from .gates import (
    HolonomicParams,
    NoiseParams,
    controlled_phase,
    hadamard,
    holonomic_gate,
    hwp_gate,
    phase_aligned_deviation,
    t_prime,
)
from .statevec import (
    QubitPermutation,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from .wcircuit import (
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    apply_O,
    build_w_state,
    create_epr,
    double_w,
    double_w_weight_one,
    expand_by_one,
    interleave_permutation,
    relabel,
    round_permutation,
    standard_expansion_circuit,
)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max deviation {self.deviation:.3e} "
            f"(tol {self.tolerance:g}) — {self.detail}"
        )


@dataclass(frozen=True)
class Check:
    """One anchored identity of the paper.

    `measure(rng)` returns the largest deviation from the anchor; `rng` is
    the run's seeded generator, shared by the checks in order.  A check
    passes when its deviation is below `tolerance`.
    """

    name: str
    tolerance: float
    detail: str
    measure: Callable[[np.random.Generator], float]


_S2 = 1.0 / np.sqrt(2.0)
_THETA_MAX = np.pi / 60.0
# The smallest positive float: a deviation is below it only when it is 0.
_EXACT = math.ulp(0.0)


def _vec(entries: dict[int, complex], num_qubits: int) -> np.ndarray:
    v = np.zeros(1 << num_qubits, dtype=complex)
    for idx, amp in entries.items():
        v[idx] = amp
    return v


def _max_abs(diff) -> float:
    return float(np.max(np.abs(diff)))


def _fixed_noise_sample() -> tuple[list[tuple[NoiseParams, int]], list[float]]:
    """50 noise points, each with a register size in 1..3, then 25 angles.

    Drawn in this order from seed 2024, whatever the run's seed, so these
    inputs are the same in every run.
    """
    rng = np.random.default_rng(2024)
    points = [
        (NoiseParams(*(float(x) for x in rng.uniform(0.0, _THETA_MAX, size=3))),
         int(rng.integers(1, 4)))
        for _ in range(50)
    ]
    return points, [float(t) for t in rng.uniform(0.0, _THETA_MAX, size=25)]


# The one place the package checks its 12-gate composition against the operator.
def _expansion_matrix(rng) -> float:
    return _max_abs(standard_expansion_circuit().matrix() - EXPANSION_MATRIX)


def _stepwise_checkpoints(rng) -> float:
    checkpoints = {
        2: _vec({4: _S2, 6: _S2}, 3),
        5: _vec({4: _S2, 2: _S2}, 3),
        8: _vec({4: _S2, 3: _S2}, 3),
        11: _vec({4: _S2, 1: _S2}, 3),
    }
    states = standard_expansion_circuit().stepwise_states(basis_state("100"))
    return max(_max_abs(states[k].amplitudes - v) for k, v in checkpoints.items())


def _gate_conventions(rng) -> float:
    h_ref = np.array([[1, 1], [1, -1]], dtype=complex) * _S2
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    tp_ref = np.array([[c, s], [s, -c]], dtype=complex)
    return max(_max_abs(hadamard().matrix - h_ref), _max_abs(t_prime().matrix - tp_ref))


def _controlled_phase_convention(rng) -> float:
    cz = controlled_phase()
    return max(
        _max_abs(cz.matrix - np.diag([1, 1, 1, -1])),
        abs(controlled_phase(0.3).matrix[3, 3] - np.exp(1j * (np.pi - 0.3))),
        _max_abs(apply_unitary(basis_state("11"), cz, (0, 1)).amplitudes - _vec({3: -1}, 2)),
        _max_abs(apply_unitary(basis_state("10"), cz, (0, 1)).amplitudes - _vec({2: 1}, 2)),
    )


def _bell_pair(rng) -> float:
    bell = StateVector(_vec({1: _S2, 2: _S2}, 2))
    pair_rho = np.outer(bell.amplitudes, bell.amplitudes.conj())
    dev = abs(1.0 - fidelity_pure(create_epr(), bell))
    # The fused 8x8 and the 12-gate sequence, each on |100>.
    for out in (
        apply_O(basis_state("100"), 0, 1, 2),
        standard_expansion_circuit().apply(basis_state("100"), 0, 1, 2),
    ):
        dev = max(
            dev,
            _max_abs(partial_trace(out, {1}).entries - np.diag([1, 0])),
            _max_abs(partial_trace(out, {0, 2}).entries - pair_rho),
        )
    return dev


def _term_splitting(rng) -> float:
    # One excitation of 1/sqrt(n) weight splits into two of 1/sqrt(2n) each,
    # other terms untouched.
    third, sixth = 1 / np.sqrt(3), 1 / np.sqrt(6)
    expected = _vec({0b1000: third, 0b0100: sixth, 0b0010: sixth, 0b0001: third}, 4)
    return _max_abs(expand_by_one(build_w_state(3), 1).amplitudes - expected)


def _growth_strategy(rng) -> float:
    # |1> -> Bell pair -> weighted 3-qubit state -> |W_4>, from the pair the
    # circuit creates and from the reference |W_2>.
    w4_ref = _vec({1: 0.5, 2: 0.5, 4: 0.5, 8: 0.5}, 4)
    w4 = build_w_state(4).amplitudes
    dev = _max_abs(w4 - w4_ref)
    for pair in (create_epr(), build_w_state(2)):
        three = expand_by_one(pair, 0)
        four = expand_by_one(three, 2).amplitudes
        dev = max(
            dev,
            _max_abs(three.amplitudes - _vec({4: 0.5, 2: 0.5, 1: _S2}, 3)),
            _max_abs(four - w4_ref),
            _max_abs(four - w4),
        )
    return dev


def _doubling_w6(rng) -> float:
    return abs(1.0 - double_w(3, "block")[1].fidelity)


def _doubling_sweep(rng) -> float:
    return max(
        abs(1.0 - double_w(n, mode)[1].fidelity)
        for n in (1, 2, 3, 4)
        for mode in ("block", "sequential")
    )


def _swap_network(rng) -> float:
    # The interleave permutation acts on the doubling input exactly like the
    # pairwise swap sequence (2,7)(3,4)(5,9), 1-based.
    reg = tensor(build_w_state(3), zero_state(6))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    return _max_abs(permute(reg, interleave_permutation(3)).amplitudes - via_swaps.amplitudes)


def _closed_forms(rng) -> float:
    dev = max(
        abs(1.0 - noi.fidelity_hadamard(0.0)),
        abs(1.0 - noi.fidelity_t_prime(0.0)),
        abs(1.0 - noi.fidelity_controlled_phase(0.0)),
        abs(1.0 - noi.fidelity_combined(0.0, 0.0, 0.0)),
    )
    seeded = [float(rng.uniform(0.0, _THETA_MAX)) for _ in range(20)]
    for t in seeded + _fixed_noise_sample()[1]:
        dev = max(
            dev,
            abs(noi.fidelity_combined(t, 0, 0) - noi.fidelity_hadamard(t)),
            abs(noi.fidelity_combined(0, t, 0) - noi.fidelity_t_prime(t)),
            abs(noi.fidelity_combined(0, 0, t) - noi.fidelity_controlled_phase(t)),
        )
    f_comb = noi.fidelity_combined(_THETA_MAX, _THETA_MAX, _THETA_MAX)
    if f_comb <= 0.97:
        dev = max(dev, 0.97 - f_comb + 1.0)
    return dev


def _noisy_doubling_fidelity(n: int, p: NoiseParams) -> float:
    return double_w(n, "block", p)[1].fidelity


def _noisy_agreement(rng) -> float:
    points = [
        NoiseParams(*(float(x) for x in rng.uniform(0.0, _THETA_MAX, size=3))) for _ in range(10)
    ]
    seeded = [(p, n) for p in points for n in (1, 2, 3)]
    return max(
        abs(noi.fidelity_combined(p.alpha, p.beta, p.gamma) - _noisy_doubling_fidelity(n, p))
        for p, n in seeded + _fixed_noise_sample()[0]
    )


def _vacuum_fixed_point(rng) -> float:
    # U|000> = |000> under any gate errors, so column 0 and row 0 are e_0:
    # why the doubling fidelity does not depend on n.
    e0 = np.eye(8)[0]
    dev = 0.0
    for p, _ in _fixed_noise_sample()[0]:
        u = standard_expansion_circuit(p).matrix()
        dev = max(dev, _max_abs(u[:, 0] - e0), _max_abs(u[0] - e0))
    return dev


def _size_independence(rng) -> float:
    spreads = []
    for p in (NoiseParams(0.02, 0.015, 0.03), NoiseParams(0.025, 0.018, 0.033)):
        sims = [_noisy_doubling_fidelity(n, p) for n in (1, 2, 3, 4)]
        spreads.append(max(sims) - min(sims))
    return max(spreads)


def _resonant_reflection(rng) -> float:
    # r = (4g^2 - kappa gamma)/(4g^2 + kappa gamma) with everything on resonance.
    dev = 0.0
    for kappa, gamma_decay, g_max in ((1.0, 1.0, 10.0), (1.7, 0.4, 25.0)):
        kg = kappa * gamma_decay
        for g in np.linspace(0.0, g_max, 1000).tolist():
            r = cav.reflection_coupled(cav.CavityParams(0.0, 0.0, 0.0, g, kappa, gamma_decay))
            dev = max(dev, abs(r - (4.0 * g * g - kg) / (4.0 * g * g + kg)))
    return dev


def _resonant_uncoupled(rng) -> float:
    return abs(cav.reflection_uncoupled(cav.CavityParams.resonant(1.0)) + 1.0)


def _resonant_phase_pair(rng) -> float:
    pp = cav.phase_pair(cav.CavityParams.resonant(5.0))
    return max(abs(pp.phi), abs(pp.phi_0 - np.pi))


def _uncoupled_unit_modulus(rng) -> float:
    return max(
        abs(abs(cav.reflection_uncoupled(cav.CavityParams(-d, 0.0, 0.0, 1.0, 1.0, 1.0))) - 1.0)
        for span in (50.0, 80.0)
        for d in np.linspace(-span, span, 10_000).tolist()
    )


def _physical_gates(rng) -> float:
    return max(
        phase_aligned_deviation(
            hadamard().matrix, holonomic_gate(HolonomicParams(np.pi / 4)).matrix
        ),
        phase_aligned_deviation(
            t_prime().matrix, holonomic_gate(HolonomicParams(np.pi / 8)).matrix
        ),
        _max_abs(hwp_gate(np.pi / 8).matrix - hadamard().matrix),
        _max_abs(hwp_gate(np.pi / 16).matrix - t_prime().matrix),
    )


def _role_labeling(rng) -> float:
    epr = create_epr()
    ok = (
        relabel(epr, PHOTON) == "(|LR⟩+|RL⟩)/√2"
        and relabel(epr, SPIN) == "(|-+⟩+|+-⟩)/√2"
        and "|-+++⟩" in relabel(build_w_state(4), SPIN)
    )
    return 0.0 if ok else 1.0


# The paper's anchored identities, in the order `wexpand verify` runs and
# prints them; the acceptance suite runs the same list.
CHECKS: tuple[Check, ...] = (
    Check("expansion operator matrix", 1e-12,
          "12-gate composition vs the 8x8 operator", _expansion_matrix),
    Check("stepwise construction checkpoints", 1e-12,
          "four intermediate states from |100>", _stepwise_checkpoints),
    Check("single-qubit gate conventions", 1e-12,
          "Hadamard and T' matrices", _gate_conventions),
    Check("controlled-phase convention", 1e-12,
          "CZ flips |11> only; imperfect phase e^{i(pi-gamma)}", _controlled_phase_convention),
    Check("bell pair creation", 1e-12,
          "(|10>+|01>)/sqrt(2) with the ancilla back in |0>, fused and 12-gate", _bell_pair),
    Check("term splitting", 1e-12,
          "1/sqrt(n) term -> two 1/sqrt(2n) terms", _term_splitting),
    Check("growth strategy amplitudes", 1e-12,
          "weighted 3-qubit state, then |W_4>", _growth_strategy),
    Check("doubling n=3 (W_6)", 1e-10, "block-mode |W_3> -> |W_6>", _doubling_w6),
    Check("doubling sweep n=1..4", 1e-10,
          "both register modes", _doubling_sweep),
    Check("swap network layout", 1e-12,
          "interleaved triples vs pairwise swap list", _swap_network),
    Check("fidelity closed forms", 1e-12,
          "unity at zero, reductions exact; combined at pi/60 > 0.97", _closed_forms),
    Check("noisy-circuit agreement", 1e-9,
          "closed form vs full simulation, n = 1..3", _noisy_agreement),
    Check("noisy operator fixes |000>", 1e-12,
          "column and row 0 of the 12-gate 8x8 at 50 fixed noise points", _vacuum_fixed_point),
    Check("size independence", 1e-9,
          "n = 1..4 at two fixed imperfection triples", _size_independence),
    Check("cavity resonant reflection", 1e-14,
          "(4g^2 - kappa gamma)/(4g^2 + kappa gamma) up to g = 10 and 25", _resonant_reflection),
    Check("cavity uncoupled reflection on resonance", _EXACT,
          "r_0 = -1 exactly", _resonant_uncoupled),
    Check("cavity phase pair", 1e-15,
          "phi = 0 and phi_0 = pi at g = 5 sqrt(kappa gamma)", _resonant_phase_pair),
    Check("cavity uncoupled unit modulus", 1e-12,
          "|r_0| = 1 for detunings up to 80 kappa", _uncoupled_unit_modulus),
    Check("physical single-qubit gate realizations", 1e-12,
          "holonomic and half-wave-plate forms", _physical_gates),
    Check("role labeling", 0.5,
          "photon and spin renderings of the Bell pair and |W_4>", _role_labeling),
)


def run_verification(seed: int = 0) -> list[CheckResult]:
    """Run every check of `CHECKS` in order; returns one result per check."""
    rng = np.random.default_rng(seed)
    results = []
    for check in CHECKS:
        dev = float(check.measure(rng))
        passed = dev < check.tolerance
        results.append(CheckResult(check.name, dev, check.tolerance, passed, check.detail))
    return results


def validate(command: str, opts: argparse.Namespace) -> None:
    """Check what no callee checks before output is written: finite floats,
    a non-negative `verify` seed, the cavity grid's step counts and a
    writable output path.  Every other range is checked once, by the
    callee."""
    for key, value in vars(opts).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    # default_rng's own error for a negative seed names no option.
    if command == "verify" and opts.seed < 0:
        raise ValueError(f"seed must be >= 0, got {opts.seed}")
    # linspace(..., 0) is empty, which would write a header-only CSV.
    if command == "cavity-sweep" and (opts.detuning_steps < 1 or opts.g_steps < 1):
        raise ValueError("grid step counts must be >= 1")
    out = getattr(opts, "out", None)
    if out is not None:
        # An existing path is written in place: it must be writable itself,
        # whatever its directory allows (/dev/null lies in a read-only /dev).
        if os.path.exists(out):
            writable = not os.path.isdir(out) and os.access(out, os.W_OK)
        else:
            parent = os.path.dirname(os.path.abspath(out)) or "."
            writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
        if not writable:
            raise ValueError(f"output path {out!r} is not writable")


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(r)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        first = failures[0]
        print(f"first failure: {first.name} (deviation {first.deviation:.3e})", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

# `--role` and the `role` config key are both checked against these choices.
_ROLES = {role.kind: role for role in (PHOTON, SPIN)}


def cmd_prepare(args) -> int:
    role = _ROLES[args.role]
    out_state, report = double_w_weight_one(args.n, args.mode)
    labels = str.maketrans({"0": role.zero_label, "1": role.one_label})
    cells, amplitudes = [], []  # one "stage,index,basis,label" cell a row, and its amplitude

    def add_rows(stage: str, state) -> None:
        # Rows in ascending basis index: the last qubit's excitation first.
        m = state.num_qubits
        index, amps = state.indices()[::-1], state.amplitudes[::-1]
        if args.full:
            dense = np.zeros(1 << m, dtype=complex)
            dense[index] = amps
            index, amps = np.arange(1 << m), dense
        else:
            kept = np.abs(amps) > 1e-12
            index, amps = index[kept], amps[kept]
        for idx in index.tolist():
            bits = format(idx, f"0{m}b")
            cells.append(f"{stage},{idx},{bits},{bits.translate(labels)}")
        amplitudes.append(amps)

    if args.trace:
        # Each sequential round, with every joined qubit right after its source.
        rounds = report.rounds or double_w_weight_one(args.n, "sequential")[1].rounds
        add_rows("round_0", rounds[0])
        for k, grown in enumerate(rounds[1:], start=1):
            add_rows(f"round_{k}", grown.permuted(round_permutation(args.n, k)))
    add_rows("final", out_state)
    amps = np.concatenate(amplitudes)
    header = ["stage", "index", "basis", "label", "re", "im"]
    write_csv(args.out, header, [(cells, np.arange(len(cells))), amps.real, amps.imag])

    print(relabel(out_state, role))
    print(f"fidelity vs |W_{2 * args.n}>: " + "%.17g" % report.overlap)
    print(f"ancilla purities: {[round(p, 12) for p in report.ancilla_purities]}")
    return 0


# ---------------------------------------------------------------------------
# fidelity-sweep
# ---------------------------------------------------------------------------

def cmd_fidelity_sweep(args) -> int:
    records = noi.sweep(args.theta_max, args.steps, args.n)
    # n is a small integer, which `%.17g` writes as `%d` does.
    write_csv(args.out, noi.FidelityRecord._fields, [list(column) for column in zip(*records)])
    print(f"wrote {len(records)} sweep rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cavity-sweep
# ---------------------------------------------------------------------------

def cmd_cavity_sweep(args) -> int:
    # An overflowing linspace gives non-finite points; reflection_grid
    # rejects them by name, so numpy's warning would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        detunings = np.linspace(args.detuning_min, args.detuning_max, args.detuning_steps)
        g_ratios = np.linspace(args.g_min, args.g_max, args.g_steps)
        g = g_ratios * np.sqrt(args.gamma_decay)
    # Detuning is w_C - w_p in units of kappa; cavity and emitter stay
    # co-resonant.  Rows run detuning-major.
    try:
        grid = cav.reflection_grid(detunings[:, None], g[None, :], args.gamma_decay)
    except cav.GridPointError as err:
        i, j = err.index
        raise ValueError(
            f"{err.reason} at the grid point with detuning {float(detunings[i])!r}, "
            f"g_ratio {float(g_ratios[j])!r} (g = {float(g[j])!r})"
        ) from None
    # Cells that repeat along an axis (phi_0 depends on the detuning alone) are formatted once.
    i, j = np.divmod(np.arange(grid.cz_pass.size), g_ratios.size)
    axes = (detunings, g_ratios, grid.phi_0[:, 0])
    d_cells, g_cells, phi0_cells = (["%.17g" % x for x in axis.tolist()] for axis in axes)
    floats = [grid.r.real.ravel(), grid.r.imag.ravel(), grid.phi.ravel()]
    cz_cells = (["0", "1"], grid.cz_pass.ravel().astype(np.intp))
    header = ["detuning", "g_ratio", "re_r", "im_r", "phi", "phi_0", "cz_pass"]
    write_csv(args.out, header, [(d_cells, i), (g_cells, j), *floats, (phi0_cells, i), cz_cells])
    print(f"wrote {grid.cz_pass.size} cavity rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call."""
    parser = argparse.ArgumentParser(
        prog="wexpand",
        description="Deterministic W-state preparation: verification, state dumps and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the anchored-identity verification suite")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify, defaults={"seed": 0})

    p_prep = sub.add_parser("prepare", help="prepare |W_2n> and dump amplitudes")
    p_prep.add_argument("--config", default=None)
    p_prep.add_argument("--n", type=int, default=None)
    choice_options = [
        p_prep.add_argument("--mode", choices=["block", "sequential"], default=None),
        # Checked and ignored: both values ran the same code; perfbench/workloads.py sends it.
        p_prep.add_argument("--schedule", choices=["serial", "parallel"], default=None),
        p_prep.add_argument("--role", choices=list(_ROLES), default=None),
    ]
    p_prep.add_argument("--out", default=None)
    p_prep.add_argument("--trace", action="store_true", default=None,
                        help="also dump each growth round")
    p_prep.add_argument("--full", action="store_true", default=None,
                        help="dump zero amplitudes too")
    p_prep.set_defaults(
        func=cmd_prepare,
        defaults={
            "n": 2, "mode": "sequential", "schedule": "serial",
            "role": "photon", "out": "prepare.csv", "trace": False, "full": False,
        },
        choices={option.dest: option.choices for option in choice_options},
    )

    p_fid = sub.add_parser("fidelity-sweep", help="closed-form and simulated fidelity sweep CSV")
    p_fid.add_argument("--config", default=None)
    p_fid.add_argument("--theta-max", type=float, default=None, dest="theta_max")
    p_fid.add_argument("--steps", type=int, default=None)
    p_fid.add_argument("--n", type=int, default=None)
    p_fid.add_argument("--out", default=None)
    p_fid.set_defaults(
        func=cmd_fidelity_sweep,
        defaults={"theta_max": float(np.pi / 60.0), "steps": 200, "n": 2, "out": "fidelity.csv"},
    )

    p_cav = sub.add_parser("cavity-sweep", help="reflection-coefficient grid CSV")
    p_cav.add_argument("--config", default=None)
    p_cav.add_argument("--detuning-min", type=float, default=None, dest="detuning_min")
    p_cav.add_argument("--detuning-max", type=float, default=None, dest="detuning_max")
    p_cav.add_argument("--detuning-steps", type=int, default=None, dest="detuning_steps")
    p_cav.add_argument("--g-min", type=float, default=None, dest="g_min")
    p_cav.add_argument("--g-max", type=float, default=None, dest="g_max")
    p_cav.add_argument("--g-steps", type=int, default=None, dest="g_steps")
    p_cav.add_argument("--gamma-decay", type=float, default=None, dest="gamma_decay")
    p_cav.add_argument("--out", default=None)
    p_cav.set_defaults(
        func=cmd_cavity_sweep,
        defaults={
            "detuning_min": 0.0, "detuning_max": 0.0, "detuning_steps": 1,
            "g_min": 0.0, "g_max": 10.0, "g_steps": 101,
            "gamma_decay": 1.0, "out": "cavity.csv",
        },
    )
    return parser


def _config_value(key: str, value, default, choices=None):
    """A config-file value checked against the type of the option's default
    and, for an option with choices, against those.

    An int stands in for a float; a bool never stands in for a number.
    """
    expected = type(default)
    if expected is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(
                f"config key {key!r} must be a float, got an int too large for one"
            ) from None
    if type(value) is not expected:
        raise ValueError(
            f"config key {key!r} must be of type {expected.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    if choices is not None and value not in choices:
        raise ValueError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The resolved options: flags, then the JSON config file, then defaults."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(args.defaults))
        if unknown:
            raise ValueError(
                f"unknown config key(s) for {args.command}: {', '.join(unknown)}; "
                f"expected some of {', '.join(sorted(args.defaults))}"
            )
        choices = getattr(args, "choices", {})
        config = {
            k: _config_value(k, v, args.defaults[k], choices.get(k)) for k, v in config.items()
        }
    options = {}
    for key, default in args.defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            options[key] = flag_value
        else:
            options[key] = config[key] if key in config else default
    return argparse.Namespace(**options)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_config(args)
        validate(args.command, opts)
        return args.func(opts)
    except (OSError, ValueError, MemoryError) as exc:
        # numpy names the allocation it could not make; a bare MemoryError is empty.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
