"""Command-line surface: verify | prepare | fidelity-sweep | cavity-sweep.

All commands are deterministic: identical configurations produce
byte-identical output files (floats are written with 17 significant
digits, rows end with LF).  Options may come from flags or from a JSON
config file passed via --config; flags win on conflict.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cavity as cav
from . import noise as noi
from .gates import (
    HolonomicParams,
    NoiseParams,
    T_PRIME_ANGLE,
    controlled_phase,
    hadamard,
    holonomic_gate,
    hwp_gate,
    phase_aligned_deviation,
    rotation_gate,
    t_prime,
)
from .statevec import (
    QubitPermutation,
    StateVector,
    apply_controlled,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from .wcircuit import (
    BLOCK_MODE_MAX_N,
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    DoublingPlan,
    ExpansionCircuit,
    QubitRole,
    apply_O,
    build_w_state,
    create_epr,
    double_w,
    expand_by_one,
    expansion_circuit_from_gates,
    interleave_permutation,
    relabel,
    standard_expansion_circuit,
)


def _write_rows(path: str, header: list[str], row_format: str, rows) -> None:
    """Write a CSV with one %-format string per row.

    Floats are written `%.17g` and ints and bools `%d`; a `%s` cell must be
    a string that needs no CSV quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([row_format % row for row in rows])


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

    `measure(circuit, rng)` returns the largest deviation from the anchor;
    `circuit` is the 12-gate circuit laid out with the run's T' angle and
    `rng` the run's seeded generator, shared by the checks in order.  A
    check passes when its deviation is below `tolerance`.
    """

    name: str
    tolerance: float
    detail: str
    measure: Callable[[ExpansionCircuit, np.random.Generator], float]


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


# Checks 1 and 2 read the run's circuit and the library's standard one.
def _expansion_matrix(circuit, rng) -> float:
    return max(
        _max_abs(c.matrix() - EXPANSION_MATRIX)
        for c in (circuit, standard_expansion_circuit())
    )


def _stepwise_checkpoints(circuit, rng) -> float:
    checkpoints = {
        2: _vec({4: _S2, 6: _S2}, 3),
        5: _vec({4: _S2, 2: _S2}, 3),
        8: _vec({4: _S2, 3: _S2}, 3),
        11: _vec({4: _S2, 1: _S2}, 3),
    }
    return max(
        _max_abs(states[k].amplitudes - v)
        for c in (circuit, standard_expansion_circuit())
        for states in [c.stepwise_states(basis_state("100"))]
        for k, v in checkpoints.items()
    )


def _gate_conventions(circuit, rng) -> float:
    h_ref = np.array([[1, 1], [1, -1]], dtype=complex) * _S2
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    tp_ref = np.array([[c, s], [s, -c]], dtype=complex)
    return max(_max_abs(hadamard().matrix - h_ref), _max_abs(t_prime().matrix - tp_ref))


def _controlled_phase_convention(circuit, rng) -> float:
    z = np.diag([1, -1]).astype(complex)
    return max(
        _max_abs(controlled_phase().matrix - np.diag([1, 1, 1, -1])),
        abs(controlled_phase(0.3).matrix[3, 3] - np.exp(1j * (np.pi - 0.3))),
        _max_abs(apply_controlled(basis_state("11"), z, 0, 1).amplitudes - _vec({3: -1}, 2)),
        _max_abs(apply_controlled(basis_state("10"), z, 0, 1).amplitudes - _vec({2: 1}, 2)),
    )


def _bell_pair(circuit, rng) -> float:
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


def _term_splitting(circuit, rng) -> float:
    # One excitation of 1/sqrt(n) weight splits into two of 1/sqrt(2n) each,
    # other terms untouched.
    third, sixth = 1 / np.sqrt(3), 1 / np.sqrt(6)
    expected = _vec({0b1000: third, 0b0100: sixth, 0b0010: sixth, 0b0001: third}, 4)
    return _max_abs(expand_by_one(build_w_state(3), 1).amplitudes - expected)


def _growth_strategy(circuit, rng) -> float:
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


def _doubling_w6(circuit, rng) -> float:
    return abs(1.0 - double_w(DoublingPlan(3, "block", "serial"))[1].fidelity)


def _doubling_sweep(circuit, rng) -> float:
    return max(
        abs(1.0 - double_w(DoublingPlan(n, mode, schedule))[1].fidelity)
        for n in (1, 2, 3, 4)
        for mode in ("block", "sequential")
        for schedule in ("serial", "parallel")
    )


def _swap_network(circuit, rng) -> float:
    # The interleave permutation acts on the doubling input exactly like the
    # pairwise swap sequence (2,7)(3,4)(5,9), 1-based.
    reg = tensor(build_w_state(3), zero_state(6))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    return _max_abs(permute(reg, interleave_permutation(3)).amplitudes - via_swaps.amplitudes)


def _closed_forms(circuit, rng) -> float:
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


def _noisy_agreement(circuit, rng) -> float:
    points = [
        NoiseParams(*(float(x) for x in rng.uniform(0.0, _THETA_MAX, size=3))) for _ in range(10)
    ]
    seeded = [(p, n) for p in points for n in (1, 2, 3)]
    return max(
        abs(noi.fidelity_combined(p.alpha, p.beta, p.gamma) - noi.simulate_noisy_fidelity(n, p))
        for p, n in seeded + _fixed_noise_sample()[0]
    )


def _size_independence(circuit, rng) -> float:
    spreads = []
    for p in (NoiseParams(0.02, 0.015, 0.03), NoiseParams(0.025, 0.018, 0.033)):
        sims = [noi.simulate_noisy_fidelity(n, p) for n in (1, 2, 3, 4)]
        spreads.append(max(sims) - min(sims))
    return max(spreads)


def _resonant_reflection(circuit, rng) -> float:
    # r = (4g^2 - kappa gamma)/(4g^2 + kappa gamma) with everything on resonance.
    dev = 0.0
    for kappa, gamma_decay, g_max in ((1.0, 1.0, 10.0), (1.7, 0.4, 25.0)):
        kg = kappa * gamma_decay
        for g in np.linspace(0.0, g_max, 1000).tolist():
            r = cav.reflection_coupled(cav.CavityParams(0.0, 0.0, 0.0, g, kappa, gamma_decay))
            dev = max(dev, abs(r - (4.0 * g * g - kg) / (4.0 * g * g + kg)))
    return dev


def _resonant_uncoupled(circuit, rng) -> float:
    return abs(cav.reflection_uncoupled(cav.CavityParams.resonant(1.0)) + 1.0)


def _resonant_phase_pair(circuit, rng) -> float:
    pp = cav.phase_pair(cav.CavityParams.resonant(5.0))
    return max(abs(pp.phi), abs(pp.phi_0 - np.pi))


def _uncoupled_unit_modulus(circuit, rng) -> float:
    return max(
        abs(abs(cav.reflection_uncoupled(cav.CavityParams(-d, 0.0, 0.0, 1.0, 1.0, 1.0))) - 1.0)
        for span in (50.0, 80.0)
        for d in np.linspace(-span, span, 10_000).tolist()
    )


def _physical_gates(circuit, rng) -> float:
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


def _role_labeling(circuit, rng) -> float:
    epr = create_epr()
    ok = (
        relabel(epr, PHOTON).text == "(|LR⟩+|RL⟩)/√2"
        and relabel(epr, SPIN).text == "(|-+⟩+|+-⟩)/√2"
        and "|-+++⟩" in relabel(build_w_state(4), SPIN).text
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
          "all mode/schedule combinations", _doubling_sweep),
    Check("swap network layout", 1e-12,
          "interleaved triples vs pairwise swap list", _swap_network),
    Check("fidelity closed forms", 1e-12,
          "unity at zero, reductions exact; combined at pi/60 > 0.97", _closed_forms),
    Check("noisy-circuit agreement", 1e-9,
          "closed form vs full simulation, n = 1..3", _noisy_agreement),
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


def run_verification(tp_angle: float = T_PRIME_ANGLE, seed: int = 0) -> list[CheckResult]:
    """Run every check of `CHECKS` in order; returns one result per check."""
    # Laid out directly, past the self-check of standard_expansion_circuit, so
    # that a miscalibrated T' angle is left for the first check to catch.
    circuit = expansion_circuit_from_gates(
        hadamard(), rotation_gate(tp_angle, "T'*"), controlled_phase()
    )
    rng = np.random.default_rng(seed)
    results = []
    for check in CHECKS:
        dev = float(check.measure(circuit, rng))
        passed = dev < check.tolerance
        results.append(CheckResult(check.name, dev, check.tolerance, passed, check.detail))
    return results


def validate(command: str, opts: argparse.Namespace) -> None:
    """Check the resolved options of `command`: finite floats, caps, steps
    and a writable output path."""
    for key, value in vars(opts).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if command == "prepare":
        DoublingPlan(opts.n, opts.mode, opts.schedule)
    elif command == "fidelity-sweep":
        if not 1 <= opts.n <= BLOCK_MODE_MAX_N:
            raise ValueError(f"n must be in 1..{BLOCK_MODE_MAX_N}, got {opts.n}")
        if opts.steps < 2:
            raise ValueError(f"steps must be >= 2, got {opts.steps}")
    elif command == "cavity-sweep":
        if opts.detuning_steps < 1 or opts.g_steps < 1:
            raise ValueError("grid step counts must be >= 1")
        if opts.gamma_decay <= 0.0:
            raise ValueError(f"gamma_decay must be positive, got {opts.gamma_decay}")
    out = getattr(opts, "out", None)
    if out is not None:
        parent = os.path.dirname(os.path.abspath(out)) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise ValueError(f"output path {out!r} is not writable")


def cmd_verify(args) -> int:
    results = run_verification(tp_angle=args.tp_angle, seed=args.seed)
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

def _role_for(name: str) -> QubitRole:
    if name == "photon":
        return PHOTON
    if name == "spin":
        return SPIN
    raise ValueError(f"unknown role {name!r}; expected 'photon' or 'spin'")


def cmd_prepare(args) -> int:
    role = _role_for(args.role)
    plan = DoublingPlan(args.n, args.mode, args.schedule)
    out_state, report = double_w(plan)
    target = build_w_state(2 * plan.n)

    rows = []

    full = args.full
    labels = str.maketrans({"0": role.zero_label, "1": role.one_label})

    def add_rows(stage: str, state) -> None:
        nbits = state.num_qubits
        amps = state.amplitudes
        kept = range(amps.size) if full else np.flatnonzero(np.abs(amps) > 1e-12).tolist()
        for idx in kept:
            amp = amps[idx]
            bits = format(idx, f"0{nbits}b")
            rows.append((stage, idx, bits, bits.translate(labels), amp.real, amp.imag))

    if args.trace:
        grown = build_w_state(plan.n)
        add_rows("round_0", grown)
        for i in range(plan.n):
            grown = expand_by_one(grown, 2 * i)
            add_rows(f"round_{i + 1}", grown)
    add_rows("final", out_state)
    _write_rows(
        args.out,
        ["stage", "index", "basis", "label", "re", "im"],
        "%s,%d,%s,%s,%.17g,%.17g\n",
        rows,
    )

    rendering = relabel(out_state, role)
    print(rendering.text)
    print(f"fidelity vs |W_{2 * plan.n}>: " + "%.17g" % fidelity_pure(out_state, target))
    print(f"ancilla purities: {[round(p, 12) for p in report.ancilla_purities]}")
    return 0


# ---------------------------------------------------------------------------
# fidelity-sweep
# ---------------------------------------------------------------------------

def cmd_fidelity_sweep(args) -> int:
    records = noi.sweep(args.theta_max, args.steps, args.n)
    _write_rows(
        args.out,
        ["theta", "f_h", "f_tp", "f_cp", "f_combined", "f_simulated", "n"],
        "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
        [
            (r.theta, r.f_h, r.f_tp, r.f_cp, r.f_combined, r.f_simulated, r.n)
            for r in records
        ],
    )
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
    # The detuning, g_ratio and phi_0 cells repeat along an axis (the
    # uncoupled phase depends on the detuning alone): format each once.
    n_g = g_ratios.size
    d_cells = ["%.17g," % d for d in detunings.tolist()]
    phi0_cells = [",%.17g," % p for p in grid.phi_0[:, 0].tolist()]
    _write_rows(
        args.out,
        ["detuning", "g_ratio", "re_r", "im_r", "phi", "phi_0", "cz_pass"],
        "%s%s%.17g,%.17g,%.17g%s%d\n",
        zip(
            [cell for cell in d_cells for _ in range(n_g)],
            ["%.17g," % ratio for ratio in g_ratios.tolist()] * detunings.size,
            grid.r.real.ravel().tolist(),
            grid.r.imag.ravel().tolist(),
            grid.phi.ravel().tolist(),
            [cell for cell in phi0_cells for _ in range(n_g)],
            grid.cz_pass.ravel().tolist(),
        ),
    )
    print(f"wrote {grid.cz_pass.size} cavity rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wexpand",
        description="Deterministic W-state preparation: verification, state dumps and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the anchored-identity verification suite")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    # Fault-injection fixture: corrupt the T' angle to prove checks can fail.
    p_verify.add_argument("--tp-angle", type=float, default=None,
                          dest="tp_angle", help=argparse.SUPPRESS)
    p_verify.set_defaults(
        func=cmd_verify, defaults={"seed": 0, "tp_angle": float(T_PRIME_ANGLE)}
    )

    p_prep = sub.add_parser("prepare", help="prepare |W_2n> and dump amplitudes")
    p_prep.add_argument("--config", default=None)
    p_prep.add_argument("--n", type=int, default=None)
    p_prep.add_argument("--mode", choices=["block", "sequential"], default=None)
    p_prep.add_argument("--schedule", choices=["serial", "parallel"], default=None)
    p_prep.add_argument("--role", choices=["photon", "spin"], default=None)
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


def _config_value(key: str, value, default):
    """A config-file value checked against the type of the option's default.

    An int stands in for a float; a bool never stands in for a number.
    """
    expected = type(default)
    if expected is float and type(value) is int:
        return float(value)
    if type(value) is not expected:
        raise ValueError(
            f"config key {key!r} must be of type {expected.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
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
        config = {k: _config_value(k, v, args.defaults[k]) for k, v in config.items()}
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
