"""Command-line surface: verify | prepare | fidelity-sweep | cavity-sweep.

All commands are deterministic: identical configurations produce
byte-identical output files (floats are written with 17 significant
digits, rows end with LF).  Options may come from flags or from a JSON
config file passed via --config; flags win on conflict.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

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
    QubitRole,
    apply_O,
    build_w_state,
    create_epr,
    double_w,
    expand_by_one,
    expansion_circuit_from_gates,
    interleave_permutation,
    relabel,
)

_FLOAT_FMT = "{:.17g}"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FLOAT_FMT.format(float(x))


def _write_rows(path: str, header: list[str], row_format: str, rows) -> None:
    """Write a CSV with one %-format string per row.

    `%.17g` and `%d` give the bytes `_fmt` gives a float and an int or bool;
    a `%s` cell must be a string that needs no CSV quoting.
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


def _vec(entries: dict[int, complex], num_qubits: int) -> np.ndarray:
    v = np.zeros(1 << num_qubits, dtype=complex)
    for idx, amp in entries.items():
        v[idx] = amp
    return v


def run_verification(tp_angle: float = T_PRIME_ANGLE, seed: int = 0) -> list[CheckResult]:
    """Run the full anchored-identity suite; returns one result per check."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    s2 = 1.0 / np.sqrt(2.0)

    def check(name: str, deviation: float, tol: float, detail: str = "") -> None:
        results.append(CheckResult(name, float(deviation), tol, float(deviation) < tol, detail))

    # Laid out directly, past the self-check of standard_expansion_circuit, so
    # that a miscalibrated T' angle is left for check 1 to catch.
    circuit = expansion_circuit_from_gates(
        hadamard(), rotation_gate(tp_angle, "T'*"), controlled_phase()
    )

    # 1. The composed 12-gate circuit equals the expansion operator.
    check(
        "expansion operator matrix",
        np.max(np.abs(circuit.matrix() - EXPANSION_MATRIX)),
        1e-12,
        "12-gate composition vs the 8x8 operator",
    )

    # 2. Stepwise checkpoints of the Bell-pair construction from |100>.
    states = circuit.stepwise_states(basis_state("100"))
    checkpoints = {
        2: _vec({4: s2, 6: s2}, 3),
        5: _vec({4: s2, 2: s2}, 3),
        8: _vec({4: s2, 3: s2}, 3),
        11: _vec({4: s2, 1: s2}, 3),
    }
    dev = max(
        float(np.max(np.abs(states[k].amplitudes - v))) for k, v in checkpoints.items()
    )
    check("stepwise construction checkpoints", dev, 1e-12, "four intermediate states from |100>")

    # 3. Gate conventions.
    h_ref = np.array([[1, 1], [1, -1]], dtype=complex) * s2
    tp_ref = np.array(
        [[np.cos(np.pi / 8), np.sin(np.pi / 8)], [np.sin(np.pi / 8), -np.cos(np.pi / 8)]],
        dtype=complex,
    )
    dev = max(
        float(np.max(np.abs(hadamard().matrix - h_ref))),
        float(np.max(np.abs(t_prime().matrix - tp_ref))),
    )
    check("single-qubit gate conventions", dev, 1e-12, "Hadamard and T' matrices")

    gamma = 0.3
    cz_dev = float(
        np.max(np.abs(controlled_phase().matrix - np.diag([1, 1, 1, -1]).astype(complex)))
    )
    cp_dev = abs(controlled_phase(gamma).matrix[3, 3] - np.exp(1j * (np.pi - gamma)))
    cz_action = apply_controlled(basis_state("11"), np.diag([1, -1]).astype(complex), 0, 1)
    act_dev = float(np.max(np.abs(cz_action.amplitudes - _vec({3: -1}, 2))))
    keep10 = apply_controlled(basis_state("10"), np.diag([1, -1]).astype(complex), 0, 1)
    keep_dev = float(np.max(np.abs(keep10.amplitudes - _vec({2: 1}, 2))))
    check(
        "controlled-phase convention",
        max(cz_dev, cp_dev, act_dev, keep_dev),
        1e-12,
        "CZ flips |11> only; imperfect phase e^{i(pi-gamma)}",
    )

    # 4. Bell pair creation and ancilla restoration.
    epr = create_epr()
    bell = StateVector(_vec({1: s2, 2: s2}, 2))
    out3 = apply_O(basis_state("100"), 0, 1, 2)
    anc = partial_trace(out3, {1}).entries
    pair_rho = partial_trace(out3, {0, 2}).entries
    dev = max(
        abs(1.0 - fidelity_pure(epr, bell)),
        float(np.max(np.abs(anc - np.array([[1, 0], [0, 0]])))),
        float(np.max(np.abs(pair_rho - np.outer(bell.amplitudes, bell.amplitudes.conj())))),
    )
    check("bell pair creation", dev, 1e-12, "(|10>+|01>)/sqrt(2) with the ancilla back in |0>")

    # 5. Term splitting: one excitation of 1/sqrt(n) weight splits into two
    # of 1/sqrt(2n) each, other terms untouched.
    w3 = build_w_state(3)
    expanded = expand_by_one(w3, 1)
    expected = _vec(
        {
            0b1000: 1 / np.sqrt(3),
            0b0100: 1 / np.sqrt(6),
            0b0010: 1 / np.sqrt(6),
            0b0001: 1 / np.sqrt(3),
        },
        4,
    )
    check(
        "term splitting",
        float(np.max(np.abs(expanded.amplitudes - expected))),
        1e-12,
        "1/sqrt(n) term -> two 1/sqrt(2n) terms",
    )

    # 6. Growth strategy: |1> -> Bell -> weighted 3-qubit state -> |W_4>.
    w_like3 = expand_by_one(epr, 0)
    w_like3_ref = _vec({4: 0.5, 2: 0.5, 1: s2}, 3)
    w4 = expand_by_one(w_like3, 2)
    dev = max(
        float(np.max(np.abs(w_like3.amplitudes - w_like3_ref))),
        float(np.max(np.abs(w4.amplitudes - build_w_state(4).amplitudes))),
        float(np.max(np.abs(build_w_state(4).amplitudes - _vec({1: 0.5, 2: 0.5, 4: 0.5, 8: 0.5}, 4)))),
    )
    check("growth strategy amplitudes", dev, 1e-12, "weighted 3-qubit state, then |W_4>")

    # 7. Doubling n=3 in block mode produces |W_6>.
    out, report = double_w(DoublingPlan(3, "block", "serial"))
    check(
        "doubling n=3 (W_6)",
        abs(1.0 - report.fidelity),
        1e-10,
        "block-mode |W_3> -> |W_6>",
    )

    # 8. Doubling across sizes and strategies.
    dev = 0.0
    for n in (1, 2, 4):
        for mode in ("block", "sequential"):
            for schedule in ("serial", "parallel"):
                _, rep = double_w(DoublingPlan(n, mode, schedule))
                dev = max(dev, abs(1.0 - rep.fidelity))
    check("doubling sweep n=1,2,4", dev, 1e-10, "all mode/schedule combinations")

    # 9. Swap-network layout: the interleave permutation acts on the doubling
    # input exactly like the pairwise swap sequence (2,7)(3,4)(5,9), 1-based.
    reg = tensor(build_w_state(3), zero_state(6))
    via_interleave = permute(reg, interleave_permutation(3))
    via_swaps = reg
    for i, j in ((1, 6), (2, 3), (4, 8)):
        via_swaps = permute(via_swaps, QubitPermutation.swap(9, i, j))
    check(
        "swap network layout",
        float(np.max(np.abs(via_interleave.amplitudes - via_swaps.amplitudes))),
        1e-12,
        "interleaved triples vs pairwise swap list",
    )

    # 10. Fidelity closed forms: unity at zero, reductions, combined bound.
    dev = max(
        abs(1.0 - noi.fidelity_hadamard(0.0)),
        abs(1.0 - noi.fidelity_t_prime(0.0)),
        abs(1.0 - noi.fidelity_controlled_phase(0.0)),
        abs(1.0 - noi.fidelity_combined(0.0, 0.0, 0.0)),
    )
    for _ in range(20):
        t = float(rng.uniform(0.0, np.pi / 60.0))
        dev = max(
            dev,
            abs(noi.fidelity_combined(t, 0, 0) - noi.fidelity_hadamard(t)),
            abs(noi.fidelity_combined(0, t, 0) - noi.fidelity_t_prime(t)),
            abs(noi.fidelity_combined(0, 0, t) - noi.fidelity_controlled_phase(t)),
        )
    f_comb = noi.fidelity_combined(np.pi / 60, np.pi / 60, np.pi / 60)
    if f_comb <= 0.97:
        dev = max(dev, 0.97 - f_comb + 1.0)
    check(
        "fidelity closed forms",
        dev,
        1e-12,
        f"reductions exact; combined at pi/60 = {f_comb:.6f} > 0.97",
    )

    # 11. Closed form vs end-to-end noisy simulation.
    dev = 0.0
    for _ in range(10):
        a, b, g = rng.uniform(0.0, np.pi / 60.0, size=3)
        p = NoiseParams(float(a), float(b), float(g))
        for n in (1, 2, 3):
            dev = max(
                dev,
                abs(noi.fidelity_combined(p.alpha, p.beta, p.gamma)
                    - noi.simulate_noisy_fidelity(n, p)),
            )
    check("noisy-circuit agreement", dev, 1e-9, "closed form vs full simulation")

    # 12. Size independence of the simulated fidelity.
    p = NoiseParams(0.02, 0.015, 0.03)
    sims = [noi.simulate_noisy_fidelity(n, p) for n in (1, 2, 3, 4)]
    check("size independence", max(sims) - min(sims), 1e-9, "n = 1..4 at fixed imperfections")

    # 13. Cavity reflection limits.
    dev = 0.0
    for g in np.linspace(0.0, 10.0, 1000):
        p_res = cav.CavityParams.resonant(float(g))
        expected = (4.0 * g * g - 1.0) / (4.0 * g * g + 1.0)
        dev = max(dev, abs(cav.reflection_coupled(p_res) - expected))
    dev = max(dev, abs(cav.reflection_uncoupled(cav.CavityParams.resonant(1.0)) + 1.0))
    pp = cav.phase_pair(cav.CavityParams.resonant(5.0))
    dev = max(dev, abs(pp.phi), abs(pp.phi_0 - np.pi))
    for d in np.linspace(-50.0, 50.0, 10_000):
        p_det = cav.CavityParams(-float(d), 0.0, 0.0, 1.0, 1.0, 1.0)
        dev = max(dev, abs(abs(cav.reflection_uncoupled(p_det)) - 1.0))
    check("cavity reflection limits", dev, 1e-12, "resonant values, phases, unit modulus")

    # 14. Physical single-qubit gate realizations.
    dev = max(
        phase_aligned_deviation(
            hadamard().matrix, holonomic_gate(HolonomicParams(np.pi / 4)).matrix
        ),
        phase_aligned_deviation(
            t_prime().matrix, holonomic_gate(HolonomicParams(np.pi / 8)).matrix
        ),
        float(np.max(np.abs(hwp_gate(np.pi / 8).matrix - hadamard().matrix))),
        float(np.max(np.abs(hwp_gate(np.pi / 16).matrix - t_prime().matrix))),
    )
    check("physical single-qubit gate realizations", dev, 1e-12, "holonomic and half-wave-plate forms")

    # 15. Role labeling.
    photon_text = relabel(epr, PHOTON).text
    spin_text = relabel(epr, SPIN).text
    w4_spin = relabel(build_w_state(4), SPIN).text
    ok = (
        photon_text == "(|LR⟩+|RL⟩)/√2"
        and spin_text == "(|-+⟩+|+-⟩)/√2"
        and "|-+++⟩" in w4_spin
    )
    check("role labeling", 0.0 if ok else 1.0, 0.5, f"{photon_text} / {spin_text}")

    return results


@dataclass(frozen=True)
class RunConfig:
    """Validated option set for one command invocation.

    Options come from flags merged over the JSON config file (flags win);
    caps and output-path writability are checked up front.
    """

    command: str
    options: dict

    def __getattr__(self, name: str):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None

    def validate(self) -> None:
        opts = self.options
        for key, value in opts.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.command == "prepare":
            DoublingPlan(opts["n"], opts["mode"], opts["schedule"])
        elif self.command == "fidelity-sweep":
            if not 1 <= opts["n"] <= BLOCK_MODE_MAX_N:
                raise ValueError(f"n must be in 1..{BLOCK_MODE_MAX_N}, got {opts['n']}")
            if opts["steps"] < 2:
                raise ValueError(f"steps must be >= 2, got {opts['steps']}")
        elif self.command == "cavity-sweep":
            if opts["detuning_steps"] < 1 or opts["g_steps"] < 1:
                raise ValueError("grid step counts must be >= 1")
            if opts["gamma_decay"] <= 0.0:
                raise ValueError(f"gamma_decay must be positive, got {opts['gamma_decay']}")
        out = opts.get("out")
        if out is not None:
            parent = os.path.dirname(os.path.abspath(out)) or "."
            if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                raise ValueError(f"output path {out!r} is not writable")


def cmd_verify(args) -> int:
    results = run_verification(tp_angle=args.tp_angle, seed=args.seed)
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: max deviation {r.deviation:.3e} (tol {r.tolerance:g}) — {r.detail}")
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
    print(f"fidelity vs |W_{2 * plan.n}>: {_fmt(fidelity_pure(out_state, target))}")
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


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Fill unset options from the JSON config file, then from defaults."""
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
    return RunConfig(command=args.command, options=options)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        cfg.validate()
        return args.func(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
