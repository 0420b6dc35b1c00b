"""Workloads of the wexpand benchmark: seeded argv generators and output oracles.

Each workload is a cycle of request *shapes*.  A shape fixes the inputs that
set a request's cost (register size, sweep length, grid size); the seed
shuffles the order of each cycle and draws every cost-neutral input (role,
schedule, angles, grid bounds).  The benchmark runs whole cycles, so every
run sees the same mix of sizes and its latency quantiles are steady across
seeds.  The shapes are listed by cost, and repeated so that the median and
the 90th percentile each fall between two copies of one shape (ranks 5-6 and
9-10 of ten, 10-11 and 18-19 of twenty), never on the edge between sizes.

The oracles use numpy and the paper's formulas only, never the library.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Label conventions of the `prepare` CSV: (|0> label, |1> label) per role.
ROLE_LABELS = {"photon": ("R", "L"), "spin": ("+", "-")}
# Defaults of `wexpand.cavity.cz_quality`, which `cavity-sweep` uses.
CZ_PHASE_TOL = 0.01
CZ_MODULUS_TOL = 0.02

AMP_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12
SIMULATED_TOL = 1e-9
CAVITY_TOL = 1e-12


@dataclass(frozen=True)
class Request:
    """One generated CLI call and the inputs its oracle checks against."""

    argv: tuple[str, ...]
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple  # one cycle of cost-setting inputs
    make: Callable[[object, random.Random, str], Request]
    oracle: Callable[[dict, Path, str], str | None]  # (params, CSV path, stdout) -> error
    warmup: tuple[str, ...]  # fixed untimed request; the caller appends --out
    largest_register_qubits: int  # of the largest shape, from the protocol's layout


def cycles(workload: Workload, seed: int, out: str):
    """Endless sequence of request cycles; the same seed gives the same requests."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        order = list(workload.shapes)
        rng.shuffle(order)
        yield [workload.make(shape, rng, out) for shape in order]


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None} != {header}")
    return rows[1:]


def _read_numeric(path: Path, header: list[str]) -> np.ndarray:
    """Data rows of an all-numeric CSV as a 2-D float array, after checking its header.

    The file is parsed as it streams in, so a large grid adds little to the
    benchmark's peak memory beyond the program's own.
    """
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first.split(",") != header:
            raise ValueError(f"header {first!r} != {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))


def _max_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) if got.size else 0.0


# ---------------------------------------------------------------------------
# prepare-dense
# ---------------------------------------------------------------------------

# (mode, n, --trace); registers of 2^12 .. 2^18 amplitudes, listed by cost.
# One block n=6 per cycle keeps the most bandwidth-bound request, whose time
# swings most with the load on a shared machine, to a fifth of the run.
PREPARE_SHAPES = (
    ("block", 4, False), ("block", 4, False), ("block", 4, True),
    ("sequential", 6, False), ("sequential", 6, False),
    ("block", 5, False), ("block", 5, False),
    ("sequential", 6, True),
    ("block", 5, True),
    ("sequential", 7, False), ("sequential", 7, False),
    ("sequential", 7, False), ("sequential", 7, False),
    ("sequential", 7, True), ("sequential", 7, True),
    ("sequential", 7, True), ("sequential", 7, True),
    ("sequential", 8, False), ("sequential", 8, False),
    ("block", 6, False),
)


def _make_prepare(shape, rng: random.Random, out: str) -> Request:
    mode, n, trace = shape
    role = rng.choice(sorted(ROLE_LABELS))
    schedule = rng.choice(["serial", "parallel"])
    argv = ["prepare", "--n", str(n), "--mode", mode, "--schedule", schedule,
            "--role", role, "--out", out]
    if trace:
        argv.append("--trace")
    return Request(tuple(argv), {"n": n, "role": role, "trace": trace})


def _w_like_amplitudes(num_qubits: int, split: int, n: int) -> dict[int, float]:
    """Weight-one state whose first ``split`` qubits carry 1/sqrt(2n), the rest 1/sqrt(n).

    This is |W_n> after ``split / 2`` growth rounds; with split = 2n it is
    |W_2n>.  Qubit 0 is the most significant bit of the index.
    """
    return {
        1 << (num_qubits - 1 - p): (1.0 / math.sqrt(2 * n) if p < split else 1.0 / math.sqrt(n))
        for p in range(num_qubits)
    }


def check_prepare(params: dict, path: Path, stdout: str) -> str | None:
    """Every stage's rows equal the ideal amplitudes; `final` is |W_2n>."""
    n, role, trace = params["n"], params["role"], params["trace"]
    zero, one = ROLE_LABELS[role]
    expected = [(f"round_{k}", n + k, 2 * k) for k in range(n + 1)] if trace else []
    expected.append(("final", 2 * n, 2 * n))
    stages: dict[str, list[list[str]]] = {}
    for row in _read_csv(path, ["stage", "index", "basis", "label", "re", "im"]):
        stages.setdefault(row[0], []).append(row)
    if list(stages) != [name for name, _, _ in expected]:
        return f"stages {list(stages)} != {[name for name, _, _ in expected]}"
    for name, qubits, split in expected:
        want = _w_like_amplitudes(qubits, split, n)
        rows = stages[name]
        idx = [int(r[1]) for r in rows]
        if sorted(idx) != sorted(want):
            return f"{name}: indices {idx} != weight-one indices {sorted(want)}"
        for r in rows:
            bits = format(int(r[1]), f"0{qubits}b")
            if r[2] != bits or r[3] != "".join(one if c == "1" else zero for c in bits):
                return f"{name}: basis/label {r[2]!r}/{r[3]!r} wrong for index {r[1]}"
        re = np.array([float(r[4]) for r in rows])
        im = np.array([float(r[5]) for r in rows])
        dev = max(_max_dev(re, np.array([want[i] for i in idx])), _max_dev(im, np.zeros(len(im))))
        if not dev <= AMP_TOL:
            return f"{name}: amplitude deviation {dev:.3e} > {AMP_TOL:g}"
    fid = [line for line in stdout.splitlines() if line.startswith(f"fidelity vs |W_{2 * n}>: ")]
    if len(fid) != 1 or not abs(float(fid[0].rsplit(" ", 1)[1]) - 1.0) <= AMP_TOL:
        return f"printed fidelity line {fid} is not 1 within {AMP_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

# (n, steps); registers of at most 2^9 amplitudes.
SWEEP_SHAPES = (
    (1, 50), (1, 50),
    (2, 50), (2, 50),
    (3, 50), (3, 50),
    (1, 150),
    (2, 100),
    (1, 200), (1, 200),
)


def _make_sweep(shape, rng: random.Random, out: str) -> Request:
    n, steps = shape
    theta_max = math.pi / 30.0 * (1.0 - rng.random())  # in (0, pi/30]
    argv = ["fidelity-sweep", "--n", str(n), "--steps", str(steps),
            "--theta-max", _fmt(theta_max), "--out", out]
    return Request(tuple(argv), {"n": n, "steps": steps, "theta_max": theta_max})


def closed_forms(theta: np.ndarray) -> dict[str, np.ndarray]:
    """The paper's doubling fidelities with every error angle set to ``theta``."""
    x = (np.pi + 8.0 * theta) / 4.0
    s8, c8 = np.sin(np.pi / 8.0), np.cos(np.pi / 8.0)
    eg = np.exp(1j * theta)
    f_h = np.abs(0.5 + 0.5 * np.cos(2.0 * theta) ** 3) ** 2
    f_tp = np.abs((np.cos(x) + np.sin(x)) / np.sqrt(2.0)) ** 2
    f_cp = np.abs(
        0.5 * np.exp(-2j * theta) * np.cos(theta / 2.0) ** 4
        + (c8**2 - np.exp(-1j * theta) * s8**2) / np.sqrt(2.0)
    ) ** 2
    f_combined = np.abs(
        np.exp(-4j * theta) * (1.0 + eg) ** 4 * np.cos(2.0 * theta) ** 3 * np.cos(x)
        / (16.0 * np.sqrt(2.0))
        + np.exp(-1j * theta) * (-1.0 + eg + (1.0 + eg) * np.sin(x)) / (2.0 * np.sqrt(2.0))
    ) ** 2
    return {"f_h": f_h, "f_tp": f_tp, "f_cp": f_cp, "f_combined": f_combined}


SWEEP_HEADER = ["theta", "f_h", "f_tp", "f_cp", "f_combined", "f_simulated", "n"]


def check_sweep(params: dict, path: Path, stdout: str) -> str | None:
    """Grid is linspace(0, theta_max, steps); closed forms hold; simulated = combined."""
    data = _read_numeric(path, SWEEP_HEADER)
    if len(data) != params["steps"]:
        return f"{len(data)} rows != {params['steps']} steps"
    cols = dict(zip(SWEEP_HEADER, data.T))
    grid = np.linspace(0.0, params["theta_max"], params["steps"])
    dev = _max_dev(cols["theta"], grid)
    if not dev <= 1e-15:
        return f"theta grid deviates from linspace by {dev:.3e}"
    if np.any(cols["n"] != params["n"]):
        return f"n column differs from {params['n']}"
    for name, ref in closed_forms(grid).items():
        dev = _max_dev(cols[name], ref)
        if not dev <= CLOSED_FORM_TOL:
            return f"{name} deviates from the closed form by {dev:.3e}"
    dev = _max_dev(cols["f_simulated"], cols["f_combined"])
    if not dev <= SIMULATED_TOL:
        return f"|f_simulated - f_combined| = {dev:.3e} > {SIMULATED_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# cavity-grid
# ---------------------------------------------------------------------------

# (detuning steps, g steps); 1681 .. 10201 grid points.
CAVITY_SHAPES = (
    (41, 41), (41, 41),
    (41, 71),
    (71, 41),
    (61, 61), (61, 61),
    (71, 71),
    (81, 81),
    (101, 101), (101, 101),
)


def _make_cavity(shape, rng: random.Random, out: str) -> Request:
    d_steps, g_steps = shape
    p = {
        "detuning_min": rng.uniform(-4.0, -0.5),
        "detuning_max": rng.uniform(0.5, 4.0),
        "detuning_steps": d_steps,
        "g_min": rng.uniform(0.0, 1.0),
        "g_max": rng.uniform(4.0, 12.0),
        "g_steps": g_steps,
        "gamma_decay": rng.uniform(0.5, 2.0),
    }
    argv = ["cavity-sweep"]
    for key, value in p.items():
        argv += ["--" + key.replace("_", "-"), str(value) if isinstance(value, int) else _fmt(value)]
    argv += ["--out", out]
    return Request(tuple(argv), p)


def _wrap(angle: np.ndarray) -> np.ndarray:
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def reflection_grid(p: dict) -> tuple[np.ndarray, ...]:
    """Detuning, g ratio, coupled r and uncoupled r_0 over the grid, detuning-major.

    The detuning d = w_C - w_p is in units of kappa = 1, the emitter is
    co-resonant with the cavity and g = g_ratio * sqrt(gamma_decay).
    """
    d, g = np.meshgrid(
        np.linspace(p["detuning_min"], p["detuning_max"], p["detuning_steps"]),
        np.linspace(p["g_min"], p["g_max"], p["g_steps"]),
        indexing="ij",
    )
    d, g = d.ravel(), g.ravel()
    gd = p["gamma_decay"]
    g2 = (g * np.sqrt(gd)) ** 2
    delta = 1j * d
    r = ((delta - 0.5) * (delta + gd / 2.0) + g2) / ((delta + 0.5) * (delta + gd / 2.0) + g2)
    r0 = (delta - 0.5) / (delta + 0.5)
    return d, g, r, r0


CAVITY_HEADER = ["detuning", "g_ratio", "re_r", "im_r", "phi", "phi_0", "cz_pass"]


def check_cavity(params: dict, path: Path, stdout: str) -> str | None:
    """Every row equals a vectorised evaluation of the reflection formulas."""
    data = _read_numeric(path, CAVITY_HEADER)
    d, g, r, r0 = reflection_grid(params)
    if len(data) != d.size:
        return f"{len(data)} rows != {d.size} grid points"
    cols = dict(zip(CAVITY_HEADER, data.T))
    phi, phi0 = np.angle(r), np.angle(r0)
    checks = {
        "detuning": cols["detuning"] - d,
        "g_ratio": cols["g_ratio"] - g,
        "re_r": cols["re_r"] - r.real,
        "im_r": cols["im_r"] - r.imag,
        # Phases compare modulo 2*pi: a signed zero imaginary part may put
        # a phase of pi at -pi.
        "phi": _wrap(cols["phi"] - phi),
        "phi_0": _wrap(cols["phi_0"] - phi0),
    }
    for name, diff in checks.items():
        dev = float(np.max(np.abs(diff)))
        if not dev <= CAVITY_TOL:
            return f"{name} deviates from the reflection formula by {dev:.3e}"
    errors = np.stack([np.abs(_wrap(phi)), np.abs(_wrap(phi0 - np.pi)), np.abs(np.abs(r) - 1.0)])
    tols = np.array([[CZ_PHASE_TOL], [CZ_PHASE_TOL], [CZ_MODULUS_TOL]])
    want = np.all(errors < tols, axis=0)
    decided = np.all(np.abs(errors - tols) > 1e-9, axis=0)  # skip points on a threshold
    got = cols["cz_pass"]
    if not np.all((got == 0.0) | (got == 1.0)):
        return "cz_pass holds a value other than 0/1"
    if np.any((got == 1.0)[decided] != want[decided]):
        return "cz_pass disagrees with the CZ thresholds"
    return None


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prepare-dense", PREPARE_SHAPES, _make_prepare, check_prepare,
            ("prepare", "--n", "4", "--mode", "block"), 18,
        ),
        Workload(
            "sweep-small", SWEEP_SHAPES, _make_sweep, check_sweep,
            ("fidelity-sweep", "--n", "1", "--steps", "20"), 9,
        ),
        Workload(
            "cavity-grid", CAVITY_SHAPES, _make_cavity, check_cavity,
            ("cavity-sweep", "--detuning-min", "-1", "--detuning-max", "1",
             "--detuning-steps", "21", "--g-steps", "21"), 0,
        ),
    )
}
