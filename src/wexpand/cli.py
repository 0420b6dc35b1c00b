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
import os
import re
import sys

import numpy as np

from . import cavity as cav
from . import noise as noi
from .checks import run_verification
from .csvcells import write_csv
from .wcircuit import PHOTON, SPIN, double_w_pairs, render_terms


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
        # An empty path names no file, though abspath reads it as the
        # working directory.
        if not out:
            writable = False
        elif os.path.exists(out):
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
    n = args.n
    stages, report = double_w_pairs(n, args.mode)
    # Stage k reads row min(k, n) of the engine's table, so an untraced run
    # reads row n alone.  Each entry read has its "re,im" cells formatted
    # once and its row filter evaluated once, for every row that reads it.
    values = stages.values.tolist()
    amp_cells, kept = {}, {}
    for e in range(0 if args.trace else 3 * n, len(values)):
        amp_cells[e] = "%.17g,%.17g" % (values[e].real, values[e].imag)
        kept[e] = abs(values[e]) > 1e-12
    # Row r of an m-qubit stage is index 2^r, the excitation of qubit m - 1 - r:
    # its index cell is the Python int 2^r, exact past 63 qubits, and its
    # string and label are the m-character windows at offset 2n - m + r of
    # these two templates.
    index_cells = [str(1 << r) for r in range(2 * n)]
    bits = "0" * (2 * n - 1) + "1" + "0" * (2 * n - 1)
    labels = bits.translate(role.labels)
    written = [(f"round_{k}", k) for k in range(n + 1)] * args.trace + [("final", n + 1)]
    rows = []  # each row's whole text, "stage,index,basis,label,re,im"
    for name, k in written:
        # Rows in ascending basis index: the last qubit's excitation first.
        codes = stages.codes(k)[::-1]
        m = len(codes)
        if args.full:
            cells = ["0,0"] * (1 << m)
            for r, e in enumerate(codes):
                cells[1 << r] = amp_cells[e]
            width = f"0{m}b"
            for idx, cell in enumerate(cells):
                string = format(idx, width)
                rows.append(f"{name},{idx},{string},{string.translate(role.labels)},{cell}")
            continue
        stage_bits, stage_labels = bits[2 * n - m:], labels[2 * n - m:]
        rows += [
            f"{name},{index_cells[r]},{stage_bits[r:r + m]},{stage_labels[r:r + m]},{amp_cells[e]}"
            for r, e in enumerate(codes) if kept[e]
        ]
    header = ["stage", "index", "basis", "label", "re", "im"]
    write_csv(args.out, header, [(rows, np.arange(len(rows)))])

    # Excitation leftmost first: qubit p's window is at offset 2n - 1 - p.
    print(render_terms([
        (labels[2 * n - 1 - p:4 * n - 1 - p], a)
        for p, a in enumerate(values[e] for e in stages.codes(n + 1)) if abs(a) > 1e-10
    ]))
    print(f"fidelity vs |W_{2 * args.n}>: " + "%.17g" % report.overlap)
    print(f"ancilla purities: {[round(p, 12) for p in report.ancilla_purities]}")
    return 0


# ---------------------------------------------------------------------------
# fidelity-sweep
# ---------------------------------------------------------------------------

def cmd_fidelity_sweep(args) -> int:
    table = noi.sweep(args.theta_max, args.steps, args.n)
    # The six series go to the writer as the arrays they were computed as;
    # n, the same in every row, is one string cell formatted once.
    rows = table.theta.size
    n_cells = (["%d" % table.n], np.zeros(rows, dtype=np.intp))
    write_csv(args.out, table._fields, [*table[:-1], n_cells])
    print(f"wrote {rows} sweep rows to {args.out}")
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

# Each command's handler, help and options, the options in flag order.  An
# option maps to its default, or to its default and its choices; a switch
# (a bool default) maps to its default and its help instead.  The flag is
# the name with "-" for "_", and takes the type of its default.  The same
# defaults and choices check the keys of a --config file.
_COMMANDS = {
    "verify": (cmd_verify, "run the anchored-identity verification suite", {"seed": 0}),
    "prepare": (cmd_prepare, "prepare |W_2n> and dump amplitudes", {
        "n": 2,
        "mode": ("sequential", ["block", "sequential"]),
        # Checked and ignored: both values ran the same code; perfbench/workloads.py sends it.
        "schedule": ("serial", ["serial", "parallel"]),
        "role": ("photon", list(_ROLES)),
        "out": "prepare.csv",
        "trace": (False, "also dump each growth round"),
        "full": (False, "dump zero amplitudes too"),
    }),
    "fidelity-sweep": (cmd_fidelity_sweep, "closed-form and simulated fidelity sweep CSV", {
        "theta_max": float(np.pi / 60.0), "steps": 200, "n": 2, "out": "fidelity.csv",
    }),
    "cavity-sweep": (cmd_cavity_sweep, "reflection-coefficient grid CSV", {
        "detuning_min": 0.0, "detuning_max": 0.0, "detuning_steps": 1,
        "g_min": 0.0, "g_max": 10.0, "g_steps": 101,
        "gamma_decay": 1.0, "out": "cavity.csv",
    }),
}


def _option_table(options: dict) -> tuple[dict, dict, dict]:
    """Each option's flag, mapped to its name, its default and its choices (a
    switch's help instead); then the `defaults` and `choices` that a parse
    puts on its Namespace."""
    flags, defaults, choices = {}, {}, {}
    for name, spec in options.items():
        default, extra = spec if isinstance(spec, tuple) else (spec, None)
        flags["--" + name.replace("_", "-")] = (name, default, extra)
        defaults[name] = default
        if extra is not None and not isinstance(default, bool):
            choices[name] = extra
    return flags, defaults, choices


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call."""
    parser = argparse.ArgumentParser(
        prog="wexpand",
        description="Deterministic W-state preparation: verification, state dumps and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        p_cmd.add_argument("--config", default=None)
        flags, defaults, choices = _option_table(options)
        for flag, (name, default, extra) in flags.items():
            # Every flag defaults to None, so _merge_config can tell one that was given.
            if isinstance(default, bool):
                p_cmd.add_argument(flag, dest=name, action="store_true", default=None, help=extra)
            else:
                p_cmd.add_argument(flag, dest=name, type=type(default), choices=extra, default=None)
        p_cmd.set_defaults(func=func, defaults=defaults, choices=choices)
    return parser


# The detached tokens that start with "-" and that argparse takes as values:
# its parser's `_negative_number_matcher`, while no option looks like one.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace `_build_parser().parse_args(argv)` returns, read without
    argparse when argv is plain: a command, then only spelled-out
    `--flag value`, `--flag=value` and bare switches, each value an int,
    float or str as its default is, and among its choices.  A detached value
    may start with "-" only as a negative number in argparse's own sense
    (`_NEGATIVE_NUMBER`), such as "-1" or "-.5".

    None for every other argv (help, abbreviations, `--`, unknown flags, bad
    values, any other detached value that starts with "-", such as "-1e-5",
    an option of another type), which argparse then judges.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    flags, defaults, choices = _option_table(options)
    flags["--config"] = ("config", "", None)
    given = dict.fromkeys(["config", *options])
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            return None
        name, default, extra = flags[flag]
        if isinstance(default, bool):
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                return None
        if type(default) not in (int, float, str):
            return None
        try:
            value = type(default)(value)
        except ValueError:
            return None
        if extra is not None and value not in extra:
            return None
        given[name] = value
    return argparse.Namespace(
        command=argv[0], **given, func=func, defaults=defaults, choices=choices,
    )


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
    if args.config is not None:
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
        config = {
            k: _config_value(k, v, args.defaults[k], args.choices.get(k))
            for k, v in config.items()
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
    if argv is None:
        argv = sys.argv[1:]
    # Argparse, the one source of help and usage errors, is built only for
    # an argv that is not plain.
    args = _plain_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
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
