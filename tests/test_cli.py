"""Command-line surface: subcommands, CSV contracts, determinism."""
import argparse
import contextlib
import csv
import io
import json
import os
import tempfile
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import postselect_zero
from wexpand import cli, wcircuit
from wexpand.checks import CHECKS
from wexpand.cli import _build_parser, main, run_verification
from wexpand.gates import rotation_gate
from wexpand.statevec import (
    QubitPermutation,
    apply_unitary,
    permute,
    tensor,
    zero_state,
)
from wexpand.wcircuit import (
    PHOTON,
    build_w_state,
    double_w,
    double_w_pairs,
    round_permutation,
    standard_expansion_circuit,
)

PI = np.pi


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exits_zero_on_fresh_build(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL" not in "\n".join(lines)
    # One verdict line per registry check, in order, then the passed/total count.
    n = len(CHECKS)
    assert [line.split(":")[0] for line in lines[:-1]] == [f"[PASS] {c.name}" for c in CHECKS]
    assert lines[-1] == f"{n}/{n} checks passed"


def test_verify_report_includes_w6_doubling_check(capsys):
    main(["verify"])
    out = capsys.readouterr().out
    assert "W_6" in out


def _miscalibrate_t_prime(monkeypatch):
    # The library's T', which standard_expansion_circuit lays out for checks 1 and 2.
    monkeypatch.setattr(
        wcircuit, "t_prime", lambda beta=0.0: rotation_gate(PI / 8 + 0.01 - beta, "T'*")
    )


def test_verify_with_corrupted_t_prime_angle_names_matrix_check(monkeypatch):
    _miscalibrate_t_prime(monkeypatch)
    results = run_verification()
    failures = [r for r in results if not r.passed]
    assert failures
    assert failures[0].name == "expansion operator matrix"


def test_verify_fault_injection_exits_nonzero_and_names_check(capsys, monkeypatch):
    _miscalibrate_t_prime(monkeypatch)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "expansion operator matrix" in captured.err


@pytest.mark.parametrize("gate", ["hadamard", "t_prime", "controlled_phase"])
def test_verify_reports_a_drifted_library_gate(capsys, monkeypatch, gate):
    # A gate of the library 0.01 rad off its angle (or phase) is a FAIL of
    # check 1, not a traceback.
    real = getattr(wcircuit, gate)
    monkeypatch.setattr(wcircuit, gate, lambda angle=0.0: real(angle - 0.01))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    # One verdict line per registry check, in order, then the passed/total count.
    assert [line.split(":")[0].split("] ")[1] for line in lines[:-1]] == [c.name for c in CHECKS]
    assert lines[0].startswith("[FAIL] expansion operator matrix:")
    assert lines[-1].endswith(f"/{len(CHECKS)} checks passed")
    assert "expansion operator matrix" in captured.err


# Two mutants that swap the new-qubit slots of V, V[q1', q2', x] ->
# V[q2', q1', x]: in the kernel, or in the map that the doubling reads.  Ideal
# V is symmetric under the swap and the noisy fidelity |V[1,0,1] + V[0,1,1]|^2
# / 2 is too, so only amplitudes under noise tell the slots apart.
_SWAPPED_V = {
    "expand_qubit": lambda real: lambda psi, target, v: real(psi, target, v.transpose(1, 0, 2)),
    "_expansion_map": lambda real: lambda noise: tuple(m.transpose(1, 0, 2) for m in real(noise)),
}


@pytest.mark.parametrize("mutant", sorted(_SWAPPED_V))
def test_verify_names_a_fault_that_only_the_paper_register_sees(capsys, monkeypatch, mutant):
    monkeypatch.setattr(wcircuit, mutant, _SWAPPED_V[mutant](getattr(wcircuit, mutant)))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    failed = [line.split(":")[0] for line in captured.out.splitlines() if "[FAIL]" in line]
    assert failed == ["[FAIL] paper's register vs dense doubling"]
    assert "first failure: paper's register vs dense doubling" in captured.err


def test_verify_rejects_a_negative_seed_by_name(tmp_path, capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -7}))
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -7\n" and captured.out == ""


def test_run_verification_covers_all_checks():
    results = run_verification()
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert all(r.passed for r in results)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_spin_rendering_and_amplitudes(tmp_path, capsys):
    out = tmp_path / "prep.csv"
    assert main(["prepare", "--n", "2", "--role", "spin", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "|-+++⟩" in stdout
    rows = read_csv(str(out))
    labels = {r["label"]: float(r["re"]) for r in rows}
    assert "-+++" in labels and abs(labels["-+++"] - 0.5) < 1e-12
    assert "fidelity" in stdout and "1" in stdout


def test_prepare_n1_dumps_two_term_bell_pair(tmp_path):
    out = tmp_path / "epr.csv"
    assert main(["prepare", "--n", "1", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 2
    amps = sorted(float(r["re"]) for r in rows)
    np.testing.assert_allclose(amps, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_prepare_schedule_flag_is_accepted_and_changes_no_byte(tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(["prepare", "--n", "3", "--out", str(plain)]) == 0
    for value in ("serial", "parallel"):
        out = tmp_path / f"{value}.csv"
        assert main(["prepare", "--n", "3", "--schedule", value, "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
    cfg, out = tmp_path / "cfg.json", tmp_path / "config.csv"
    cfg.write_text(json.dumps({"n": 3, "schedule": "parallel", "out": str(out)}))
    assert main(["prepare", "--config", str(cfg)]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_prepare_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["prepare", "--n", "2", "--mode", "block", "--out", str(a)])
    main(["prepare", "--n", "2", "--mode", "block", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_prepare_rejects_cap_violation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["prepare", "--n", "9", "--out", str(out)]) != 0
    assert "n <= 8" in capsys.readouterr().err


def test_prepare_trace_includes_growth_rounds(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["prepare", "--n", "2", "--trace", "--out", str(out)]) == 0
    stages = {r["stage"] for r in read_csv(str(out))}
    assert {"round_0", "round_1", "round_2", "final"} <= stages


def test_prepare_full_dumps_every_final_amplitude(tmp_path):
    out = tmp_path / "full.csv"
    assert main(["prepare", "--n", "3", "--full", "--out", str(out)]) == 0
    final = [r for r in read_csv(str(out)) if r["stage"] == "final"]
    assert [int(r["index"]) for r in final] == list(range(1 << 6))
    assert all(r["basis"] == format(int(r["index"]), "06b") for r in final)


def _dumped_stages(path):
    """Each stage of a `prepare` CSV as a dense amplitude vector (zero where no row is)."""
    stages = {}
    for r in read_csv(path):
        amps = stages.setdefault(r["stage"], np.zeros(1 << len(r["basis"]), dtype=complex))
        amps[int(r["index"])] = complex(float(r["re"]), float(r["im"]))
    return stages


@pytest.mark.parametrize(
    "mode, n", [("sequential", n) for n in range(1, 9)] + [("block", n) for n in range(1, 9)]
)
def test_prepare_trace_matches_the_expand_by_one_chain(tmp_path, monkeypatch, mode, n):
    # The trace reads the doubling's own rounds.  The oracle grows the
    # same state a second time: a chain of dense rounds, each contracting
    # the 8x8 composed from the 12 gates over a fresh |0>|0> (new, ancilla),
    # projecting the ancilla and moving the new qubit in after w_k.
    def no_chain(*args, **kwargs):
        raise AssertionError("prepare must not run a second chain")

    monkeypatch.setattr(wcircuit, "expand_by_one", no_chain)
    out = tmp_path / "trace.csv"
    assert main(["prepare", "--n", str(n), "--mode", mode, "--trace", "--out", str(out)]) == 0
    stages = _dumped_stages(str(out))
    composed = standard_expansion_circuit().matrix()
    chain = [build_w_state(n)]
    for k in range(n):
        m = chain[-1].num_qubits
        reg = apply_unitary(tensor(chain[-1], zero_state(2)), composed, (2 * k, m + 1, m))
        reg, _ = postselect_zero(reg, [m + 1])
        dest = tuple(range(2 * k + 1)) + tuple(range(2 * k + 2, m + 1)) + (2 * k + 1,)
        chain.append(permute(reg, QubitPermutation(dest)))
    assert sorted(stages) == sorted([f"round_{k}" for k in range(n + 1)] + ["final"])
    for k, want in enumerate(chain):
        assert np.max(np.abs(stages[f"round_{k}"] - want.amplitudes)) <= 1e-15
    final = permute(chain[-1], round_permutation(n, n).inverse())
    assert np.max(np.abs(stages["final"] - final.amplitudes)) <= 1e-15


def _dense_stages(n, mode):
    """Each stage `prepare --trace` writes, from the dense `double_w` run."""
    out, report = double_w(n, mode)
    rounds = report.rounds or double_w(n, "sequential")[1].rounds
    stages = {"round_0": rounds[0].amplitudes, "final": out.amplitudes}
    for k, grown in enumerate(rounds[1:], start=1):
        stages[f"round_{k}"] = permute(grown, round_permutation(n, k)).amplitudes
    return stages


@pytest.mark.parametrize("full", [False, True], ids=["plain", "full"])
@pytest.mark.parametrize("mode", ["sequential", "block"])
@pytest.mark.parametrize("n", range(1, 9))
def test_prepare_rows_match_the_dense_doubling(tmp_path, n, mode, full):
    # prepare runs on the 2n weight-one amplitudes; each norm sums those
    # alone, so an amplitude may differ from the dense run's in its last bit.
    out = tmp_path / "out.csv"
    argv = ["prepare", "--n", str(n), "--mode", mode, "--trace", "--out", str(out)]
    assert main(argv + ["--full"] * full) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    dense = _dense_stages(n, mode)
    assert list(dict.fromkeys(r[0] for r in rows)) == [*(f"round_{k}" for k in range(n + 1)), "final"]
    for stage, want in dense.items():
        got = [r for r in rows if r[0] == stage]
        index = np.array([int(r[1]) for r in got])
        kept = np.arange(want.size) if full else np.flatnonzero(np.abs(want) > 1e-12)
        assert np.array_equal(index, kept)
        amps = np.array([complex(float(r[4]), float(r[5])) for r in got])
        assert np.max(np.abs(amps - want[kept])) <= 2.2e-16
        off = [r[4:] for r, i in zip(got, index.tolist()) if bin(i).count("1") != 1]
        assert all(cells == ["0", "0"] for cells in off)


def test_prepare_never_runs_the_dense_engine(tmp_path, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("prepare must not run the dense engine")

    for name in ("expand_qubit", "double_w"):
        monkeypatch.setattr(wcircuit, name, dense)
    for mode in ("sequential", "block"):
        for extra in ([], ["--trace"], ["--full", "--trace"]):
            argv = ["prepare", "--n", "4", "--mode", mode, *extra, "--out", str(tmp_path / "o.csv")]
            assert main(argv) == 0


def test_prepare_block_trace_runs_the_pair_engine_once(tmp_path, monkeypatch, capsys):
    # The traced rounds are stages of the same closed form: no second
    # sequential run and no per-round permutation.
    calls, permutations = [], []
    engine, post_init = cli.double_w_pairs, QubitPermutation.__post_init__

    def counted_engine(*args):
        calls.append(args)
        return engine(*args)

    def counted_post_init(self):
        permutations.append(self.map)
        post_init(self)

    monkeypatch.setattr(cli, "double_w_pairs", counted_engine)
    monkeypatch.setattr(QubitPermutation, "__post_init__", counted_post_init)
    argv = ["prepare", "--n", "5", "--mode", "block", "--trace", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    assert calls == [(5, "block")]
    assert permutations == []


@pytest.mark.parametrize("mode", ["block", "sequential"])
@pytest.mark.parametrize("n", range(1, 9))
def test_prepare_amplitudes_lie_within_an_ulp_of_the_exact_ones(tmp_path, capsys, n, mode):
    # Against 40 digits: a stage's expanded qubits carry 1/sqrt(2n), the
    # rest 1/sqrt(n); round k's first 2k qubits are expanded, as are all
    # 2n of the final stage.
    out = tmp_path / "out.csv"
    assert main(["prepare", "--n", str(n), "--mode", mode, "--trace", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    with mpmath.workdps(40):
        half, whole = 1 / mpmath.sqrt(2 * n), 1 / mpmath.sqrt(n)
        worst = mpmath.mpf(0)
        for r in rows:
            # Index 2^r is the excitation of qubit m - 1 - r.
            qubit = len(r["basis"]) - int(r["index"]).bit_length()
            split = 2 * n if r["stage"] == "final" else 2 * int(r["stage"].split("_")[1])
            exact = half if qubit < split else whole
            assert r["im"] == "0"
            worst = max(worst, abs(mpmath.mpf(r["re"]) - exact))
    assert len(rows) == sum(n + k for k in range(n + 1)) + 2 * n
    assert worst <= 1.2e-16


@pytest.mark.parametrize("mode", ["block", "sequential"])
@pytest.mark.parametrize("n, full", [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 5)])
def test_prepare_writes_each_amplitude_cell_as_its_stage_formats_it(tmp_path, capsys, n, mode, full):
    # Every re and im cell, in row order, is '%.17g' of the amplitude that
    # stage(k) gives; with --full every index off weight one holds zeros.
    out = tmp_path / "out.csv"
    argv = ["prepare", "--n", str(n), "--mode", mode, "--trace", *["--full"] * full, "--out", str(out)]
    assert main(argv) == 0
    stage, _ = double_w_pairs(n, mode)
    want = []
    for k, name in enumerate([f"round_{k}" for k in range(n + 1)] + ["final"]):
        # Row r is index 2^r, the excitation of qubit m - 1 - r.
        amps = stage(k)[::-1].tolist()
        by_index = {1 << r: a for r, a in enumerate(amps) if full or abs(a) > 1e-12}
        for index in range(1 << len(amps)) if full else sorted(by_index):
            a = by_index.get(index, 0j)
            want.append((name, str(index), "%.17g" % a.real, "%.17g" % a.imag))
    assert [(r["stage"], r["index"], r["re"], r["im"]) for r in read_csv(str(out))] == want


@pytest.mark.parametrize("mode", ["block", "sequential"])
def test_prepare_writes_exact_indices_past_63_qubits(tmp_path, capsys, monkeypatch, mode):
    # n = 33 doubles to 66 qubits, where int64 would wrap index 2^63 to
    # -2^63 and 2^64 to 0.  Only the dense engine needs the cap.
    monkeypatch.setattr(wcircuit, "DOUBLING_MAX_N", 40)
    n = 33
    out = tmp_path / "out.csv"
    assert main(["prepare", "--n", str(n), "--mode", mode, "--trace", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    stages = [f"round_{k}" for k in range(n + 1)] + ["final"]
    assert [r["stage"] for r in rows] == [s for k, s in enumerate(stages) for _ in range(n + min(k, n))]
    with mpmath.workdps(40):
        half, whole = 1 / mpmath.sqrt(2 * n), 1 / mpmath.sqrt(n)
        for k, name in enumerate(stages):
            m = n + min(k, n)
            block = [r for r in rows if r["stage"] == name]
            assert [int(r["index"]) for r in block] == [2**r for r in range(m)]
            for r in block:
                basis = format(int(r["index"]), f"0{m}b")
                assert r["basis"] == basis and r["label"] == basis.translate(PHOTON.labels)
                # Index 2^r is the excitation of qubit m - 1 - r.
                exact = half if m - int(r["index"]).bit_length() < 2 * min(k, n) else whole
                assert r["im"] == "0"
                assert abs(mpmath.mpf(r["re"]) - exact) <= 1.2e-16
    state, fidelity = capsys.readouterr().out.splitlines()[:2]
    terms = (format(1 << (2 * n - 1 - p), f"0{2 * n}b").translate(PHOTON.labels) for p in range(2 * n))
    assert state == "(" + "+".join(f"|{t}⟩" for t in terms) + ")/√66"
    assert fidelity == "fidelity vs |W_66>: 1"


def test_prepare_holds_no_register_of_the_doubled_state(tmp_path, capsys):
    # The dense run peaked at 4.0 MiB here, on its last round's 2^16
    # amplitudes and the rounds it kept; the weight-one run holds 2n numbers.
    argv = ["prepare", "--n", "8", "--mode", "sequential", "--trace", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0  # a first call's one-off allocations are not the run's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_cavity_sweep_formats_its_grid_in_place(tmp_path, capsys):
    # A 101 x 101 grid peaked at 2.99 MiB while each block's cells were
    # formatted into a 48-byte-per-cell matrix and copied into the block, with
    # the detuning products on the whole grid; formatted in place, 2.33 MiB.
    argv = ["cavity-sweep", "--detuning-min=-1", "--detuning-max", "1", "--detuning-steps", "101",
            "--g-min", "0", "--g-max", "2", "--g-steps", "101", "--gamma-decay", "1.3",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0  # a first call's one-off allocations are not the run's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20


@pytest.mark.parametrize("mode, n", [("sequential", 4), ("block", 5), ("sequential", 6)])
def test_prepare_full_writes_exact_zeros_outside_weight_one(tmp_path, mode, n):
    out = tmp_path / "full.csv"
    argv = ["prepare", "--n", str(n), "--mode", mode, "--full", "--trace", "--out", str(out)]
    assert main(argv) == 0
    rows = read_csv(str(out))
    off = [r for r in rows if bin(int(r["index"])).count("1") != 1]
    assert len(off) > len(rows) // 2
    assert all(r["re"] == "0" and r["im"] == "0" for r in off)


@pytest.mark.parametrize("mode", ["block", "sequential"])
def test_prepare_default_dump_is_the_weight_one_indices_ascending(tmp_path, mode):
    out = tmp_path / "w.csv"
    assert main(["prepare", "--n", "3", "--mode", mode, "--role", "spin", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert [int(r["index"]) for r in rows] == [1 << k for k in range(6)]
    for r in rows:
        assert r["label"] == r["basis"].replace("0", "+").replace("1", "-")
        assert abs(float(r["re"]) - 1 / np.sqrt(6)) < 1e-12


# ---------------------------------------------------------------------------
# fidelity-sweep
# ---------------------------------------------------------------------------

def test_fidelity_sweep_csv_contract(tmp_path):
    out = tmp_path / "fid.csv"
    assert main([
        "fidelity-sweep", "--theta-max", str(PI / 60), "--steps", "6",
        "--n", "2", "--out", str(out),
    ]) == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "theta,f_h,f_tp,f_cp,f_combined,f_simulated,n"
    rows = read_csv(str(out))
    assert len(rows) == 6
    first, last = rows[0], rows[-1]
    for key in ("f_h", "f_tp", "f_cp", "f_combined", "f_simulated"):
        assert abs(float(first[key]) - 1.0) < 1e-12
    assert float(last["f_combined"]) > 0.97
    for r in rows:
        assert abs(float(r["f_simulated"]) - float(r["f_combined"])) < 1e-9


def test_fidelity_sweep_rejects_single_step(tmp_path, capsys):
    assert main(["fidelity-sweep", "--steps", "1", "--out", str(tmp_path / "x.csv")]) != 0


@pytest.mark.parametrize("theta_max", ["1e308", "-1e308", "3e307"])
def test_fidelity_sweep_rejects_an_overflowing_theta_max(tmp_path, capsys, theta_max):
    # 8 theta overflows past about 2.2e307 and puts NaN in the closed forms.
    out = tmp_path / "fid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["fidelity-sweep", f"--theta-max={theta_max}", "--steps", "3", "--out", str(out)]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: theta_max ") and "Warning" not in err
    assert not out.exists()


def test_parser_is_built_once_across_commands(tmp_path, capsys, monkeypatch):
    # Emptied first, so the count starts as in a fresh process.  Plain argv
    # are read without the parser; the first argv that is not plain builds
    # it, and the next reuses it.
    monkeypatch.chdir(tmp_path)
    _build_parser.cache_clear()
    # A detached negative number is plain, as argparse reads it as a value.
    dashed = ["cavity-sweep", "--detuning-min", "-1", "--detuning-steps", "3", "--g-steps", "3"]
    for argv in (["prepare"], ["fidelity-sweep", "--steps", "3"], ["cavity-sweep"],
                 ["prepare", "--n", "3", "--mode", "block"], dashed):
        assert main(argv) == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--help"])
    assert exc.value.code == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    abbreviated = ["cavity-sweep", "--detuning-st", "3", "--g-steps", "3"]
    assert main(abbreviated) == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# Values drawn for an option: those of its default's type, then the rest.
_VALUES = {
    int: (["0", "3", "+4", " 7", "-2"], ["1e-5", "2.0", "", "x", "-2.5"]),
    float: (["0", "1e-5", "0.25", "inf", "3", "-1e-5", "-0.5", "-.5", "-5.", "-7"], ["", "x"]),
    str: (["out.csv", "a=b", "", " x", "-", "--n", "-h", "-x"], []),
}
# Tokens that make any argv not plain, wherever they stand, or that argparse rejects.
_AWKWARD = [
    "--mo", "--theta_max", "--", "-h", "--help", "--trace=1", "--full=",
    "-3", "1e-5", "", "stray", "--no-such", "-n", "prepare",
]
# The detached tokens starting with "-" that argparse reads as values.
_ARGPARSE_NEGATIVE_NUMBER = argparse.ArgumentParser()._negative_number_matcher
# Every command's flags, so that a command is also sent the flags of the others.
_ALL_FLAGS = {
    "--config": ("config", "", None),
    **{flag: spec for _, _, options in cli._COMMANDS.values()
       for flag, spec in cli._option_table(options)[0].items()},
}


@st.composite
def _argvs(draw):
    """An argv and whether it is plain, from `_COMMANDS`' flags, values and
    awkward tokens.  About half are drawn clean: the command's own flags with
    values of their types, so that most of those are plain."""
    command = draw(st.sampled_from([*cli._COMMANDS, "prepar", "bogus", "--help", "-h"]))
    own = cli._option_table(cli._COMMANDS[command][2])[0] if command in cli._COMMANDS else {}
    own["--config"] = _ALL_FLAGS["--config"]
    clean = draw(st.booleans())
    plain = command in cli._COMMANDS
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        forms = ["detached", "joined"] + ([] if clean else ["awkward"])
        form = draw(st.sampled_from(forms))
        if form == "awkward":
            argv.append(draw(st.sampled_from(_AWKWARD)))
            plain = False
            continue
        flag = draw(st.sampled_from(list(own if clean else _ALL_FLAGS)))
        plain &= flag in own
        _, default, extra = own.get(flag, _ALL_FLAGS[flag])
        if isinstance(default, bool):
            argv.append(flag)
            continue
        good, bad = _VALUES[type(default)]
        if extra is not None:
            good, bad = extra, ["bogus", "", extra[0].upper()]
        value = draw(st.sampled_from(good if clean else [*good, *bad]))
        # A joined "-x" is read as a value; a detached one only as a
        # negative number, which argparse reads as a value too.
        dashed = value.startswith("-") and not _ARGPARSE_NEGATIVE_NUMBER.match(value)
        plain &= value in good and not (form == "detached" and dashed)
        argv += [flag, value] if form == "detached" else [f"{flag}={value}"]
    return argv, plain


@settings(max_examples=400, deadline=None)
@given(drawn=_argvs())
def test_the_plain_reader_returns_argparses_namespace_or_none(drawn):
    argv, plain = drawn
    read = cli._plain_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = _build_parser().parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or read == parsed
        assert (read is not None) == plain


@pytest.mark.parametrize("config", [["--config", ""], ["--config="], ["--conf", ""]])
def test_an_empty_config_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, config):
    # A truthiness test once skipped '' and wrote the sweep on the defaults.
    # "--conf" is an abbreviation, so argparse reads that argv.
    monkeypatch.chdir(tmp_path)
    assert main(["fidelity-sweep", "--steps", "3", *config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "''" in captured.err
    assert os.listdir(tmp_path) == []


def test_fidelity_sweep_uses_lf_line_endings(tmp_path):
    out = tmp_path / "fid.csv"
    main(["fidelity-sweep", "--steps", "3", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


# ---------------------------------------------------------------------------
# cavity-sweep
# ---------------------------------------------------------------------------

def test_cavity_sweep_resonant_row_values(tmp_path):
    out = tmp_path / "cav.csv"
    assert main(["cavity-sweep", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    by_g = {float(r["g_ratio"]): r for r in rows if float(r["detuning"]) == 0.0}
    row5 = by_g[5.0]
    assert float(row5["phi"]) == 0.0
    assert abs(float(row5["phi_0"]) - np.pi) < 1e-15
    row0 = by_g[0.0]
    assert float(row0["re_r"]) == -1.0


def test_cavity_sweep_single_pass_transition(tmp_path):
    out = tmp_path / "cav.csv"
    main(["cavity-sweep", "--g-steps", "201", "--out", str(out)])
    passes = [r["cz_pass"] == "1" for r in read_csv(str(out))]
    flips = sum(1 for a, b in zip(passes, passes[1:]) if a != b)
    assert flips == 1


def test_cavity_sweep_header(tmp_path):
    out = tmp_path / "cav.csv"
    main(["cavity-sweep", "--g-steps", "3", "--out", str(out)])
    with open(out) as fh:
        assert fh.readline().strip() == "detuning,g_ratio,re_r,im_r,phi,phi_0,cz_pass"


@pytest.mark.parametrize(
    "argv, message",
    [
        # g^2 overflows, so r = inf/inf: the parent wrote two NaN rows.
        (["--g-min=0", "--g-max=1e200", "--g-steps", "3"],
         "reflection is not finite at the grid point with detuning 0.0, g_ratio 5e+199 (g = 5e+199)"),
        # The point is named by the g_ratio given on the command line; g is
        # g_ratio * sqrt(gamma_decay).
        (["--g-min=0", "--g-max=1e200", "--g-steps", "3", "--gamma-decay", "4"],
         "reflection is not finite at the grid point with detuning 0.0, g_ratio 5e+199 (g = 1e+200)"),
        (["--g-min=0", "--g-max=1e200", "--g-steps", "2", "--gamma-decay", "1e300"],
         "g must be finite at the grid point with detuning 0.0, g_ratio 1e+200 (g = inf)"),
        (["--g-min=-1"], "g must be nonnegative"),
        # The linspace step overflows although both ends are finite.
        (["--g-min=-1e308", "--g-max=1e308", "--g-steps", "3"], "g must be finite"),
        (["--detuning-min=-1e308", "--detuning-max=1e308", "--detuning-steps", "3"],
         "detuning must be finite"),
    ],
)
def test_cavity_sweep_rejects_bad_grid_points_with_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "cav.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["cavity-sweep", *argv, "--out", str(out)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # Each range is checked once, by the callee: wcircuit.double_w, noise.sweep
        # or cavity.reflection_grid, all before anything is written.
        (["prepare", "--n", "0"], "n must be >= 1, got 0"),
        (["prepare", "--n", "9", "--mode", "block"], "block mode supports n <= 8, got n=9"),
        (["prepare", "--n", "9"], "sequential mode supports n <= 8, got n=9"),
        (["fidelity-sweep", "--n", "0"], "n must be in 1..8, got 0"),
        (["fidelity-sweep", "--n", "9"], "n must be in 1..8, got 9"),
        (["fidelity-sweep", "--steps", "1"], "steps must be >= 2, got 1"),
        (["cavity-sweep", "--gamma-decay", "0"], "gamma_decay must be positive, got 0.0"),
        (["cavity-sweep", "--gamma-decay", "-1"], "gamma_decay must be positive, got -1.0"),
        (["cavity-sweep", "--detuning-steps", "0"], "grid step counts must be >= 1"),
        (["cavity-sweep", "--g-steps", "0"], "grid step counts must be >= 1"),
    ],
)
def test_out_of_range_options_exit_2_with_the_callee_message(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_NUMPY_OOM = "Unable to allocate 17.9 GiB for an array with shape (400000000, 6) and data type float64"


@pytest.mark.parametrize(
    "argv, callee, exc, message",
    [
        (["fidelity-sweep", "--steps", "400000000"], "noi.sweep", MemoryError(_NUMPY_OOM), _NUMPY_OOM),
        (["cavity-sweep", "--detuning-steps", "20000", "--g-steps", "20000"],
         "cav.reflection_grid", MemoryError(), "out of memory"),
    ],
    ids=["fidelity-sweep", "cavity-sweep"],
)
def test_a_grid_too_large_for_memory_exits_2_without_a_traceback(
    tmp_path, capsys, monkeypatch, argv, callee, exc, message
):
    # The callee stands in for the allocation that fails, so nothing large is made.
    def out_of_memory(*args, **kwargs):
        raise exc

    module, name = callee.split(".")
    monkeypatch.setattr(getattr(cli, module), name, out_of_memory)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "fid.csv"
    cfg.write_text(json.dumps({"steps": 4, "n": 1, "out": str(out)}))
    assert main(["fidelity-sweep", "--config", str(cfg)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 4 and rows[0]["n"] == "1"


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "fid.csv"
    cfg.write_text(json.dumps({"steps": 4, "out": str(tmp_path / "ignored.csv")}))
    assert main([
        "fidelity-sweep", "--config", str(cfg), "--steps", "3", "--out", str(out),
    ]) == 0
    assert len(read_csv(str(out))) == 3
    assert not (tmp_path / "ignored.csv").exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["fidelity-sweep", "--theta-max", "nan"], "theta_max"),
        (["fidelity-sweep", "--theta-max", "inf"], "theta_max"),
        (["cavity-sweep", "--g-max", "inf"], "g_max"),
        (["cavity-sweep", "--detuning-min=-inf"], "detuning_min"),
        (["cavity-sweep", "--gamma-decay", "nan"], "gamma_decay"),
    ],
)
def test_non_finite_float_options_exit_2_and_name_the_option(tmp_path, capsys, argv, option):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n": "3"}, "'n'"),
        ({"steps": 2.5}, "'steps'"),
        ({"n": True}, "'n'"),
        ({"theta_max": False}, "'theta_max'"),
        ({"nn": 3}, "nn"),
        # Too large for a float: float() raises OverflowError, not ValueError.
        ({"theta_max": 10**400}, "'theta_max'"),
    ],
)
def test_bad_config_values_exit_2_with_a_message(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "fid.csv"
    cfg.write_text(json.dumps(dict(config, out=str(out))))
    assert main(["fidelity-sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def _rejected_config_values(default, choices):
    """JSON values `_config_value` or `validate` must reject for an option."""
    kind = type(default)
    wrong = [st.none(), st.lists(st.integers(), max_size=2)]
    if kind is not str:
        wrong.append(st.text(max_size=8))
    if kind is not bool:
        wrong.append(st.booleans())
    if kind in (str, bool):
        wrong.append(st.integers())
    if kind is float:
        # Never a finite float or an int a float can hold: those are accepted.
        wrong += [
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            st.integers(2**1024, 2**1100),
            st.integers(-(2**1100), -(2**1024)),
        ]
    else:
        wrong.append(st.floats())
    if choices:
        wrong.append(st.text(max_size=12).filter(lambda s: s not in choices))
    return st.one_of(wrong)


# (command, key, the command's defaults, the key's choices) for every option.
_OPTIONS = [
    (command, key, args.defaults, getattr(args, "choices", {}).get(key))
    for command in ("verify", "prepare", "fidelity-sweep", "cavity-sweep")
    for args in [_build_parser().parse_args([command])]
    for key in args.defaults
]


@contextlib.contextmanager
def _working_dir(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), option=st.sampled_from(_OPTIONS))
def test_every_rejected_config_value_exits_2_and_writes_nothing(data, option):
    command, key, defaults, choices = option
    value = data.draw(_rejected_config_values(defaults[key], choices), label=key)
    with tempfile.TemporaryDirectory() as tmp, _working_dir(tmp):
        config = {key: value}
        if key != "out" and "out" in defaults:
            config["out"] = "out.csv"
        with open("cfg.json", "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([command, "--config", "cfg.json"]) == 2
        assert err.getvalue().startswith("error:")
        assert os.listdir(".") == ["cfg.json"]


def test_config_accepts_an_int_for_a_float_option(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cav.csv"
    cfg.write_text(json.dumps({"g_max": 4, "g_steps": 5, "gamma_decay": 2, "out": str(out)}))
    assert main(["cavity-sweep", "--config", str(cfg)]) == 0
    assert [r["g_ratio"] for r in read_csv(str(out))] == ["0", "1", "2", "3", "4"]


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

# `wexpand --help` and each subcommand's `--help`, 80 columns wide.
_HELP_TEXTS = {
    None: (
        "usage: wexpand [-h] {verify,prepare,fidelity-sweep,cavity-sweep} ...\n"
        "\n"
        "Deterministic W-state preparation: verification, state dumps and sweeps.\n"
        "\n"
        "positional arguments:\n"
        "  {verify,prepare,fidelity-sweep,cavity-sweep}\n"
        "    verify              run the anchored-identity verification suite\n"
        "    prepare             prepare |W_2n> and dump amplitudes\n"
        "    fidelity-sweep      closed-form and simulated fidelity sweep CSV\n"
        "    cavity-sweep        reflection-coefficient grid CSV\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "verify": (
        "usage: wexpand verify [-h] [--config CONFIG] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --config CONFIG\n"
        "  --seed SEED\n"
    ),
    "prepare": (
        "usage: wexpand prepare [-h] [--config CONFIG] [--n N]\n"
        "                       [--mode {block,sequential}]\n"
        "                       [--schedule {serial,parallel}] [--role {photon,spin}]\n"
        "                       [--out OUT] [--trace] [--full]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG\n"
        "  --n N\n"
        "  --mode {block,sequential}\n"
        "  --schedule {serial,parallel}\n"
        "  --role {photon,spin}\n"
        "  --out OUT\n"
        "  --trace               also dump each growth round\n"
        "  --full                dump zero amplitudes too\n"
    ),
    "fidelity-sweep": (
        "usage: wexpand fidelity-sweep [-h] [--config CONFIG] [--theta-max THETA_MAX]\n"
        "                              [--steps STEPS] [--n N] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG\n"
        "  --theta-max THETA_MAX\n"
        "  --steps STEPS\n"
        "  --n N\n"
        "  --out OUT\n"
    ),
    "cavity-sweep": (
        "usage: wexpand cavity-sweep [-h] [--config CONFIG]\n"
        "                            [--detuning-min DETUNING_MIN]\n"
        "                            [--detuning-max DETUNING_MAX]\n"
        "                            [--detuning-steps DETUNING_STEPS] [--g-min G_MIN]\n"
        "                            [--g-max G_MAX] [--g-steps G_STEPS]\n"
        "                            [--gamma-decay GAMMA_DECAY] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG\n"
        "  --detuning-min DETUNING_MIN\n"
        "  --detuning-max DETUNING_MAX\n"
        "  --detuning-steps DETUNING_STEPS\n"
        "  --g-min G_MIN\n"
        "  --g-max G_MAX\n"
        "  --g-steps G_STEPS\n"
        "  --gamma-decay GAMMA_DECAY\n"
        "  --out OUT\n"
    ),
}


@pytest.mark.parametrize("command", list(_HELP_TEXTS))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == _HELP_TEXTS[command]


def _subparsers():
    """Each subcommand's parser, by name."""
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", ["verify", "prepare", "fidelity-sweep", "cavity-sweep"])
def test_config_keys_are_the_parsers_flags(command):
    sub = _subparsers()[command]
    flags = {flag for action in sub._actions for flag in action.option_strings}
    dests = {action.dest for action in sub._actions if action.option_strings}
    defaults = sub.parse_args([]).defaults
    assert {"--" + key.replace("_", "-") for key in defaults} == flags - {"-h", "--help", "--config"}
    assert set(defaults) == dests - {"help", "config"}


@pytest.mark.parametrize("command", ["verify", "prepare", "fidelity-sweep", "cavity-sweep"])
def test_a_config_of_every_default_changes_no_byte(tmp_path, capsys, monkeypatch, command):
    # The config holds every option at its default, `out` included, so
    # both runs write the same path in the working directory.
    monkeypatch.chdir(tmp_path)
    defaults = _build_parser().parse_args([command]).defaults
    (tmp_path / "cfg.json").write_text(json.dumps(defaults))
    runs = []
    for argv in ([command], [command, "--config", "cfg.json"]):
        assert main(argv) == 0
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "cfg.json"}
        for name in written:
            os.remove(name)
        runs.append((capsys.readouterr(), written))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == ([] if command == "verify" else [defaults["out"]])


def test_unwritable_output_path_reports_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert main(["fidelity-sweep", "--steps", "2", "--out", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


def _as_other_user(path, mode):
    """`os.access` as a user who neither owns `path` nor is in its group,
    which is how a non-root user sees /dev and /dev/null."""
    try:
        bits = os.stat(path).st_mode
    except OSError:
        return False
    return bits & mode == mode


def _unwritable_dir_holding_a_writable_file(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out.csv"
    out.write_bytes(b"")
    out.chmod(0o666)
    locked.chmod(0o755)
    return out


@pytest.mark.parametrize("target", ["read-only file", "directory", "new file in a locked directory"])
def test_an_output_the_user_cannot_write_exits_2_before_the_computation(
    tmp_path, capsys, monkeypatch, target
):
    monkeypatch.setattr("wexpand.cli.os.access", _as_other_user)
    if target == "read-only file":
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier\n")
        out.chmod(0o644)
    elif target == "directory":
        out = tmp_path
    else:
        out = _unwritable_dir_holding_a_writable_file(tmp_path).with_name("new.csv")
    assert main(["prepare", "--n", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output path {str(out)!r} is not writable\n"


@pytest.mark.parametrize("command", ["prepare", "fidelity-sweep", "cavity-sweep"])
def test_an_empty_output_path_exits_2_before_the_computation(capsys, command):
    # It ran the command and then failed to open '': "[Errno 2] No such file".
    assert main([command, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output path '' is not writable\n"


@pytest.mark.parametrize("target", ["/dev/null", "writable file in a locked directory"])
def test_an_existing_output_is_judged_by_its_own_access(tmp_path, capsys, monkeypatch, target):
    monkeypatch.setattr("wexpand.cli.os.access", _as_other_user)
    assert not _as_other_user("/dev", os.W_OK) and _as_other_user("/dev/null", os.W_OK)
    if target == "/dev/null":
        out = target
    else:
        out = str(_unwritable_dir_holding_a_writable_file(tmp_path))
    assert main(["prepare", "--n", "1", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    if out != "/dev/null":
        assert read_csv(out)[0]["stage"] == "final"
