"""Command-line surface: subcommands, CSV contracts, determinism."""
import csv
import json
import warnings

import numpy as np
import pytest

from wexpand.cli import CHECKS, main, run_verification

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


def test_verify_with_corrupted_t_prime_angle_names_matrix_check(capsys):
    results = run_verification(tp_angle=PI / 8 + 0.01)
    failures = [r for r in results if not r.passed]
    assert failures
    assert failures[0].name == "expansion operator matrix"


def test_verify_fault_injection_exits_nonzero_and_names_check(capsys):
    assert main(["verify", "--tp-angle", str(PI / 8 + 0.01)]) == 1
    captured = capsys.readouterr()
    assert "expansion operator matrix" in captured.err


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


def test_prepare_serial_and_parallel_dumps_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["prepare", "--n", "3", "--schedule", "serial", "--out", str(a)])
    main(["prepare", "--n", "3", "--schedule", "parallel", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


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


def test_config_accepts_an_int_for_a_float_option(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cav.csv"
    cfg.write_text(json.dumps({"g_max": 4, "g_steps": 5, "gamma_decay": 2, "out": str(out)}))
    assert main(["cavity-sweep", "--config", str(cfg)]) == 0
    assert [r["g_ratio"] for r in read_csv(str(out))] == ["0", "1", "2", "3", "4"]


def test_unwritable_output_path_reports_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert main(["fidelity-sweep", "--steps", "2", "--out", str(missing)]) == 2
    assert "error" in capsys.readouterr().err
