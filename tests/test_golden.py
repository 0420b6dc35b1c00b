"""Golden SHA-256 hashes of the default CSV of every writing command.

A changed hash means a command's output bytes changed.  The `cavity-sweep`
hashes predate the batched fidelity sweep and show that it left those
outputs byte-identical; the `fidelity-sweep` hash pins the structured
`f_simulated` column, which moved by at most 1.1e-15 from the dense
simulation it replaced.  The default `cavity-sweep` grid has zero detuning
only, where r is real, so a detuned grid is pinned as well.

The `prepare` hashes were re-pinned when the ideal expansion operator
became `EXPANSION_MATRIX` itself instead of the composed 12-gate 8x8,
which sat 2.0e-16 from it, and `--trace` began to read the doubling's own
rounds instead of a second chain of `expand_by_one` rounds.  Each
amplitude moved by at most 1.4e-16: the final ones are now exact (0.5
where 0.50000000000000011 was written), and every non-weight-one entry of
a `--full` dump is written as exactly 0.  The stdout of `wexpand verify`
is pinned too, so that a change to a kernel that moves any check's printed
deviation shows here; it was re-pinned with the same change.

The `fidelity-sweep` hash and the `verify` stdout were re-pinned again when
the four closed forms became array code evaluated once over the whole
grid.  numpy's array loops round `** 3`, `** 4`, the modulus of a complex
number and complex products differently from its scalar math, so some
closed-form cells moved in their last bits: by at most 6.7e-16 in the
default CSV (f_h, f_cp and f_combined; theta and f_simulated are
unchanged), and both the old and the new values lie within 1.1e-15 of a
40-digit reference.  Of the `verify` stdout only the "noisy-circuit
agreement" line changed, from 2.442e-15 to 2.220e-15.

Three were re-pinned when every expansion began to append its new qubit
last, in one contiguous buffer, so that each post-selection's norm is one
contiguous sum in the output order, where a sequential round's had been
summed at stride 2 and block mode's with each new qubit after its source.
`prepare --n 7 --mode sequential --trace` moved 43 of its 98 rows (rounds
5 to 7 and the final state) and `prepare --n 5 --mode block --full --trace
--role spin` 13 of its 3040 (rounds 2 to 5), each amplitude by at most
1.1e-16.  Of the `verify` stdout only the "doubling sweep n=1..4" line
changed, from 8.882e-16 to 1.110e-15.  The other `prepare` hashes held.

A benchmark-sized `cavity-sweep` grid (101 x 101, 10201 rows) is pinned
for the vectorised `%.17g` writer, with its hash recorded on the per-row
`%` writer before it.  The grid spans several of the writer's row blocks
and crosses both zero detuning, where r is real and im_r is 0, and
g_ratio = 0.5, where 2g = sqrt(kappa * gamma_decay) and r nearly vanishes.
So besides the fast path's fixed-notation cells it holds the cells that
the formatter hands to Python's `%` (0, -0 and 8.5e-17) and cells in
exponent notation (|x| < 1e-4).

The stdout of three `prepare` runs is pinned as well, with its hashes
recorded before `prepare` stopped building its own |W_2n> and began to
print the overlap that the doubling run reports.

The default `fidelity-sweep` hash and the `verify` stdout were re-pinned
when the doubling fidelity became |d|^2 / 2 of the noisy map V alone, with
no n: the 12-gate operator fixes |000>, so the per-n factors a^(n-1) and
c*b it replaced were 1 and 0 only to rounding.  At the default n = 2, 59 of
the 200 `f_simulated` cells moved, each by at most 1.33e-15, and no other
cell; their largest gap to `f_combined` fell from 2.4e-15 to 1.6e-15.
`fidelity-sweep --n 1`, pinned with its hash from before the change, held.
The `verify` stdout gained the line "noisy operator fixes |000>" before
"size independence" and now ends "20/20 checks passed"; every other check
line kept its bytes.

Three were re-pinned when `prepare` began to run the ideal doubling on its
2n weight-one amplitudes, so that each norm and the overlap with |W_2n>
sum 2n numbers where they had summed the 2^(2n)-amplitude register in
BLAS order.  `prepare --n 7 --mode sequential --trace` moved 52 of its 98
rows (rounds 2 and 5 to 7 and the final state) and `prepare --n 5 --mode
block --full --trace --role spin` 19 of its 3040 (rounds 3 to 5), each in
its `re` cell and by at most 1.1e-16.  The stdout of the second changed
only in its line "fidelity vs |W_10>: 0.99999999999999978", now "... 1".
The other pins held.

Three were re-pinned when `prepare` began to write every stage in closed
form from one pair c = V|1>: each amplitude of a stage is c10, c01 or
V[0,0,0] divided once by the stage's norm, where each sequential round
had been renormalized from the one before.  `prepare --n 7 --mode
sequential --trace` moved 46 of its 98 rows (rounds 1 and 3 to 7 and the
final state), `prepare --n 5 --mode block --full --trace --role spin` 28
of its 3040 (rounds 1 to 5) and `prepare --n 4 --mode sequential --full
--trace` 13 of its 752 (rounds 2 and 3), each in its `re` cell and by at
most 1.11e-16.  The default `prepare`, `prepare --n 8 --mode sequential`,
all three `prepare` stdout pins and every sweep hash held.  The `verify`
stdout gained the line "pair engine vs dense doubling" after "doubling
sweep n=1..4" and now ends "21/21 checks passed"; every other check line
kept its bytes.

The `verify` stdout alone was re-pinned when the library's fused 8x8
operation was deleted and `verify` began to run the paper's 3n-qubit
register gate by gate.  It gained the line "paper's register vs dense
doubling" after "swap network layout" and now ends "22/22 checks
passed".  The "bell pair creation" line lost "fused and " from its
description; its deviation, 2.220e-16, held.  Every other check line,
every CSV hash and every `prepare` stdout hash held.
"""
import hashlib
import math

import pytest

from wexpand.cli import main

GOLDEN_SHA256 = {
    "prepare": "a3604229be62d29ff3e52e97d1a90901ed1a2ce535e0e91e743148e78f2da000",
    "cavity-sweep": "a23b6b2a5785588ceeeb9f36bfe3dee961a3306b97ad02e0f78447609af36ee8",
    "fidelity-sweep": "5ebce033124388c49d6f0dffbe715577f0a06a6016c8b24611144e60ca99ea2b",
    # n = 1, where the n-free doubling fidelity rounds as the earlier
    # per-n formula did.
    "fidelity-sweep --n 1": "21290cbe447173b33fe2d6652607677db1f9d467d8f6e3237021567220433f72",
    # Larger registers, where a change in the rounding of one engine kernel
    # (a post-selection probability, a tensor product) moves some amplitude
    # in its last bit; the n = 2 default above is too small to show it.
    "prepare --n 7 --mode sequential --trace":
        "3ce9605c673b09758ba768d757305effbc3453462ece902118651b0387a53f61",
    "prepare --n 5 --mode block --full --trace --role spin":
        "c059c3941e9d2bb84fd582522ad23b808f5024c083dc53eccce105f17fd05377",
    # The largest sequential run, and a full sequential dump that writes
    # every zero amplitude out.
    "prepare --n 8 --mode sequential":
        "431d71c56b1a2623d829f9466c8b34db21160a2563cabbe3d49d2c26104d7be4",
    "prepare --n 4 --mode sequential --full --trace":
        "b6fd5393d775ffcc20fc27b053bed9471f0bfb6d7a9ddc36c76ce8c2d7064b2e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_default_csv_matches_its_golden_hash(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[command]


# Detuned rows, where r is complex: recorded on the scalar per-point sweep
# before `reflection_grid` replaced it.
DETUNED_CAVITY_ARGV = [
    "cavity-sweep", "--detuning-min=-1", "--detuning-max=1", "--detuning-steps", "21",
    "--g-steps", "21", "--gamma-decay", "1.3",
]
DETUNED_CAVITY_SHA256 = "6134b55d4bdb2e39ea3178691ca2bdbae57d4489abbe6470ed9b2da8a1f8e89d"


def test_detuned_cavity_csv_matches_its_golden_hash(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*DETUNED_CAVITY_ARGV, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DETUNED_CAVITY_SHA256


BENCHMARK_CAVITY_ARGV = [
    "cavity-sweep", "--detuning-min=-1", "--detuning-max", "1", "--detuning-steps", "101",
    "--g-min", "0", "--g-max", "2", "--g-steps", "101", "--gamma-decay", "1.3",
]
BENCHMARK_CAVITY_SHA256 = "53b8299a62b9994d2cee353f13e6aa630e92472cd5f159988642dea35f467020"


def test_benchmark_sized_cavity_csv_matches_its_golden_hash(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*BENCHMARK_CAVITY_ARGV, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == BENCHMARK_CAVITY_SHA256
    # The re_r, im_r and phi cells cover each branch of the formatter.
    cells = [c for row in data.decode().splitlines()[1:] for c in row.split(",")[2:5]]
    assert {"0", "-0"} <= set(cells)
    assert any(0.0 < abs(float(c)) < 1e-6 for c in cells)
    assert any("e" in c and 1e-6 < abs(float(c)) < 1e-4 for c in cells)
    assert all(math.isfinite(float(c)) for c in cells)


# The stdout of `prepare`: the relabeled state, its fidelity line and the
# ancilla purities.
PREPARE_STDOUT_SHA256 = {
    "prepare": "94ff8520b4bdfa8b41db04670d10647b8b2c58079f3dce7bcc2597cb7fa7a8aa",
    "prepare --n 7 --mode sequential --trace":
        "fba598dc9459b7117acc04039dde69f2e785c3de56e4b70793f4ee4da766db59",
    "prepare --n 5 --mode block --full --trace --role spin":
        "21a582c707cf9a2dd47f9ed95c1954c6debc0c3fc050fbe8473095da7cfb97ac",
}


@pytest.mark.parametrize("command", sorted(PREPARE_STDOUT_SHA256))
def test_prepare_stdout_matches_its_golden_hash(command, tmp_path, capsys):
    assert main([*command.split(), "--out", str(tmp_path / "out.csv")]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PREPARE_STDOUT_SHA256[command]


VERIFY_STDOUT_SHA256 = "d2f68eee9d2c4b4a73209031b176792ba79a1b845c7d1a9099ea174d6b491923"


def test_verify_stdout_matches_its_golden_hash(capsys):
    assert main(["verify"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith("22/22 checks passed\n")
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_STDOUT_SHA256
