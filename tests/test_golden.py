"""Golden SHA-256 hashes of the default CSV of every writing command.

A changed hash means a command's output bytes changed.  The `prepare` and
`cavity-sweep` hashes predate the batched fidelity sweep and show that it
left those outputs byte-identical; the `fidelity-sweep` hash pins the
structured `f_simulated` column, which moved by at most 1.1e-15 from the
dense simulation it replaced.  The default `cavity-sweep` grid has zero
detuning only, where r is real, so a detuned grid is pinned as well.
Two larger `prepare` runs are pinned beside the defaults: their hashes
were recorded before the engine stopped copying fresh kernel outputs and
read single-qubit reductions in one pass, and show that this left every
amplitude bit-identical.
"""
import hashlib

import pytest

from wexpand.cli import main

GOLDEN_SHA256 = {
    "prepare": "f16a9c22566eac3568e20d0c40b0d79edab481ad8cbb1085062eb7baabdf36a5",
    "cavity-sweep": "a23b6b2a5785588ceeeb9f36bfe3dee961a3306b97ad02e0f78447609af36ee8",
    "fidelity-sweep": "02f9d77e6f9a2a9104d4a10dea3f3c395b441cd9fd88a3d635b29cc5158b6594",
    # Larger registers, where a change in the rounding of one engine kernel
    # (a post-selection probability, a tensor product) moves some amplitude
    # in its last bit; the n = 2 default above is too small to show it.
    "prepare --n 7 --mode sequential --trace":
        "9300673f4c6f5bafbba9dc4bcbabae75563f31bd72c374b76fb440b7b22e6efd",
    "prepare --n 5 --mode block --full --trace --role spin":
        "4ec89bdfe0ad3cd4832a496a6a2d07af9b663253b293120ea826654b44d7a3b9",
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
