"""Tests of the benchmark harness itself: generators, oracles and tracing.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wexpand.cli  # noqa: E402
import wexpand.noise  # noqa: E402
import wexpand.wcircuit  # noqa: E402
from tracing import Profile, Span, Tracer, same_objects, self_times, snapshot  # noqa: E402
from workloads import WORKLOADS, Request, cycles  # noqa: E402


def _first(workload, seed, k=3, out="out.csv"):
    return list(itertools.islice(cycles(workload, seed, out), k))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert _first(w, 7) == _first(w, 7)
    assert _first(w, 7) != _first(w, 8)


def _serve(request: Request) -> tuple[Path, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert wexpand.cli.main(list(request.argv)) == 0
    return Path(request.argv[request.argv.index("--out") + 1]), buf.getvalue()


# A small shape of each workload keeps the oracle tests fast; prepare runs
# with --trace so that the growth-round stages are checked too.
SMALL = {
    "prepare-dense": lambda p: p["n"] == 4 and p["trace"],
    "sweep-small": lambda p: p["n"] == 1 and p["steps"] == 50,
    "cavity-grid": lambda p: p["detuning_steps"] == p["g_steps"] == 41,
}


def _smallest_request(name: str, out: Path) -> Request:
    return next(req for batch in cycles(WORKLOADS[name], 0, str(out))
                for req in batch if SMALL[name](req.params))


def _flip_first_digit(field: str) -> str | None:
    for k, c in enumerate(field):
        if c.isdigit():
            return field[:k] + str((int(c) + 1) % 10) + field[k + 1:]
    return None


def _changes_value(a: str, b: str) -> bool:
    try:
        return abs(float(a) - float(b)) > 1e-6
    except ValueError:  # a basis string, for instance
        return True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_real_output_and_rejects_one_flipped_digit(name, tmp_path):
    w = WORKLOADS[name]
    req = _smallest_request(name, tmp_path / "out.csv")
    path, stdout = _serve(req)
    assert w.oracle(req.params, path, stdout) is None

    lines = path.read_text().split("\n")
    bad_path = tmp_path / "flipped.csv"
    flips = 0
    for row in (1, 2, len(lines) - 2):  # two first data rows and the last
        fields = lines[row].split(",")
        for col, value in enumerate(fields):
            flipped = _flip_first_digit(value)
            if flipped is None or not _changes_value(value, flipped):
                continue
            bad = lines.copy()
            bad[row] = ",".join(fields[:col] + [flipped] + fields[col + 1:])
            bad_path.write_text("\n".join(bad))
            assert w.oracle(req.params, bad_path, stdout) is not None, (row, col)
            flips += 1
    assert flips >= 8


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(3, 2, "c", 6.0, 8.0, 0),
        Span(1, 0, "a", 1.0, 4.0, 0),
        Span(2, 0, "b", 5.0, 9.0, 0),
        Span(0, None, "root", 0.0, 10.0, 0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}


def test_profile_totals_and_apply_O_check_time():
    spans = [
        Span(2, 1, "statevec.partial_trace", 1.0, 2.0, 0),
        Span(3, 1, "statevec.apply_1q", 2.0, 2.5, 8),
        Span(4, 0, "statevec.partial_trace", 4.0, 4.25, 0),
        Span(1, 0, "wcircuit.apply_O", 0.5, 3.0, 0),
        Span(0, None, "cli.main", 0.0, 5.0, 0),
    ]
    profile = Profile()
    profile.add(spans)
    profile.add(spans)
    m = profile.metrics()
    assert m["wcircuit.apply_O_calls"] == 2
    assert m["wcircuit.apply_O_self_s"] == pytest.approx(2.0)
    assert m["wcircuit.apply_O_check_s"] == pytest.approx(2.0)  # not the one under cli.main
    assert m["statevec.reduce_calls"] == 4
    assert m["statevec.kernel_amplitudes"] == 16
    assert m["statevec.kernel_bytes_computed"] == 16 * 32
    assert m["cli.self_s"] == pytest.approx(2 * 2.25)
    assert m["wcircuit.builds_per_apply_O"] == 0.0


def test_tracing_wraps_bound_names_and_restores_every_original(tmp_path):
    req = _smallest_request("sweep-small", tmp_path / "out.csv")
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert wexpand.noise.apply_O is not before[("wexpand.noise", "apply_O")]
        assert wexpand.wcircuit.apply_1q is not before[("wexpand.wcircuit", "apply_1q")]
        _serve(req)
    assert same_objects(before, snapshot())
    keys = {s.key for s in tracer.spans}
    assert {"cli.main", "noise.sweep", "wcircuit.apply_O", "statevec.apply_1q",
            "gates.Gate.__post_init__", "statevec.StateVector.__post_init__"} <= keys
    assert sum(1 for s in tracer.spans if s.parent is None) == 1

    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("a failing traced run")
    assert same_objects(before, snapshot())


def test_reference_seconds_cancel_machine_speed():
    from reference import REFERENCE_S, reference_cpu_s, to_reference

    assert to_reference(0.3, REFERENCE_S) == pytest.approx(0.3)
    # A core half as fast doubles both the request and the loop.
    assert to_reference(0.6, 2 * REFERENCE_S) == pytest.approx(0.3)
    assert reference_cpu_s() > 0.0
