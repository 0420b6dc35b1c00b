"""The wexpand benchmark: one closed-loop client of `wexpand.cli.main`.

Usage, from the repository root:

    python3 perfbench/run.py --workload prepare-dense --seed 1 --seconds 30 --trace 0

One client sends one in-process `wexpand.cli.main(argv)` request at a time,
on argv lists generated from the seed (see workloads.py), and checks every
output with a library-free oracle.  With `--trace 0` it serves whole request
cycles for at least `--seconds` seconds of wall time and 120 requests, and reports the
end-to-end metrics.  With `--trace 1` it serves a fixed number of cycles,
each once untraced and once traced, and reports the per-layer metrics of the
traced side.

Request times are CPU seconds of this process, scaled to reference seconds:
after every request the benchmark times a fixed loop of its own
(reference.py) and divides by it, so that the drift of a shared virtual
machine's CPU speed, tens of percent from minute to minute, cancels.  The
unscaled CPU and wall-clock figures and the share of CPU time stolen during
the run are in the run record.

Before timing it runs the verification suite of `wexpand verify` once and
aborts if a check fails.  Standard output ends with a run record (one JSON
line: machine, versions, verify results, sample counts) and then the result
line; a readable summary goes to standard error.  Metric names and units
come from BENCHMARK.json.
"""
from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: with two threads, tensordot
# timings on a shared two-core machine vary by half from run to run.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Keep freed arrays in glibc's heap instead of returning them to the kernel.
# By default every array of 128 KiB or more is a fresh mmap, so each request
# of `prepare` page-faults its registers in again (a third of a sequential
# n=7 request, all of it kernel time whose cost swings with the host's load).
# With these settings the faults happen once per process.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # the largest glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}
PINNED_ENV = {**{var: str(BLAS_THREADS) for var in BLAS_ENV}, **MALLOC_ENV}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # glibc reads its tunables at process start, so restart under them.
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from reference import reference_cpu_s, to_reference
from tracing import Profile, Tracer, same_objects, snapshot
from workloads import WORKLOADS, Workload, cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
# A run serves at least this many requests, however slow the machine, so
# that at least 12 lie beyond the 90th percentile.
MIN_REQUESTS = 120
# Cycles of the traced run.  A fixed request list makes every count repeat
# exactly between traced runs with the same seed.
TRACE_CYCLES = 4
PROBE_TIMEOUT_S = 60


def quantile(values: list[float], tenth: int) -> float:
    """The ``tenth``-tenths quantile, interpolated between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[tenth - 1]


def import_program():
    """Import wexpand.cli from this checkout's src/, never from elsewhere."""
    pkg = SRC / "wexpand"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wexpand sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import wexpand.cli

    if Path(wexpand.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported wexpand from {wexpand.__file__}, not {pkg}")
    return wexpand.cli


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wexpand").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it exports one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(dll, sym):
                    return int(getattr(dll, sym)())
    except OSError:
        pass
    return None


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    return info


def run_header(workload: Workload, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wexpand": sys.modules["wexpand"].__version__,
        "blas": {
            "library": f"{blas.get('name')} {blas.get('version')}",
            "pinned_threads": BLAS_THREADS,
            "pinned_by": list(BLAS_ENV),
            "reported_threads": openblas_threads(),
        },
        "malloc_env": MALLOC_ENV,
        "machine": machine(),
        # Next to the cache sizes above: *_bytes_computed is the kernel
        # traffic the code asks for (32 B per amplitude), not measured bandwidth.
        "largest_register_mib": {
            w.name: (16 << w.largest_register_qubits) / 2**20 if w.largest_register_qubits else 0.0
            for w in WORKLOADS.values()
        },
    }


def verify(cli) -> list[dict]:
    """The checks of `wexpand verify`, with full-precision deviations."""
    return [
        {"name": r.name, "deviation": r.deviation, "tolerance": r.tolerance, "passed": r.passed}
        for r in cli.run_verification()
    ]


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class Pass:
    """Per-request latencies, failures and output sizes of a request sequence."""

    def __init__(self):
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.ref: list[float] = []  # CPU seconds in reference seconds (reference.py)
        self.failures: list[str] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.rows = 0
        self.bytes = 0

    @property
    def completed(self) -> int:
        return len(self.cpu) - len(self.failures)


def serve(p: Pass, cli, workload: Workload, batch, out: Path, after_request=None) -> None:
    """Serve one batch into ``p``, one request at a time.

    The reference loop, oracle checks and ``after_request`` run outside the
    timed totals.
    """
    for req in batch:
        stdout, stderr = io.StringIO(), io.StringIO()
        cpu_begin, wall_begin = process_time(), perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                cpu_start, wall_start = process_time(), perf_counter()
                try:
                    rc = cli.main(list(req.argv))
                finally:
                    wall = perf_counter() - wall_start
                    cpu = process_time() - cpu_start
            error = None if rc == 0 else f"exit code {rc}: {stderr.getvalue().strip()}"
        except (Exception, SystemExit) as exc:  # a request that raises fails
            error = f"{type(exc).__name__}: {exc}"
        p.wall_s += perf_counter() - wall_begin
        p.cpu_s += process_time() - cpu_begin
        p.cpu.append(cpu)
        p.wall.append(wall)
        p.ref.append(to_reference(cpu, reference_cpu_s()))
        if error is None:
            with open(out, "rb") as fh:
                p.rows += sum(1 for _ in fh) - 1
            p.bytes += out.stat().st_size
            try:
                error = workload.oracle(req.params, out, stdout.getvalue())
            except (ValueError, IndexError, KeyError) as exc:
                error = f"unreadable output: {exc}"
        if error is not None:
            p.failures.append(f"{' '.join(req.argv)}: {error}")
        if after_request is not None:
            after_request()


def host_cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) ticks of all CPUs since boot, from /proc/stat; None if unreadable."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def setup_times(workload: Workload, out: Path) -> list[dict]:
    """Set-up time of fresh processes: import wexpand, then one warm-up request.

    Each probe reports its CPU seconds and its reference-loop time.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *workload.warmup, "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def warm_up(cli, workload: Workload, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*workload.warmup, "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up request exited {rc}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def end_to_end(cli, workload: Workload, seed: int, seconds: float, out: Path, record: dict):
    setups = setup_times(workload, out)
    warm_up(cli, workload, out)
    ticks_before = host_cpu_ticks()
    p = Pass()
    cycle_rates = []
    start = perf_counter()
    for batch in cycles(workload, seed, str(out)):
        done, first = p.completed, len(p.ref)
        serve(p, cli, workload, batch, out)
        cycle_rates.append((p.completed - done) / sum(p.ref[first:]))
        if perf_counter() - start >= seconds and len(p.ref) >= MIN_REQUESTS:
            break
    ticks_after = host_cpu_ticks()
    p90 = quantile(p.ref, 9)
    record.update({
        "setup_samples": setups,
        "requests": len(p.ref),
        "cycles": len(cycle_rates),
        "samples_beyond_p90": sum(1 for x in p.ref if x > p90),
        "failed_frac": {"value": len(p.failures) / len(p.ref), "unit": "ratio"},
        # CPU seconds before scaling to reference seconds.
        "cpu": {
            "setup_s": {"value": statistics.median(s["setup_cpu_s"] for s in setups),
                        "unit": "s"},
            "request_s.p50": {"value": statistics.median(p.cpu), "unit": "s"},
            "request_s.p90": {"value": quantile(p.cpu, 9), "unit": "s"},
            "requests_per_s": {"value": p.completed / p.cpu_s, "unit": "1/s"},
        },
        # What a user waits for, on this machine at this time.
        "wall": {
            "request_s.p50": {"value": statistics.median(p.wall), "unit": "s"},
            "request_s.p90": {"value": quantile(p.wall, 9), "unit": "s"},
            "requests_per_s": {"value": p.completed / p.wall_s, "unit": "1/s"},
        },
    })
    if ticks_before and ticks_after:
        stolen, total = (a - b for a, b in zip(ticks_after, ticks_before))
        record["wall"]["host_steal_frac"] = {"value": stolen / total if total else 0.0,
                                             "unit": "ratio"}
    metrics = {
        "setup_s": statistics.median(
            to_reference(s["setup_cpu_s"], s["reference_loop_s"]) for s in setups),
        "request_ref_s.p50": statistics.median(p.ref),
        "request_ref_s.p90": p90,
        "requests_per_ref_s": statistics.median(cycle_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [p], metrics


def traced(cli, workload: Workload, seed: int, out: Path):
    batches = itertools.islice(cycles(workload, seed, str(out)), TRACE_CYCLES)
    warm_up(cli, workload, out)
    tracer, profile = Tracer(), Profile()
    plain, p = Pass(), Pass()
    spans = 0

    def fold():
        nonlocal spans
        spans += len(tracer.spans)
        profile.add(tracer.spans)
        tracer.spans.clear()

    before = snapshot()
    # Each cycle runs untraced and traced back to back, alternating which
    # goes first, so a change in machine speed hits both sides alike.
    for k, batch in enumerate(batches):
        for side in ((plain, p) if k % 2 == 0 else (p, plain)):
            if side is plain:
                serve(plain, cli, workload, batch, out)
                continue
            with tracer.installed():
                serve(p, cli, workload, batch, out, after_request=fold)
            if not same_objects(before, snapshot()):
                raise SystemExit("perfbench: tracing left a wrapper in place")

    plain_rate = plain.completed / plain.cpu_s
    traced_rate = p.completed / p.cpu_s
    metrics = profile.metrics()
    metrics.update({
        "cli.rows_written": p.rows,
        "cli.bytes_written": p.bytes,
        "trace.requests": len(p.cpu),
        "trace.spans": spans,
        "trace.untraced_requests_per_cpu_s": plain_rate,
        "trace.traced_requests_per_cpu_s": traced_rate,
        "trace.overhead_frac": plain_rate / traced_rate - 1.0,
    })
    return [plain, p], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cli = import_program()
    workload = WORKLOADS[args.workload]
    record = run_header(workload, args)
    record["verify"] = verify(cli)
    failed_checks = [c["name"] for c in record["verify"] if not c["passed"]]
    if failed_checks:
        raise SystemExit(f"perfbench: wexpand verify failed: {failed_checks}")

    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        out = scratch / "out.csv"
        if args.trace:
            passes, values = traced(cli, workload, args.seed, out)
        else:
            passes, values = end_to_end(cli, workload, args.seed, args.seconds, out, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    attempted = sum(len(p.cpu) for p in passes)
    failures = [f for p in passes for f in p.failures]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: metrics {sorted(values)} != BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{workload.name:14s} {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for clock in ("cpu", "wall"):
        for name, m in record.get(clock, {}).items():
            print(f"{workload.name:14s} {clock + ' ' + name:34s} {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
    if "failed_frac" in record:
        print(f"{workload.name:14s} {'failed_frac':34s} {record['failed_frac']['value']:.6g} ratio "
              f"({record['requests']} requests, {record['samples_beyond_p90']} beyond p90)",
              file=sys.stderr)
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    record["failures"] = failures[:10]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
