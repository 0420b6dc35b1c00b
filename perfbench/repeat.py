"""Run the benchmark on several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--trace 0]
        [--workload NAME ...] [--seconds S]

Each run is `perfbench/run.py` with its own seed.  For every workload and
metric this prints the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread, (q3 - q1) / median, next to a third of the metric's bound
from BENCHMARK.json.  The summary is one JSON object on standard output:
per workload, the request counts of each run and the statistics of each
metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(run record, result) of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record, result = proc.stdout.splitlines()[-2:]
    return json.loads(record)["record"], json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        results = [result for _, result in runs]
        if not all(r["correct"] for r in results):
            raise SystemExit(f"{workload}: a run reported incorrect output")
        entry = summary[workload] = {
            key: [record[key] for record, _ in runs]
            for key in ("requests", "samples_beyond_p90") if key in runs[0][0]
        }
        if entry:
            print(f"{workload:14s} requests per run {entry['requests']}, beyond p90 "
                  f"{entry['samples_beyond_p90']}", file=sys.stderr)
        entry["metrics"] = {}
        for name in results[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.3f})" if bound else ""
            print(f"{workload:14s} {name:34s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}",
                  file=sys.stderr, flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
