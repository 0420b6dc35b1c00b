"""Set-up probe: a fresh process imports wexpand and serves one warm-up request.

Usage, from the repository root:

    python3 perfbench/probe.py prepare --n 4 --mode block --out /path/to/out.csv

The arguments are the request's argv.  Prints {"setup_cpu_s": seconds,
"reference_loop_s": seconds} on the last line: the CPU time of this process
from before `import wexpand` (which loads numpy) to the end of the request,
and then the median time of the reference loop (reference.py) in this
process, by which run.py scales it to reference seconds.  run.py starts
this a few times and reports the median.
"""
import time

START = time.process_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wexpand.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = wexpand.cli.main(sys.argv[1:])
elapsed = time.process_time() - START
if rc != 0:
    sys.exit(rc)

from reference import reference_cpu_s  # noqa: E402

loop = statistics.median(reference_cpu_s() for _ in range(5))
print(json.dumps({"setup_cpu_s": elapsed, "reference_loop_s": loop}))
