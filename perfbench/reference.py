"""A fixed reference loop that measures how fast this CPU runs right now.

On a shared virtual machine the speed of one core drifts by 20-50% over
seconds to minutes, for all code alike: a neighbour on the sibling
hyperthread, the host's clock and its caches all move it.  No statistic over
one 30-second run removes a drift that lasts minutes.  The benchmark
therefore runs this loop right after every request and reports request
times in *reference seconds*: CPU seconds scaled by ``REFERENCE_S / loop
time``, i.e. the time the request would take on a CPU where this loop takes
``REFERENCE_S``.  A change to wexpand moves the request time and not the
loop, so it shows in full; a change in machine speed moves both alike and
cancels.

The loop mixes what wexpand spends its time on: Python arithmetic on complex
scalars, function calls, small numpy operations and float formatting.  It
never calls wexpand, so it is the same code on every commit.
"""
from __future__ import annotations

from time import process_time

import numpy as np

# Nominal CPU seconds of one `reference_cpu_s()` call; the unit of reference
# seconds.  It is close to the loop's time on an idle core of the machine
# the baseline was recorded on, so reference seconds read like CPU seconds.
REFERENCE_S = 0.01
ROUNDS = 2000

_VECTOR = np.full(8, 1.0 + 0.5j)


def _step(z: complex, k: int) -> complex:
    return z * z / (z + k) + 1j


def reference_cpu_s() -> float:
    """CPU seconds of one pass of the fixed reference work."""
    start = process_time()
    acc, vec, parts = 0j, _VECTOR, []
    for k in range(1, ROUNDS + 1):
        acc = _step(complex(k, 0.5), k) - acc * 1e-3
        vec = vec * 0.999 + acc
        if k % 4 == 0:
            parts.append(f"{abs(vec[k % 8]):.12g}")
    ",".join(parts)
    return process_time() - start


def to_reference(cpu_s: float, loop_s: float) -> float:
    """CPU seconds measured while the reference loop took ``loop_s``, in reference seconds."""
    return cpu_s * REFERENCE_S / loop_s
