"""Host-speed correction of the benchmark's timings.

On a shared host the speed of one core drifts.  On the 2-vCPU Xeon VM the
benchmark was built on, the reference kernel below took anywhere from 12
to 21 ms, switching every few seconds to minutes, with CPU time equal to
wall time (so not steal; most likely another tenant of the physical core).
The same ``threshold-grid`` op, whose work never changes, took 1.5 to
3.1 s.  Over six seeds of ``scale-pipeline`` the quartile distance of the
runs' wall-clock ``ops_per_s`` and ``op_s_p50`` reached 35-37% of their
median; corrected as below, it was 6-7%.

So the worker times this fixed reference kernel, an interpreted loop plus
small numpy calls, just before and just after each timed stage.  A stage's
corrected time is its wall time times ``REF_KERNEL_S`` over the mean of the
two kernel times around it: the time the stage would have taken on a host
that runs the kernel in ``REF_KERNEL_S``.  Code slows by a different
factor than the kernel when the host is busy, so each workload states its
``sensitivity`` (see ``workloads.py``), the exponent of that ratio.  The
kernel does not call
``tsbm``, so a change to the program cannot move it, and every kernel time
is printed with the run.
"""

import statistics
import time

import numpy as np

# A typical kernel time (seconds) on the VM above.  It is a unit only:
# corrected times read as seconds on a host that runs the kernel this fast.
REF_KERNEL_S = 0.016
REPEATS = 3
_LOOP = 75_000
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((150, 150))
_VECTOR = _RNG.random(400_000)


def _kernel():
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    a = _MATRIX
    for _ in range(2):
        a = a @ _MATRIX
        a /= a.max()
        np.sort(_VECTOR)
    return total


def kernel_seconds():
    """Median wall time of ``REPEATS`` runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def corrected(wall_s, kernel_before_s, kernel_after_s, sensitivity=1.0):
    """``wall_s`` in seconds at the reference host speed.  ``sensitivity``
    is how strongly the timed code follows the kernel: the slope of log
    stage time on log kernel time."""
    return wall_s * (REF_KERNEL_S * 2 / (kernel_before_s + kernel_after_s)) ** sensitivity
