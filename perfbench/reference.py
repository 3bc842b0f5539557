"""Reference speed: the yardstick every reported time is scaled by.

The machine's speed drifts by up to 1.6x over minutes with other tenants'
load, and every timing moves with it.  A time t measured while the fixed
reference kernel below takes r seconds is reported as t * REFERENCE_S / r.
REFERENCE_S is a round figure near r on the 2-core x86-64 machine the
benchmark was defined on, so there the reported times are close to wall
times.  The kernel shares no code with the library.

`cold_main` is the body of a cold `toric-ends run` process: it runs the
package as `__main__` and writes to stderr how long that took, the
reference time before and after it in the same process, and the process's
peak RSS.
"""

from __future__ import annotations

import gc
import resource
import runpy
import statistics
import sys
from time import perf_counter

REFERENCE_S = 0.02
REFERENCE_REPEATS = 3


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the library does: growing integer
    continuants, tuples, a dict, small strings."""
    a, b, c, d = 1, 0, 0, 1
    table = {}
    for i in range(30000):
        k = i % 7 + 1
        a, b, c, d = a * k + b, a, c * k + d, c
        if i % 48 == 0:
            a, b, c, d = 1, 0, 0, 1
        table[(i & 511, k)] = (a % 1000003, str(c & 1023))
    return len(table)


def reference_time() -> float:
    """Median time of the kernel over REFERENCE_REPEATS runs, with the garbage
    collector off so that the caller's heap does not enter it."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            reference_kernel()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def peak_rss_kib() -> int:
    """Peak RSS of this process's own address space.  The rusage a parent
    reads for a child also counts the parent's pages from before exec
    (subprocess spawns by vfork), so it is read here, inside the child."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cold_main():
    reference_time()  # unmeasured: warms the kernel
    before = reference_time()
    start = perf_counter()
    try:
        runpy.run_module("toric_ends", run_name="__main__", alter_sys=True)
    finally:
        elapsed = perf_counter() - start
        after = reference_time()
        sys.stderr.write(f"cold_run elapsed_s={elapsed} reference_s={(before + after) / 2} "
                         f"peak_rss_kib={peak_rss_kib()}\n")
