"""A fixed job, unrelated to stabsim, timed before and after every pass.

The benchmark's machines are shared: another tenant's load can slow a run
by a third for minutes at a time.  The job below does the kind of work
stabsim does (interpreter-bound integer code, numpy bit operations on
cache-sized packed arrays), so it slows down with the same contention.
`scale` turns a wall time into seconds at the nominal speed, the speed at
which this job takes NOMINAL_S; the raw wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

from time import perf_counter as clock

import numpy as np

NOMINAL_S = 0.015  # about its median time on an idle 2-core x86_64 VM, Python 3.11

_ONE = np.uint64(1)
_SHIFTS = [np.uint64(s) for s in range(64)]


def reference() -> float:
    """Seconds this process takes for the fixed job, now: a pure-Python
    loop, then bit-column updates on a packed array the size of a
    1600-row tableau."""
    t0 = clock()
    acc, d = 0, {}
    for i in range(30000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        d[i & 1023] = acc
    a = np.arange(13 * 1601, dtype=np.uint64).reshape(13, 1601)
    for i in range(1000):
        col = (a[i % 13] >> _SHIFTS[i % 64]) & _ONE
        a[(i + 3) % 13] ^= col << _SHIFTS[(i * 7) % 64]
    return clock() - t0


def scale(seconds: float, ref_seconds: float) -> float:
    """Wall seconds measured while the job took `ref_seconds`, expressed at
    the nominal speed."""
    return seconds * NOMINAL_S / ref_seconds
