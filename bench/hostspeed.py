"""Host-speed probe used to scale wall times to a reference speed.

The benchmark runs on small shared machines whose speed swings by tens
of percent over seconds to minutes (another tenant on the same core),
and CPU time swings with wall time.  A fixed probe, run in the same
thread just before every analysis, measures how fast the host is at that
moment.  The probe uses numpy only, never dmkit, so a change to the
program cannot change it; it mixes interpreter work with small numpy
calls, as dmkit's hot loops do.

An analysis's scaled time is its wall time times REFERENCE_S divided by
the median probe time around it.  On a host running at reference speed
the two are equal.
"""

import math
import statistics
import time

import numpy as np
# bound at import, so the probe never runs through the tracer's wrappers
from numpy.linalg import solve, svd

# median probe time on the reference host: Intel Xeon at 2.1 GHz, 2 vCPUs,
# Python 3.11, numpy 2.4, single-threaded OpenBLAS
REFERENCE_S = 0.007
# probes on each side of an analysis that enter its median
HALF_WINDOW = 4

_NUM = np.array([2.0, 0.5, 1.5])
_DEN = np.array([1.0, 3.2, 7.1, 2.5, 0.9, 4.4])
_A = np.random.default_rng(0).standard_normal((6, 6))
_B = np.ones((6, 1))
_EYE = np.eye(6)
_M = np.random.default_rng(1).standard_normal((3, 3)) + 0j


def probe():
    """Seconds taken by a fixed piece of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        s = 0.01j * (i + 1)
        v = np.polyval(_NUM, s) / np.polyval(_DEN, s)
        acc += abs(v) + math.atan2(v.imag, v.real)
        acc += float(np.abs(solve(s * _EYE - _A, _B)).sum())
        if i % 5 == 0:
            acc += float(svd(_M * s, compute_uv=False)[0])
    if not math.isfinite(acc):
        raise ArithmeticError("host-speed probe produced a non-finite value")
    return time.perf_counter() - t0


def factors(probes, n):
    """Scale factor for each of n analyses, where analysis i ran between
    probes[i] and probes[i + 1]."""
    out = []
    for i in range(n):
        window = probes[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
        out.append(REFERENCE_S / statistics.median(window))
    return out
