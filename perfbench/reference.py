"""Fixed reference work that gauges how fast the machine runs at a moment.

On a shared host the speed of one core drifts by tens of percent over seconds
to minutes, and every time measured on it drifts alike.  The benchmark runs a
short block of this reference work just before and just after each timed CLI
call and reports the call's time in reference passes, which cancels most of
that drift.  The work mixes the kinds of operation netecon spends its time in:
interpreter-bound Python, numpy on short vectors, and small dense linear
algebra.  It uses nothing from netecon, so a change to the package moves the
call's time and never the reference's.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(1406_5022)
_VEC = _RNG.standard_normal(256)
_MAT = np.eye(96) + _RNG.standard_normal((96, 96)) / 10


def reference_pass() -> float:
    """One pass of the reference work: about 3 ms on a shared 2-vCPU Xeon VM."""
    acc = 0.0
    for i in range(8000):
        acc += (i % 7) * 0.5
    v = _VEC
    for _ in range(150):
        v = np.log1p(np.exp(-np.abs(v))) + 0.5 * v
    x = np.linalg.solve(_MAT, v[:96])
    lam = np.linalg.eigvals(_MAT[:64, :64])
    return acc + float(x[0]) + float(lam.real.max())


def seconds_per_pass(budget_s: float) -> float:
    """Run passes for at least ``budget_s`` seconds; the mean seconds per pass."""
    passes = 0
    start = time.perf_counter()
    while True:
        reference_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / passes
