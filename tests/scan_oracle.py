"""Frozen reference: the exhaustive grid scan of the critical line.

A copy of the search ``netecon.stability.critical_gamma`` ran before it
solved for flip crossings exactly: max|alpha| - 1 is evaluated at every
gamma = 0.001, 0.002, ..., 1, the first sign change from <= 0 to > 0 is
refined by bisection to |max|alpha| - 1| < 1e-10, and the crossing kind is
read off the leading root at gamma_c + 1e-8.  Tests compare the fast search
against it; nothing in the package uses it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from netecon.equilibrium import solve_equilibrium
from netecon.stability import analyze_stability

GRID_STEP = 1e-3
REAL_ROOT_IMAG_TOL = 1e-6


def scan_critical_gamma(net, params, q):
    """(gamma_c, kind) of the first upward unit-circle crossing in (0, 1], or None."""
    base = replace(params, q=q, q0=None if params.q0 == params.q else params.q0)
    equilibrium = solve_equilibrium(net, base)

    def f(gamma):
        return analyze_stability(net, replace(base, gamma=gamma), equilibrium).max_alpha - 1.0

    gammas = np.arange(GRID_STEP, 1.0 + GRID_STEP / 2, GRID_STEP)
    signs = np.sign([f(g) for g in gammas])
    crossings = [i for i in range(len(gammas) - 1) if signs[i] <= 0 < signs[i + 1]]
    if not crossings:
        return None

    lo, hi = float(gammas[crossings[0]]), float(gammas[crossings[0]] + GRID_STEP)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < 1e-10 or hi - lo < 1e-13:
            lo = hi = mid
            break
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    gamma_c = 0.5 * (lo + hi)

    root = analyze_stability(net, replace(base, gamma=min(gamma_c + 1e-8, 1.0)),
                             equilibrium).leading_root
    if abs(root.imag) < REAL_ROOT_IMAG_TOL and root.real < 0:
        return gamma_c, "real_minus_one"
    return gamma_c, "complex_pair"
