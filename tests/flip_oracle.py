"""Frozen reference: the flip gamma by the QZ algorithm.

A copy of ``netecon.stability._flip_gamma`` as it was before the flip pencil
was solved by a shift-invert: the pencil L0 + E + gamma L1 is folded to the
(2n+1)-square F0 + gamma F1 on (du, xi_t), and its generalized eigenvalues
come from scipy's QZ on (F0, -F1), which inverts neither matrix.  Tests
compare the package against it; nothing in the package uses it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvals

from netecon.stability import GAMMA_XTOL, REAL_ROOT_IMAG_TOL, _gamma_pencil


def qz_flip_gamma(net, params, equilibrium):
    """Smallest real generalized eigenvalue of (F0, -F1) in (0, 1), or None."""
    n, m = net.n, 2 * net.n + 1
    folded = []
    for mat in _gamma_pencil(net, params, equilibrium):
        f = mat[:m, :m].copy()
        f[:, :n] -= mat[:m, m:]
        folded.append(f)
    f0, f1 = folded
    xi = np.arange(n + 1, 2 * n + 1)
    f0[xi, xi] += 1.0
    roots = eigvals(f0, -f1)
    roots = roots[np.isfinite(roots)]
    real = roots.real[np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * np.abs(roots)]
    real = real[(real > GAMMA_XTOL) & (real < 1.0 - GAMMA_XTOL)]
    return float(real.min()) if real.size else None
