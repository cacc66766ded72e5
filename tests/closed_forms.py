"""Frozen reference: the paper's closed forms and two linear-model predictions.

The gamma_c of the flip crossing at real s, its constant-returns (b -> 1)
limit and the Hopf crossing angle at q = -1 are the paper's formulas; the
Lyapunov prediction of stable-phase volatility and the adiabatic response
are solved directly from the linearized map and the benchmark recursion.
Tests check the numerics of the package (``critical_gamma``, ``Simulator``,
``influence_vector_lp``) and the modal oracle's ``mode_roots`` against them;
nothing in the package uses them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from netecon.stability import linear_state_map


def critical_gamma_closed_form(q: float, s: float, a: float, b: float) -> float | None:
    """gamma_c of the real-root crossing alpha -> -1 for real s.

    (1-gc)/gc = [2b - 1 - c^2 s^2 + 2q (b + c s)] / [2 (1-b)(1 - b(1-a)^2 s^2)];
    defined only when the right-hand side is positive, else None (the actual
    bifurcation is then the complex pair, caught by critical_gamma).
    """
    c = b * (1.0 - a)
    rhs = (2.0 * b - 1.0 - c**2 * s**2 + 2.0 * q * (b + c * s)) / (
        2.0 * (1.0 - b) * (1.0 - b * (1.0 - a) ** 2 * s**2)
    )
    if rhs <= 0:
        return None
    return 1.0 / (1.0 + rhs)


def critical_gamma_b1_approx(q: float, s: float, a: float, b: float) -> float:
    """Constant-returns limit gamma_c ~ 2 (1-(1-a)s)(1-b) / (2q + 1 - (1-a)s)."""
    return 2.0 * (1.0 - (1.0 - a) * s) * (1.0 - b) / (2.0 * q + 1.0 - (1.0 - a) * s)


def hopf_angle(s: float, a: float) -> float:
    """Crossing angle of the complex pair at q = -1, b -> 1:
    cos(theta) = (1 - (1-a) s)^2 / 2."""
    arg = (1.0 - (1.0 - a) * s) ** 2 / 2.0
    if not -1.0 - 1e-12 <= arg <= 1.0 + 1e-12:
        raise ValueError("hopf angle argument outside [-1, 1]")
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))


def linearized_volatility(net, params, sigma: float) -> float:
    """Stationary flat-log aggregate volatility predicted by the linearized map.

    Solves the discrete Lyapunov equation for the state covariance of
    state <- S state + B eps and returns the standard deviation of mean(xi).
    Only defined in the stable phase.
    """
    s_map, b_map = linear_state_map(net, params)
    radius = float(np.max(np.abs(np.linalg.eigvals(s_map))))
    if radius >= 1.0:
        raise ValueError(f"linearized map is unstable (spectral radius {radius:.4f})")
    cov = solve_discrete_lyapunov(s_map, sigma**2 * (b_map @ b_map.T))
    weights = np.zeros(s_map.shape[0])
    weights[:net.n] = 1.0 / net.n
    return float(np.sqrt(weights @ cov @ weights))


def adiabatic_response(net, a: float, b: float, eps: np.ndarray) -> np.ndarray:
    """Quasi-static response xi = [I - b(1-a) W]^{-1} eps to a frozen shock."""
    c = b * (1.0 - a)
    if not c < 1.0:
        raise ValueError("adiabatic response requires b(1-a) < 1")
    return np.linalg.solve(np.eye(net.n) - c * net.w, np.asarray(eps, dtype=float))
