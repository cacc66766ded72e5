"""Model constants and the static equilibrium of the firm-network economy.

The equilibrium nominal outputs V solve

    V - (1'V / n) 1 = (1-a) b beta0 * What V,      What[i, j] = w[j, i] - 1/n,

with the scale gauge 1'V = n (so the plain matrix gives V = 1).  The wage is
h = a b beta0 1'V and log-prices solve a single linear system obtained by
substituting x = V / p into the equilibrium production relation,

    (I - b(1-a) W) log p = (1-b) log V - b log beta0 + a b log h.

Prices are therefore exact up to the linear solve, no fixed-point iteration
and no positivity issues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import IONetwork

__all__ = [
    "ModelParams",
    "EquilibriumState",
    "solve_equilibrium",
    "equilibrium_residual",
    "influence_vector_lp",
]


@dataclass(frozen=True)
class ModelParams:
    """Scalar constants of the model.

    a: labor share in [0, 1]; b: returns to scale in (0, 1]; q: price-trend
    extrapolation in [-1, 1]; q0: inflation extrapolation (defaults to q);
    gamma: production adjustment speed in (0, 1]; beta0: base discount factor;
    sigma: scale of the i.i.d. Gaussian log-productivity shocks.  Every
    value must be finite.
    """

    a: float = 0.5
    b: float = 0.9
    q: float = -1.0
    q0: float | None = None
    gamma: float = 0.15
    beta0: float = 1.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("labor share a must lie in [0, 1]")
        if not 0.0 < self.b <= 1.0:
            raise ValueError("returns to scale b must lie in (0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("adjustment speed gamma must lie in (0, 1]")
        if not -1.0 <= self.q <= 1.0:
            raise ValueError("trend extrapolation q must lie in [-1, 1]")
        if not self.beta0 > 0.0:
            raise ValueError("base discount beta0 must be positive")
        if self.sigma < 0.0:
            raise ValueError("shock scale sigma must be non-negative")
        if self.q0 is None:
            object.__setattr__(self, "q0", float(self.q))
        if not all(map(math.isfinite, (self.beta0, self.sigma, self.q0))):
            raise ValueError("model parameters must be finite")

    @property
    def c(self) -> float:
        """Intermediate-input elasticity b(1-a), the network coupling strength."""
        return self.b * (1.0 - self.a)


@dataclass(frozen=True, eq=False)
class EquilibriumState:
    """Static equilibrium: prices, quantities, wage, nominal outputs and shares."""

    p_eq: np.ndarray
    x_eq: np.ndarray
    h_eq: float
    V_eq: np.ndarray
    S_eq: np.ndarray


def solve_equilibrium(net: IONetwork, params: ModelParams) -> EquilibriumState:
    """Solve the static equilibrium for decreasing returns to scale (b < 1).

    Baseline productivities are one (a monetary unit).  The nominal scale
    is a pure gauge, fixed at 1'V = n (so the plain-matrix V is identically
    one).  Raises for b >= 1 (the production optimum only exists under
    decreasing returns), for a wage h that is not positive (a = 0) and for
    an equilibrium that fails its own residual bound.
    """
    if params.b >= 1.0:
        raise ValueError("equilibrium solve requires b < 1")
    n = net.n
    a, b, beta0 = params.a, params.b, params.beta0
    c = params.c
    what = net.w.T - 1.0 / n
    try:
        V = np.linalg.solve(np.eye(n) - c * beta0 * what, np.ones(n))
    except np.linalg.LinAlgError as exc:  # guarded; cannot occur for c*beta0 < 1
        raise ArithmeticError("singular equilibrium system for V") from exc
    if np.any(V <= 0):
        raise ArithmeticError("equilibrium nominal outputs are not all positive")

    h = a * b * beta0 * V.sum()
    if not h > 0.0:  # a = 0: no wage, and no log of it
        raise ArithmeticError(f"equilibrium wage h = {h} is not positive")
    rhs = (1.0 - b) * np.log(V) - b * np.log(beta0) + a * b * np.log(h)
    try:
        log_p = np.linalg.solve(np.eye(n) - c * net.w, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular equilibrium system for log-prices") from exc
    p = np.exp(log_p)
    x = V / p
    V = x * p  # V[i] = x[i] p[i] holds bitwise
    eq = EquilibriumState(p_eq=p, x_eq=x, h_eq=float(h), V_eq=V, S_eq=V / V.sum())

    res = equilibrium_residual(eq, net, params)
    if not res <= 1e-10:
        raise ArithmeticError(f"equilibrium residual {res:.3e} exceeds 1e-10")
    return eq


def equilibrium_residual(eq: EquilibriumState, net: IONetwork, params: ModelParams) -> float:
    """Max-norm residual of the equilibrium relation for nominal outputs."""
    n = net.n
    V = eq.V_eq
    what = net.w.T - 1.0 / n
    res = V - V.mean() - params.c * params.beta0 * (what @ V)
    return float(np.max(np.abs(res)))


def influence_vector_lp(net: IONetwork, a: float, b: float) -> np.ndarray:
    """Influence vector n^-1 1' [I - b(1-a) W]^-1 of the linear benchmark dynamics.

    Measures each sector's weight in the aggregate response to idiosyncratic
    shocks.  Requires b(1-a) < 1.
    """
    c = b * (1.0 - a)
    if not c < 1.0:
        raise ValueError("influence vector requires b(1-a) < 1")
    n = net.n
    try:
        return np.linalg.solve(np.eye(n) - c * net.w.T, np.full(n, 1.0 / n))
    except np.linalg.LinAlgError as exc:  # cannot occur under the precondition
        raise ArithmeticError("singular influence-vector system") from exc
