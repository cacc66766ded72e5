"""Reference dynamics the full model is compared against.

Contains the benchmark linear recursion xi_{t+1} = b(1-a) W xi_t + eps_t,
closed forms for the aggregate volatility in the slow (adiabatic) and fast
shock limits, the transversality blow-up map that rational expectations must
suppress, and the schematic near-instability model whose covariance diverges
as 1/eta when the leading eigenvalue approaches one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import influence_vector_lp
from .network import IONetwork

__all__ = [
    "NearInstabilityModel",
    "NearInstabilityStats",
    "TransversalityReport",
    "build_near_instability_model",
    "long_plosser_simulate",
    "near_instability_stats",
    "sigma_fast",
    "sigma_slow",
    "transversality_blowup",
]


def long_plosser_simulate(
    net: IONetwork, a: float, b: float, sigma: float, steps: int, seed: int
) -> np.ndarray:
    """Iterate the stable benchmark recursion xi <- b(1-a) W xi + eps.

    Returns the (steps, n) array of log-output deviations; eps is i.i.d.
    Gaussian of scale sigma.  Requires b(1-a) < 1.
    """
    c = b * (1.0 - a)
    if not c < 1.0:
        raise ValueError("benchmark recursion requires b(1-a) < 1")
    rng = np.random.default_rng(seed)
    n = net.n
    out = np.empty((steps, n))
    xi = np.zeros(n)
    w = net.w
    for t in range(steps):
        xi = c * (w @ xi) + sigma * rng.standard_normal(n)
        out[t] = xi
    return out


def sigma_slow(net: IONetwork, a: float, b: float, sigmas: np.ndarray) -> float:
    """Aggregate volatility for shocks slow enough to re-equilibrate:
    sqrt(sum_l sigma_l^2 v_l^2) with v the influence vector."""
    v = influence_vector_lp(net, a, b)
    sigmas = np.asarray(sigmas, dtype=float)
    return float(np.sqrt(np.sum(sigmas**2 * v**2)))


def sigma_fast(net: IONetwork, a: float, b: float, sigmas: np.ndarray) -> float:
    """Aggregate volatility for white-noise shocks.

    Solves the discrete Lyapunov equation C = c^2 W C W' + diag(sigma^2)
    for the stationary covariance of the benchmark recursion (c < 1 makes it
    stable) and returns sqrt(n^-2 1'C 1).
    """
    from scipy.linalg import solve_discrete_lyapunov  # here, not at import: only `reduced` calls it

    c = b * (1.0 - a)
    if not c < 1.0:
        raise ValueError("fast-shock volatility requires b(1-a) < 1")
    sigmas = np.asarray(sigmas, dtype=float)
    n = net.n
    cov = solve_discrete_lyapunov(c * net.w, np.diag(sigmas**2))
    return float(np.sqrt(cov.sum() / n**2))


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    """Growth of nominal-share deviations under the forward clearing map."""

    growth_factor: float  # fitted per-step factor; inf when W' kills the subspace
    norms: np.ndarray
    singular_subspace: bool


def transversality_blowup(
    net: IONetwork,
    a: float,
    b: float,
    beta: float,
    s0_perp: np.ndarray,
    steps: int,
) -> TransversalityReport:
    """Iterate S⊥ <- [W']^{-1} S⊥ / (beta (1-a) b) on the subspace orthogonal
    to the uniform vector.

    The fitted exponential growth rate always exceeds one: the forward map is
    exponentially unstable unless S⊥ is exactly zero, which is the selection
    rational expectations enforce.  When W' annihilates part of the subspace
    (the plain matrix) the blow-up is immediate and reported as infinite
    growth.
    """
    c = b * (1.0 - a)
    if not beta * c < 1.0:
        raise ValueError("transversality map requires beta b (1-a) < 1")
    n = net.n
    s0 = np.asarray(s0_perp, dtype=float)
    if abs(s0.sum()) > 1e-10 * max(1.0, np.max(np.abs(s0))):
        raise ValueError("initial deviation must be orthogonal to the uniform vector")
    if np.allclose(s0, 0.0):
        return TransversalityReport(1.0, np.zeros(steps + 1), False)

    # orthonormal basis of the subspace orthogonal to 1
    basis = np.linalg.qr(np.eye(n)[:, 1:] - 1.0 / n)[0]
    restricted = basis.T @ net.w.T @ basis
    svals = np.linalg.svd(restricted, compute_uv=False)
    if svals.size == 0 or svals[-1] < 1e-12:
        norms = np.full(steps + 1, np.inf)
        norms[0] = float(np.linalg.norm(s0))
        return TransversalityReport(np.inf, norms, True)

    y = basis.T @ s0
    log_norms = [np.log(np.linalg.norm(y))]
    y = y / np.linalg.norm(y)
    for _ in range(steps):
        y = np.linalg.solve(restricted, y) / (beta * c)
        scale = np.linalg.norm(y)
        log_norms.append(log_norms[-1] + np.log(scale))
        y = y / scale  # renormalize to avoid overflow
    log_norms = np.array(log_norms)
    t = np.arange(steps + 1)
    slope = np.polyfit(t, log_norms, 1)[0]
    return TransversalityReport(float(np.exp(slope)), np.exp(log_norms), False)


# ---------------------------------------------------------------------------
# the schematic near-instability model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NearInstabilityModel:
    """Linear system X <- A X + eps with symmetric A and leading eigenvalue 1 - eta.

    U_plus is the unit-norm leading eigenvector; sigmas the per-component
    shock standard deviations.  A must be symmetric: the predicted covariance
    U+ U+' Sigma^2 / (2 eta) assumes orthogonal modes.
    """

    A: np.ndarray
    U_plus: np.ndarray
    sigmas: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        if abs(np.linalg.norm(self.U_plus) - 1.0) > 1e-10:
            raise ValueError("leading eigenvector must have unit norm")
        if not np.allclose(self.A, self.A.T, rtol=0.0, atol=1e-12):
            raise ValueError("near-instability model requires a symmetric A")
        radius = float(np.max(np.abs(np.linalg.eigvals(self.A))))
        if radius >= 1.0:
            raise ValueError(f"spectral radius {radius:.6f} is not below one")


# the near-instability model's eigenvalue on every mode but the leading one
RHO = 0.5


def build_near_instability_model(
    u_plus: np.ndarray, eta: float, sigmas: np.ndarray
) -> NearInstabilityModel:
    """A = (1-eta) u u' + RHO (I - u u'): one mode near the unit circle, a
    controlled bulk at RHO for everything else."""
    u = np.asarray(u_plus, dtype=float)
    u = u / np.linalg.norm(u)
    n = len(u)
    proj = np.outer(u, u)
    a = (1.0 - eta) * proj + RHO * (np.eye(n) - proj)
    return NearInstabilityModel(A=a, U_plus=u, sigmas=np.asarray(sigmas, dtype=float),
                                eta=float(eta))


@dataclass(frozen=True, eq=False)
class NearInstabilityStats:
    cov_empirical: np.ndarray
    cov_predicted: np.ndarray
    corr_empirical: np.ndarray
    corr_predicted_sign: np.ndarray


def near_instability_stats(
    model: NearInstabilityModel, steps: int, seed: int
) -> NearInstabilityStats:
    """Simulate X <- A X + eps and compare with the divergence law.

    The prediction is cov ~ U+ U+' Sigma^2 / (2 eta) with
    Sigma^2 = sum_l sigma_l^2 (U+_l)^2, and pairwise correlations approach
    sign(U+_j U+_k) as eta -> 0.  Each eigenmode of the symmetric A runs as
    an independent AR(1) filter.  Burn-in of 10/eta steps is discarded.
    """
    from scipy.signal import lfilter  # here, not at import: only `reduced` calls it

    n = len(model.U_plus)
    burn = int(np.ceil(10.0 / model.eta))
    if steps <= burn + 100:
        raise ValueError("need steps well beyond the 10/eta burn-in")
    rng = np.random.default_rng(seed)
    eps = model.sigmas[None, :] * rng.standard_normal((steps, n))
    vals, vecs = np.linalg.eigh(model.A)
    modes = eps @ vecs
    for k in range(n):
        modes[:, k] = lfilter([1.0], [1.0, -vals[k]], modes[:, k])
    x = modes @ vecs.T
    sample = x[burn:]
    cov_emp = np.cov(sample.T)
    cov_emp = np.atleast_2d(cov_emp)
    sigma2 = float(np.sum(model.sigmas**2 * model.U_plus**2))
    cov_pred = np.outer(model.U_plus, model.U_plus) * sigma2 / (2.0 * model.eta)
    std = np.sqrt(np.diag(cov_emp))
    corr_emp = cov_emp / np.outer(std, std)
    corr_sign = np.sign(np.outer(model.U_plus, model.U_plus))
    return NearInstabilityStats(cov_emp, cov_pred, corr_emp, corr_sign)
