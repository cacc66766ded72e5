"""Full nonlinear dynamics of the firm-network economy.

Each time step solves the simultaneous wage / goods market clearing system for
(log p_t, log h_t) given the predetermined production x_t, the lagged prices
p_{t-1} (which feed the extrapolative price forecast) and the current
productivities z_t.

The firms' per-step rules (price forecast, discount factor, optimal
production, slow adjustment by gamma, Lagrange multipliers, nominal spending
and the clearing residuals) are stated once, in ``_clearing_parts``, which
the Newton solve evaluates at every trial point; their exact derivatives are
stated once, in ``_clearing_jacobian`` (in the clearing unknowns) and
``_clearing_known_jacobian`` (in the knowns), from the same parts; the linear
stability analysis differentiates ``Simulator.step`` through them.
``Simulator.step`` builds the cleared state from that kernel's parts at the
solution, household wealth included, non-positive or not (``simulate`` ends
a run there); the factor demands ``ell`` and ``psi`` are derived from the
state on access and never stored.

The overall price level is not pinned by the simultaneous clearing equations
(the n goods equations are linearly dependent), so the solver imposes a gauge:
the sum of log-prices is held at its equilibrium value.  With q = q0 the gauge
is irrelevant for all real quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .equilibrium import ModelParams, solve_equilibrium
from .network import IONetwork

__all__ = [
    "ClearingContext",
    "ClearingError",
    "EconomyState",
    "NUMERICAL_FAILURES",
    "NoiseProcess",
    "Simulator",
    "Trajectory",
    "clearing_residual",
    "trajectory_to_csv",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 25


class ClearingError(RuntimeError):
    """Raised when the market-clearing Newton solve fails to converge, or when
    a simulation breaks down; ``t`` is the step, named in the message."""

    def __init__(self, message: str, t: int | None = None, residual: float = np.nan,
                 iterations: int = 0):
        super().__init__(message)
        self.t = t
        self.residual = residual
        self.iterations = iterations

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.t is None else f"step {self.t}: {message}"


# the errors that mean the model or the numerics broke down (np.linalg's
# LinAlgError subclasses ValueError: catch these before ValueError)
NUMERICAL_FAILURES = (ClearingError, ArithmeticError, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# the market-clearing system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClearingContext:
    """Known quantities entering the clearing solve at one time step.

    x_sold is the predetermined production sold this step, p_lag the previous
    prices feeding the price forecast, z the current productivities, and
    gauge_target the pinned value of sum(log p).
    """

    net: IONetwork
    params: ModelParams
    x_sold: np.ndarray
    p_lag: np.ndarray
    z: np.ndarray
    gauge_target: float

    @property
    def log_p_lag(self) -> np.ndarray:
        return np.log(self.p_lag)


def _clearing_parts(ctx: ClearingContext, log_p: np.ndarray, log_h: float) -> dict:
    """Evaluate the per-step rules of the firms at a trial point (log p, log h).

    With dlp = log p - log p_lag and c = b(1-a):

        forecast      log E[p] = log p + q dlp
        discount      log beta = log beta0 - q0 mean(dlp)
        optimum       log x* = [log z + b (log beta + log E[p]) - a b log h
                                - c W log p] / (1-b)   (b^b absorbed into z)
        adjustment    x_next = (1-gamma) x_sold + gamma x*
        multiplier    lam = beta E[p] (x_next / x*)^((1-b)/b)
        spending      spend = lam x_next,  v_nominal = x_sold p
        wealth        M = sum(v_nominal) - c sum(spend)

    The clearing residuals are goods (v_nominal minus the household demand
    M / n and the intermediate demand c W' spend), wage (h - a b sum(spend))
    and gauge (sum(log p) minus its target).  Wealth itself is formed only
    at the solution, by ``Simulator.step``.

    Derivatives (used by ``_clearing_jacobian``).  With L = log beta +
    log E[p], dL/dlog p = A = (1+q) I - (q0/n) 11', and
    k = (gamma x*/x_next - 1 + b) / b, so that dlog spend = dL + k dlog x*:

        d spend / dlog p  = diag(alpha) A - diag(mu) W,
                            alpha = spend (1 + k b/(1-b)),  mu = spend k c/(1-b)
        d spend / dlog h  = -spend k a b / (1-b)
        d goods           = diag(v_nominal) - 1 v_nominal'/n
                            - c (W' - 11'/n) d spend
        d wage            = h dlog h - a b 1' d spend
        d gauge / dlog p  = 1'

    Derivatives in the knowns y = (log x_sold, log p_lag, log z) (used by
    ``_clearing_known_jacobian``, together with those of log x_next in
    (log p, log h)).  With dL/dlog p_lag = I - A and g = gamma x*/x_next =
    1 - b (1-k):

        dlog x*           = [b A - c W, -a b 1 | 0, b (I - A), I] / (1-b)
                            in (log p, log h | y)
        dlog x_next       = (1 - g) dlog x_sold + g dlog x*
        d spend / dy      = [diag(spend (1-k)), diag(alpha) (I - A),
                             diag(spend k / (1-b))]
        d v_nominal / dy  = [diag(v_nominal), 0, 0]

    The goods and wage rows in y follow from d spend / dy and
    d v_nominal / dy by the formulas above at fixed h; the gauge does not
    depend on y.

    Returns raw arrays; overflow produces non-finite entries that the Newton
    damping treats as a rejected trial.
    """
    pr, n = ctx.params, ctx.net.n
    a, b, q, q0, gamma = pr.a, pr.b, pr.q, pr.q0, pr.gamma
    # sum() / n rather than mean(): the same bits without mean()'s call overhead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dlp = log_p - ctx.log_p_lag
        log_beta = np.log(pr.beta0) - q0 * (dlp.sum() / n)
        log_ep = log_p + q * dlp
        log_xstar = (
            np.log(ctx.z) + b * (log_beta + log_ep) - a * b * log_h - pr.c * (ctx.net.w @ log_p)
        ) / (1.0 - b)
        xstar = np.exp(log_xstar)
        x_next = (1.0 - gamma) * ctx.x_sold + gamma * xstar
        lam = np.exp(log_beta + log_ep) * (x_next / xstar) ** ((1.0 - b) / b)
        spend = lam * x_next
        v_nominal = ctx.x_sold * np.exp(log_p)
        goods = (v_nominal - v_nominal.sum() / n) - pr.c * (spend @ ctx.net.w - spend.sum() / n)
        wage = np.exp(log_h) - a * b * spend.sum()
        gauge = log_p.sum() - ctx.gauge_target
    return {
        "log_beta": log_beta,
        "log_ep": log_ep,
        "xstar": xstar,
        "x_next": x_next,
        "lam": lam,
        "spend": spend,
        "v_nominal": v_nominal,
        "goods": goods,
        "wage": wage,
        "gauge": gauge,
    }


def _residual_vector(parts: dict) -> np.ndarray:
    """Square residual: n-1 goods equations, the wage equation, the gauge."""
    return np.concatenate([parts["goods"][:-1], [parts["wage"], parts["gauge"]]])


def _jacobian_workspace(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers for ``_clearing_jacobian``: the (n+1)^2 Jacobian, the n^2
    d spend / dlog p and the (n-1) x n goods block in log p, contiguous so
    that the elementwise passes over it run as one flat loop.  ``np.empty``
    touches no page until they are written."""
    return np.empty((n + 1, n + 1)), np.empty((n, n)), np.empty((n - 1, n))


def _clearing_jacobian(ctx: ClearingContext, u: np.ndarray, parts: dict,
                       work: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact (n+1) x (n+1) Jacobian of ``_residual_vector`` in u = (log p, log h).

    ``parts`` are those ``_clearing_parts`` returned at u; the formulas are
    in its docstring.  The one O(n^3) term is W' (d spend / dlog p).

    The Jacobian is assembled in place in ``work``, the buffers of
    ``_jacobian_workspace``, and the Jacobian buffer is returned.  Every
    entry is written anew, so a reused workspace carries nothing over from
    an earlier call, and no n^2 array is allocated.  A caller that keeps the
    result passes fresh buffers.
    """
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, c = pr.a, pr.b, pr.c
    spend, v = parts["spend"], parts["v_nominal"]
    jac, d_spend, goods = work
    with np.errstate(over="ignore", invalid="ignore"):
        k = (pr.gamma * parts["xstar"] / parts["x_next"] - 1.0 + b) / b
        alpha = spend * (1.0 + k * (b / (1.0 - b)))
        mu = spend * k * (c / (1.0 - b))
        np.multiply(-mu[:, None], w, out=d_spend)
        d_spend -= (pr.q0 / n) * alpha[:, None]
        d_spend.flat[:: n + 1] += (1.0 + pr.q) * alpha
        d_spend_h = (-a * b / (1.0 - b)) * k * spend
        col = d_spend.sum(axis=0)
        np.matmul(w[:, :-1].T, d_spend, out=goods)
        goods -= col / n
        goods *= -c
        goods -= v / n
        jac[:-2, :-1] = goods
        diag = np.arange(n - 1)
        jac[diag, diag] += v[:-1]
        jac[:-2, -1] = -c * (d_spend_h @ w[:, :-1] - d_spend_h.sum() / n)
        jac[-2, :-1] = -a * b * col
        jac[-2, -1] = np.exp(u[n]) - a * b * d_spend_h.sum()
    jac[-1, :-1] = 1.0
    jac[-1, -1] = 0.0
    return jac


def _clearing_known_jacobian(ctx: ClearingContext, parts: dict) -> tuple[np.ndarray, np.ndarray]:
    """Exact partials in the knowns y = (log x_sold, log p_lag, log z).

    Returns the (n+1) x 3n Jacobian of ``_residual_vector`` in y at fixed u,
    and the n x (4n+1) Jacobian of log x_next in (u, y).  ``parts`` are those
    ``_clearing_parts`` returned at u; the formulas are in its docstring.
    """
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, c, q, q0 = pr.a, pr.b, pr.c, pr.q, pr.q0
    spend, v = parts["spend"], parts["v_nominal"]
    g = pr.gamma * parts["xstar"] / parts["x_next"]
    k = (g - 1.0 + b) / b
    diag = np.arange(n)
    # I - A is lag_off off the diagonal and lag_diag on it.  Every block is
    # written with the floating-point operations of its dense form: a
    # diagonal block D gives W' D = W' * d[None, :] (one nonzero per sum)
    # with column sums d, so the arrays are those of the dense assembly.
    lag_off, lag_diag = q0 / n, q0 / n - q
    x_next_jac = np.zeros((n, 4 * n + 1))
    d_p = x_next_jac[:, :n]
    np.subtract(b * (0.0 - lag_off), c * w, out=d_p)
    d_p[diag, diag] = b * (1.0 - lag_diag) - c * w[diag, diag]
    d_p /= 1.0 - b
    d_p *= g[:, None]
    x_next_jac[:, n] = g * (-a * b / (1.0 - b))
    x_next_jac[diag, n + 1 + diag] = 1.0 - g
    d_lag = x_next_jac[:, 2 * n + 1:3 * n + 1]
    d_lag[:] = (g * (b * lag_off / (1.0 - b)))[:, None]
    d_lag[diag, diag] = g * (b * lag_diag / (1.0 - b))
    x_next_jac[diag, 3 * n + 1 + diag] = g * (1.0 / (1.0 - b))

    # d spend / dy = [diag(s_sold), diag(alpha) (I - A), diag(s_z)]
    alpha = spend * (1.0 + k * (b / (1.0 - b)))
    s_sold, s_z = spend * (1.0 - k), spend * k / (1.0 - b)
    d_spend_lag = np.empty((n, n))
    d_spend_lag[:] = (alpha * lag_off)[:, None]
    d_spend_lag[diag, diag] = alpha * lag_diag
    col = np.concatenate([s_sold, d_spend_lag.sum(axis=0), s_z])
    residual_jac = np.empty((n + 1, 3 * n))
    goods, w_t, rows = residual_jac[:-2], w[:, :-1].T, diag[:-1]
    np.multiply(w_t, s_sold, out=goods[:, :n])
    np.matmul(w_t, d_spend_lag, out=goods[:, n:2 * n])
    np.multiply(w_t, s_z, out=goods[:, 2 * n:])
    goods -= col / n
    goods *= -c
    # + diag(v) - v / n on the log x_sold block, the diagonal in one rounding
    on_diag = goods[rows, rows] + (v - v / n)[:-1]
    goods[:, :n] -= v / n
    goods[rows, rows] = on_diag
    residual_jac[-2] = -a * b * col
    residual_jac[-1] = 0.0
    return residual_jac, x_next_jac


def clearing_residual(log_p: np.ndarray, h: float, ctx: ClearingContext) -> np.ndarray:
    """(n+1)-vector of clearing residuals at a trial point (log p, h).

    The n goods equations sum to zero identically, so only the first n-1 are
    returned; the redundant one is replaced by the gauge residual
    sum(log p) - gauge_target.  Entry n-1 is the wage residual.
    """
    log_p = np.asarray(log_p, dtype=float)
    if h <= 0:
        raise ValueError("wage must be positive")
    return _residual_vector(_clearing_parts(ctx, log_p, np.log(h)))


def _solve_clearing(
    ctx: ClearingContext,
    log_p0: np.ndarray,
    log_h0: float,
    tol: float,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, float, dict, int, float]:
    """Damped Newton on u = (log p, log h) with the exact Jacobian per iteration.

    The Jacobian is assembled in ``work`` (see ``_clearing_jacobian``).
    Returns (log_p, log_h, parts-at-solution, iterations, max residual).
    Raises ClearingError on non-convergence; never returns a non-clearing
    point.
    """
    n = ctx.net.n
    u = np.concatenate([log_p0, [log_h0]])

    def residual_at(u_vec: np.ndarray) -> tuple[np.ndarray, dict]:
        parts = _clearing_parts(ctx, u_vec[:n], u_vec[n])
        return _residual_vector(parts), parts

    res, parts = residual_at(u)
    err = float(np.max(np.abs(res))) if np.all(np.isfinite(res)) else np.inf
    for iteration in range(NEWTON_MAX_ITER):
        if err < tol:
            return u[:n], float(u[n]), parts, iteration, err
        if not np.isfinite(err):
            raise ClearingError("non-finite clearing residual at the starting point",
                                residual=err, iterations=iteration)
        jac = _clearing_jacobian(ctx, u, parts, work)
        if not np.all(np.isfinite(jac)):
            raise ClearingError("non-finite clearing Jacobian", residual=err,
                                iterations=iteration)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ClearingError("singular clearing Jacobian", residual=err,
                                iterations=iteration) from exc

        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            trial = u + scale * delta
            trial_res, trial_parts = residual_at(trial)
            trial_err = (
                float(np.max(np.abs(trial_res)))
                if np.all(np.isfinite(trial_res))
                else np.inf
            )
            if trial_err < err:
                u, res, parts, err = trial, trial_res, trial_parts, trial_err
                break
            scale *= 0.5
        else:
            raise ClearingError(
                f"clearing solve stalled at residual {err:.3e} (damping floor)",
                residual=err, iterations=iteration,
            )
    if err < tol:
        return u[:n], float(u[n]), parts, NEWTON_MAX_ITER, err
    raise ClearingError(
        f"clearing solve did not converge in {NEWTON_MAX_ITER} iterations "
        f"(residual {err:.3e})",
        residual=err, iterations=NEWTON_MAX_ITER,
    )


# ---------------------------------------------------------------------------
# dynamic state and the step map
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EconomyState:
    """Cleared state of the economy at time t.

    x is the quantity sold at t (decided at t-1), p the prices cleared at t
    (feeding the next step's forecast), lam the Lagrange multipliers, x_next
    the production decided at t for t+1, h the wage and M household wealth,
    which may be non-positive once the economy has broken down.  The factor
    demands ``ell`` (labor) and ``psi`` (the dense n x n intermediate inputs)
    are derived from these fields and the network on each access; no step
    computes them.
    """

    t: int
    x: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    x_next: np.ndarray
    h: float
    M: float
    net: IONetwork
    params: ModelParams
    newton_iters: int = 0
    max_residual: float = 0.0

    @property
    def ell(self) -> np.ndarray:
        """Labor inputs ell[i] = a b lam_i x_next_i / h."""
        return self.params.a * self.params.b * (self.lam * self.x_next) / self.h

    @property
    def psi(self) -> np.ndarray:
        """Intermediate inputs psi[i, j] = (1-a) b w_ij lam_i x_next_i / p_j."""
        spend = self.lam * self.x_next
        return self.params.c * self.net.w * spend[:, None] / self.p[None, :]


@dataclass(frozen=True)
class NoiseProcess:
    """I.i.d. Gaussian shocks on log-productivity, one n-vector per step.

    Zero mean, variance sigma^2 per component, independent across components
    and steps.  The draws are sigma times a standard normal stream so that
    runs with the same seed and different sigma see proportional shocks.
    """

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


@dataclass(eq=False)
class Trajectory:
    """Per-step observables of one simulation run.

    xi holds the per-sector log-deviations of sold quantities from
    equilibrium, one row per recorded step.  mean_xi is their flat average
    (the aggregate used for volatility work) and output_real the real output
    at equilibrium prices, sum_i V_eq[i] exp(xi[i]).
    """

    t: np.ndarray
    xi: np.ndarray
    output_real: np.ndarray
    mean_xi: np.ndarray
    consumption_real: np.ndarray
    wage: np.ndarray
    price_level: np.ndarray
    newton_iters: np.ndarray
    max_residual: np.ndarray
    burn_in: int
    config_hash: str
    output_eq: float
    consumption_eq: float

    def __len__(self) -> int:
        return len(self.t)


class Simulator:
    """Step engine bound to one (network, params) configuration.

    Solves and caches the equilibrium once.  Each engine owns the workspace
    its clearing Newton solve assembles the Jacobian in, and the RNG is owned
    by the caller: one engine per concurrent worker is safe, one engine
    stepped from two threads at once is not.
    """

    def __init__(self, net: IONetwork, params: ModelParams, tol: float = NEWTON_TOL):
        self.net = net
        self.params = params
        self.equilibrium = solve_equilibrium(net, params)
        self.gauge_target = float(np.sum(np.log(self.equilibrium.p_eq)))
        self.tol = tol
        self._work = _jacobian_workspace(net.n)

    def equilibrium_state(self) -> EconomyState:
        """The stationary state corresponding to the solved equilibrium."""
        eq, pr = self.equilibrium, self.params
        lam = pr.beta0 * eq.p_eq
        m = float(np.sum(eq.V_eq)) - pr.c * float(np.sum(lam * eq.x_eq))
        return EconomyState(
            t=0,
            x=eq.x_eq.copy(),
            p=eq.p_eq.copy(),
            lam=lam,
            x_next=eq.x_eq.copy(),
            h=eq.h_eq,
            M=m,
            net=self.net,
            params=pr,
        )

    def context_for(self, state: EconomyState, shock: np.ndarray) -> ClearingContext:
        """Clearing context for the step following ``state``."""
        return ClearingContext(
            net=self.net,
            params=self.params,
            x_sold=state.x_next,
            p_lag=state.p,
            z=np.exp(np.asarray(shock, dtype=float)),
            gauge_target=self.gauge_target,
        )

    def step(self, state: EconomyState, shock: np.ndarray) -> EconomyState:
        """Advance one period: draw-in the shock, clear all markets, rebuild state."""
        ctx = self.context_for(state, shock)
        try:
            log_p, log_h, parts, iters, err = _solve_clearing(
                ctx, np.log(state.p), np.log(state.h), self.tol, self._work
            )
        except ClearingError:
            # deep in the chaotic phase the warm start can sit in a bad basin;
            # retry once from the flat gauge-consistent price vector
            try:
                log_p, log_h, parts, iters, err = _solve_clearing(
                    ctx,
                    np.full(self.net.n, self.gauge_target / self.net.n),
                    np.log(self.equilibrium.h_eq),
                    self.tol,
                    self._work,
                )
            except ClearingError as exc:
                exc.t = state.t + 1
                raise
        # wealth: nominal sales minus intermediate-input spending
        m = float(np.sum(parts["v_nominal"])) - self.params.c * float(np.sum(parts["spend"]))
        return EconomyState(
            t=state.t + 1,
            x=ctx.x_sold,
            p=np.exp(log_p),
            lam=parts["lam"],
            x_next=parts["x_next"],
            h=float(np.exp(log_h)),
            M=m,
            net=self.net,
            params=self.params,
            newton_iters=iters,
            max_residual=err,
        )

    def simulate(
        self,
        noise: NoiseProcess,
        steps: int,
        burn_in: int = 0,
        initial_kick: float = 1e-6,
        config_hash: str = "",
    ) -> Trajectory:
        """Run ``steps`` periods from the kicked equilibrium; record all steps.

        The initial condition is the equilibrium with a uniform random
        log-perturbation of scale ``initial_kick`` on the predetermined
        production, so the unstable phase is excited even at sigma = 0.
        Fully deterministic for a fixed seed.  ``config_hash`` is the stamp
        ``trajectory_to_csv`` writes; empty, the CSV is unstamped.  The run
        stops with ClearingError, naming the step, where no state clears,
        household wealth is non-positive or an observable is non-finite.
        """
        if not steps > burn_in >= 0:
            raise ValueError("need steps > burn_in >= 0")
        rng = np.random.default_rng(noise.seed)
        state = self.equilibrium_state()
        # the uniform draw always happens so the shock stream does not depend
        # on whether a kick was requested
        kick = rng.uniform(-1.0, 1.0, self.net.n) * initial_kick
        state.x_next = state.x_next * np.exp(kick)

        eq = self.equilibrium
        n = self.net.n
        log_x_eq = np.log(eq.x_eq)
        inv_n = 1.0 / n
        output_eq = float(np.sum(eq.V_eq))
        m_eq = output_eq - self.params.c * self.params.beta0 * output_eq
        consumption_eq = float(m_eq * inv_n * np.sum(1.0 / eq.p_eq))

        cols = {
            name: np.empty(steps)
            for name in (
                "output_real", "mean_xi", "consumption_real", "wage",
                "price_level", "max_residual",
            )
        }
        iters = np.empty(steps, dtype=int)
        xi_all = np.empty((steps, n))
        for k in range(steps):
            shock = noise.sigma * rng.standard_normal(n)
            state = self.step(state, shock)
            # the economy has broken down once wealth is gone or an
            # observable overflows: stop at that step
            if not state.M > 0:
                raise ClearingError(f"household wealth {state.M:.3e} is not positive",
                                    t=state.t, residual=state.max_residual)
            xi = np.log(state.x) - log_x_eq
            xi_all[k] = xi
            cols["output_real"][k] = float(np.sum(eq.V_eq * np.exp(xi)))
            cols["mean_xi"][k] = float(xi.sum()) / n
            cols["consumption_real"][k] = state.M * inv_n * float(np.sum(1.0 / state.p))
            cols["wage"][k] = state.h
            cols["price_level"][k] = float(np.exp(float(np.sum(np.log(state.p))) / n))
            iters[k] = state.newton_iters
            cols["max_residual"][k] = state.max_residual
            # mean_xi is non-finite whenever some sector's xi is
            bad = [name for name, col in cols.items() if not math.isfinite(col[k])]
            if bad:
                raise ClearingError(f"non-finite {', '.join(bad)}", t=state.t,
                                    residual=state.max_residual)
        return Trajectory(
            t=np.arange(1, steps + 1),
            xi=xi_all,
            output_real=cols["output_real"],
            mean_xi=cols["mean_xi"],
            consumption_real=cols["consumption_real"],
            wage=cols["wage"],
            price_level=cols["price_level"],
            newton_iters=iters,
            max_residual=cols["max_residual"],
            burn_in=burn_in,
            config_hash=config_hash,
            output_eq=output_eq,
            consumption_eq=consumption_eq,
        )


def trajectory_to_csv(traj: Trajectory, path, per_sector: bool = False) -> None:
    """Write one row per retained step; header carries the config hash."""
    names = ["t", "aggregate_output", "mean_xi", "consumption_real", "wage",
             "price_level", "newton_iters", "max_residual"]
    columns = [traj.t, traj.output_real, traj.mean_xi, traj.consumption_real,
               traj.wage, traj.price_level, traj.newton_iters, traj.max_residual]
    if per_sector:
        names += [f"xi_{i + 1}" for i in range(traj.xi.shape[1])]
        columns += [traj.xi[:, i] for i in range(traj.xi.shape[1])]
    write_csv(path, names, zip(*columns), traj.config_hash, [f"burn_in={traj.burn_in}"])
