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
``_clearing_known_jacobian`` (in the knowns, in their dense form), from the
same parts; the linear stability analysis differentiates ``Simulator.step``
through them, the partials in the knowns written into the blocks of its one
step matrix (``stability._step_matrix``).
``Simulator.step`` builds the cleared state from that kernel's parts at the
solution, household wealth included, non-positive or not (``simulate`` ends
a run there); the factor demands ``ell`` and ``psi`` are derived from the
state on access and never stored.

Economies of one network that differ only in the adjustment speed gamma and
in their shocks step in lockstep as an ``Ensemble``: the kernel and the Newton
solve carry a leading member axis, and every per-member operation is written
in a form whose bits do not depend on the other members (row reductions,
stacked matrix products and solves).  A member's run is therefore the run it
has alone; ``Simulator`` is the ensemble of one.

From ``CHORD_MIN_N`` firms on (the crossover measured in README), where the
O(n^3) Jacobian and its LU are the whole cost of a step, each member keeps
the LU factorization of its last clearing Jacobian from iteration to
iteration and from step to step, and takes chord steps with it, each one
O(n^2) back-substitution and one residual evaluation; the Jacobian is
rebuilt and refactored only when a chord step does not cut the residual by
``CHORD_CONTRACTION`` (``_solve_clearing``).  Below it the solve, and every
bit of its output, is the exact damped Newton iteration.  Either way the
Jacobians of one iteration are assembled in one batched call; a member's
factorization sits in its own LU slot of its engine's workspace, so it does
not depend on the other members, and ``simulate`` starts every run without
one, so a run's bits depend only on its inputs.  Above the constant a
trajectory differs from the exact iteration's at rounding level: every
state still clears to the solve's tolerance.  LAPACK (``scipy.linalg.lapack``)
is imported with the first chord solve: a run below the constant loads no scipy.

The tolerance is scaled to the problem.  The wage and gauge residuals are
differences of numbers that grow with n (h = a b sum(spend), and sum(log p)),
so their rounding floor grows too: at n = 2048 it passes 1e-12.  A member
converges once its max residual is below max(tol, ``RESIDUAL_FLOOR`` *
scale), ``RESIDUAL_FLOOR`` = 2 eps and scale the larger of h and
sum|log p| at the start of its solve, the warm start being the last
cleared state (``_tolerances``).  spend at the start is left out: it is
formed at the new x_sold before any clearing, and far from the solution it
can be orders above h.  Where the floor is below ``tol``, as for every n up
to 256 at the default tol, the tolerance is ``tol`` exactly.

The overall price level is not pinned by the simultaneous clearing equations
(the n goods equations are linearly dependent), so the solver imposes a gauge:
the sum of log-prices is held at its equilibrium value.  With q = q0 the gauge
is irrelevant for all real quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .csvio import write_csv
from .equilibrium import ModelParams, solve_equilibrium
from .network import IONetwork

__all__ = [
    "ClearingContext",
    "ClearingError",
    "EconomyState",
    "Ensemble",
    "NUMERICAL_FAILURES",
    "NoiseProcess",
    "Simulator",
    "Trajectory",
    "clearing_residual",
    "trajectory_to_csv",
]

NEWTON_TOL = 1e-12
# the residual's rounding floor per unit of its rows' scale (module docstring)
RESIDUAL_FLOOR = 2.0 * float(np.finfo(float).eps)
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 25
# chord steps from this many firms on (module docstring)
CHORD_MIN_N = 96
# a chord step is kept only when it cuts the max residual by this factor
CHORD_CONTRACTION = 0.5


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

    def __reduce__(self):
        # a sweep worker process sends the error back with its step and record
        return type(self), (self.args[0], self.t, self.residual, self.iterations)


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
    gauge_target the pinned value of sum(log p).  gamma is the adjustment
    speed, ``params.gamma`` when not given.  For several economies of one
    network, x_sold, p_lag and z carry a leading member axis, and gamma is
    either shared or a column with one value per member; the other
    parameters are shared.
    """

    net: IONetwork
    params: ModelParams
    x_sold: np.ndarray
    p_lag: np.ndarray
    z: np.ndarray
    gauge_target: float
    gamma: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.gamma is None:
            object.__setattr__(self, "gamma", self.params.gamma)

    @cached_property
    def log_p_lag(self) -> np.ndarray:
        return np.log(self.p_lag)

    @cached_property
    def log_z(self) -> np.ndarray:
        return np.log(self.z)

    def members(self, rows: np.ndarray) -> ClearingContext:
        """The context of the members ``rows`` (indices or a slice on the member
        axis)."""
        gamma = self.gamma[rows] if np.ndim(self.gamma) else self.gamma
        return ClearingContext(self.net, self.params, self.x_sold[rows], self.p_lag[rows],
                               self.z[rows], self.gauge_target, gamma)


def _clearing_parts(ctx: ClearingContext, log_p: np.ndarray, log_h) -> dict:
    """Evaluate the per-step rules of the firms at a trial point (log p, log h).

    log_p has the shape of ``ctx.x_sold`` and log_h one value per member (a
    scalar for one economy); per-member values of the parts keep that shape.
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
    at the solution, by the step.

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
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, q, q0, gamma = pr.a, pr.b, pr.q, pr.q0, ctx.gamma
    log_h = np.asarray(log_h)
    # row sums and stacked matrix-vector products give each member the bits
    # it has alone; sum() / n rather than mean(): the same bits without
    # mean()'s call overhead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dlp = log_p - ctx.log_p_lag
        log_beta = np.log(pr.beta0) - q0 * (dlp.sum(axis=-1) / n)
        log_ep = log_p + q * dlp
        log_discounted = log_beta[..., None] + log_ep
        log_xstar = (
            ctx.log_z + b * log_discounted - a * b * log_h[..., None]
            - pr.c * np.matmul(w, log_p[..., None])[..., 0]
        ) / (1.0 - b)
        xstar = np.exp(log_xstar)
        x_next = (1.0 - gamma) * ctx.x_sold + gamma * xstar
        lam = np.exp(log_discounted) * (x_next / xstar) ** ((1.0 - b) / b)
        spend = lam * x_next
        total_spend = spend.sum(axis=-1)
        v_nominal = ctx.x_sold * np.exp(log_p)
        goods = ((v_nominal - v_nominal.sum(axis=-1)[..., None] / n)
                 - pr.c * (np.matmul(spend[..., None, :], w)[..., 0, :]
                           - total_spend[..., None] / n))
        wage = np.exp(log_h) - a * b * total_spend
        gauge = log_p.sum(axis=-1) - ctx.gauge_target
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
    """Square residual, per member: n-1 goods equations, the wage equation,
    the gauge."""
    return np.concatenate([parts["goods"][..., :-1], parts["wage"][..., None],
                           parts["gauge"][..., None]], axis=-1)


def _jacobian_workspace(n: int, members: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers for ``_clearing_jacobian`` for up to ``members`` economies:
    per member the (n+1)^2 Jacobian, the n^2 d spend / dlog p and the
    (n-1) x n goods block in log p, contiguous so that the elementwise passes
    over them run as one flat loop.  ``np.empty`` touches no page until they
    are written."""
    return (np.empty((members, n + 1, n + 1)), np.empty((members, n, n)),
            np.empty((members, n - 1, n)))


class _Workspace:
    """What an engine's clearing solves reuse, per member slot: the
    ``_jacobian_workspace`` buffers, an (n+1)^2 LU slot and the held LU
    factorization (chord steps: module docstring; None when none), factored
    in place in the member's LU slot, so holding one allocates nothing and
    a batched Jacobian assembly does not overwrite it."""

    def __init__(self, n: int, members: int = 1):
        self.jacobian = _jacobian_workspace(n, members)
        self.lu = np.empty((members, n + 1, n + 1))
        self.factors: list[tuple[np.ndarray, np.ndarray] | None] = [None] * members

    def discard(self) -> None:
        """Forget every held factorization: a run starts from none."""
        self.factors = [None] * len(self.factors)


def _clearing_jacobian(ctx: ClearingContext, u: np.ndarray, parts: dict,
                       work: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact (n+1) x (n+1) Jacobian of ``_residual_vector`` in u = (log p, log h),
    one per row of a 2-D u.

    ``parts`` are those ``_clearing_parts`` returned at u; the formulas are
    in its docstring.  The one O(n^3) term is W' (d spend / dlog p).

    The Jacobians are assembled in place in ``work``, the buffers of
    ``_jacobian_workspace``: in its leading len(u) slots for a 2-D u, in the
    first for one economy.  Those slots are returned.  Every entry is written
    anew, so a reused workspace carries nothing over from an earlier call,
    and no n^2 array is allocated.  A caller that keeps the result passes
    fresh buffers.
    """
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, c = pr.a, pr.b, pr.c
    spend, v = parts["spend"], parts["v_nominal"]
    jac, d_spend, goods = [buf[:len(u)] if u.ndim > 1 else buf[0] for buf in work]
    with np.errstate(over="ignore", invalid="ignore"):
        k = (ctx.gamma * parts["xstar"] / parts["x_next"] - 1.0 + b) / b
        alpha = spend * (1.0 + k * (b / (1.0 - b)))
        mu = spend * k * (c / (1.0 - b))
        np.multiply(-mu[..., None], w, out=d_spend)
        d_spend -= (pr.q0 / n) * alpha[..., None]
        # diagonals are written through flat views of the contiguous slots
        d_spend.reshape(-1, n * n)[:, :: n + 1] += (1.0 + pr.q) * alpha
        d_spend_h = (-a * b / (1.0 - b)) * k * spend
        col = d_spend.sum(axis=-2)
        np.matmul(w[:, :-1].T, d_spend, out=goods)
        goods -= col[..., None, :] / n
        goods *= -c
        goods -= v[..., None, :] / n
        jac[..., :-2, :-1] = goods
        jac.reshape(-1, (n + 1) ** 2)[:, :(n - 1) * (n + 2):n + 2] += v[..., :-1]
        jac[..., :-2, -1] = -c * (np.matmul(d_spend_h[..., None, :], w[:, :-1])[..., 0, :]
                                  - d_spend_h.sum(axis=-1)[..., None] / n)
        jac[..., -2, :-1] = -a * b * col
        jac[..., -2, -1] = np.exp(u[..., n]) - a * b * d_spend_h.sum(axis=-1)
    jac[..., -1, :-1] = 1.0
    jac[..., -1, -1] = 0.0
    return jac


def _clearing_known_jacobian(ctx: ClearingContext, parts: dict, residual_jac: np.ndarray,
                             x_next_jac: np.ndarray) -> None:
    """Exact partials in the knowns y = (log x_sold, log p_lag, log z).

    Writes the (n+1) x 3n Jacobian of ``_residual_vector`` in y at fixed u
    into ``residual_jac`` and the n x (4n+1) Jacobian of log x_next in (u, y)
    into ``x_next_jac``: arrays, or views of one, such as the blocks of the
    stability module's step matrix.  Every entry is written.  Each block is
    formed dense (``np.eye``, ``np.diag``) and the blocks are joined with
    ``np.hstack``, so the call allocates a few n x 4n arrays.  ``parts``
    are those ``_clearing_parts`` returned at u; the formulas are in its
    docstring.
    """
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, c, q, q0 = pr.a, pr.b, pr.c, pr.q, pr.q0
    spend, v = parts["spend"], parts["v_nominal"]
    g = ctx.gamma * parts["xstar"] / parts["x_next"]
    k = (g - 1.0 + b) / b
    eye = np.eye(n)
    lag = q0 / n - q * eye  # I - A
    d_xstar = np.hstack([
        b * (eye - lag) - c * w, np.full((n, 1), -a * b), np.zeros((n, n)), b * lag, eye,
    ]) / (1.0 - b)
    np.multiply(g[:, None], d_xstar, out=x_next_jac)
    x_next_jac[:, n + 1:2 * n + 1] += np.diag(1.0 - g)
    d_spend = np.hstack([
        np.diag(spend * (1.0 - k)),
        (spend * (1.0 + k * (b / (1.0 - b))))[:, None] * lag,
        np.diag(spend * k / (1.0 - b)),
    ])
    goods = -c * (w.T @ d_spend - d_spend.mean(axis=0))
    goods[:, :n] += np.diag(v) - v / n
    residual_jac[:-2] = goods[:-1]
    residual_jac[-2] = -a * b * d_spend.sum(axis=0)
    residual_jac[-1] = 0.0


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


# the parts the Newton solve keeps at each member's accepted point: those the
# Jacobian and the cleared state read
_SOLUTION_PARTS = ("xstar", "x_next", "lam", "spend", "v_nominal")


def _residual_at(ctx: ClearingContext, u: np.ndarray) -> tuple[np.ndarray, dict]:
    n = ctx.net.n
    parts = _clearing_parts(ctx, u[..., :n], u[..., n])
    return _residual_vector(parts), parts


def _max_error(res: np.ndarray) -> np.ndarray:
    """Max-norm of each member's residual, inf where an entry is not finite
    (the max propagates NaN, and an infinite entry is the max)."""
    err = np.abs(res).max(axis=-1)
    err[np.isnan(err)] = np.inf
    return err


def _tolerances(ctx: ClearingContext, u: np.ndarray, tol: float) -> list[float]:
    """Each member's convergence tolerance, max(tol, RESIDUAL_FLOOR * scale),
    scale the larger of h and sum|log p| at the starting point u (module
    docstring)."""
    n = ctx.net.n
    scale = np.maximum(np.exp(u[..., n]), np.abs(u[..., :n]).sum(axis=-1))
    return np.maximum(tol, RESIDUAL_FLOOR * scale).tolist()


def _solve_clearing(
    ctx: ClearingContext,
    u: np.ndarray,
    tol: float,
    work: _Workspace,
    slots: list[int],
    active: list[int] | None = None,
) -> tuple[np.ndarray, dict, list[int], np.ndarray, list[int], list[int], dict]:
    """Damped Newton on u = (log p, log h), one row per member, with the exact
    Jacobian; from ``CHORD_MIN_N`` firms on, with chord steps in between
    (module docstring).

    Each member iterates as it would alone, with its own residual, step
    length, iteration count and factorization.  Every member keeps its row:
    one that has converged or failed takes no further step.  Only the
    members listed in ``active`` (all by default) are solved; the others
    keep their row of u.  Row r is the member in slot ``slots[r]`` of
    ``work``; the u passed in may be overwritten.

    A member's chord step is kept if it cuts that member's max residual by
    ``CHORD_CONTRACTION``; otherwise, or without a held factorization
    (``work.factors``), the member takes the damped Newton step from the
    same point, and that Jacobian's factorization replaces the held one.
    Either way the pass counts as one iteration, and a member converges
    only at a true residual below its tolerance, ``tol`` raised to the
    rounding floor of its rows at the starting point (``_tolerances``).  A
    failed member's factorization is discarded.

    The members that take a Newton step get their Jacobians from one
    batched ``_clearing_jacobian`` call, with one non-finite check.  Only
    the linear solve differs: below ``CHORD_MIN_N`` one stacked solve;
    from it on, each member's Jacobian is copied into its LU slot
    (``work.lu``), factored there in place and held.  A chord trial and a
    line-search trial are evaluated and taken by one helper: a chord step is
    kept at a residual at most ``CHORD_CONTRACTION`` times the member's, a
    damped step at one below it.

    Returns (u, the ``_SOLUTION_PARTS`` at u, iterations, max residuals,
    damping halvings, Jacobian factorizations, ClearingError by failed
    member); every solved member without a failure clears to its tolerance.
    """
    count, chord = len(u), ctx.net.n >= CHORD_MIN_N
    if chord:
        # here, not at import: below CHORD_MIN_N no step reads LAPACK directly
        from scipy.linalg.lapack import dgetrf, dgetrs
    res, all_parts = _residual_at(ctx, u)
    parts = {key: all_parts[key] for key in _SOLUTION_PARTS}
    tols = _tolerances(ctx, u, tol)
    err = _max_error(res)
    # the per-member bookkeeping is in Python lists: a member's scalars cost
    # less there than in one-element arrays
    errs = err.tolist()
    going = list(range(count)) if active is None else list(active)
    iterations, halvings, factored = [0] * count, [0] * count, [0] * count
    failures: dict[int, ClearingError] = {}

    def fail(members: list[int], message: str, iteration: int) -> None:
        for r in members:
            failures[r] = ClearingError(message.format(err=errs[r]), residual=errs[r],
                                        iterations=iteration)
            work.factors[slots[r]] = None
        going[:] = [r for r in going if r not in failures]

    def move(trial: np.ndarray, searchers: list[int], everyone: int, accepts) -> list[int]:
        # evaluate the trial; the members of ``searchers`` whose trial error
        # ``accepts(new, old)`` move to their rows of it, and are returned.
        # When they are all ``everyone`` members with a step in the trial,
        # every other row of it is its member's own point (a zero step), so
        # the trial arrays are taken as they are; otherwise the winners' rows
        # are copied
        nonlocal u, res, err, errs, parts
        trial_res, trial_parts = _residual_at(ctx, trial)
        trial_err = _max_error(trial_res)
        trial_errs = trial_err.tolist()
        won = [r for r in searchers if accepts(trial_errs[r], errs[r])]
        if len(won) == everyone:
            u, res, err, errs = trial, trial_res, trial_err, trial_errs
            parts = {key: trial_parts[key] for key in _SOLUTION_PARTS}
        elif won:
            u[won], res[won], err[won] = trial[won], trial_res[won], trial_err[won]
            for key in _SOLUTION_PARTS:
                parts[key][won] = trial_parts[key][won]
            for r in won:
                errs[r] = trial_errs[r]
        return won

    # an accepted step lowers a finite error, so only the start can be non-finite
    fail([r for r in going if not errs[r] < np.inf],
         "non-finite clearing residual at the starting point", 0)
    for iteration in range(NEWTON_MAX_ITER + 1):
        for r in going:
            if errs[r] < tols[r]:
                iterations[r] = iteration
        going[:] = [r for r in going if not errs[r] < tols[r]]
        if iteration == NEWTON_MAX_ITER:
            fail(going, f"clearing solve did not converge in {NEWTON_MAX_ITER} iterations "
                 "(residual {err:.3e})", iteration)
        if not going:
            break
        rows = list(going)
        held = [r for r in rows if work.factors[slots[r]] is not None] if chord else []
        if held:
            # chord steps with the held factorizations (LU of J', solved
            # transposed), kept where they contract
            trial = u.copy()
            for r in held:
                lu, piv = work.factors[slots[r]]
                trial[r] += dgetrs(lu, piv, -res[r], trans=1)[0]
            won = move(trial, held, len(held),
                       lambda new, old: new <= CHORD_CONTRACTION * old)
            rows = [r for r in rows if r not in won]
            if not rows:
                continue
        every = len(rows) == count
        for r in rows:
            factored[r] += 1
        jac = _clearing_jacobian(
            ctx if every else ctx.members(rows), u if every else u[rows],
            parts if every else {key: value[rows] for key, value in parts.items()},
            work.jacobian)
        # one pass with no temporary: a sum is finite when every entry is
        # (a sum of finite entries that overflows costs only the exact check)
        if not np.isfinite(jac.sum()):
            finite = np.isfinite(jac).all(axis=(-2, -1))
            fail([r for r, ok in zip(rows, finite.tolist()) if not ok],
                 "non-finite clearing Jacobian", iteration)
            jac[~finite] = np.eye(jac.shape[-1])
        rhs = -(res if every else res[rows])
        if chord:
            # each member factors in its own LU slot and holds the factors
            step = np.zeros_like(rhs)
            for j, r in enumerate(rows):
                if r in failures:
                    continue
                slot = work.lu[slots[r]]
                slot[...] = jac[j]
                lu, piv, info = dgetrf(slot.T, overwrite_a=1)
                if info > 0:
                    fail([r], "singular clearing Jacobian", iteration)
                    continue
                work.factors[slots[r]] = lu, piv
                step[j] = dgetrs(lu, piv, rhs[j], trans=1)[0]
        else:
            try:
                step = np.linalg.solve(jac, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # some member's Jacobian is singular: find it and take it out
                singular = []
                for j, matrix in enumerate(jac):
                    try:
                        np.linalg.solve(matrix, rhs[j])
                    except np.linalg.LinAlgError:
                        singular.append(j)
                fail([rows[j] for j in singular], "singular clearing Jacobian", iteration)
                jac[singular] = np.eye(jac.shape[-1])
                step = np.linalg.solve(jac, rhs[..., None])[..., 0]
        # the members still searching have all halved their step equally
        # often, so one scale serves them all
        search = [r for r in rows if r not in failures]
        if not search:
            continue
        if every:
            delta = step
        else:
            # the members out of the search stay where they are
            delta = np.zeros_like(u)
            delta[rows] = step
        # everyone is counted once: after a partial acceptance the later
        # trials also move the members that accepted, so none is taken whole
        scale, everyone = 1.0, len(search)
        for _ in range(NEWTON_MAX_HALVINGS):
            # (a member that failed in this iteration may take a point it
            # does not use)
            won = move(u + scale * delta, search, everyone, lambda new, old: new < old)
            search = [r for r in search if r not in won]
            if not search:
                break
            for r in search:
                halvings[r] += 1
            scale *= 0.5
        else:
            fail(search, "clearing solve stalled at residual {err:.3e} (damping floor)", iteration)
    return u, parts, iterations, err, halvings, factored, failures


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
    computes them.  The solver counters describe the clearing solve that
    produced the state: its iterations (chord or Newton), step-length
    halvings and Jacobian factorizations, and whether it had to restart from
    the flat price vector.
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
    damping_halvings: int = 0
    factorizations: int = 0
    flat_restarts: int = 0

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
    at equilibrium prices, sum_i V_eq[i] exp(xi[i]).  newton_iters,
    damping_halvings, factorizations and flat_restarts are the solver
    counters of each step (see ``EconomyState``); the CSV carries only the
    first.
    """

    t: np.ndarray
    xi: np.ndarray
    output_real: np.ndarray
    mean_xi: np.ndarray
    consumption_real: np.ndarray
    wage: np.ndarray
    price_level: np.ndarray
    newton_iters: np.ndarray
    damping_halvings: np.ndarray
    factorizations: np.ndarray
    flat_restarts: np.ndarray
    max_residual: np.ndarray
    burn_in: int
    config_hash: str
    output_eq: float
    consumption_eq: float

    def __len__(self) -> int:
        return len(self.t)


def _step_members(sim: Simulator, params: list[ModelParams], states: list[EconomyState],
                  shocks: np.ndarray, work: _Workspace,
                  slots: list[int]) -> list[EconomyState | ClearingError]:
    """One period for every member: state i, under ``params[i]`` and log
    productivities ``shocks[i]``, clears all markets in slot ``slots[i]`` of
    ``work``.

    ``sim`` supplies the network, the shared parameters, the gauge and the
    tolerance; the members' params differ at most in gamma.  Each returned
    entry is the member's cleared state or, where no state clears, its
    ClearingError naming the step.
    """
    n = sim.net.n
    gammas = [member.gamma for member in params]
    ctx = ClearingContext(
        net=sim.net,
        params=sim.params,
        x_sold=np.array([state.x_next for state in states]),
        p_lag=np.array([state.p for state in states]),
        z=np.exp(shocks),
        gauge_target=sim.gauge_target,
        # one gamma for all stays a scalar, as in a single economy's context
        gamma=gammas[0] if len(set(gammas)) == 1 else np.array(gammas)[:, None],
    )
    u = np.concatenate([ctx.log_p_lag, np.log([[state.h] for state in states])], axis=1)
    u, parts, iters, err, halvings, factored, failures = _solve_clearing(
        ctx, u, sim.tol, work, slots)
    restarts = [0] * len(states)
    if failures:
        # deep in the chaotic phase the warm start can sit in a bad basin;
        # retry the failed members once from the flat gauge-consistent price
        # vector (the others keep their solution)
        retry = sorted(failures)
        u[retry] = np.append(np.full(n, sim.gauge_target / n), np.log(sim.equilibrium.h_eq))
        u, parts, iters_flat, err, halvings_flat, factored_flat, failures = _solve_clearing(
            ctx, u, sim.tol, work, slots, active=retry)
        for i in retry:
            iters[i], halvings[i], factored[i] = iters_flat[i], halvings_flat[i], factored_flat[i]
            restarts[i] = 1
    levels = np.exp(u)  # prices and the wage
    # wealth: nominal sales minus intermediate-input spending
    m = parts["v_nominal"].sum(axis=-1) - sim.params.c * parts["spend"].sum(axis=-1)
    cleared: list[EconomyState | ClearingError] = []
    for i, (state, h, wealth, it, e, halved, factors, restarted) in enumerate(zip(
            states, levels[:, n].tolist(), m.tolist(), iters, err.tolist(), halvings,
            factored, restarts)):
        if i in failures:
            failures[i].t = state.t + 1
            cleared.append(failures[i])
            continue
        cleared.append(EconomyState(
            t=state.t + 1,
            x=ctx.x_sold[i],
            p=levels[i, :n],
            lam=parts["lam"][i],
            x_next=parts["x_next"][i],
            h=h,
            M=wealth,
            net=sim.net,
            params=params[i],
            newton_iters=it,
            max_residual=e,
            damping_halvings=halved,
            factorizations=factors,
            flat_restarts=restarted,
        ))
    return cleared


# the per-step observables a run records, in the order a non-finite one is named
_OBSERVABLES = ("output_real", "mean_xi", "consumption_real", "wage", "price_level",
                "max_residual")
_COUNTERS = ("newton_iters", "damping_halvings", "factorizations", "flat_restarts")


def _run(sim: Simulator, params: list[ModelParams], noises: list[NoiseProcess], steps: int,
         burn_in: int, initial_kick: float, step,
         config_hash: str) -> list[Trajectory | ClearingError]:
    """The time loop: ``steps`` periods of every member from its kicked
    equilibrium, member i under ``params[i]`` and driven by ``noises[i]``.

    ``sim`` supplies the equilibrium every member starts from; the members'
    params differ from its own at most in gamma, which the equilibrium does
    not depend on.

    ``step(states, shocks, members)`` advances the states of the live
    ``members`` (indices into ``params``) one period and returns, per member,
    the new state or the ClearingError that stopped it.
    A member also stops where household wealth is non-positive or an
    observable is non-finite; the others run on.  Returns per member its
    Trajectory, stamped with ``config_hash``, or its ClearingError.  An
    exception that ``step`` raises ends the loop for every member.
    """
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")
    eq, n, count = sim.equilibrium, sim.net.n, len(params)
    rngs = [np.random.default_rng(noise.seed) for noise in noises]
    states = []
    for member, rng in zip(params, rngs):
        state = sim.equilibrium_state()
        state.params = member
        # the uniform draw always happens so the shock stream does not depend
        # on whether a kick was requested
        kick = rng.uniform(-1.0, 1.0, n) * initial_kick
        state.x_next = state.x_next * np.exp(kick)
        states.append(state)
    sigmas = [noise.sigma for noise in noises]

    log_x_eq = np.log(eq.x_eq)
    inv_n = 1.0 / n
    output_eq = float(np.sum(eq.V_eq))
    m_eq = output_eq - sim.params.c * sim.params.beta0 * output_eq
    consumption_eq = float(m_eq * inv_n * np.sum(1.0 / eq.p_eq))

    observed = np.empty((len(_OBSERVABLES), count, steps))
    counted = np.empty((len(_COUNTERS), count, steps), dtype=int)
    xi_all = np.empty((count, steps, n))
    outcomes: list[Trajectory | ClearingError | None] = [None] * count
    # the live members' indices, in a list: a lone member's costs less there
    # than in a one-element array
    live = list(range(count))
    for k in range(steps):
        shocks = np.array([sigmas[i] * rngs[i].standard_normal(n) for i in live])
        states = step(states, shocks, live)
        # the economy has broken down once wealth is gone
        if not all(isinstance(new, EconomyState) and new.M > 0 for new in states):
            for i, new in zip(live, states):
                if isinstance(new, ClearingError):
                    outcomes[i] = new
                elif not new.M > 0:
                    outcomes[i] = ClearingError(f"household wealth {new.M:.3e} is not positive",
                                                t=new.t, residual=new.max_residual)
            states = [new for i, new in zip(live, states) if outcomes[i] is None]
            live = [i for i in live if outcomes[i] is None]
            if not live:
                break
        rows = slice(None) if len(live) == count else live
        x = np.array([state.x for state in states])
        p = np.array([state.p for state in states])
        xi = np.log(x) - log_x_eq
        xi_all[rows, k] = xi
        values = observed[:, rows, k]
        values[0] = (eq.V_eq * np.exp(xi)).sum(axis=-1)
        values[1] = xi.sum(axis=-1) / n
        values[2] = np.array([state.M for state in states]) * inv_n * (1.0 / p).sum(axis=-1)
        values[3] = [state.h for state in states]
        values[4] = np.exp(np.log(p).sum(axis=-1) / n)
        values[5] = [state.max_residual for state in states]
        observed[:, rows, k] = values
        counted[:, rows, k] = [[getattr(state, name) for state in states] for name in _COUNTERS]
        # an observable overflows: stop there (mean_xi is non-finite whenever
        # some sector's xi is)
        finite = np.isfinite(values)
        if not finite.all():
            for j in np.flatnonzero(~finite.all(axis=0)):
                bad = [name for name, ok in zip(_OBSERVABLES, finite[:, j]) if not ok]
                outcomes[live[j]] = ClearingError(f"non-finite {', '.join(bad)}",
                                                  t=states[j].t,
                                                  residual=states[j].max_residual)
            kept = finite.all(axis=0).tolist()
            states = [state for state, ok in zip(states, kept) if ok]
            live = [i for i, ok in zip(live, kept) if ok]
            if not live:
                break
    for i in live:
        outcomes[i] = Trajectory(
            t=np.arange(1, steps + 1),
            xi=xi_all[i],
            **dict(zip(_OBSERVABLES, observed[:, i])),
            **dict(zip(_COUNTERS, counted[:, i])),
            burn_in=burn_in,
            config_hash=config_hash,
            output_eq=output_eq,
            consumption_eq=consumption_eq,
        )
    return outcomes


class Simulator:
    """Step engine bound to one (network, params) configuration.

    Solves and caches the equilibrium once.  Each engine owns one clearing
    workspace (chord steps: module docstring), whose held factorization
    carries over from one ``step`` call to the next.  The RNG is owned by
    the caller: one engine per concurrent worker is safe, one engine
    stepped from two threads at once is not.
    """

    def __init__(self, net: IONetwork, params: ModelParams, tol: float = NEWTON_TOL):
        self.net = net
        self.params = params
        self.equilibrium = solve_equilibrium(net, params)
        self.gauge_target = float(np.sum(np.log(self.equilibrium.p_eq)))
        self.tol = tol
        self._work = _Workspace(net.n)

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
        """Advance one period: draw-in the shock, clear all markets, rebuild
        state.  Raises ClearingError, naming the step, where no state clears."""
        (new,) = _step_members(self, [self.params], [state],
                               np.asarray(shock, dtype=float)[None], self._work, [0])
        if isinstance(new, ClearingError):
            raise new
        return new

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
        self._work.discard()
        (outcome,) = _run(self, [self.params], [noise], steps, burn_in, initial_kick,
                          lambda states, shocks, members: [self.step(states[0], shocks[0])],
                          config_hash)
        if isinstance(outcome, ClearingError):
            raise outcome
        return outcome


class Ensemble:
    """Economies of one network stepped in lockstep, one clearing Newton
    solve per period over every live member.

    ``sim`` supplies the network, the equilibrium, the gauge, the tolerance
    and every parameter but gamma; member i runs under
    ``replace(sim.params, gamma=gammas[i])``, and its shocks (sigma, seed)
    are its noise process.  A member's run is bit for bit the run a
    Simulator with its params has alone, and a member that breaks down
    leaves the ensemble with its ClearingError while the others run on.  The
    ensemble owns one workspace with a slot per member (chord steps: module
    docstring), so, like a Simulator, it is stepped from one thread at a
    time.
    """

    def __init__(self, sim: Simulator, gammas):
        self.sim = sim
        self.params = [replace(sim.params, gamma=gamma) for gamma in gammas]
        if not self.params:
            raise ValueError("an ensemble needs at least one member")
        self._work = _Workspace(sim.net.n, len(self.params))

    def step(self, states: list[EconomyState], shocks: np.ndarray,
             members: list[int] | None = None) -> list[EconomyState | ClearingError]:
        """One period for member states of this ensemble (each under its own
        params), ``shocks[i]`` the log productivities of states[i], which is
        the state of member ``members[i]`` (of member i by default): its slot
        holds that member's factorization from step to step.  Returns per
        state the cleared state or its ClearingError naming the step."""
        return _step_members(self.sim, [state.params for state in states], states,
                             np.asarray(shocks, dtype=float), self._work,
                             list(range(len(states))) if members is None else members)

    def simulate(self, noises, steps: int, burn_in: int = 0,
                 initial_kick: float = 1e-6) -> list[Trajectory | ClearingError]:
        """``Simulator.simulate`` for every member at once, member i driven by
        ``noises[i]``.  Returns per member its (unstamped) Trajectory, or the
        ClearingError that stopped it.  Only a ClearingError stops one
        member; any other exception raised in a step ends the whole run."""
        noises = list(noises)
        if len(noises) != len(self.params):
            raise ValueError("need one noise process per member")
        self._work.discard()
        return _run(self.sim, self.params, noises, steps, burn_in, initial_kick, self.step, "")


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
