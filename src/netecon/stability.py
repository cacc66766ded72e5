"""Linear stability of the equilibrium: the state-space map, its spectrum,
critical lines.

The state-space map is the derivative of ``Simulator.step`` at the
equilibrium, taken from the simulator's own clearing kernel.  One step maps
the state y = (log x_sold, log p_lag) and the shock log z to the new state
(log x_next, log p) through the clearing unknowns u = (log p, log h), which
solve R(u, y) = 0.  By the implicit-function theorem du/dy = -J_u^{-1} dR/dy,
where J_u is the Newton solve's exact Jacobian (``_clearing_jacobian``) and
dR/dy its partials in the knowns (``_clearing_known_jacobian``).  Both are
written into one (3n+1) x (4n+1) step matrix [L | Z] (``_step_matrix``),
and every linear result reads that one array: S and B (``linear_state_map``)
from the whole of it, the spectra and both gamma pencils (the step's and
the flip's, below) from its square part L.  The clearing equations leave
the overall price level free; the solver's gauge residual
sum(log p) - target is one of the rows of R, so the map inherits the gauge:
it sends the uniform lagged-price direction to zero when q0 = q.

Every network takes this one path: ``analyze_stability`` reads the spectrum
of the map at one gamma and ``critical_gamma`` along the gamma pencil below,
and the verdict is the spectral radius against one.  On a normal W that
spectrum is the one of the paper's per-mode quadratics, against which the
tests check it.

Critical lines.  The equilibrium does not depend on gamma, and at it
x_next = x_sold = x*, so gamma enters the kernel's derivatives only through
g = gamma and k = (gamma - 1 + b)/b: the clearing Jacobian J_u and the
partials R_y, X_u, X_y are affine in gamma.  On the unknowns
(du, xi_t, pi_{t-1}) the eigenproblem of the step is the (3n+1)-square
pencil L0 + gamma L1 - alpha E, whose rows are J_u du + R_y y = 0,
X_u du + X_y y = alpha xi_t and du_p = alpha pi_{t-1}; L0 and L1 come from
two kernel evaluations per q.  A root reaches alpha = -1 (a flip) exactly at
the real generalized eigenvalues of (L0 + E, -L1), one shift-invert per q
(``_flip_gamma``: a solve and a standard eigenproblem, in numpy).
A Neimark-Sacker crossing (a complex pair at an unknown angle) is not
linear in gamma, so ``critical_gamma`` brackets the first upward sign
change of max|alpha| - 1 on a grid of 32 equal steps below the first flip
(plus five halvings toward 0) and solves for the crossing (gamma, theta)
by Newton's method on the pencil bordered to a minimally augmented system
(``_crossing_newton``), with bisection of the bracket (``_bisect``) as
the fallback; with none below the flip, the flip itself is gamma_c.  Each
grid point is first tested for contraction by powers of its map
(``_powers_contract``); only the undecided ones and the kind's probe,
which also confirms Newton's gamma_c, cost a spectrum, each read off the
map that was formed for it.  A random_exp n=32 cell takes 2 state-space
spectra where an exhaustive 1e-3 scan took about 1,020, each read off the
pencil: the kernel is evaluated twice per q, and a gamma costs one axpy
L0 + gamma L1, one (n+1)-square solve for the 2n state columns and the
eigenvalues of the 2n-square map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .csvio import write_csv
from .equilibrium import EquilibriumState, ModelParams, solve_equilibrium
from .network import IONetwork
from .simulator import (
    ClearingContext,
    _clearing_jacobian,
    _clearing_known_jacobian,
    _clearing_parts,
    _jacobian_workspace,
    _residual_vector,
)

__all__ = [
    "CriticalLine",
    "CriticalPoint",
    "LinearizedSystem",
    "StabilityReport",
    "analyze_stability",
    "build_linearized",
    "critical_gamma",
    "critical_line_to_csv",
    "linear_state_map",
    "report_to_csv",
    "state_space_spectrum",
    "trace_critical_line",
]

REAL_ROOT_IMAG_TOL = 1e-6
EQUILIBRIUM_RESIDUAL_TOL = 1e-10
# critical_gamma: uniform grid points per search interval, halvings below the
# first of them (down to 1/1024 of the interval, the 1e-3 floor of an
# exhaustive scan of (0, 1]), the bracket width of the fallback bisection,
# and the bound on |max|alpha| - 1| that identifies a root at -1 as the
# crossing
SEARCH_POINTS = 32
SEARCH_HALVINGS = 5
GAMMA_XTOL = 1e-13
CROSSING_TOL = 1e-10
# critical_gamma: a grid point is stable, and its spectrum is not computed,
# once a power S^m, m = 2, 4, ..., 2^POWER_SQUARINGS,
# has ||S^m||_F <= POWER_NORM_STABLE (then rho(S) <= 0.5^(1/4096) < 0.99983);
# a norm above POWER_NORM_GIVE_UP ends the squarings.  Measured on the 24
# cells of perfbench/phase_oracle.json with Newton's check below gamma_c
# taken at every crossing: 6, 7, 8, 9 and 10 squarings leave 10.9, 9.9, 8.9,
# 7.9 and 7.6 spectra per cell, a threshold of 0.25 or 0.9 leaves 8.9 or
# 8.25, and a give-up at 1e2 or 1e6 moves no count.  With that check read
# off the kind's probe: 8, 9, 10, 11 and 12 squarings leave 3.67, 2.67,
# 2.33, 2.0 and 2.0 spectra per cell there, and 4.20, 3.23, 2.69, 2.28 and
# 2.07 on 136 cells (those 24; plain n = 8, 32, 64, random_exp seed 1
# n = 8-128 and random_exp seeds 2-9 n = 32, each at q = -1, -0.75, -0.5,
# -0.25, 0, 0.3 and 0.6).  12 keeps the bound 1.7e-4 clear of 1
POWER_SQUARINGS = 12
POWER_NORM_STABLE = 0.5
POWER_NORM_GIVE_UP = 1e3
# critical_gamma: Newton's method on the bordered pencil (``_crossing_newton``)
# has converged once a step moves gamma by at most NEWTON_GAMMA_TOL max(1, gamma),
# and fails after NEWTON_ITERATIONS steps; its gamma is accepted where the
# kind's probe above it has only Newton's root and its conjugate outside the
# unit circle, else where the spectrum at gamma - NEWTON_CHECK is stable, and
# restarted from there at most NEWTON_RESTARTS times
NEWTON_ITERATIONS = 10
NEWTON_GAMMA_TOL = 1e-14
NEWTON_CHECK = 1e-10
NEWTON_RESTARTS = 3


# ---------------------------------------------------------------------------
# the state-space map: the derivative of the simulator's step
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LinearizedSystem:
    """The clearing kernel evaluated at a solved equilibrium.

    ``context`` holds the equilibrium knowns, ``u`` = (log p, log h) the
    clearing unknowns and ``parts`` the kernel's parts there; the state-space
    map is derived from them on demand.
    """

    context: ClearingContext
    u: np.ndarray
    parts: dict


def build_linearized(
    net: IONetwork,
    params: ModelParams,
    equilibrium: EquilibriumState | None = None,
) -> LinearizedSystem:
    """Evaluate the clearing kernel at the equilibrium (solved when None).

    Raises ArithmeticError when the equilibrium does not clear the markets
    to 1e-10, which signals an inconsistent equilibrium solve.
    """
    if equilibrium is None:
        equilibrium = solve_equilibrium(net, params)
    log_p = np.log(equilibrium.p_eq)
    ctx = ClearingContext(
        net=net, params=params, x_sold=equilibrium.x_eq, p_lag=equilibrium.p_eq,
        z=np.ones(net.n), gauge_target=float(np.sum(log_p)),
    )
    u = np.concatenate([log_p, [np.log(equilibrium.h_eq)]])
    parts = _clearing_parts(ctx, log_p, u[-1])
    res = float(np.max(np.abs(_residual_vector(parts))))
    if not res <= EQUILIBRIUM_RESIDUAL_TOL:
        raise ArithmeticError(f"equilibrium does not clear the markets (residual {res:.3e})")
    return LinearizedSystem(ctx, u, parts)


def _state_map(step: np.ndarray) -> np.ndarray:
    """Rows (log x_next, log p) of the one-step map in the columns of the
    knowns of ``step``: S from the square L of ``_step_matrix``, [S | B] from
    the whole [L | Z].

    du = -J_u^{-1} R_y, so the rows are X_y + X_u du and du_p, the log p
    rows of du.
    """
    n = (len(step) - 1) // 3
    clearing, x_next = step[:n + 1], step[n + 1:2 * n + 1]
    try:
        du = np.linalg.solve(clearing[:, :n + 1], -clearing[:, n + 1:])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular clearing Jacobian at the equilibrium") from exc
    return np.vstack([x_next[:, n + 1:] + x_next[:, :n + 1] @ du, du[:n]])


def linear_state_map(
    net: IONetwork,
    params: ModelParams,
    equilibrium: EquilibriumState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(S, B) such that state_{t+1} = S state_t + B eps_t, eps the log-productivity shock.

    Rows are (log x_next, log p), columns of S (log x_sold, log p_lag) and of
    B log z, all as deviations from the equilibrium.
    """
    full = _state_map(_step_matrix(build_linearized(net, params, equilibrium)))
    return full[:, :2 * net.n], full[:, 2 * net.n:]


class _StateMap(np.ndarray):
    """A state-space map S already formed, as the view ``s.view(_StateMap)``,
    whose eigenvalues ``state_space_spectrum`` reads as they are."""


def state_space_spectrum(system: LinearizedSystem | np.ndarray) -> np.ndarray:
    """Eigenvalues of the state-space map; the gauge is part of the map, so
    no eigenvalue is dropped.

    ``system`` is a linearization, a step matrix (``_step_matrix``'s
    [L | Z], or a square L such as a point L0 + gamma L1 of the gamma
    pencil) or a map S marked as ``_StateMap``.  From a step matrix S is
    read off the square part L, with no z column solved for.
    """
    if isinstance(system, _StateMap):
        return np.linalg.eigvals(system)
    step = _step_matrix(system) if isinstance(system, LinearizedSystem) else system
    return np.linalg.eigvals(_state_map(step[:, :len(step)]))


def _modulus(z) -> np.ndarray:
    """|z| elementwise by hypot, bit for bit Python's ``abs(complex)``
    (numpy's vectorized complex ``abs`` differs in the last bit)."""
    return np.hypot(z.real, z.imag)


@dataclass(eq=False)
class StabilityReport:
    """The eigenvalues ``alphas`` of the state-space map, their moduli
    ``max_mod``, the spectral radius ``max_alpha`` and the verdict."""

    alphas: np.ndarray
    max_mod: np.ndarray
    max_alpha: float
    stable: bool

    @property
    def leading_root(self) -> complex:
        """The finite eigenvalue of largest modulus; ties go to the earlier one."""
        finite = np.flatnonzero(np.isfinite(self.alphas))
        return complex(self.alphas[finite[np.argmax(self.max_mod[finite])]])


def analyze_stability(net: IONetwork, params: ModelParams,
                      equilibrium: EquilibriumState | None = None) -> StabilityReport:
    """The state-space spectrum at the equilibrium (solved when None)."""
    return _state_space_report(state_space_spectrum(build_linearized(net, params, equilibrium)))


def _state_space_report(vals: np.ndarray) -> StabilityReport:
    """The report on the eigenvalues ``vals`` of the map."""
    max_mod = _modulus(vals)
    max_alpha = float(max_mod.max())
    return StabilityReport(alphas=vals.astype(complex), max_mod=max_mod, max_alpha=max_alpha,
                           stable=max_alpha < 1.0)


# ---------------------------------------------------------------------------
# critical lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    """First unit-circle crossing of the leading root as gamma grows."""

    gamma_c: float
    kind: str  # "real_minus_one" | "complex_pair"
    root: complex


def _step_matrix(lin: LinearizedSystem) -> np.ndarray:
    """The linearization at ``lin``: the (3n+1) x (4n+1) step matrix [L | Z].

    On the unknowns v = (du, xi_t, pi_{t-1}) the state-space map has the
    eigenvalue alpha exactly when (L - alpha E) v = 0 for some v != 0, with
    L the leading (3n+1)-square part and E = diag(0_{n+1}, I_{2n}): the rows
    are J_u du + R_y y = 0 (clearing), X_u du + X_y y = alpha xi_t
    (log x_next) and du_p = alpha pi_{t-1} (log p), where y = (xi_t,
    pi_{t-1}).  Z, the last n columns, holds the same rows' partials in the
    shock log z.  The columns (u, log x_sold, log p_lag, log z) are those of
    the simulator's partials, which are written into the blocks in place.
    """
    n = lin.context.net.n
    mat = np.zeros((3 * n + 1, 4 * n + 1))
    mat[:n + 1, :n + 1] = _clearing_jacobian(lin.context, lin.u, lin.parts, _jacobian_workspace(n))
    _clearing_known_jacobian(lin.context, lin.parts, mat[:n + 1, n + 1:], mat[n + 1:2 * n + 1])
    mat[2 * n + 1:, :n] = np.eye(n)
    return mat


def _gamma_pencil(net: IONetwork, params: ModelParams,
                  equilibrium: EquilibriumState) -> tuple[np.ndarray, np.ndarray]:
    """(L0, L1) with L(gamma) = L0 + gamma L1 for every gamma.

    L is affine in gamma (see the module docstring), so its values at
    gamma = 1/2 and 1 determine it.  Each is a contiguous copy of the square
    part of ``_step_matrix``, so the z columns are not held.
    """
    l0, l1 = (_step_matrix(build_linearized(net, replace(params, gamma=gamma), equilibrium))
              [:, :3 * net.n + 1].copy() for gamma in (0.5, 1.0))
    l1 -= l0
    l1 *= 2.0
    l0 -= 0.5 * l1
    return l0, l1


def _flip_gamma(pencil: tuple[np.ndarray, np.ndarray], q: float) -> float | None:
    """Smallest gamma in (0, 1) at which alpha = -1 is an eigenvalue, or None.

    alpha = -1 is an eigenvalue at gamma exactly when L0 + E + gamma L1 is
    singular.  Its last block row reads du_p = -pi_{t-1} there; folding the
    pi_{t-1} columns into the du_p ones leaves the (2n+1)-square pencil
    F0 + gamma F1 on (du, xi_t), with F0 v = -gamma F1 v at a flip.  Its
    roots come from a shift-invert at a gamma = sigma outside (0, 1]:
    (F0 + sigma F1)^{-1} F1 v = mu v with gamma = sigma - 1/mu, one solve
    and one standard eigenproblem, repeated at a second sigma where
    max|mu| >= 1e4 shows the first near a root.  mu = 0 is an infinite
    gamma (F1's gauge row does not depend on gamma).  F0, the step at
    gamma = 0, is never inverted, since it is singular where the wage row
    vanishes (a = 1).
    The candidates are the real roots; those within GAMMA_XTOL of gamma = 0
    or 1 are not told apart from the ends: one at 0 is no flip in (0, 1),
    and one at 1 is left to the search, whose grid ends at 1.  ``pencil``
    is ``_gamma_pencil``'s (L0, L1) at ``q``; it is read, not changed.
    Raises ArithmeticError, naming q, where the step at sigma itself has
    alpha = -1.
    """
    n = (len(pencil[0]) - 1) // 3
    m = 2 * n + 1
    folded = []
    for mat in pencil:
        f = mat[:m, :m].copy()
        f[:, :n] -= mat[:m, m:]
        folded.append(f)
    f0, f1 = folded
    xi = np.arange(n + 1, 2 * n + 1)
    f0[xi, xi] += 1.0  # E
    # sigma = -0.3, picked by measurement: near (0, 1], so little cancels in
    # sigma - 1/mu, and met by no root of a plain network on a grid of round
    # a, b and q, where -1 (the uniform mode's flip at a = 0.6, b = 0.5) and
    # -0.5 are.  Near a root F0 + sigma F1 is nearly singular and roots are
    # lost; max|mu| shows it.  Over a = 0.3-1, b in {0.5, 0.9, 0.999} and
    # q in [-1, 1] on plain n = 8 and random_exp n = 8 and 32, max|mu| is at
    # most 3.1e3 at -0.3, but 1.4e5 and 1.8e15 at a = 0.7931 and 23/29
    # (b = 0.5, where the uniform mode flips at -0.3).  From max|mu| = 1e4
    # on, the pencil is solved again at -0.8: at most 176 on that grid, with
    # every flip within 4.9e-15 of the QZ one
    for sigma in (-0.3, -0.8):
        try:
            mu = np.linalg.eigvals(np.linalg.solve(f0 + sigma * f1, f1))
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"flip search at q = {q!r}: the step at gamma = {sigma} "
                                  "has alpha = -1 exactly (singular shifted flip pencil)") from exc
        if np.abs(mu).max() < 1e4:
            break
    roots = sigma - 1.0 / mu[mu != 0]
    real = roots.real[np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * np.abs(roots)]
    real = real[(real > GAMMA_XTOL) & (real < 1.0 - GAMMA_XTOL)]
    return float(real.min()) if real.size else None


def _powers_contract(s: np.ndarray) -> bool:
    """Whether some ||S^m||_F, m = 2, 4, ..., 2^POWER_SQUARINGS, is at most
    POWER_NORM_STABLE: a sufficient test that every eigenvalue of S lies
    inside the unit circle, since rho(S)^m = rho(S^m) <= ||S^m||_F (Horn &
    Johnson, *Matrix Analysis*, 2nd ed., Thm. 5.6.9 and Cor. 5.6.14).

    False decides nothing: the squarings stop once a norm exceeds
    POWER_NORM_GIVE_UP (or is NaN) or after POWER_SQUARINGS of them.
    """
    for _ in range(POWER_SQUARINGS):
        s = s @ s
        norm = np.linalg.norm(s)
        if not POWER_NORM_STABLE < norm <= POWER_NORM_GIVE_UP:
            return norm <= POWER_NORM_STABLE
    return False


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """The upper end of the bracket [lo, hi], f(lo) <= 0 < f(hi), halved on
    the sign of f at its midpoint until it is at most xtol wide; f is never
    evaluated at the ends.  xtol must exceed the float spacing at hi, as
    GAMMA_XTOL does on (0, 1]."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0.0 else (mid, hi)
    return hi


def _crossing_newton(pencil: tuple[np.ndarray, np.ndarray], gamma: float,
                     alpha: complex) -> tuple[float, complex] | None:
    """(gamma, e^{i theta}) at which the root alpha of the step at ``gamma``
    meets the unit circle, by Newton's method on the bordered pencil; None
    where Newton fails.

    Folding pi_{t-1} = du_p / alpha into the du_p columns, as
    ``_flip_gamma`` folds it at alpha = -1, leaves the (2n+1)-square
    M(gamma, alpha) = A0 + gamma A1 + (P0 + gamma P1) / alpha - alpha E_xi
    on (du, xi_t), singular exactly where alpha is an eigenvalue.  Bordered
    by b = c, its null vector at the start (one inverse-iteration solve),
    the system [[M, b], [c^H, 0]] [v; g] = [0; 1] defines g(gamma, theta),
    zero where alpha = e^{i theta} is an eigenvalue at gamma: the minimally
    augmented system of a Neimark-Sacker point (Govaerts, *Numerical Methods
    for Bifurcations of Dynamical Equilibria*, SIAM 2000; Kuznetsov & Meijer,
    *Numerical Bifurcation Analysis of Maps*, CUP 2019).  Newton's method
    runs on its two real equations in (gamma, theta), from theta = arg
    alpha, with g_x = -w^H M_x v, w from the adjoint system
    [[M, b], [c^H, 0]]^H [w; h] = [0; 1].  It fails where a solve is
    singular, a step is not finite, or gamma still moves by more than
    NEWTON_GAMMA_TOL max(1, gamma) after NEWTON_ITERATIONS steps.
    """
    l0, l1 = pencil
    n = (len(l0) - 1) // 3
    m = 2 * n + 1
    xi = np.arange(n + 1, m)
    border = np.zeros((m + 1, m + 1), complex)
    unit = np.append(np.zeros(m), 1.0)

    def fold(gamma: float, alpha: complex) -> np.ndarray:
        """Write M(gamma, alpha) into the bordered system; return P0 + gamma P1."""
        mat = border[:m, :m]
        np.multiply(l1[:m, :m], gamma, out=mat)
        mat += l0[:m, :m]
        p = l0[:m, m:] + gamma * l1[:m, m:]
        mat[:, :n] += p / alpha
        mat[xi, xi] -= alpha
        return p

    try:
        fold(gamma, alpha)
        null = np.linalg.solve(border[:m, :m], np.random.default_rng(0).standard_normal(m))
        border[:m, m] = null / np.linalg.norm(null)
        border[m, :m] = border[:m, m].conj()
        theta = math.atan2(alpha.imag, alpha.real)
        for _ in range(NEWTON_ITERATIONS):
            alpha = complex(math.cos(theta), math.sin(theta))
            p = fold(gamma, alpha)
            direct = np.linalg.solve(border, unit)
            # the adjoint system: unit is real, so w = conj of the transposed solve
            v, g, w = direct[:m], direct[m], np.linalg.solve(border.T, unit)[:m].conj()
            # M_gamma = A1 + P1 / alpha and M_theta = -i (P / alpha + alpha E_xi)
            m_gamma_v = l1[:m, :m] @ v + l1[:m, m:] @ v[:n] / alpha
            m_theta_v = p @ v[:n] / alpha
            m_theta_v[xi] += alpha * v[xi]
            g_gamma, g_theta = -np.vdot(w, m_gamma_v), 1j * np.vdot(w, m_theta_v)
            step = np.linalg.solve([[g_gamma.real, g_theta.real], [g_gamma.imag, g_theta.imag]],
                                   [-g.real, -g.imag])
            if not np.isfinite(step).all():
                return None
            gamma += float(step[0])
            theta += float(step[1])
            if abs(step[0]) <= NEWTON_GAMMA_TOL * max(1.0, gamma):
                return gamma, complex(math.cos(theta), math.sin(theta))
    except np.linalg.LinAlgError:
        return None
    return None


def _only_pair_outside(probe: StabilityReport, alpha: complex) -> bool:
    """Whether the roots outside the unit circle in ``probe`` are exactly the
    ones nearest alpha and its conjugate (one root where those coincide).

    At the probe just above Newton's crossing, alpha's root has moved off
    the unit circle by little; any other root outside, or alpha's root back
    inside, sends the search to the check below the crossing.
    """
    outside = set(np.flatnonzero(probe.max_mod > 1.0).tolist())
    nearest = {int(np.argmin(np.abs(probe.alphas - root))) for root in (alpha, alpha.conjugate())}
    return outside == nearest


def critical_gamma(net: IONetwork, params: ModelParams, q: float) -> CriticalPoint | None:
    """Smallest gamma in (0, 1] where the leading root leaves the unit circle.

    The first gamma_flip at which a root reaches -1 is exact, from one
    generalized eigenproblem (``_flip_gamma``).  max|alpha| - 1 is evaluated
    lazily in ascending order on a grid over (0, gamma_flip] (over (0, 1]
    when there is no flip), then over (gamma_flip, 1]: SEARCH_POINTS equal
    steps per interval, below the first of them SEARCH_HALVINGS halvings.
    A change ending at gamma_flip where |max|alpha| - 1| <= CROSSING_TOL
    returns gamma_flip itself.  Any other first sign change from <= 0 to
    > 0, over [lo, hi], is solved for by Newton's method on the bordered
    pencil (``_crossing_newton``), started from the leading root at hi.
    Its gamma is accepted when it converges inside (lo, hi] and the
    spectrum at gamma + 1e-8, the kind's probe, has exactly Newton's root
    and its conjugate outside the unit circle (``_only_pair_outside``).
    Otherwise it is accepted where the spectrum at gamma - NEWTON_CHECK is
    stable; where that is unstable, a later root has been found: Newton
    restarts from the leading root there, with that point as the new top,
    at most NEWTON_RESTARTS times.  Where Newton fails otherwise, or the
    restarts run out, bisection (``_bisect``) halves [lo, top] to
    GAMMA_XTOL.  The kind is read off the leading root at
    min(gamma_c + 1e-8, 1).  Returns None
    when no upward crossing is found: stable throughout, or unstable from
    the first grid point on.  Raises ArithmeticError, naming gamma, where
    max|alpha| is NaN.

    The two kernel evaluations of the gamma pencil, made once per q, serve
    the flip and every spectrum: a gamma costs one
    axpy L0 + gamma L1, one (n+1)-square solve and the eigenvalues of the
    2n-square map (``state_space_spectrum`` of L), where a fresh
    linearization costs a kernel evaluation, both Jacobians and a 2n-column
    solve.  A grid point whose map S has ||S^m||_F <= POWER_NORM_STABLE for
    some m = 2, 4, ..., 2^POWER_SQUARINGS (``_powers_contract``, at most
    POWER_SQUARINGS 2n-square products) is stable and costs no eigenvalues;
    an undecided one takes its spectrum from that S.  The grid's sign reads
    are the same, and hi's leading root, Newton's check, the flip test and
    the kind still come from the spectra, so gamma_c is the same bit for
    bit.  Newton costs no spectrum: an iteration is two complex
    (2n+2)-square solves, the bordered system and its adjoint, and a cell
    takes three to five.  On the 24 recorded random_exp n=32 cells a
    search takes 2 spectra, hi's or the flip's and the probe's (37 with
    Newton declined and the bracket bisected, 20.3 with a spectrum at every
    grid point), and gamma_c is within 6.1e-14 of the bisected one.  Where
    the probe shows other roots outside, as on the plain network's repeated
    modes at q < 0, the check below gamma_c costs one spectrum more.
    """
    base = replace(params, q=q, q0=None if params.q0 == params.q else params.q0)
    # gamma leaves the static equilibrium unchanged: solve it once per q
    equilibrium = solve_equilibrium(net, base)
    # the pencil serves the flip and every spectrum
    pencil = _gamma_pencil(net, base, equilibrium)

    reports = {}

    def report(gamma: float, s: np.ndarray | None = None) -> StabilityReport:
        """The spectrum at gamma, read off its map S (formed here unless
        given); the reports are kept, the maps are not."""
        if gamma not in reports:
            if s is None:
                s = _state_map(pencil[0] + gamma * pencil[1])
            reports[gamma] = _state_space_report(state_space_spectrum(s.view(_StateMap)))
        return reports[gamma]

    def excess(gamma: float, s: np.ndarray | None = None) -> float:
        value = report(gamma, s).max_alpha - 1.0
        if math.isnan(value):  # would read as stable: excess(lo) > 0 is false
            raise ArithmeticError(f"critical search: max|alpha| is NaN at gamma = {gamma!r}")
        return value

    @cache
    def unstable(gamma: float) -> bool:
        """excess(gamma) > 0, without the spectrum where powers of S contract."""
        if gamma in reports:  # gamma_flip, whose spectrum the flip test took
            return excess(gamma) > 0.0
        s = _state_map(pencil[0] + gamma * pencil[1])
        return not _powers_contract(s) and excess(gamma, s) > 0.0

    def probe(gamma: float) -> StabilityReport:
        """The spectrum just above gamma, where the kind is read."""
        return report(min(gamma + 1e-8, 1.0))

    def crossing(lo: float, top: float) -> float:
        """The crossing in (lo, top], lo stable and top not: by Newton from
        top's leading root, restarted below a point whose spectrum shows an
        earlier crossing, else by bisection."""
        for _ in range(NEWTON_RESTARTS + 1):
            solved = _crossing_newton(pencil, top, report(top).leading_root)
            if solved is None or not lo < solved[0] <= top:
                break
            gamma, alpha = solved
            if _only_pair_outside(probe(gamma), alpha) or report(gamma - NEWTON_CHECK).stable:
                return gamma
            top = gamma - NEWTON_CHECK
        return _bisect(excess, lo, top, GAMMA_XTOL)

    gamma_flip = _flip_gamma(pencil, q)
    ends = [1.0] if gamma_flip is None else [gamma_flip, 1.0]
    # halvings below the first uniform step bracket early crossings; linspace
    # ends each interval exactly at its upper end, gamma_flip included
    halvings = ends[0] / SEARCH_POINTS * 0.5 ** np.arange(SEARCH_HALVINGS, 0, -1)
    grid = np.concatenate([halvings] + [np.linspace(start, end, SEARCH_POINTS + 1)[1:]
                                        for start, end in zip([0.0] + ends, ends)]).tolist()
    for lo, hi in zip(grid[:-1], grid[1:]):
        if unstable(lo):
            continue
        if hi == gamma_flip and abs(excess(hi)) <= CROSSING_TOL:
            gamma_c = gamma_flip
            break
        if unstable(hi):
            gamma_c = crossing(lo, hi)
            break
    else:
        return None

    root = probe(gamma_c).leading_root
    if abs(root.imag) < REAL_ROOT_IMAG_TOL and root.real < 0:
        kind = "real_minus_one"
    else:
        kind = "complex_pair"
    return CriticalPoint(gamma_c=gamma_c, kind=kind, root=root)


@dataclass(eq=False)
class CriticalLine:
    """gamma_c(q) over a grid of q values; gamma_c is NaN where no crossing."""

    q_grid: np.ndarray
    gamma_c: np.ndarray
    kind: list[str]
    root: list[complex]


def trace_critical_line(
    net: IONetwork,
    params: ModelParams,
    q_grid,
    jobs: int = 1,
) -> CriticalLine:
    """critical_gamma across a q grid; cells are independent and may run
    concurrently (jobs > 1 uses a process pool)."""
    q_grid = np.asarray(list(q_grid), dtype=float)
    cell = partial(critical_gamma, net, params)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(cell, q_grid.tolist()))
    else:
        points = list(map(cell, q_grid.tolist()))
    gamma_c = np.array([p.gamma_c if p else np.nan for p in points])
    kind = [p.kind if p else "none" for p in points]
    root = [p.root if p else complex(np.nan) for p in points]
    return CriticalLine(q_grid=q_grid, gamma_c=gamma_c, kind=kind, root=root)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def report_to_csv(report: StabilityReport, path, config_hash: str = "") -> None:
    """One row per eigenvalue; the columns of an eigenvalue s of W and of a
    second root per row are kept, each written as the complex NaN nan + 0j."""
    verdict = "stable" if report.stable else "unstable"
    nan, zero = np.full(len(report.alphas), np.nan), np.zeros(len(report.alphas))
    rows = zip(nan, zero, report.alphas.real, report.alphas.imag, nan, zero, report.max_mod)
    write_csv(path, ["s_re", "s_im", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                     "max_mod"], rows, config_hash,
              [f"verdict={verdict} max_alpha={report.max_alpha:.12g} method=state_space"])


def critical_line_to_csv(line: CriticalLine, path, config_hash: str = "") -> None:
    rows = [(q, g, kind, root.real, root.imag)
            for q, g, kind, root in zip(line.q_grid, line.gamma_c, line.kind, line.root)]
    write_csv(path, ["q", "gamma_c", "kind", "max_root_re", "max_root_im"], rows, config_hash)
