"""Linear stability of the equilibrium: modal quadratics, state-space maps,
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

For a normal input-output matrix the linearized dynamics diagonalizes in the
eigenbasis of W and each non-uniform eigenvalue s contributes a second-order
difference equation A2 xi_{t+1} + A1 xi_t + A0 xi_{t-1} = 0; the uniform mode
is first order and always stable.  ``mode_quadratic`` (the coefficients) and
``mode_roots`` (the roots) state that quadratic once, vectorized over s.
``analyze_stability`` picks the modal or the state-space path for one
gamma; ``critical_gamma`` takes the same paths, the state-space one through
the gamma pencil below.

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
A Neimark-Sacker crossing (a complex pair at an unknown angle) has no such
linear equation, so ``critical_gamma`` brackets the first upward sign
change of max|alpha| - 1 on a grid of 32 equal steps below the first flip
(plus five halvings toward 0) and refines it by Brent's method (``_brent``,
a port of scipy's ``brentq``); with none below the flip, the flip itself
is gamma_c.  Each grid point is first tested for contraction by powers of
its map (``_powers_contract``); only the undecided ones, Brent's iterates
and the kind's probe cost a spectrum.  A random_exp n=32 cell takes 5-10
state-space spectra where an exhaustive 1e-3 scan took about 1,020, each
read off the pencil: the kernel is evaluated twice per q, and a gamma
costs one axpy L0 + gamma L1, one (n+1)-square solve for the 2n state
columns and the eigenvalues of the 2n-square map.
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
    "max_growth_rate_modal",
    "mode_quadratic",
    "mode_roots",
    "report_to_csv",
    "state_space_spectrum",
    "trace_critical_line",
    "uniform_mode_multiplier",
]

REAL_ROOT_IMAG_TOL = 1e-6
UNIT_EIG_TOL = 1e-9
EQUILIBRIUM_RESIDUAL_TOL = 1e-10
# critical_gamma: uniform grid points per search interval, halvings below the
# first of them (down to 1/1024 of the interval, the 1e-3 floor of an
# exhaustive scan of (0, 1]), Brent's bracket width, and the bound on
# |max|alpha| - 1| that identifies a root at -1 as the crossing
SEARCH_POINTS = 32
SEARCH_HALVINGS = 5
GAMMA_XTOL = 1e-13
CROSSING_TOL = 1e-10
# critical_gamma on a non-normal network: a grid point is stable, and its
# spectrum is not computed, once a power S^m, m = 2, 4, ..., 2^POWER_SQUARINGS,
# has ||S^m||_F <= POWER_NORM_STABLE (then rho(S) <= 0.5^(1/256) < 0.9973);
# a norm above POWER_NORM_GIVE_UP ends the squarings.  Measured on the 24
# cells of perfbench/phase_oracle.json: 6, 7, 8, 9 and 10 squarings leave
# 10.9, 9.9, 8.9, 7.9 and 7.6 spectra per cell (8 keeps the bound 0.0027
# clear of 1), a threshold of 0.25 or 0.9 leaves 8.9 or 8.25, and a give-up
# at 1e2 or 1e6 moves no count
POWER_SQUARINGS = 8
POWER_NORM_STABLE = 0.5
POWER_NORM_GIVE_UP = 1e3


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


def state_space_spectrum(system: LinearizedSystem | np.ndarray) -> np.ndarray:
    """Eigenvalues of the state-space map; the gauge is part of the map, so
    no eigenvalue is dropped.

    ``system`` is a linearization or a step matrix: ``_step_matrix``'s
    [L | Z], or a square L such as a point L0 + gamma L1 of the gamma
    pencil.  S is read off the square part L, with no z column solved for.
    """
    step = _step_matrix(system) if isinstance(system, LinearizedSystem) else system
    return np.linalg.eigvals(_state_map(step[:, :len(step)]))


# ---------------------------------------------------------------------------
# modal analysis for normal networks
# ---------------------------------------------------------------------------

def uniform_mode_multiplier(params: ModelParams) -> float:
    """Multiplier of the uniform quantity mode, (1-g)/(1-g+zeta(1-b+ab)).

    Always in [0, 1): the aggregate mode of the economy (equivalently a
    single-firm economy) is linearly stable, becoming marginal only as
    gamma -> 0; 0 at a = 1, its limit as zeta grows.  Undefined at b = 1.
    """
    a, b, gamma = params.a, params.b, params.gamma
    if b >= 1.0:
        raise ValueError("uniform multiplier undefined for b = 1")
    if a >= 1.0:
        return 0.0
    zeta = gamma / ((1.0 - a) * (1.0 - b))
    return (1.0 - gamma) / (1.0 - gamma + zeta * (1.0 - b + a * b))


def _modulus(z) -> np.ndarray:
    """|z| elementwise by hypot, bit for bit Python's ``abs(complex)``
    (numpy's vectorized complex ``abs`` differs in the last bit)."""
    return np.hypot(z.real, z.imag)


def mode_quadratic(s, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (A2, A1, A0) of the quadratic of each non-uniform mode s.

    With c = b(1-a) and zhat = gamma / ((1-b)(1 - b(1-a)^2 |s|^2)):

        A2 = 1 - gamma + zhat (1 - b - c sbar (1+q) + c^2 |s|^2)
        A1 = -[1 - gamma + zhat (c s - q c sbar - b (1+q))]
        A0 = -q b zhat

    ``s`` is an array of eigenvalues of W with |s| <= 1 + 1e-12; the
    derivation formally extends to |s| = 1 (identity or permutation
    networks), which reports count as special.
    """
    if params.b >= 1.0:
        raise ValueError("mode quadratic requires b < 1")
    s = np.asarray(s, dtype=complex)
    mod = _modulus(s)
    if (mod > 1.0 + 1e-12).any():
        raise ValueError("mode quadratic requires |s| <= 1")
    a, b, q, gamma = params.a, params.b, params.q, params.gamma
    c = params.c
    mod2 = mod ** 2
    zhat = gamma / ((1.0 - b) * (1.0 - b * (1.0 - a) ** 2 * mod2))
    sbar = np.conj(s)
    a2 = 1.0 - gamma + zhat * (1.0 - b - c * sbar * (1.0 + q) + c**2 * mod2)
    a1 = -(1.0 - gamma + zhat * (c * s - q * c * sbar - b * (1.0 + q)))
    a0 = (-q * b * zhat).astype(complex)  # keeps A0 = -0 at q = 0, the sign a zero root shows
    return a2, a1, a0


def mode_roots(a2, a1, a0) -> tuple[np.ndarray, np.ndarray]:
    """Roots (r1, r2) of the quadratics A2 a^2 + A1 a + A0, cancellation-free.

    r1 = big / A2 and r2 = A0 / big, where big is the larger-magnitude branch
    of -A1 +/- sqrt(A1^2 - 4 A2 A0) over two.  A2 = 0 degenerates to a linear
    equation: r1 is its single root and r2 the infinity marker.
    """
    # one power of two per quadratic takes its largest coefficient into
    # [1, 2), so A1^2 - 4 A2 A0 does not underflow where all three are tiny;
    # ldexp scales the real and imaginary parts exactly, signed zeros kept,
    # so the roots keep their bits wherever no coefficient is subnormal
    coeffs = np.array(np.broadcast_arrays(a2, a1, a0), dtype=complex)
    _, exp = np.frexp(_modulus(coeffs).max(axis=0))
    coeffs.real, coeffs.imag = np.ldexp(coeffs.real, 1 - exp), np.ldexp(coeffs.imag, 1 - exp)
    a2, a1, a0 = coeffs
    linear = a2 == 0
    if (linear & (a1 == 0)).any():
        raise ValueError("degenerate quadratic with A2 = A1 = 0")
    disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
    plus, minus = -a1 + disc, -a1 - disc
    big = np.where(_modulus(plus) >= _modulus(minus), plus, minus) / 2.0
    tiny = np.finfo(float).tiny
    # numpy's complex division scales by 1 / divisor, which overflows for a
    # subnormal divisor (A2 or big): there both terms are scaled by 2^54
    # first, exactly
    with np.errstate(all="ignore"):  # np.where drops the branches that divide by zero
        r1 = np.where(linear, -a0 / a1, np.where(big == 0, 0j, np.where(
            _modulus(a2) < tiny, (big * 2.0**54) / (a2 * 2.0**54), big / a2)))
        r2 = np.where(linear, np.inf, np.where(big == 0, 0j, np.where(
            _modulus(big) < tiny, (a0 * 2.0**54) / (big * 2.0**54), a0 / big)))
    return r1, r2


@dataclass(eq=False)
class StabilityReport:
    """Per-mode roots, maximal growth rate and the stability verdict.

    Row k holds an eigenvalue ``s[k]`` of W (NaN on the state-space path),
    its roots ``alphas[k]`` (NaN in the second column where a row has one
    root) and ``max_mod[k]``, the larger root modulus.  On the modal path the
    uniform mode comes first, with its multiplier as the one root.
    """

    s: np.ndarray
    alphas: np.ndarray
    max_mod: np.ndarray
    max_growth: float
    uniform_multiplier: float
    stable: bool
    method: str
    special_unit_modes: int = 0

    @property
    def max_alpha(self) -> float:
        """Largest root modulus, the uniform mode included."""
        return max(self.max_growth, self.uniform_multiplier)

    @property
    def leading_root(self) -> complex:
        """The finite root of largest modulus; ties go to the earlier row, then
        to r1 over r2."""
        flat = self.alphas.ravel()
        finite = np.flatnonzero(np.isfinite(flat))
        return complex(flat[finite[np.argmax(_modulus(flat[finite]))]])


def _uniform_mode_index(net: IONetwork) -> tuple[np.ndarray, int]:
    """Eigenvalues of W and the index of the uniform (Perron) mode."""
    vals, vecs = net.eigensystem
    near_one = np.where(np.abs(vals - 1.0) < UNIT_EIG_TOL)[0]
    if len(near_one) == 0:
        raise ArithmeticError("row-stochastic matrix has no eigenvalue one")
    ones = np.ones(net.n) / math.sqrt(net.n)
    overlap = np.abs(ones @ vecs[:, near_one])
    return vals, int(near_one[np.argmax(overlap)])


def max_growth_rate_modal(net: IONetwork, params: ModelParams) -> StabilityReport:
    """Stability of a normal network via the per-mode quadratics.

    Rejects non-normal networks (use the state-space path).  Eigenvalues on
    the unit circle other than the uniform one (identity or permutation
    networks) are evaluated through the quadratic and counted as special.
    """
    if not net.is_normal:
        raise ValueError("modal analysis requires a normal network")
    vals, uniform_idx = _uniform_mode_index(net)
    multiplier = uniform_mode_multiplier(params)
    s_modes = np.delete(np.asarray(vals, dtype=complex), uniform_idx)
    r1, r2 = mode_roots(*mode_quadratic(s_modes, params))
    mods = np.maximum(_modulus(r1), _modulus(r2))
    max_growth = float(mods.max()) if mods.size else 0.0
    return StabilityReport(
        s=np.concatenate([[complex(vals[uniform_idx])], s_modes]),
        alphas=np.vstack([[multiplier, np.nan], np.column_stack([r1, r2])]),
        max_mod=np.concatenate([[multiplier], mods]),
        max_growth=max_growth,
        uniform_multiplier=multiplier,
        stable=bool(max_growth < 1.0 and multiplier < 1.0),
        method="mode_quadratic",
        special_unit_modes=int((_modulus(s_modes) >= 1.0 - 1e-12).sum()),
    )


def analyze_stability(net: IONetwork, params: ModelParams,
                      equilibrium: EquilibriumState | None = None) -> StabilityReport:
    """Modal quadratics for normal networks, the state-space spectrum otherwise.

    ``critical_gamma`` makes the same choice for its whole search, reading
    the state-space spectra off the gamma pencil.  ``equilibrium`` (solved
    when None) is used by the state-space path only.
    """
    if net.is_normal:
        return max_growth_rate_modal(net, params)
    return _state_space_report(state_space_spectrum(build_linearized(net, params, equilibrium)),
                               params)


def _state_space_report(vals: np.ndarray, params: ModelParams) -> StabilityReport:
    """The state-space path's report on the eigenvalues ``vals`` of the map."""
    max_mod = _modulus(vals)
    max_growth = float(max_mod.max()) if max_mod.size else 0.0
    return StabilityReport(
        s=np.full(len(vals), np.nan + 0j),
        alphas=np.column_stack([vals, np.full(len(vals), np.nan)]).astype(complex),
        max_mod=max_mod,
        max_growth=max_growth,
        uniform_multiplier=uniform_mode_multiplier(params),
        stable=bool(max_growth < 1.0),
        method="state_space",
    )


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


def _brent(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in the bracket [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Step for step, and in the same floating-point operations, the algorithm
    of scipy's ``brentq`` with its default rtol = 4 eps and maxiter = 100,
    so the iterates are the same floats.  Raises ValueError when f(xa) and
    f(xb) have the same sign, ArithmeticError when f returns NaN or the
    bracket has not shrunk to xtol + rtol |x| after 100 iterations.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ArithmeticError(f"root finder: f({x!r}) is NaN")
        return fx

    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("root finder: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # den = 0 (fblk = fpre): brentq's quotient is inf or NaN, and either bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            spre, scur = (scur, stry) if good else (sbis, sbis)
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ArithmeticError(f"root finder: no convergence in 100 iterations (last x {xcur!r})")


def critical_gamma(net: IONetwork, params: ModelParams, q: float) -> CriticalPoint | None:
    """Smallest gamma in (0, 1] where the leading root leaves the unit circle.

    The first gamma_flip at which a root reaches -1 is exact, from one
    generalized eigenproblem (``_flip_gamma``).  max|alpha| - 1 is evaluated
    lazily in ascending order on a grid over (0, gamma_flip] (over (0, 1]
    when there is no flip), then over (gamma_flip, 1]: SEARCH_POINTS equal
    steps per interval, below the first of them SEARCH_HALVINGS halvings.
    The first sign change from <= 0 to > 0 is refined by Brent's method
    (``_brent``) to GAMMA_XTOL, except that a change ending at gamma_flip where
    |max|alpha| - 1| <= CROSSING_TOL returns gamma_flip itself.  The kind is
    read off the leading root at gamma_c + 1e-8.  Returns None when no
    upward crossing is found: stable throughout, or unstable from the first
    grid point on.  Raises ArithmeticError, naming gamma, where max|alpha|
    is NaN.

    The two kernel evaluations of the gamma pencil, made once per q, serve
    the flip.  On a normal network each gamma costs the modal quadratics.
    On any other, the pencil also serves every spectrum: a gamma costs one
    axpy L0 + gamma L1, one (n+1)-square solve and the eigenvalues of the
    2n-square map (``state_space_spectrum`` of L), where a fresh
    linearization costs a kernel evaluation, both Jacobians and a 2n-column
    solve.  A grid point whose map S has ||S^m||_F <= POWER_NORM_STABLE for
    some m = 2, 4, ..., 2^POWER_SQUARINGS (``_powers_contract``, at most
    POWER_SQUARINGS 2n-square products) is stable and costs no eigenvalues:
    the grid's sign reads are the same, and Brent's values, the flip test
    and the kind still come from the spectra, so gamma_c is the same bit
    for bit.  On the 24 recorded random_exp n=32 cells a search takes 8.9
    spectra on average, against 24.7 with one at every grid point.
    """
    base = replace(params, q=q, q0=None if params.q0 == params.q else params.q0)
    # gamma leaves the static equilibrium unchanged: solve it once per q
    equilibrium = solve_equilibrium(net, base)
    # the pencil serves the flip, and on non-normal networks every spectrum
    pencil = _gamma_pencil(net, base, equilibrium)

    def report(gamma: float) -> StabilityReport:
        at = replace(base, gamma=gamma)
        if net.is_normal:
            return max_growth_rate_modal(net, at)
        return _state_space_report(state_space_spectrum(pencil[0] + gamma * pencil[1]), at)

    @cache
    def excess(gamma: float) -> float:
        value = report(gamma).max_alpha - 1.0
        if math.isnan(value):  # would read as stable: excess(lo) > 0 is false
            raise ArithmeticError(f"critical search: max|alpha| is NaN at gamma = {gamma!r}")
        return value

    @cache
    def unstable(gamma: float) -> bool:
        """excess(gamma) > 0, without the spectrum where powers of S contract."""
        return ((net.is_normal or not _powers_contract(_state_map(pencil[0] + gamma * pencil[1])))
                and excess(gamma) > 0.0)

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
            gamma_c = _brent(excess, lo, hi, GAMMA_XTOL)
            break
    else:
        return None

    root = report(min(gamma_c + 1e-8, 1.0)).leading_root
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
    verdict = "stable" if report.stable else "unstable"
    r1, r2 = report.alphas.T
    rows = zip(report.s.real, report.s.imag, r1.real, r1.imag, r2.real, r2.imag,
               report.max_mod)
    write_csv(path, ["s_re", "s_im", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                     "max_mod"], rows, config_hash,
              [f"verdict={verdict} max_alpha={report.max_alpha:.12g} method={report.method}"])


def critical_line_to_csv(line: CriticalLine, path, config_hash: str = "") -> None:
    rows = [(q, g, kind, root.real, root.imag)
            for q, g, kind, root in zip(line.q_grid, line.gamma_c, line.kind, line.root)]
    write_csv(path, ["q", "gamma_c", "kind", "max_root_re", "max_root_im"], rows, config_hash)
