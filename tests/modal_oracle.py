"""Frozen reference: the per-mode quadratics of a normal network.

A copy of the modal path ``netecon.stability`` took on normal networks
before every network took the state-space spectrum.  For a normal
input-output matrix the linearized dynamics diagonalizes in the eigenbasis
of W, and each non-uniform eigenvalue s contributes a second-order
difference equation A2 xi_{t+1} + A1 xi_t + A0 xi_{t-1} = 0; the uniform
mode is first order and always stable.  ``mode_quadratic`` (the
coefficients) and ``mode_roots`` (the roots) state that quadratic once,
vectorized over s.  Tests check the package's spectra against it; nothing
in the package uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: max-norm of the commutator W W' - W' W below which ``w`` counts as normal
NORMAL_TOL = 1e-10
UNIT_EIG_TOL = 1e-9


def is_normal(net) -> bool:
    """Whether ``net.w`` commutes with its transpose (max-norm of the
    commutator below ``NORMAL_TOL``)."""
    commutator = net.w @ net.w.T - net.w.T @ net.w
    return bool(np.max(np.abs(commutator)) < NORMAL_TOL)


def uniform_mode_multiplier(params) -> float:
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
    """|z| elementwise by hypot, bit for bit Python's ``abs(complex)``."""
    return np.hypot(z.real, z.imag)


def mode_quadratic(s, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _ldexp(z, exp) -> np.ndarray:
    """z 2^exp, exact: the real and imaginary parts are scaled apart, signed
    zeros kept."""
    out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(exp)), dtype=complex)
    out.real, out.imag = np.ldexp(z.real, exp), np.ldexp(z.imag, exp)
    return out


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
    a2, a1, a0 = _ldexp(coeffs, 1 - exp)
    linear = a2 == 0
    if (linear & (a1 == 0)).any():
        raise ValueError("degenerate quadratic with A2 = A1 = 0")
    disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
    tiny = np.finfo(float).tiny
    # a nonzero A1 below sqrt(tiny) still underflows A1^2: there A1 is taken
    # into [1, 2) by its own power of two 2^m, and the discriminant is
    # sqrt((2^m A1)^2 - 2^2m 4 A2 A0) / 2^m.  Where 2^2m 4 A2 A0 overflows,
    # A1^2 is below its rounding and the plain form stands
    _, exp = np.frexp(_modulus(a1))
    with np.errstate(over="ignore", invalid="ignore"):
        a1_m = _ldexp(a1, 1 - exp)
        shifted = _ldexp(np.sqrt(a1_m * a1_m - _ldexp(4.0 * a2 * a0, 2 - 2 * exp)), exp - 1)
    small = (a1 != 0) & (_modulus(a1) < np.sqrt(tiny)) & np.isfinite(shifted)
    disc = np.where(small, shifted, disc)
    plus, minus = -a1 + disc, -a1 - disc
    big = np.where(_modulus(plus) >= _modulus(minus), plus, minus) / 2.0
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
class ModalReport:
    """Per-mode roots, maximal growth rate and the stability verdict.

    Row k holds an eigenvalue ``s[k]`` of W, its roots ``alphas[k]`` (NaN in
    the second column where a row has one root) and ``max_mod[k]``, the
    larger root modulus.  The uniform mode comes first, with its multiplier
    as the one root.
    """

    s: np.ndarray
    alphas: np.ndarray
    max_mod: np.ndarray
    max_growth: float
    uniform_multiplier: float
    stable: bool
    special_unit_modes: int

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


def _uniform_mode_index(net) -> tuple[np.ndarray, int]:
    """Eigenvalues of W and the index of the uniform (Perron) mode."""
    vals, vecs = np.linalg.eig(net.w)
    near_one = np.where(np.abs(vals - 1.0) < UNIT_EIG_TOL)[0]
    if len(near_one) == 0:
        raise ArithmeticError("row-stochastic matrix has no eigenvalue one")
    ones = np.ones(net.n) / math.sqrt(net.n)
    overlap = np.abs(ones @ vecs[:, near_one])
    return vals, int(near_one[np.argmax(overlap)])


def max_growth_rate_modal(net, params) -> ModalReport:
    """Stability of a normal network via the per-mode quadratics.

    Rejects non-normal networks.  Eigenvalues on the unit circle other than
    the uniform one (identity or permutation networks) are evaluated through
    the quadratic and counted as special.
    """
    if not is_normal(net):
        raise ValueError("modal analysis requires a normal network")
    vals, uniform_idx = _uniform_mode_index(net)
    multiplier = uniform_mode_multiplier(params)
    s_modes = np.delete(np.asarray(vals, dtype=complex), uniform_idx)
    r1, r2 = mode_roots(*mode_quadratic(s_modes, params))
    mods = np.maximum(_modulus(r1), _modulus(r2))
    max_growth = float(mods.max()) if mods.size else 0.0
    return ModalReport(
        s=np.concatenate([[complex(vals[uniform_idx])], s_modes]),
        alphas=np.vstack([[multiplier, np.nan], np.column_stack([r1, r2])]),
        max_mod=np.concatenate([[multiplier], mods]),
        max_growth=max_growth,
        uniform_multiplier=multiplier,
        stable=bool(max_growth < 1.0 and multiplier < 1.0),
        special_unit_modes=int((_modulus(s_modes) >= 1.0 - 1e-12).sum()),
    )
