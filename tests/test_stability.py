import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from block_system import block_state_map
from closed_forms import critical_gamma_b1_approx, critical_gamma_closed_form, hopf_angle
from conftest import make_circulant, make_symmetric_stochastic
from flip_oracle import qz_flip_gamma
from modal_oracle import max_growth_rate_modal, mode_quadratic, mode_roots, uniform_mode_multiplier
from netecon import stability
from netecon.config import build_network, load_config
from netecon.equilibrium import ModelParams, solve_equilibrium
from netecon.network import IONetwork, build_plain_network, build_random_exponential_network
from netecon.stability import (
    _bisect,
    _flip_gamma,
    _gamma_pencil,
    _state_map,
    _step_matrix,
    analyze_stability,
    build_linearized,
    critical_gamma,
    linear_state_map,
    state_space_spectrum,
    trace_critical_line,
)
from scan_oracle import scan_critical_gamma

PARAMS = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.15)
PHASE_ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "phase_oracle.json"


def _decline_newton(monkeypatch):
    """Make the critical search refine every crossing by bisection, its fallback."""
    monkeypatch.setattr(stability, "_crossing_newton", lambda *args: None)


def _counting_fallback(monkeypatch) -> list:
    """Record the arguments of every call of the critical search's bisection fallback."""
    bisect, calls = stability._bisect, []

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(stability, "_bisect", counted)
    return calls


def _oracle_searches() -> list:
    """(recorded cell, critical_gamma arguments) of the 24 random_exp n=32 oracle cells."""
    with open(PHASE_ORACLE) as fh:
        cells = json.load(fh)["cells"]
    searches = []
    for cell in cells:
        conf = load_config(None, ["network.kind=random_exp", "network.n=32",
                                  f"network.seed={cell['network_seed']}"])
        searches.append((cell, (build_network(conf), conf.params, cell["q"])))
    return searches


def _max_root_modulus(s, params):
    r1, r2 = mode_roots(*mode_quadratic(s, params))
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


BLOCK_ORACLE_NETWORKS = {
    "plain": lambda: build_plain_network(6),
    "random_exp12": lambda: build_random_exponential_network(12, 3),
    "random_exp32": lambda: build_random_exponential_network(32, 1),
    "symmetric": lambda: make_symmetric_stochastic(10, 2),
    "circulant": lambda: make_circulant(9, 1),
    "identity": lambda: IONetwork(4, np.eye(4)),
    "n1": lambda: build_plain_network(1),
}


class TestBuildLinearized:
    @pytest.mark.parametrize("name", list(BLOCK_ORACLE_NETWORKS))
    def test_matches_block_system(self, name):
        # the kernel's derivative reproduces the hand-linearized block system,
        # projectors and gauge row included, also for q0 != q and beta0 != 1
        net = BLOCK_ORACLE_NETWORKS[name]()
        for params in (PARAMS,
                       ModelParams(a=0.3, b=0.8, q=-0.5, q0=0.2, gamma=0.3, beta0=0.95),
                       ModelParams(a=0.7, b=0.6, q=0.5, q0=-0.3, gamma=0.9, beta0=1.1)):
            s_map, b_map = linear_state_map(net, params)
            s_ref, b_ref = block_state_map(net, params)
            scale = np.max(np.abs(s_ref))
            assert np.max(np.abs(s_map - s_ref)) <= 1e-12 * scale
            assert np.max(np.abs(b_map - b_ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("net", [
        build_plain_network(5), build_plain_network(32),
        build_random_exponential_network(8, 2), build_random_exponential_network(32, 1),
    ], ids=["plain5", "plain32", "random_exp8", "random_exp32"])
    @pytest.mark.parametrize("q, q0, gamma", [(-1.0, -1.0, 0.13), (0.0, 0.3, 0.5)])
    def test_one_formula_for_s(self, net, q, q0, gamma):
        # S solved from the square L (the spectra's path) is the S of the
        # whole [L | Z] (linear_state_map's), bit for bit
        params = ModelParams(a=0.5, b=0.9, q=q, q0=q0, gamma=gamma)
        step = _step_matrix(build_linearized(net, params))
        assert step.shape == (3 * net.n + 1, 4 * net.n + 1)
        np.testing.assert_array_equal(_state_map(step[:, :3 * net.n + 1]),
                                      linear_state_map(net, params)[0])

    def test_single_firm_degenerate(self):
        # one firm: the gauge pins its price, so the map acts on quantity alone
        params = ModelParams(a=0.5, b=0.9, q=0.0, gamma=0.3)
        s_map, b_map = linear_state_map(build_plain_network(1), params)
        assert s_map.shape == (2, 2) and b_map.shape == (2, 1)
        assert np.all(s_map[1] == 0.0) and np.all(s_map[:, 1] == 0.0) and b_map[1, 0] == 0.0
        assert s_map[0, 0] == pytest.approx(uniform_mode_multiplier(params), abs=1e-12)

    def test_inconsistent_equilibrium_rejected(self):
        net = build_random_exponential_network(6, 2)
        eq = solve_equilibrium(net, PARAMS)
        skewed = replace(eq, p_eq=eq.p_eq * (1.0 + 1e-6 * np.arange(6)))
        build_linearized(net, PARAMS, eq)
        with pytest.raises(ArithmeticError, match="clear"):
            build_linearized(net, PARAMS, skewed)


class TestUniformMode:
    def test_frictionless_limit(self):
        assert uniform_mode_multiplier(ModelParams(gamma=1.0)) == 0.0

    def test_slow_adjustment_is_marginal(self):
        m = uniform_mode_multiplier(ModelParams(gamma=1e-9))
        assert 0.999999 < m < 1.0

    def test_reference_value(self):
        # zeta = 4, zeta (1-b+ab) = 2.2, multiplier = 0.8 / 3
        m = uniform_mode_multiplier(ModelParams(a=0.5, b=0.9, gamma=0.2))
        assert m == pytest.approx(0.8 / 3.0, abs=1e-15)

    def test_undefined_cases(self):
        # at a = 1 zeta is infinite and the multiplier is its limit 0
        assert uniform_mode_multiplier(ModelParams(a=1.0)) == 0.0
        assert uniform_mode_multiplier(ModelParams(a=1.0 - 1e-9)) < 1e-8
        with pytest.raises(ValueError):
            uniform_mode_multiplier(ModelParams(b=1.0))

    def test_single_firm_decay_rate_matches(self):
        # cross-check by simulating the one-firm economy's linear decay
        # (early steps only: the signal reaches the solver floor quickly)
        from netecon.simulator import Simulator

        params = ModelParams(a=0.5, b=0.9, q=0.0, gamma=0.2)
        net = build_plain_network(1)
        sim = Simulator(net, params, tol=1e-13)
        state = sim.equilibrium_state()
        state.x_next = state.x_next * np.exp(np.array([1e-6]))
        xs = []
        for _ in range(8):
            state = sim.step(state, np.zeros(1))
            xs.append(float(np.log(state.x[0] / sim.equilibrium.x_eq[0])))
        rates = np.array(xs[1:]) / np.array(xs[:-1])
        assert np.allclose(rates[1:6], 0.8 / 3.0, rtol=1e-4)


class TestModeQuadratic:
    def test_s_zero_q_zero(self):
        for gamma in (0.05, 0.2, 0.7):
            a2, a1, a0 = mode_quadratic(0.0, ModelParams(a=0.5, b=0.9, q=0.0, gamma=gamma))
            assert a2 == pytest.approx(1.0, abs=1e-14)
            assert a1 == pytest.approx(-(1.0 - gamma - 9.0 * gamma), abs=1e-12)
            assert a0 == 0.0

    def test_s_zero_q_minus_one(self):
        gamma = 0.13
        a2, a1, a0 = mode_quadratic(0.0, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=gamma))
        assert a2 == pytest.approx(1.0, abs=1e-14)
        assert a1 == pytest.approx(-(1.0 - gamma), abs=1e-14)
        assert a0 == pytest.approx(9.0 * gamma, abs=1e-12)

    def test_vectorized_over_s(self):
        # an array of s gives one quadratic per entry, each equal to the
        # quadratic of that s alone
        s = np.array([0.0, 0.3 + 0.2j, -0.5, 0.1j])
        coeffs = mode_quadratic(s, PARAMS)
        for k, sk in enumerate(s):
            for arr, alone in zip(coeffs, mode_quadratic(sk, PARAMS)):
                assert arr.shape == s.shape
                assert arr[k] == alone

    def test_frozen_adjustment_is_marginal(self):
        # gamma -> 0 freezes production: root at one
        roots = mode_roots(1.0, -1.0, 0.0)
        assert sorted(abs(complex(r)) for r in roots) == [0.0, 1.0]

    def test_unit_modulus_admitted_beyond_rejected(self):
        # |s| = 1 (identity or permutation networks) is admitted, reports
        # count it as special; beyond the unit circle is an error
        with pytest.raises(ValueError):
            mode_quadratic(1.5, PARAMS)
        with pytest.raises(ValueError):
            mode_quadratic(np.array([0.2, 1.5j]), PARAMS)
        a2, _, _ = mode_quadratic(1.0, PARAMS)
        assert np.isfinite(a2.real)

    def test_crs_rejected(self):
        with pytest.raises(ValueError):
            mode_quadratic(0.0, ModelParams(b=1.0))


class TestModeRoots:
    def test_simple_factorization(self):
        roots = sorted(mode_roots(1.0, -1.0, 0.0), key=abs)
        assert roots[0] == 0.0
        assert roots[1] == pytest.approx(1.0)

    def test_unit_circle_pair_at_critical_gamma(self):
        # q = -1, s = 0: product of roots = 9 gamma = 1 at gamma = 1/9,
        # discriminant negative -> conjugate pair exactly on the circle
        gamma = 1.0 / 9.0
        r1, r2 = mode_roots(*mode_quadratic(0.0, ModelParams(a=0.5, b=0.9, q=-1.0,
                                                             gamma=gamma)))
        assert abs(r1) == pytest.approx(1.0, abs=1e-12)
        assert abs(r2) == pytest.approx(1.0, abs=1e-12)
        assert abs(r1.imag) > 0.5

    def test_real_minus_one_at_q0_critical(self):
        roots = sorted(mode_roots(*mode_quadratic(0.0, ModelParams(a=0.5, b=0.9, q=0.0,
                                                                   gamma=0.2))), key=abs)
        assert roots[1] == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_linear(self):
        root, marker = mode_roots(0.0, 2.0, -1.0)
        assert root == pytest.approx(0.5)
        assert np.isinf(marker)

    def test_degenerate_entry_of_an_array(self):
        # A2 = 0 in one entry leaves the other entries' roots untouched
        r1, r2 = mode_roots(np.array([0.0, 1.0]), np.array([2.0, -1.0]), np.array([-1.0, 0.0]))
        assert r1[0] == pytest.approx(0.5) and np.isinf(r2[0])
        assert sorted([abs(r1[1]), abs(r2[1])]) == [0.0, 1.0]
        with pytest.raises(ValueError):
            mode_roots(np.array([0.0, 1.0]), np.array([0.0, -1.0]), np.array([1.0, 0.0]))

    @given(
        a2=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0),
        a1=st.complex_numbers(max_magnitude=3.0),
        a0=st.complex_numbers(max_magnitude=3.0),
    )
    @settings(max_examples=50, deadline=None)
    # a subnormal A1 with A0 = 0: big = -A1/2 is subnormal, and numpy's complex
    # division by it overflowed (r2 = nan)
    @example(a2=1, a1=1.1125369292536007e-308, a0=0)
    # all three tiny: A1^2 underflowed, the discriminant read 0 and r1 was
    # half the large root
    @example(a2=3e-309, a1=1e-300, a0=1e-300)
    def test_vieta_identities(self, a2, a1, a0):
        r1, r2 = mode_roots(a2, a1, a0)
        assert abs(r1 * r2 - a0 / a2) < 1e-8 * max(1.0, abs(a0 / a2))
        assert abs((r1 + r2) + a1 / a2) < 1e-8 * max(1.0, abs(a1 / a2))

    def test_subnormal_big_gives_a_finite_quotient(self):
        # big = -A1 (-1e-308, and the subnormal -1e-309); A0 / big is 0, not
        # nan+nanj
        for a1 in (1e-308, 1e-309):
            r1, r2 = mode_roots(1.0, a1, 0.0)
            assert np.isfinite(r1) and abs(r1) <= a1
            assert r2 == 0.0

    def test_subnormal_a1_keeps_the_discriminant(self):
        # A1 = tiny / 2 with A0 = 0: A1^2 underflowed, the discriminant read 0
        # and r1 was -A1 / 2; the roots are -A1 and 0
        r1, r2 = mode_roots(1.0, 1.1125369292536007e-308, 0.0)
        assert r1.real == pytest.approx(-1.1125369292536007e-308, rel=1e-15, abs=0.0)
        assert r1.imag == 0.0 and r2 == 0.0

    def test_tiny_coefficients_keep_the_discriminant(self):
        # 4 A2 A0 = 2e-324 and A1^2 = 1e-616 underflowed unscaled, and the
        # roots read as the real -5e-308 and -1e-15; they are the complex pair
        # +-i sqrt(A0 / A2), up to a real part of 5e-308 (the scaled 4 A2 A0
        # is still subnormal, hence the 1% on each root)
        r1, r2 = mode_roots(0.1, 1e-308, 5e-324)
        for root in (r1, r2):
            assert abs(root.imag) == pytest.approx(math.sqrt(5e-324 / 0.1), rel=1e-2, abs=0.0)
            assert abs(root.real) <= 1e-307
        assert abs(r1 * r2) == pytest.approx(5e-324 / 0.1, rel=1e-14, abs=0.0)

    def test_subnormal_a2_gives_a_finite_quotient(self):
        # A2 = 3e-309 is subnormal: big / A2 was -inf+nanj in both cases.
        # The large root is -A1/A2 + A0/A1 (to rounding), the discriminant
        # no longer lost to an underflowing A1^2
        r1, _ = mode_roots(3e-309, 1e-300, 1e-300)
        assert np.isfinite(r1) and r1.imag == 0.0
        assert r1.real == pytest.approx(-1e-300 / 3e-309 + 1.0, rel=1e-14, abs=0.0)
        r1, _ = mode_roots(3e-309, 1.0, 0.5)  # big = -1: the quotient overflows
        assert r1.real == -np.inf and r1.imag == 0.0


class TestModalVsStateSpace:
    def test_plain_matrix_report_independent_of_n(self):
        reports = [max_growth_rate_modal(build_plain_network(n), PARAMS) for n in (4, 32)]
        assert reports[0].max_growth == pytest.approx(reports[1].max_growth, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_networks_agree(self, seed):
        net = make_symmetric_stochastic(12, seed)
        params = ModelParams(a=0.5, b=0.9, q=-0.4, gamma=0.12)
        report = max_growth_rate_modal(net, params)
        modal = max(report.max_growth, report.uniform_multiplier)
        vals = state_space_spectrum(build_linearized(net, params))
        assert abs(modal - np.max(np.abs(vals))) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_circulant_complex_spectrum_agrees(self, seed):
        # circulants are normal with genuinely complex eigenvalues; this pins
        # the complex-s form of the quadratic coefficients
        net = make_circulant(9, seed)
        assert np.max(np.abs(np.linalg.eigvals(net.w).imag)) > 1e-3
        for q in (-1.0, -0.4, 0.3):
            params = ModelParams(a=0.5, b=0.9, q=q, gamma=0.14)
            report = max_growth_rate_modal(net, params)
            modal = max(report.max_growth, report.uniform_multiplier)
            vals = state_space_spectrum(build_linearized(net, params))
            assert abs(modal - np.max(np.abs(vals))) < 1e-10

    def test_conjugate_modes_have_equal_maxima(self):
        net = make_circulant(8, 5)
        report = max_growth_rate_modal(net, PARAMS)
        by_imag = {}
        for s, max_mod in zip(report.s[1:], report.max_mod[1:]):
            key = round(abs(s.imag), 9)
            by_imag.setdefault(key, []).append(max_mod)
        for key, mods in by_imag.items():
            if key > 0 and len(mods) == 2:
                assert mods[0] == pytest.approx(mods[1], abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_circulant_leading_root_is_the_spectral_radius(self, seed):
        # the modal report's leading root has the modulus of the largest
        # state-space eigenvalue, on both sides of the critical line
        net = make_circulant(9, seed)
        for q, gamma in ((-1.0, 0.08), (-1.0, 0.14), (-0.4, 0.14), (0.3, 0.3)):
            params = ModelParams(a=0.5, b=0.9, q=q, gamma=gamma)
            report = max_growth_rate_modal(net, params)
            vals = state_space_spectrum(build_linearized(net, params))
            assert abs(abs(report.leading_root) - np.max(np.abs(vals))) < 1e-10
            assert abs(report.leading_root) == pytest.approx(report.max_alpha, abs=1e-15)

    def test_identity_matrix_flagged_special(self):
        net = IONetwork(4, np.eye(4))
        report = max_growth_rate_modal(net, PARAMS)
        assert report.special_unit_modes == 3

    def test_non_normal_rejected_by_modal(self):
        net = build_random_exponential_network(8, 1)
        with pytest.raises(ValueError):
            max_growth_rate_modal(net, PARAMS)

    def test_single_firm_state_space_equals_multiplier(self):
        params = ModelParams(a=0.5, b=0.9, q=0.0, gamma=0.3)
        net = build_plain_network(1)
        vals = state_space_spectrum(build_linearized(net, params))
        assert np.max(np.abs(vals)) == pytest.approx(
            uniform_mode_multiplier(params), abs=1e-12
        )


class TestGaugeHandling:
    def test_uniform_price_direction_annihilated(self):
        # the gauge row maps (xi=0, pi=uniform) to zero
        net = build_random_exponential_network(7, 2)
        s_map, _ = linear_state_map(net, PARAMS)
        state = np.concatenate([np.zeros(7), np.ones(7)])
        image = s_map @ state
        assert np.max(np.abs(image)) < 1e-10


class TestCriticalGamma:
    def test_plain_q0_real_crossing(self):
        cp = critical_gamma(build_plain_network(16), PARAMS, q=0.0)
        assert cp.gamma_c == pytest.approx(0.2, abs=1e-6)
        assert cp.kind == "real_minus_one"

    def test_plain_qm1_complex_crossing(self):
        cp = critical_gamma(build_plain_network(16), PARAMS, q=-1.0)
        assert cp.gamma_c == pytest.approx(1.0 / 9.0, abs=1e-6)
        assert cp.kind == "complex_pair"

    def test_bracketing_certificate(self):
        cp = critical_gamma(build_plain_network(16), PARAMS, q=-1.0)
        below = _max_root_modulus(np.zeros(1, dtype=complex),
                                  ModelParams(a=0.5, b=0.9, q=-1.0, gamma=cp.gamma_c - 1e-6))
        above = _max_root_modulus(np.zeros(1, dtype=complex),
                                  ModelParams(a=0.5, b=0.9, q=-1.0, gamma=cp.gamma_c + 1e-6))
        assert below < 1.0 < above

    def test_interior_maximum_at_negative_q(self):
        line = trace_critical_line(build_plain_network(8), PARAMS,
                                   np.arange(-1.0, 1.0, 0.1))
        finite = np.where(np.isfinite(line.gamma_c))[0]
        peak = finite[np.argmax(line.gamma_c[finite])]
        assert -1.0 < line.q_grid[peak] < 0.0

    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5])
    def test_a_one_network_drops_out(self, q):
        # a = 1: c = 0, so a plain network and a non-normal one find the same
        # crossing
        params = replace(PARAMS, a=1.0)
        plain = critical_gamma(build_plain_network(8), params, q)
        state_space = critical_gamma(build_random_exponential_network(8, 1), params, q)
        assert state_space.kind == plain.kind
        assert state_space.gamma_c == pytest.approx(plain.gamma_c, abs=1e-12)

    @pytest.mark.parametrize("net", [build_plain_network(6),
                                     build_random_exponential_network(8, 1)],
                             ids=["modal", "state_space"])
    def test_nan_at_a_grid_point_raises(self, monkeypatch, net):
        # a NaN max|alpha| below the crossing is a numerical failure, not a
        # stable grid point.  With every grid point's spectrum computed the
        # reports follow the grid, which starts at 1/32 halved five times
        # (neither network flips below 1 at q = -1); the third names its gamma
        original, seen = stability._state_space_report, []
        monkeypatch.setattr(stability, "_powers_contract", lambda s: False)

        def nan_at_the_third_gamma(vals):
            seen.append(vals)
            report = original(vals)
            return replace(report, max_alpha=math.nan) if len(seen) == 3 else report

        monkeypatch.setattr(stability, "_state_space_report", nan_at_the_third_gamma)
        with pytest.raises(ArithmeticError, match="NaN") as info:
            critical_gamma(net, PARAMS, -1.0)
        third = 0.5 ** (stability.SEARCH_HALVINGS - 2) / stability.SEARCH_POINTS
        assert len(seen) == 3 and f"gamma = {third!r}" in str(info.value)

    def test_non_normal_state_space_path(self):
        net = build_random_exponential_network(10, 4)
        cp = critical_gamma(net, PARAMS, q=-1.0)
        assert cp is not None
        assert 0.02 < cp.gamma_c < 0.2


def _recording(f):
    """f, with the points it is evaluated at appended to ``.points``."""
    def g(x):
        g.points.append(x)
        return f(x)
    g.points = []
    return g


class TestBisect:
    """The critical search's fallback refinement of a bracket."""

    @pytest.mark.parametrize("x0,xtol", [(0.3, 1e-13), (0.123456789, 1e-13), (0.7, 1e-6)])
    def test_step_function(self, x0, xtol):
        # the jump at x0: the result is on the positive side, within xtol of
        # it, and f is read only at midpoints, never at the bracket's ends
        f = _recording(lambda x: 1.0 if x > x0 else -1.0)
        r = _bisect(f, 0.0, 1.0, xtol)
        assert f(r) > 0 and 0 < r - x0 <= xtol
        points = f.points[:-1]
        assert points and 0.0 not in points and 1.0 not in points
        lo, hi = 0.0, 1.0
        for x in points:
            assert x == 0.5 * (lo + hi)
            lo, hi = (lo, x) if x > x0 else (x, hi)

    # f(lo) <= 0 < f(hi) with one simple root in the bracket, and that root
    ROOTS = [
        (lambda x: (0.3 - x) * (x + 1.2) * (x - 2.5) * (x * x + 1.0), 0.0, 1.0, 0.3),
        (lambda x: x - math.cos(x), 0.0, 1.0, 0.7390851332151607),
        (lambda x: math.tanh(3.0 * (x - 0.4)), -1.0, 2.0, 0.4),
        (lambda x: math.atan(50.0 * (x - 0.123)), 0.0, 3.0, 0.123),
    ]

    @pytest.mark.parametrize("case", range(len(ROOTS)))
    def test_continuous_root(self, case):
        # the result is on the positive side and at most xtol above the root,
        # after ceil(log2(width / xtol)) evaluations, at the search's xtol and
        # a coarser one
        f, lo, hi, root = self.ROOTS[case]
        for xtol in (1e-13, 1e-8):
            g = _recording(f)
            r = _bisect(g, lo, hi, xtol)
            assert f(r) > 0 and -1e-15 <= r - root <= xtol + 1e-15
            assert len(g.points) == math.ceil(math.log2((hi - lo) / xtol))

    def test_a_bracket_within_xtol_is_returned_unevaluated(self):
        f = _recording(lambda x: x - 0.5)
        assert _bisect(f, 0.5, 0.5 + 1e-14, 1e-13) == 0.5 + 1e-14
        assert f.points == []

    @pytest.mark.parametrize("q", [-1.0, -0.5])
    def test_critical_search_ends_at_the_unstable_side(self, monkeypatch, q):
        # a recorded random_exp n = 32 cell refined by bisection once Newton
        # declines: its gamma_c is unstable and gamma_c - GAMMA_XTOL is not
        with open(PHASE_ORACLE) as fh:
            cell = next(c for c in json.load(fh)["cells"]
                        if c["network_seed"] == 0 and c["q"] == q)
        calls = _counting_fallback(monkeypatch)
        _decline_newton(monkeypatch)
        conf = load_config(None, ["network.kind=random_exp", "network.n=32", "network.seed=0"])
        point = critical_gamma(build_network(conf), conf.params, q)
        assert _same_crossing(point, (cell["gamma_c"], cell["kind"]))
        [(excess, _, _, _)] = calls
        assert excess(point.gamma_c) > 0.0
        assert excess(point.gamma_c - stability.GAMMA_XTOL) <= 0.0


def _same_crossing(point, reference, tol=1e-9):
    if reference is None:
        return point is None
    return (point is not None and abs(point.gamma_c - reference[0]) <= tol
            and point.kind == reference[1])


# (network, b, q): the plain closed-form cells, the plain n=8 q grid at two
# returns to scale (b = 0.5 has no crossing for q <= 0), crossings below
# gamma = 1/32 near constant returns and one below both searches' first
# point (no crossing found), and one non-normal cell
SCAN_CELLS = (
    [("plain16", 0.9, q) for q in (-1.0, -0.5, 0.0, 0.5)]
    + [("plain8", b, q) for b in (0.9, 0.5) for q in np.arange(-1.0, 1.0001, 0.25).tolist()]
    + [("plain4", 0.99, q) for q in (-1.0, -0.5, 0.0)] + [("plain4", 0.9999, -1.0)]
    + [("random_exp10", 0.9, -1.0)]
)
SCAN_NETWORKS = {
    "plain16": lambda: build_plain_network(16),
    "plain8": lambda: build_plain_network(8),
    "plain4": lambda: build_plain_network(4),
    "random_exp10": lambda: build_random_exponential_network(10, 4),
}


class TestCriticalSearch:
    """The pencil-and-bracket search against the frozen exhaustive scan."""

    @pytest.mark.parametrize("name,b,q", SCAN_CELLS)
    def test_matches_exhaustive_scan(self, name, b, q):
        net, params = SCAN_NETWORKS[name](), replace(PARAMS, b=b)
        reference = scan_critical_gamma(net, params, q)
        assert _same_crossing(critical_gamma(net, params, q), reference)

    def test_recorded_phase_oracle_cells(self, monkeypatch):
        # the random_exp n=32 cells recorded from the exhaustive scan, with at
        # most 2 state-space spectra per cell: the bracket's top and the
        # kind's probe, or the flip and the probe
        searches = _oracle_searches()
        assert len(searches) == 24
        calls = []

        def counted(lin):
            calls.append(lin)
            return state_space_spectrum(lin)

        monkeypatch.setattr(stability, "state_space_spectrum", counted)
        for cell, search in searches:
            calls.clear()
            point = critical_gamma(*search)
            assert _same_crossing(point, (cell["gamma_c"], cell["kind"])), cell
            assert 0 < len(calls) <= 2, cell

    def test_certified_grid_points_leave_the_search_unchanged(self, monkeypatch):
        # on the recorded cells the power-norm test spares the spectra of
        # every grid point below the crossing (48 spectra on the 24 cells:
        # the bracket's top, or the flip, and the kind's probe, which also
        # confirms Newton's gamma_c), and the search returns the point it
        # returns with every grid point's spectrum computed, bit for bit
        searches = [search for _, search in _oracle_searches()]
        calls = []

        def counted(step):
            calls.append(step)
            return state_space_spectrum(step)

        monkeypatch.setattr(stability, "state_space_spectrum", counted)
        points = [critical_gamma(*search) for search in searches]
        assert len(calls) <= 2 * len(searches)
        monkeypatch.setattr(stability, "_powers_contract", lambda s: False)
        calls.clear()
        assert [critical_gamma(*search) for search in searches] == points
        assert len(calls) > 20 * len(searches)

    def test_each_state_map_is_formed_once(self, monkeypatch):
        # on the recorded cells no point L0 + gamma L1 is solved for its map
        # S twice: an undecided grid point takes its spectrum from the S its
        # power test formed, and gamma_flip's power test reads the spectrum
        # the flip test took (seeds 2-7 at q = 0 cross just below the flip)
        state_map, formed = stability._state_map, []

        def recorded(step):
            formed.append(step.tobytes())
            return state_map(step)

        monkeypatch.setattr(stability, "_state_map", recorded)
        for cell, search in _oracle_searches():
            formed.clear()
            critical_gamma(*search)
            assert len(set(formed)) == len(formed), cell

    def test_newton_is_the_bisected_crossing_on_the_oracle_cells(self, monkeypatch):
        # Newton on the bordered pencil is accepted on every recorded cell
        # whose crossing is not the flip, so the fallback is never called, and
        # it lands within 1e-12 of the bisected crossing with the same kind
        searches = [search for _, search in _oracle_searches()]
        fallbacks = _counting_fallback(monkeypatch)
        points = [critical_gamma(*search) for search in searches]
        assert fallbacks == []
        _decline_newton(monkeypatch)
        for point, search in zip(points, searches):
            reference = critical_gamma(*search)
            assert _same_crossing(point, (reference.gamma_c, reference.kind), tol=1e-12)
        # the two flip cells (seeds 0 and 1 at q = 0) take neither
        assert len(fallbacks) == 22

    @pytest.mark.parametrize("name,b,q", SCAN_CELLS)
    def test_newton_is_the_bisected_crossing_on_the_scan_cells(self, monkeypatch, name, b, q):
        # as on the oracle cells, Newton is accepted wherever it is started,
        # so the fallback is never called, and it lands within 1e-12 of the
        # bisected crossing with the same kind
        net, params = SCAN_NETWORKS[name](), replace(PARAMS, b=b)
        fallbacks = _counting_fallback(monkeypatch)
        point = critical_gamma(net, params, q)
        assert fallbacks == []
        _decline_newton(monkeypatch)
        reference = critical_gamma(net, params, q)
        assert _same_crossing(point, reference and (reference.gamma_c, reference.kind), tol=1e-12)

    @pytest.mark.parametrize("failure", ["nan", "singular"])
    def test_newton_failure_falls_back_to_bisection(self, monkeypatch, failure):
        # a NaN or a singular bordered system inside Newton hands the bracket
        # to bisection: the search returns the bisected crossing, neither NaN
        # nor an exception
        net = build_random_exponential_network(10, 4)
        solve = np.linalg.solve

        def failing(a, b):
            if np.iscomplexobj(a) and a.shape[-1] == 2 * net.n + 2:  # bordered
                if failure == "singular":
                    raise np.linalg.LinAlgError("Singular matrix")
                return solve(a, b) * math.nan
            return solve(a, b)

        fallbacks = _counting_fallback(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", failing)
        point = critical_gamma(net, PARAMS, -1.0)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert len(fallbacks) == 1 and math.isfinite(point.gamma_c)
        _decline_newton(monkeypatch)
        assert critical_gamma(net, PARAMS, -1.0) == point

    def test_newton_restarts_below_a_later_crossing(self, monkeypatch):
        # started on the unstable pair of least modulus at the bracket's top,
        # Newton finds that pair's later crossing; the spectrum just below it
        # is unstable, so Newton restarts there from the leading root and ends
        # at the unforced search's crossing, with no bisection fallback
        net = build_random_exponential_network(10, 4)
        point = critical_gamma(net, PARAMS, -1.0)
        newton, starts = stability._crossing_newton, []

        def from_a_later_pair(pencil, gamma, alpha):
            if not starts:
                vals = state_space_spectrum(pencil[0] + gamma * pencil[1])
                alpha = complex(min(vals[np.abs(vals) > 1.0], key=abs))
            starts.append(gamma)
            return newton(pencil, gamma, alpha)

        monkeypatch.setattr(stability, "_crossing_newton", from_a_later_pair)
        fallbacks = _counting_fallback(monkeypatch)
        forced = critical_gamma(net, PARAMS, -1.0)
        assert fallbacks == [] and len(starts) >= 2 and starts[1] < starts[0]
        assert _same_crossing(forced, (point.gamma_c, point.kind), tol=1e-12)

    def test_newton_on_a_later_close_crossing_is_checked_below(self, monkeypatch):
        # random_exp n = 32, seed 1, q = -1: started on the leading root's
        # nearest unstable neighbour at the bracket's top, Newton lands on
        # that pair's crossing 1.8e-5 above gamma_c.  The kind's probe above
        # it shows other roots outside, so the spectrum NEWTON_CHECK below it
        # is taken, is unstable, and the restart from its leading root ends at
        # the recorded gamma_c, with no bisection fallback
        cell, search = next((cell, search) for cell, search in _oracle_searches()
                            if cell["network_seed"] == 1 and cell["q"] == -1.0)
        point = critical_gamma(*search)
        newton, only_pair_outside = stability._crossing_newton, stability._only_pair_outside
        solved, probes, maps = [], [], []

        def from_a_neighbour(pencil, gamma, alpha):
            if not solved:
                vals = state_space_spectrum(pencil[0] + gamma * pencil[1])
                unstable = vals[(np.abs(vals) > 1.0) & (np.abs(vals - alpha) > 0.0)
                                & (np.abs(vals - np.conj(alpha)) > 0.0)]
                alpha = complex(unstable[np.argmin(np.abs(unstable - alpha))])
            solved.append((pencil, newton(pencil, gamma, alpha)))
            return solved[-1][1]

        def recorded_probe(probe, alpha):
            probes.append((probe, only_pair_outside(probe, alpha)))
            return probes[-1][1]

        def recorded_spectrum(system):
            maps.append(system)
            return state_space_spectrum(system)

        monkeypatch.setattr(stability, "_crossing_newton", from_a_neighbour)
        monkeypatch.setattr(stability, "_only_pair_outside", recorded_probe)
        monkeypatch.setattr(stability, "state_space_spectrum", recorded_spectrum)
        fallbacks = _counting_fallback(monkeypatch)
        forced = critical_gamma(*search)
        (pencil, (later, _)), (_, (restarted, _)) = solved
        assert 1e-5 < later - point.gamma_c < 1e-4 and restarted < later
        # the probe shows more roots outside than Newton's pair
        assert not probes[0][1] and np.count_nonzero(probes[0][0].max_mod > 1.0) > 2
        # the spectrum below Newton's gamma is taken
        below = _state_map(pencil[0] + (later - stability.NEWTON_CHECK) * pencil[1])
        assert any(np.array_equal(s, below) for s in maps)
        assert fallbacks == [] and probes[-1][1]
        assert _same_crossing(forced, (cell["gamma_c"], cell["kind"]))
        assert _same_crossing(forced, (point.gamma_c, point.kind), tol=1e-12)

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0])
    def test_an_unstable_map_is_never_certified(self, monkeypatch, scale):
        # S = Q T Q^T, T upper triangular with a complex pair at modulus
        # 1 + 1e-6 under a non-normal transient (max ||S^m||_F about 3, 39 and
        # 9e3 at the three scales; the last passes POWER_NORM_GIVE_UP): every
        # ||S^m||_F >= rho(S)^m > 1, so no depth certifies it.  With the pair
        # at modulus 0.999 the first two are certified, in all 12 squarings,
        # which 8 could not do (0.999^256 = 0.77)
        def conjugated(radius):
            rng = np.random.default_rng(30)
            t = np.triu(rng.standard_normal((32, 32)), 1) * scale
            t[np.diag_indices(32)] = rng.uniform(-0.5, 0.5, 32)
            t[:2, :2] = radius * np.array([[math.cos(1.1), -math.sin(1.1)],
                                           [math.sin(1.1), math.cos(1.1)]])
            q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
            return q @ t @ q.T

        assert stability.POWER_SQUARINGS == 12
        assert not stability._powers_contract(conjugated(1.0 + 1e-6))
        assert stability._powers_contract(conjugated(0.999)) == (scale < 1.0)
        monkeypatch.setattr(stability, "POWER_SQUARINGS", 8)
        assert not stability._powers_contract(conjugated(0.999))

    def test_certified_grid_points_are_stable(self):
        # about 600 random_exp points: wherever a power of S contracts, every
        # eigenvalue lies within 0.5^(1/4096) of the origin, as the bound says
        rng = np.random.default_rng(24)
        certified = []
        for n in (4, 8, 16, 32):
            for _ in range(30):
                net = build_random_exponential_network(n, int(rng.integers(100)))
                a, b, q = rng.uniform(0.3, 1.0), rng.uniform(0.5, 0.99), rng.uniform(-1.0, 1.0)
                params = ModelParams(a=a, b=b, q=q, gamma=0.5)
                l0, l1 = _gamma_pencil(net, params, solve_equilibrium(net, params))
                for gamma in rng.uniform(0.0, 0.5, 5):
                    step = l0 + gamma * l1
                    if stability._powers_contract(_state_map(step)):
                        certified.append(np.max(np.abs(state_space_spectrum(step))))
        bound = stability.POWER_NORM_STABLE ** (0.5 ** stability.POWER_SQUARINGS)
        assert 300 < len(certified) < 600
        assert max(certified) <= bound < 1.0

    @pytest.mark.parametrize("net", [build_plain_network(6),
                                     build_random_exponential_network(12, 3)])
    def test_pencil_is_affine_in_gamma(self, net):
        params = replace(PARAMS, q=-0.5, q0=None)
        eq = solve_equilibrium(net, params)
        l0, l1 = _gamma_pencil(net, params, eq)
        for gamma in (0.05, 0.37, 0.8):
            direct = _step_matrix(build_linearized(net, replace(params, gamma=gamma), eq))
            direct = direct[:, :len(direct)]
            err = np.max(np.abs(direct - (l0 + gamma * l1))) / np.max(np.abs(direct))
            assert err <= 1e-13

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0])
    def test_pencil_spectrum_matches_a_fresh_linearization(self, n, q):
        # the search's spectra, read off L0 + gamma L1, are those of the map
        # linearized at gamma itself, to rounding
        from scipy.optimize import linear_sum_assignment

        net, params = build_random_exponential_network(n, 1), replace(PARAMS, q=q, q0=None)
        eq = solve_equilibrium(net, params)
        l0, l1 = _gamma_pencil(net, params, eq)
        for gamma in np.linspace(1.0 / 12.0, 1.0, 12):
            got = state_space_spectrum(l0 + gamma * l1)
            want = state_space_spectrum(build_linearized(net, replace(params, gamma=gamma), eq))
            lead = np.max(np.abs(want))
            assert abs(np.max(np.abs(got)) - lead) <= 1e-12 * lead
            # each eigenvalue against its partner in the closest pairing
            gaps = np.abs(got[:, None] - want[None, :])
            assert gaps[linear_sum_assignment(gaps)].max() <= 1e-10

    def test_kernel_evaluated_twice_per_q(self, monkeypatch):
        # a non-normal cell linearizes at gamma = 1/2 and 1 for the pencil and
        # nowhere else, however many spectra its search takes: 2 where Newton
        # is accepted, dozens where it is declined and the bracket bisected
        linearized, spectra = [], []

        def counted_linearization(*args):
            linearized.append(args)
            return build_linearized(*args)

        def counted_spectrum(system):
            spectra.append(system)
            return state_space_spectrum(system)

        monkeypatch.setattr(stability, "build_linearized", counted_linearization)
        monkeypatch.setattr(stability, "state_space_spectrum", counted_spectrum)
        net = build_random_exponential_network(10, 4)
        searched = []
        for decline in (False, True):
            if decline:
                _decline_newton(monkeypatch)
            for q in (-1.0, -0.5, 0.0):
                linearized.clear()
                spectra.clear()
                assert critical_gamma(net, PARAMS, q) is not None
                assert [args[1].gamma for args in linearized] == [0.5, 1.0]
                searched.append(len(spectra))
        assert min(searched) >= 2 and max(searched) > 2 and len(set(searched)) > 1

    def test_flip_below_the_scan_floor(self):
        # b -> 1, q = 1: the flip at gamma ~ 6.7e-4 lies below the exhaustive
        # scan's first point 1e-3, where that scan found no crossing
        net, params = build_plain_network(4), replace(PARAMS, b=0.999)
        point = critical_gamma(net, params, q=1.0)
        assert point.kind == "real_minus_one"
        assert point.gamma_c == pytest.approx(
            critical_gamma_closed_form(1.0, 0.0, params.a, params.b), abs=1e-12)

    def test_singular_gamma_zero_step(self):
        # a = 1: the wage row's h-derivative h (1 - a) of the gamma = 0 step
        # vanishes and F0 is singular; the pencil is solved without inverting it, and the
        # search agrees with the exhaustive scan (no crossing in (0, 1])
        conf = load_config(None, ["network.kind=random_exp", "network.n=6",
                                  "params.a=1", "params.b=0.1"])
        net, base = build_network(conf), replace(conf.params, q=-1.0, q0=None)
        assert _flip_gamma(_gamma_pencil(net, base, solve_equilibrium(net, base)), -1.0) is None
        reference = scan_critical_gamma(net, conf.params, -1.0)
        assert _same_crossing(critical_gamma(net, conf.params, -1.0), reference)

    def test_flip_gamma_closed_form(self):
        # plain network, q = 0: the s = 0 modes reach -1 at gamma = 0.2
        net, params = build_plain_network(16), replace(PARAMS, q=0.0, q0=None)
        gamma_flip = _flip_gamma(_gamma_pencil(net, params, solve_equilibrium(net, params)), 0.0)
        assert gamma_flip == pytest.approx(0.2, abs=1e-13)

    @pytest.mark.parametrize("kind,n", [("plain", 8), ("plain", 64), ("random_exp", 8),
                                        ("random_exp", 16), ("random_exp", 32),
                                        ("random_exp", 64)])
    def test_flip_matches_qz(self, kind, n):
        # the shift-invert against the QZ it replaced, at the default a and
        # b, at a = 1 (F0 singular), near constant returns, and at a = 0.6,
        # b = 0.5, where the plain network's uniform mode flips at gamma = -1
        # (a shift there would meet a singular step); at a = 23/29 and 0.7931,
        # b = 0.5, it flips at or next to the first shift -0.3, and the
        # second shift finds the flip
        net = build_network(load_config(None, [f"network.kind={kind}", f"network.n={n}"]))
        for a, b in ((PARAMS.a, PARAMS.b), (1.0, PARAMS.b), (PARAMS.a, 0.999), (1.0, 0.999),
                     (0.6, 0.5), (23 / 29, 0.5), (0.7931, 0.5)):
            for q in (-1.0, -0.5, 0.0, 0.5, 1.0):
                params = replace(PARAMS, a=a, b=b, q=q, q0=None)
                equilibrium = solve_equilibrium(net, params)
                got = _flip_gamma(_gamma_pencil(net, params, equilibrium), q)
                reference = qz_flip_gamma(net, params, equilibrium)
                assert (got is None) == (reference is None), (a, b, q)
                if got is not None:
                    assert got == pytest.approx(reference, abs=1e-13), (a, b, q)

    def test_singular_shifted_pencil_raises(self, monkeypatch):
        # a zero row makes the flip pencil singular at every gamma, the
        # shift included: a typed failure naming q, not a bare LinAlgError
        pencil = stability._gamma_pencil

        def zero_row(*args):
            l0, l1 = pencil(*args)
            l0[0] = l1[0] = 0.0
            return l0, l1

        monkeypatch.setattr(stability, "_gamma_pencil", zero_row)
        with pytest.raises(ArithmeticError, match=r"flip search at q = -0\.5: .* alpha = -1"):
            critical_gamma(build_random_exponential_network(8, 1), PARAMS, -0.5)


class TestClosedForms:
    def test_q0_s0_reference(self):
        assert critical_gamma_closed_form(0.0, 0.0, 0.5, 0.9) == pytest.approx(0.2)

    def test_qm1_no_real_crossing(self):
        assert critical_gamma_closed_form(-1.0, 0.0, 0.5, 0.9) is None

    def test_matches_numeric_scan_along_real_s(self):
        for s in (0.0, 0.2, 0.35):
            for q in (0.0, 0.25):
                gc = critical_gamma_closed_form(q, s, 0.5, 0.9)
                r = mode_roots(*mode_quadratic(s, ModelParams(a=0.5, b=0.9, q=q, gamma=gc)))
                assert min(abs(abs(r[0]) - 1), abs(abs(r[1]) - 1)) < 1e-10

    def test_critical_gamma_b1_limit(self):
        # plain network, s = 0 off the uniform mode: the flip's gamma_c nears
        # its constant-returns limit as b -> 1, to within 1 - b relative
        net = build_plain_network(8)
        for b in (0.99, 0.999):
            params = replace(PARAMS, b=b)
            for q in (0.0, 0.5):
                point = critical_gamma(net, params, q)
                reference = critical_gamma_b1_approx(q, 0.0, params.a, b)
                assert point.kind == "real_minus_one"
                assert abs(point.gamma_c - reference) <= (1 - b) * reference

    def test_critical_gamma_hopf_angle(self):
        # plain network at q = -1: the complex pair crosses the unit circle at
        # the b -> 1 angle pi/3 (period six), to within 1 - b
        net = build_plain_network(8)
        angle = hopf_angle(0.0, PARAMS.a)
        assert angle == pytest.approx(np.pi / 3)
        for b in (0.99, 0.999):
            point = critical_gamma(net, replace(PARAMS, b=b), -1.0)
            assert point.kind == "complex_pair"
            assert abs(abs(np.angle(point.root)) - angle) <= 1 - b
        with pytest.raises(ValueError):
            hopf_angle(-3.0, 0.0)


class TestTransversalityConsistency:
    def test_rational_expectation_map_unstable(self):
        # gamma = 1 reduction: the forward nominal map has growth > 1 on the
        # subspace orthogonal to the uniform vector, for every network kind
        from netecon.reduced import transversality_blowup

        rng = np.random.default_rng(0)
        for net in (build_plain_network(6),
                    build_random_exponential_network(6, 3),
                    make_symmetric_stochastic(6, 2)):
            s0 = rng.standard_normal(6)
            s0 -= s0.mean()
            rep = transversality_blowup(net, 0.5, 0.9, 1.0, s0, steps=30)
            assert rep.growth_factor > 1.0


class TestAnalyzeDispatch:
    """One path for every network: the spectrum of the state-space map."""

    def test_normal_uses_state_space(self):
        net = build_plain_network(5)
        report = analyze_stability(net, PARAMS)
        np.testing.assert_array_equal(report.alphas,
                                      state_space_spectrum(build_linearized(net, PARAMS)))

    def test_non_normal_uses_state_space(self):
        net = build_random_exponential_network(5, 1)
        report = analyze_stability(net, PARAMS)
        np.testing.assert_array_equal(report.alphas,
                                      state_space_spectrum(build_linearized(net, PARAMS)))

    def test_leading_root_tie_breaking(self):
        # the earlier of equal moduli; strict maximum over finite roots only
        def report(alphas):
            return stability._state_space_report(np.array(alphas, dtype=complex))

        assert report([0.5, 0.5j, 0.2, np.inf, -0.5, 0.4]).leading_root == 0.5
        assert report([0.1, 0.3, 0.3j, 0.2j, -0.3]).leading_root == 0.3
        assert report([0.1, np.nan, 0.3j, -0.3j]).leading_root == 0.3j

    def test_state_space_report_rows(self):
        net = build_random_exponential_network(5, 1)
        report = analyze_stability(net, PARAMS)
        vals = state_space_spectrum(build_linearized(net, PARAMS))
        assert report.alphas.shape == (len(vals),) == (2 * net.n,)
        assert np.array_equal(report.alphas, vals)
        assert report.max_alpha == np.max(report.max_mod)
        assert report.leading_root == vals[np.argmax(np.abs(vals))]

    @pytest.mark.parametrize("net", [
        IONetwork(4, np.eye(4)),
        IONetwork(4, np.roll(np.eye(4), 1, axis=1)),
        IONetwork(5, np.eye(5)[[2, 0, 1, 4, 3]]),
    ], ids=["identity", "4-cycle", "3-cycle-and-swap"])
    def test_unit_modulus_networks_match_the_modal_oracle(self, net):
        # identity and permutation networks, |s| = 1 for every eigenvalue of
        # W: the modal path counted them as special; the spectral radius is
        # the modal max|alpha|
        for q, gamma in ((-1.0, 0.08), (-1.0, 0.15), (0.0, 0.3), (0.5, 0.6)):
            params = replace(PARAMS, q=q, q0=None, gamma=gamma)
            modal = max_growth_rate_modal(net, params)
            assert modal.special_unit_modes == net.n - 1
            assert analyze_stability(net, params).max_alpha == pytest.approx(
                modal.max_alpha, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("net", [
        build_plain_network(8), IONetwork(4, np.eye(4)),
        IONetwork(4, np.roll(np.eye(4), 1, axis=1)), make_circulant(9, 1),
    ], ids=["plain", "identity", "4-cycle", "circulant"])
    def test_spectrum_contains_the_uniform_multiplier(self, net):
        # on a normal network the uniform quantity mode is an eigenvalue of
        # the map, so the spectral radius needs no separate uniform term
        for a, q, gamma in ((0.5, -1.0, 0.1), (0.3, 0.0, 0.4), (0.8, 0.5, 0.02)):
            params = replace(PARAMS, a=a, q=q, q0=None, gamma=gamma)
            multiplier = uniform_mode_multiplier(params)
            vals = analyze_stability(net, params).alphas
            assert np.min(np.abs(vals - multiplier)) <= 1e-12 * multiplier

    def test_verdicts_around_threshold(self):
        net = build_plain_network(8)
        stable = analyze_stability(net, ModelParams(a=0.5, b=0.9, q=0.0, gamma=0.19))
        unstable = analyze_stability(net, ModelParams(a=0.5, b=0.9, q=0.0, gamma=0.21))
        assert stable.stable and not unstable.stable


class TestSimulatorDecayBridge:
    def test_decay_rate_matches_leading_root(self):
        # gamma = 0.9 gamma_c: measured geometric decay equals max |alpha|
        from scipy.linalg import eig

        from netecon.simulator import Simulator

        net = build_plain_network(16)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.9 / 9.0)
        s_map, _ = linear_state_map(net, params)
        vals = np.linalg.eigvals(s_map)
        target = np.max(np.abs(vals))

        vals_l, vl = eig(s_map.T)
        lead = np.argmax(np.abs(vals_l))
        phi = vl[:, lead]

        sim = Simulator(net, params, tol=1e-13)
        eq = sim.equilibrium
        rng = np.random.default_rng(5)
        state = sim.equilibrium_state()
        state.x_next = eq.x_eq * np.exp(1e-8 * rng.uniform(-1, 1, 16))
        z_series = []
        for _ in range(160):
            state = sim.step(state, np.zeros(16))
            vec = np.concatenate([
                np.log(state.x_next) - np.log(eq.x_eq),
                np.log(state.p) - np.log(eq.p_eq),
            ])
            z_series.append(phi @ vec)
        t0, k = 10, 100
        rate = abs(z_series[t0 + k] / z_series[t0]) ** (1.0 / k)
        assert abs(rate - target) / target < 1e-3
