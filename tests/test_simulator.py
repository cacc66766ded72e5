import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from complex_step import complex_step_matrix, complex_step_parts
from netecon.equilibrium import ModelParams, solve_equilibrium
from netecon.network import build_plain_network, build_random_exponential_network
from netecon.simulator import (
    CHORD_MIN_N,
    NEWTON_TOL,
    ClearingContext,
    ClearingError,
    Ensemble,
    NoiseProcess,
    Simulator,
    _clearing_jacobian,
    _clearing_known_jacobian,
    _clearing_parts,
    _jacobian_workspace,
    _tolerances,
    clearing_residual,
    trajectory_to_csv,
)
from netecon.stability import analyze_stability

PARAMS = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.15)


def _parts(p, p_lag, params=PARAMS, h=1.0, z=None, x_sold=None, net=None):
    """The clearing kernel's parts at prices p and wage h, after prices p_lag."""
    n = len(p)
    ctx = ClearingContext(
        net=net or build_plain_network(n), params=params,
        x_sold=np.ones(n) if x_sold is None else np.asarray(x_sold, dtype=float),
        p_lag=np.asarray(p_lag, dtype=float),
        z=np.ones(n) if z is None else np.asarray(z, dtype=float), gauge_target=0.0,
    )
    return _clearing_parts(ctx, np.log(np.asarray(p, dtype=float)), np.log(h))


def _forecast(p_t, p_prev, q):
    return np.exp(_parts(p_t, p_prev, ModelParams(q=q))["log_ep"])


def _discount(p_t, p_prev, q0, beta0):
    return float(np.exp(_parts(p_t, p_prev, ModelParams(q0=q0, beta0=beta0))["log_beta"]))


class TestExpectedPrice:
    def test_flat_prices(self):
        p = np.array([1.3, 0.4, 2.0])
        for q in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert np.allclose(_forecast(p, p, q), p, atol=1e-15)

    def test_full_mean_reversion_returns_last_price(self):
        p_t = np.array([2.0, 0.5])
        p_prev = np.array([1.0, 1.0])
        assert np.allclose(_forecast(p_t, p_prev, -1.0), p_prev, atol=1e-15)

    def test_trend_following(self):
        assert _forecast(np.array([2.0]), np.array([1.0]), 1.0)[0] == pytest.approx(4.0)


class TestDiscountFactor:
    def test_zero_inflation(self):
        p = np.array([1.0, 3.0])
        assert _discount(p, p, q0=0.7, beta0=1.25) == pytest.approx(1.25)

    def test_uniform_doubling(self):
        p = np.array([1.0, 2.0, 4.0])
        assert _discount(2 * p, p, q0=1.0, beta0=1.0) == pytest.approx(0.5)

    def test_q0_zero_ignores_prices(self):
        p_t = np.array([3.0, 0.2])
        p_prev = np.array([1.0, 1.0])
        assert _discount(p_t, p_prev, q0=0.0, beta0=0.8) == pytest.approx(0.8)


class TestOptimalProduction:
    def test_reproduces_equilibrium(self):
        net = build_random_exponential_network(15, 2)
        eq = solve_equilibrium(net, PARAMS)
        x_star = _parts(eq.p_eq, eq.p_eq, h=eq.h_eq, net=net)["xstar"]
        assert np.max(np.abs(x_star - eq.x_eq)) < 1e-10

    def test_monetary_unit_symmetry(self):
        # uniform scaling of all prices and the wage leaves production unchanged
        rng = np.random.default_rng(0)
        z, p, p_lag = rng.uniform(0.5, 2.0, (3, 4))
        base = _parts(p, p_lag, h=1.3, z=z)["xstar"]
        scaled = _parts(2 * p, 2 * p_lag, h=2 * 1.3, z=z)["xstar"]
        assert np.allclose(scaled, base, rtol=1e-12)

    def test_productivity_exponent(self):
        ones = np.ones(3)
        base = _parts(ones, ones, z=ones)["xstar"]
        boosted = _parts(ones, ones, z=2 * ones)["xstar"]
        assert np.allclose(boosted / base, 2.0 ** 10, rtol=1e-12)  # 1/(1-b) = 10

    def test_crs_rejected(self):
        with pytest.raises(ValueError):
            Simulator(build_plain_network(2), ModelParams(b=1.0))


class TestProductionTarget:
    def test_frictionless(self):
        parts = _parts(np.ones(2), np.ones(2), ModelParams(gamma=1.0), x_sold=[2.0, 2.0])
        assert np.array_equal(parts["x_next"], parts["xstar"])

    def test_halfway(self):
        # z = 4^(1-b) puts the optimum at 4 for unit prices and wage
        z = np.full(2, 4.0 ** (1.0 - PARAMS.b))
        parts = _parts(np.ones(2), np.ones(2), ModelParams(gamma=0.5), z=z, x_sold=[2.0, 2.0])
        assert np.allclose(parts["xstar"], 4.0, rtol=1e-12)
        assert np.allclose(parts["x_next"], 3.0, rtol=1e-12)

    @given(gamma=st.floats(0.01, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_fixed_point(self, gamma):
        p, p_lag = np.array([1.3, 0.8]), np.array([1.1, 0.9])
        params = ModelParams(gamma=gamma)
        x = _parts(p, p_lag, params)["xstar"]
        x_next = _parts(p, p_lag, params, x_sold=x)["x_next"]
        assert np.allclose(x_next, x, rtol=1e-14, atol=0.0)


class TestLagrangeMultiplier:
    def test_frictionless_equals_discounted_price(self):
        parts = _parts(np.array([1.1, 0.7]), np.array([1.0, 0.9]), ModelParams(gamma=1.0))
        discounted = np.exp(parts["log_beta"]) * np.exp(parts["log_ep"])
        assert np.allclose(parts["lam"], discounted, rtol=1e-14, atol=0.0)

    # unit prices, wage and productivity put the optimum at 1; selling 3 with
    # gamma = 1/2 sets x_next = 2, so lam = 2^((1-b)/b)
    def test_exponent_vanishes_near_crs(self):
        params = ModelParams(b=1.0 - 1e-12, gamma=0.5)
        lam = _parts(np.ones(1), np.ones(1), params, x_sold=[3.0])["lam"]
        assert lam[0] == pytest.approx(1.0, abs=1e-9)

    def test_unit_exponent(self):
        params = ModelParams(b=0.5, gamma=0.5)
        lam = _parts(np.ones(1), np.ones(1), params, x_sold=[3.0])["lam"]
        assert lam[0] == pytest.approx(2.0, abs=1e-14)


class TestFactorDemands:
    def test_labor_clears_at_equilibrium(self):
        sim = Simulator(build_random_exponential_network(12, 5), PARAMS)
        assert sim.equilibrium_state().ell.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_share_means_zero_input(self):
        from netecon.network import IONetwork

        net = IONetwork(2, np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert Simulator(net, PARAMS).equilibrium_state().psi[0, 1] == 0.0

    def test_wage_halves_labor(self):
        state = Simulator(build_plain_network(3), PARAMS).equilibrium_state()
        ell1 = state.ell
        state.h *= 2.0
        assert np.allclose(state.ell, ell1 / 2, atol=1e-15)


def _shocked_states(params, n=6, steps=20, seed=1):
    """States of a run on random_exp(n) under 1e-2 shocks, away from equilibrium."""
    sim = Simulator(build_random_exponential_network(n, 3), params)
    state = sim.equilibrium_state()
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        state = sim.step(state, 1e-2 * rng.standard_normal(n))
        yield state


class TestHouseholdWealth:
    def test_plain_equilibrium_value(self):
        # V = 1 per firm, lam x_next = V: M = 4 - 0.45 * 4 = 2.2
        sim = Simulator(build_plain_network(4), PARAMS)
        state = sim.step(sim.equilibrium_state(), np.zeros(4))
        assert state.M == pytest.approx(2.2, abs=1e-12)

    def test_pure_labor_economy(self):
        params = ModelParams(a=1.0, b=0.9)
        for state in _shocked_states(params):
            assert state.M == pytest.approx(float(np.sum(state.x * state.p)), rel=1e-14)

    def test_accounting_identity(self):
        # wealth + intermediate spending = nominal sales, any state
        for state in _shocked_states(PARAMS):
            spending = PARAMS.c * np.sum(state.lam * state.x_next)
            assert state.M + spending == pytest.approx(float(np.sum(state.x * state.p)))

    def test_returns_nonpositive_wealth_without_warning(self):
        # gamma = 0.3 is far past gamma_c = 1/9 on the plain network: from a
        # 1e-6 kick the oscillation grows until wealth turns non-positive at
        # step 36; the step returns that state and warns nothing (simulate is
        # where the run stops)
        sim = Simulator(build_plain_network(8), ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.3))
        state = sim.equilibrium_state()
        state.x_next = state.x_next * np.exp(1e-6 * np.random.default_rng(0).uniform(-1, 1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(36):
                assert state.M > 0
                state = sim.step(state, np.zeros(8))
        assert state.t == 36 and state.M <= 0
        assert state.max_residual < 1e-10


def _equilibrium_context(net, params, eq):
    return ClearingContext(
        net=net, params=params, x_sold=eq.x_eq, p_lag=eq.p_eq, z=np.ones(net.n),
        gauge_target=float(np.sum(np.log(eq.p_eq))),
    )


class TestClearingResidual:
    def test_zero_at_equilibrium(self):
        net = build_random_exponential_network(10, 8)
        eq = solve_equilibrium(net, PARAMS)
        ctx = _equilibrium_context(net, PARAMS, eq)
        res = clearing_residual(np.log(eq.p_eq), eq.h_eq, ctx)
        assert np.max(np.abs(res)) < 1e-12

    def test_goods_residuals_sum_to_zero_anywhere(self):
        # the n clearing equations are linearly dependent by construction
        net = build_random_exponential_network(7, 1)
        eq = solve_equilibrium(net, PARAMS)
        ctx = _equilibrium_context(net, PARAMS, eq)
        rng = np.random.default_rng(2)
        for _ in range(5):
            log_p = np.log(eq.p_eq) + rng.uniform(-0.5, 0.5, 7)
            h = eq.h_eq * np.exp(rng.uniform(-0.5, 0.5))
            goods = _clearing_parts(ctx, log_p, np.log(h))["goods"]
            assert abs(goods.sum()) < 1e-12 * max(1.0, np.max(np.abs(goods)))

    def test_small_shock_matches_linearized_response(self):
        # a 1e-6 productivity bump moves log-prices by O(1e-6), and the move
        # agrees with the linearized equations' noise response
        from netecon.stability import linear_state_map

        # gamma away from 1 - b: at gamma = 1 - b the first-order nominal
        # spending response vanishes and prices sit still on impact
        net = build_random_exponential_network(6, 12)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.12)
        sim = Simulator(net, params)
        _, b_map = linear_state_map(net, params, sim.equilibrium)
        state = sim.equilibrium_state()
        shock = np.zeros(6)
        shock[2] = 1e-6
        new = sim.step(state, shock)
        dlp = np.log(new.p) - np.log(sim.equilibrium.p_eq)
        assert 1e-9 < np.max(np.abs(dlp)) < 1e-4
        predicted = b_map @ shock  # rows: (xi_next, pi_now)
        assert np.max(np.abs(dlp - predicted[6:])) < 1e-3 * np.max(np.abs(predicted))

    def test_plain_matrix_prices_shielded_from_shocks(self):
        # predetermined supply and symmetric demand: the plain matrix keeps
        # prices unmoved on impact, the wage takes the hit instead
        net = build_plain_network(6)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.12)
        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        shock = np.zeros(6)
        shock[2] = 1e-6
        new = sim.step(state, shock)
        assert np.max(np.abs(np.log(new.p) - np.log(sim.equilibrium.p_eq))) < 1e-12
        assert abs(np.log(new.h) - np.log(sim.equilibrium.h_eq)) > 1e-9


def _known_jacobian(ctx, parts):
    """(residual_jac, x_next_jac) as ``_clearing_known_jacobian`` writes them
    into zeroed arrays."""
    n = ctx.net.n
    residual_jac, x_next_jac = np.zeros((n + 1, 3 * n)), np.zeros((n, 4 * n + 1))
    _clearing_known_jacobian(ctx, parts, residual_jac, x_next_jac)
    return residual_jac, x_next_jac


def _kicked_point(net, params, seed, spread=0.2):
    """A clearing context and a trial point u, both log-uniformly kicked by
    up to ``spread`` off the equilibrium."""
    eq = solve_equilibrium(net, params)
    rng = np.random.default_rng(seed)
    n = net.n

    def kick():
        return np.exp(rng.uniform(-spread, spread, n))

    ctx = ClearingContext(
        net=net, params=params, x_sold=eq.x_eq * kick(), p_lag=eq.p_eq * kick(),
        z=kick(), gauge_target=float(np.sum(np.log(eq.p_eq))),
    )
    u = np.concatenate([np.log(eq.p_eq * kick()),
                        [np.log(eq.h_eq) + rng.uniform(-spread, spread)]])
    return ctx, u


class TestClearingJacobian:
    """The exact Jacobian, and the partials in the knowns, agree with the
    complex-step derivatives of the kernel (``tests/complex_step.py``)."""

    @staticmethod
    def _check(net, params, seed):
        # normwise per Jacobian: on entries far below a row's largest, the
        # package and the complex step both carry that row's rounding
        ctx, u = _kicked_point(net, params, seed)
        n = net.n
        parts = _clearing_parts(ctx, u[:n], u[n])
        reference = complex_step_matrix(ctx, u)
        residual_jac, x_next_jac = _known_jacobian(ctx, parts)
        for exact, block in ((_clearing_jacobian(ctx, u, parts, _jacobian_workspace(n)),
                              reference[:n + 1, :n + 1]),
                             (residual_jac, reference[:n + 1, n + 1:]),
                             (x_next_jac, reference[n + 1:])):
            assert np.all(np.isfinite(exact))
            assert np.max(np.abs(exact - block)) <= 1e-13 * np.max(np.abs(exact))
        return parts

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        net_seed=st.integers(0, 1000),
        a=st.floats(0.1, 1.0),
        b=st.floats(0.3, 0.95),
        q=st.floats(-1.0, 1.0),
        q0_shift=st.floats(0.05, 1.0),
        gamma=st.floats(0.05, 1.0),
        beta0=st.sampled_from([0.8, 0.95, 1.1]),
        seed=st.integers(0, 1000),
    )
    def test_matches_complex_step(self, n, net_seed, a, b, q, q0_shift, gamma, beta0, seed):
        params = ModelParams(a=a, b=b, q=q, q0=q - q0_shift, gamma=gamma, beta0=beta0)
        self._check(build_random_exponential_network(n, net_seed), params, seed)

    def test_full_adjustment(self):
        # gamma = 1: production jumps to the optimum, x_next = x*
        params = ModelParams(a=0.5, b=0.9, q=-0.7, q0=0.2, gamma=1.0, beta0=0.95)
        parts = self._check(build_random_exponential_network(8, 5), params, seed=4)
        assert np.allclose(parts["x_next"], parts["xstar"], rtol=1e-14)

    @pytest.mark.parametrize("net", [
        build_plain_network(7), build_random_exponential_network(7, 2),
        build_random_exponential_network(64, 3),
    ], ids=["plain7", "random_exp7", "random_exp64"])
    @pytest.mark.parametrize("q, q0, gamma", [(-1.0, -1.0, 0.13), (-0.5, 0.0, 0.3),
                                              (0.6, 0.2, 1.0)])
    def test_matches_complex_step_on_fixed_networks(self, net, q, q0, gamma):
        self._check(net, ModelParams(a=0.5, b=0.9, q=q, q0=q0, gamma=gamma), seed=net.n)

    def test_every_part_carries_the_step(self):
        # the oracle means something only while every operation in the kernel
        # is analytic: an abs, hypot or .real there would drop the imaginary
        # part, and with it a derivative, silently
        net = build_random_exponential_network(6, 1)
        ctx, u = _kicked_point(net, ModelParams(q=-0.5, q0=0.1, gamma=0.2), seed=1)
        parts = complex_step_parts(ctx, u)
        for name, value in parts.items():
            assert np.iscomplexobj(value), name
            assert np.any(value.imag != 0.0), name

    @pytest.mark.parametrize("n", [7, 64])
    def test_reused_workspace_keeps_nothing_from_an_earlier_point(self, n):
        # a workspace filled at one trial point gives, at another, the bits of
        # a NaN-filled one: every entry is written anew
        net = build_random_exponential_network(n, 1)
        params = ModelParams(a=0.5, b=0.9, q=-0.5, q0=0.1, gamma=0.2)
        (ctx1, u1), (ctx2, u2) = (_kicked_point(net, params, seed) for seed in (1, 2))
        work = _jacobian_workspace(n)
        _clearing_jacobian(ctx1, u1, _clearing_parts(ctx1, u1[:n], u1[n]), work)
        reused = _clearing_jacobian(ctx2, u2, _clearing_parts(ctx2, u2[:n], u2[n]), work)
        fresh = _clearing_jacobian(ctx2, u2, _clearing_parts(ctx2, u2[:n], u2[n]),
                                   tuple(np.full_like(buf, np.nan) for buf in work))
        assert np.all(np.isfinite(fresh))
        np.testing.assert_array_equal(reused, fresh)


class TestStep:
    @pytest.mark.parametrize("beta0", [1.0, 0.93])
    def test_equilibrium_is_stationary(self, beta0):
        net = build_random_exponential_network(9, 4)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.3, beta0=beta0)
        sim = Simulator(net, params)
        s0 = sim.equilibrium_state()
        s1 = sim.step(s0, np.zeros(9))
        for name in ("x", "p", "lam", "x_next", "ell"):
            assert np.max(np.abs(getattr(s1, name) - getattr(s0, name))) < 1e-10, name
        assert abs(s1.h - s0.h) < 1e-10
        assert abs(s1.M - s0.M) < 1e-10
        # the discount factor the kernel forms at the cleared point (z is
        # exp(0) = 1 by construction of the zero shock)
        log_beta = _clearing_parts(sim.context_for(s0, np.zeros(9)), np.log(s1.p),
                                   np.log(s1.h))["log_beta"]
        assert abs(log_beta - np.log(beta0)) < 1e-10
        assert np.max(np.abs(s1.psi - s0.psi)) < 1e-10

    def test_perturbation_decays_below_critical(self):
        # gamma < gamma_c: distance to equilibrium shrinks geometrically
        net = build_plain_network(8)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.08)
        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        rng = np.random.default_rng(3)
        state.x_next = state.x_next * np.exp(1e-8 * rng.uniform(-1, 1, 8))
        dists = []
        for _ in range(60):
            state = sim.step(state, np.zeros(8))
            dists.append(np.max(np.abs(np.log(state.x) - np.log(sim.equilibrium.x_eq))))
        assert dists[-1] < dists[10] * 0.2

    def test_perturbation_grows_but_stays_bounded_above_critical(self):
        net = build_plain_network(8)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.15)
        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        rng = np.random.default_rng(3)
        state.x_next = state.x_next * np.exp(1e-8 * rng.uniform(-1, 1, 8))
        early, late = None, None
        for t in range(600):
            state = sim.step(state, np.zeros(8))
            dist = np.max(np.abs(np.log(state.x) - np.log(sim.equilibrium.x_eq)))
            if t == 50:
                early = dist
            late = dist
        assert late > 100 * early  # grew away from equilibrium
        assert late < 10.0  # nonlinearities keep the dynamics bounded

    def test_states_always_clear_markets(self):
        # strongly chaotic regime: sector outputs spread over e^3, every
        # accepted state still clears to solver tolerance (wealth may dip
        # non-positive at extreme excursions; the step still returns it)
        net = build_random_exponential_network(8, 6)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.2, sigma=3e-3)
        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        rng = np.random.default_rng(0)
        for _ in range(150):
            state = sim.step(state, 3e-3 * rng.standard_normal(8))
            assert state.max_residual < 1e-10
            assert abs(state.ell.sum() - 1.0) < 1e-10
            assert state.h > 0 and np.all(state.p > 0) and np.all(state.x > 0)

    def test_step_allocates_no_n_squared_array(self):
        # the Newton iteration assembles its Jacobian in the engine's
        # workspace: a step's allocations stay below one n x n float64 array
        n = 256
        sim = Simulator(build_random_exponential_network(n, 1),
                        ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.13))
        rng = np.random.default_rng(0)
        state = sim.step(sim.equilibrium_state(), 1e-3 * rng.standard_normal(n))
        tracemalloc.start()
        try:
            state = sim.step(state, 1e-3 * rng.standard_normal(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.newton_iters >= 1
        assert peak < n * n * 8

    def test_breakdown_fails_loudly_with_time_index(self):
        # shocks far beyond the model's regime push household wealth negative
        # at step 20; the run must stop there with that reason, not step on
        # until (or unless) the clearing solve stalls
        net = build_random_exponential_network(8, 6)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.25, sigma=1e-2)
        with pytest.raises(ClearingError) as info:
            Simulator(net, params).simulate(NoiseProcess(1e-2, seed=1), steps=300)
        assert info.value.t == 20
        assert str(info.value).startswith("step 20: household wealth ")
        assert str(info.value).endswith(" is not positive")
        assert np.isfinite(info.value.residual)


class TestAgainstIndependentSolver:
    def test_levels_fsolve_twin(self):
        """Cross-check the whole step against an independent solver on the raw
        level-form equations (goods clearing written as demand = supply)."""
        from scipy.optimize import fsolve

        n = 3
        net = build_plain_network(n)
        a, b, q, gamma, beta0 = 0.5, 0.9, -1.0, 0.2, 1.0
        c = b * (1 - a)
        params = ModelParams(a=a, b=b, q=q, gamma=gamma)
        eq = solve_equilibrium(net, params)
        gauge = float(np.sum(np.log(eq.p_eq)))
        w = net.w

        def twin_step(x_sold, p_lag, z, guess):
            def eqs(u):
                p, h = u[:n], u[n]
                ep = p * (p / p_lag) ** q
                beta = beta0 * np.prod(p / p_lag) ** (-q / n)
                xstar = (z * (beta * ep) ** b * h ** (-a * b)
                         * np.exp(-c * (w @ np.log(p)))) ** (1 / (1 - b))
                xn = (1 - gamma) * x_sold + gamma * xstar
                lam = beta * ep * (xn / xstar) ** ((1 - b) / b)
                m = np.sum(x_sold * p) - c * np.sum(lam * xn)
                demand = m / (n * p) + (c * w * (lam * xn)[:, None] / p[None, :]).sum(axis=0)
                return np.concatenate([(x_sold - demand)[:-1],
                                       [h - a * b * np.sum(lam * xn),
                                        np.sum(np.log(p)) - gauge]])

            u, info, ier, msg = fsolve(eqs, guess, full_output=True, xtol=1e-13)
            assert ier == 1, msg
            p, h = u[:n], u[n]
            ep = p * (p / p_lag) ** q
            beta = beta0 * np.prod(p / p_lag) ** (-q / n)
            xstar = (z * (beta * ep) ** b * h ** (-a * b)
                     * np.exp(-c * (w @ np.log(p)))) ** (1 / (1 - b))
            xn = (1 - gamma) * x_sold + gamma * xstar
            return p, h, xn

        rng = np.random.default_rng(123)
        kick = rng.uniform(-1, 1, n) * 0.05
        shocks = 1e-3 * rng.standard_normal((120, n))

        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        state.x_next = state.x_next * np.exp(kick)

        x_sold = eq.x_eq * np.exp(kick)
        p_lag = eq.p_eq.copy()
        guess = np.concatenate([eq.p_eq, [eq.h_eq]])
        for t in range(120):
            state = sim.step(state, shocks[t])
            p, h, xn = twin_step(x_sold, p_lag, np.exp(shocks[t]), guess)
            assert np.max(np.abs(np.log(p) - np.log(state.p))) < 1e-9
            assert abs(np.log(h) - np.log(state.h)) < 1e-9
            assert np.max(np.abs(np.log(xn) - np.log(state.x_next))) < 1e-9
            x_sold, p_lag, guess = xn, p, np.concatenate([p, [h]])


class TestSimulate:
    def test_zero_noise_zero_kick_is_constant(self):
        net = build_plain_network(5)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.3, sigma=0.0)
        traj = Simulator(net, params).simulate(NoiseProcess(0.0, 1), steps=50,
                                               burn_in=10, initial_kick=0.0)
        for series in (traj.output_real, traj.mean_xi, traj.wage,
                       traj.consumption_real, traj.price_level):
            assert np.ptp(series) < 1e-9

    def test_deterministic_for_seed(self):
        net = build_plain_network(6)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.2, sigma=1e-3)
        t1 = Simulator(net, params).simulate(NoiseProcess(1e-3, 9), steps=40, burn_in=5)
        t2 = Simulator(net, params).simulate(NoiseProcess(1e-3, 9), steps=40, burn_in=5)
        assert np.array_equal(t1.mean_xi, t2.mean_xi)
        assert np.array_equal(t1.xi, t2.xi)
        assert t1.config_hash == t2.config_hash

    def test_trajectory_finite_and_sized(self):
        net = build_plain_network(4)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.18, sigma=1e-3)
        traj = Simulator(net, params).simulate(NoiseProcess(1e-3, 2), steps=200, burn_in=50)
        assert len(traj) == 200
        assert np.all(np.isfinite(traj.xi))

    def test_steps_validation(self):
        net = build_plain_network(3)
        with pytest.raises(ValueError):
            Simulator(net, PARAMS).simulate(NoiseProcess(0.0, 1), steps=10, burn_in=10)

    def test_noise_process_is_gaussian_only(self):
        # the shocks are always i.i.d. Gaussian on log-productivity; there is
        # no distribution to choose
        with pytest.raises(TypeError):
            NoiseProcess(1e-3, 1, distribution="gaussian_log")

    def test_deep_unstable_phase_irregular_but_bounded(self):
        # past the first transitions the aggregate loses its regularity but
        # the nonlinearities keep every observable finite and bounded
        net = build_plain_network(16)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.185, sigma=1e-3)
        traj = Simulator(net, params).simulate(NoiseProcess(1e-3, 21), steps=2500,
                                               burn_in=500)
        assert np.all(np.isfinite(traj.xi))
        assert np.max(np.abs(traj.xi)) < 5.0
        mild_params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.13, sigma=1e-3)
        mild = Simulator(net, mild_params).simulate(NoiseProcess(1e-3, 21), steps=2500,
                                                    burn_in=500)
        assert traj.mean_xi[500:].std() > 2 * mild.mean_xi[500:].std()

    def test_stops_at_the_step_wealth_turns_non_positive(self):
        # plain n=64, q=-1, gamma=0.3, no shocks: the kicked economy breaks
        # down within a few dozen steps; the run stops there, before any
        # log of a non-positive wealth is taken
        net = build_plain_network(64)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.3, sigma=0.0)
        sim = Simulator(net, params)
        state = sim.equilibrium_state()
        kick = np.random.default_rng(12345).uniform(-1.0, 1.0, 64) * 1e-6
        state.x_next = state.x_next * np.exp(kick)
        for _ in range(200):
            state = sim.step(state, np.zeros(64))
            if state.M <= 0:
                break
        assert state.M <= 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ClearingError, match="household wealth") as info:
                sim.simulate(NoiseProcess(0.0, 12345), steps=1200)
        assert info.value.t == state.t
        assert str(info.value).startswith(f"step {state.t}: household wealth ")
        assert not caught

    @pytest.mark.parametrize("n", [8, 128])
    def test_iteration_limit_fails_the_step(self, n, monkeypatch):
        # one iteration cannot clear a 1e-2 shock, warm or flat start, with
        # the exact solver (n = 8) or with chord steps (n = 128)
        import netecon.simulator as simulator

        monkeypatch.setattr(simulator, "NEWTON_MAX_ITER", 1)
        sim = Simulator(build_random_exponential_network(n, 1), PARAMS)
        shock = 1e-2 * np.random.default_rng(0).standard_normal(n)
        with pytest.raises(ClearingError) as info:
            sim.step(sim.equilibrium_state(), shock)
        assert str(info.value).startswith(
            "step 1: clearing solve did not converge in 1 iterations (residual ")
        assert (info.value.t, info.value.iterations) == (1, 1)

    def test_gauge_shift_changes_nothing_real(self):
        # same run with the price-level gauge offset: real quantities agree,
        # prices and wage carry the uniform factor exp(delta / n)
        net = build_plain_network(5)
        params = ModelParams(a=0.5, b=0.9, q=-0.5, gamma=0.25, sigma=1e-3)
        delta = 0.7

        def run(offset):
            sim = Simulator(net, params)
            sim.gauge_target += offset
            rng = np.random.default_rng(33)
            state = sim.equilibrium_state()
            state.x_next = state.x_next * np.exp(1e-6 * rng.uniform(-1, 1, 5))
            xs, ps, hs, cons = [], [], [], []
            for _ in range(60):
                state = sim.step(state, 1e-3 * rng.standard_normal(5))
                xs.append(state.x.copy())
                ps.append(state.p.copy())
                hs.append(state.h)
                cons.append(state.M / state.p.sum())
            return map(np.array, (xs, ps, hs, cons))

        x0, p0, h0, c0 = run(0.0)
        x1, p1, h1, c1 = run(delta)
        lift = np.exp(delta / 5)
        assert np.max(np.abs(x1 - x0)) < 1e-9
        assert np.max(np.abs(p1 / p0 - lift)) < 1e-9
        assert np.max(np.abs(h1 / h0 - lift)) < 1e-9
        assert np.max(np.abs(c1 / c0 - 1.0)) < 1e-9


class TestLinearRegimeBridge:
    def test_one_step_matches_linear_map(self):
        from netecon.stability import linear_state_map

        net = build_plain_network(6)
        params = ModelParams(a=0.5, b=0.9, q=-0.4, gamma=0.12)
        sim = Simulator(net, params)
        eq = sim.equilibrium
        s_map, _ = linear_state_map(net, params, eq)

        rng = np.random.default_rng(7)
        xi0 = 1e-8 * rng.uniform(-1, 1, 6)
        pi0 = 1e-8 * rng.uniform(-1, 1, 6)
        pi0 -= pi0.mean()  # stay in the gauge slice

        state = sim.equilibrium_state()
        state.x_next = eq.x_eq * np.exp(xi0)
        state.p = eq.p_eq * np.exp(pi0)
        new = sim.step(state, np.zeros(6))
        got = np.concatenate([
            np.log(new.x_next) - np.log(eq.x_eq),
            np.log(new.p) - np.log(eq.p_eq),
        ])
        want = s_map @ np.concatenate([xi0, pi0])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-3

    @pytest.mark.parametrize("q, gamma", [(-1.0, 0.10), (-1.0, 0.13), (0.0, 0.19), (-0.5, 0.3)])
    @pytest.mark.parametrize("kind", ["plain", "random_exp"])
    def test_linear_map_is_the_derivative_of_step(self, kind, q, gamma):
        # central differences of the nonlinear step at the equilibrium, with no
        # use of the kernel's derivatives, reproduce S and B column by column
        from netecon.stability import linear_state_map

        n, h = 12, 1e-5
        net = build_plain_network(n) if kind == "plain" else build_random_exponential_network(n, 3)
        params = ModelParams(a=0.5, b=0.9, q=q, gamma=gamma)
        sim = Simulator(net, params, tol=1e-14)
        eq = sim.equilibrium
        s_map, b_map = linear_state_map(net, params, eq)

        def new_state(j, sign):
            state = sim.equilibrium_state()
            shock = np.zeros(n)
            if j < n:
                state.x_next = state.x_next * np.exp(sign * h * (np.arange(n) == j))
            elif j < 2 * n:
                state.p = state.p * np.exp(sign * h * (np.arange(n) == j - n))
            else:
                shock[j - 2 * n] = sign * h
            new = sim.step(state, shock)
            return np.concatenate([np.log(new.x_next), np.log(new.p)])

        numeric = np.column_stack([(new_state(j, 1) - new_state(j, -1)) / (2 * h)
                                   for j in range(3 * n)])
        scale = np.max(np.abs(s_map))
        assert np.max(np.abs(numeric - np.hstack([s_map, b_map]))) < 1e-7 * scale


def _same_run(got, want):
    """An ensemble member's outcome is its solo run's, bit for bit."""
    if isinstance(want, ClearingError):
        assert isinstance(got, ClearingError)
        assert (str(got), got.t, got.residual, got.iterations) == \
            (str(want), want.t, want.residual, want.iterations)
        return
    assert isinstance(got, type(want))
    for name in ("xi", "newton_iters", "max_residual", "damping_halvings", "factorizations",
                 "flat_restarts", "output_real", "consumption_real", "wage", "price_level"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def _solo(net, params, noise, steps, burn_in=10):
    try:
        return Simulator(net, params).simulate(noise, steps=steps, burn_in=burn_in)
    except ClearingError as exc:
        return exc


class TestEnsemble:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 8),
        net_seed=st.integers(0, 1000),
        q=st.sampled_from([-1.0, -0.5, 0.3]),
        members=st.lists(st.tuples(st.floats(0.05, 0.45), st.sampled_from([0.0, 1e-3, 1e-2]),
                                   st.integers(0, 1000)), min_size=1, max_size=5),
    )
    def test_members_run_as_they_run_alone(self, n, net_seed, q, members):
        # per-member gamma, sigma and seed: every member's xi, Newton
        # iterations and residuals (or its failure) are its solo run's bits
        net = build_random_exponential_network(n, net_seed)
        params = [ModelParams(a=0.5, b=0.9, q=q, gamma=gamma, sigma=sigma)
                  for gamma, sigma, _ in members]
        noises = [NoiseProcess(sigma, seed) for _, sigma, seed in members]
        got = Ensemble(Simulator(net, params[0]), [p.gamma for p in params]).simulate(
            noises, steps=60, burn_in=10)
        for outcome, p, noise in zip(got, params, noises):
            _same_run(outcome, _solo(net, p, noise, steps=60))

    def test_every_member_state_clears(self):
        # the public residual, re-evaluated at each member's returned state,
        # is within the Newton tolerance, in the chaotic phase too
        net = build_random_exponential_network(8, 6)
        gammas = (0.08, 0.12, 0.2, 0.2)
        sims = [Simulator(net, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g)) for g in gammas]
        ensemble = Ensemble(sims[0], gammas)
        states = [sim.equilibrium_state() for sim in sims]
        rng = np.random.default_rng(0)
        for _ in range(150):
            shocks = 3e-3 * rng.standard_normal((len(sims), 8))
            new = ensemble.step(states, shocks)
            for sim, state, shock, cleared in zip(sims, states, shocks, new):
                assert not isinstance(cleared, ClearingError)
                res = clearing_residual(np.log(cleared.p), cleared.h,
                                        sim.context_for(state, shock))
                assert np.max(np.abs(res)) <= NEWTON_TOL
                assert cleared.max_residual < NEWTON_TOL
            states = new

    def test_a_member_that_breaks_down_fails_alone(self):
        # random_exp n=8, q=-0.5: gamma = 0.6 with sigma = 3e-2 stalls in the
        # clearing solve a few steps in; gamma = 0.1 with damped Newton steps
        # and gamma = 0.05 run through, as they do alone
        net = build_random_exponential_network(8, 7)
        cases = [(0.05, 1e-3), (0.6, 3e-2), (0.1, 1e-3)]
        params = [ModelParams(a=0.5, b=0.9, q=-0.5, gamma=g, sigma=s) for g, s in cases]
        noises = [NoiseProcess(s, 3) for _, s in cases]
        got = Ensemble(Simulator(net, params[0]), [p.gamma for p in params]).simulate(
            noises, steps=200, burn_in=10)
        assert isinstance(got[1], ClearingError)
        assert 0 < got[1].t < 200 and str(got[1]).startswith(f"step {got[1].t}: clearing")
        assert not isinstance(got[0], ClearingError) and not isinstance(got[2], ClearingError)
        for outcome, p, noise in zip(got, params, noises):
            _same_run(outcome, _solo(net, p, noise, steps=200))

    @pytest.mark.parametrize("n", [6, CHORD_MIN_N])
    @pytest.mark.parametrize("broken, message", [(0.0, "singular clearing Jacobian"),
                                                 (np.nan, "non-finite clearing Jacobian")])
    def test_a_solver_failure_stays_with_its_member(self, monkeypatch, broken, message, n):
        # every Jacobian of the gamma = 0.2 member is made singular or
        # non-finite: that member fails the step, warm and flat start alike,
        # and the others clear as they do alone, on the exact path and on the
        # chord path
        import netecon.simulator as simulator

        net = build_random_exponential_network(n, 3)
        gammas = (0.1, 0.2, 0.3)
        sims = [Simulator(net, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g)) for g in gammas]
        states = [sim.equilibrium_state() for sim in sims]
        shocks = 1e-3 * np.random.default_rng(1).standard_normal((3, n))
        alone = [sim.step(state, shock) for sim, state, shock in zip(sims, states, shocks)]
        original = simulator._clearing_jacobian

        def breaks_one_member(ctx, u, parts, work):
            jac = original(ctx, u, parts, work)
            jac[np.ravel(ctx.gamma) == 0.2] = broken
            return jac

        monkeypatch.setattr(simulator, "_clearing_jacobian", breaks_one_member)
        got = Ensemble(sims[0], gammas).step(states, shocks)
        assert isinstance(got[1], ClearingError) and str(got[1]) == f"step 1: {message}"
        for new, solo in zip(got[::2], alone[::2]):
            assert (new.newton_iters, new.flat_restarts) == (solo.newton_iters, 0)
            np.testing.assert_array_equal(new.p, solo.p)
            np.testing.assert_array_equal(new.x_next, solo.x_next)

    def test_wealth_breakdown_stops_only_that_member(self):
        # plain n=8, no shocks: gamma = 0.3 loses its wealth at step 35, the
        # members below gamma_c = 1/9 and just above it run on
        net = build_plain_network(8)
        gammas = (0.08, 0.3, 0.14)
        params = [ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g) for g in gammas]
        noises = [NoiseProcess(0.0, 3)] * 3
        got = Ensemble(Simulator(net, params[0]), gammas).simulate(noises, steps=300,
                                                                   burn_in=10)
        assert isinstance(got[1], ClearingError) and "household wealth" in str(got[1])
        for outcome, p, noise in zip(got, params, noises):
            _same_run(outcome, _solo(net, p, noise, steps=300))

    def test_a_non_finite_observable_stops_only_that_member(self, monkeypatch):
        # the step hands member 1 a state whose sold quantity overflows at
        # step 7: the run stops that member there, naming the observables,
        # and the others run on with their solo bits; a lone run stops alike
        net = build_random_exponential_network(6, 3)
        gammas = (0.1, 0.13, 0.2)
        params = [ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g, sigma=1e-3) for g in gammas]
        noises = [NoiseProcess(1e-3, seed) for seed in (1, 2, 3)]
        solos = [_solo(net, p, noise, steps=40) for p, noise in zip(params, noises)]

        def overflow(state):
            if state.t != 7 or state.params.gamma != 0.13:
                return state
            x = state.x.copy()
            x[2] = np.inf
            return replace(state, x=x)

        original = Ensemble.step
        monkeypatch.setattr(Ensemble, "step", lambda self, states, shocks, members=None: [
            overflow(new) for new in original(self, states, shocks, members)])
        got = Ensemble(Simulator(net, params[0]), gammas).simulate(noises, steps=40,
                                                                   burn_in=10)
        assert isinstance(got[1], ClearingError)
        assert got[1].t == 7 and str(got[1]) == "step 7: non-finite output_real, mean_xi"
        for i in (0, 2):
            assert not isinstance(solos[i], ClearingError)
            _same_run(got[i], solos[i])

        step = Simulator.step
        monkeypatch.setattr(Simulator, "step", lambda self, state, shock: overflow(
            step(self, state, shock)))
        with pytest.raises(ClearingError) as info:
            Simulator(net, params[1]).simulate(noises[1], steps=40, burn_in=10)
        assert info.value.t == 7 and str(info.value) == "step 7: non-finite output_real, mean_xi"

    def test_flat_restart_is_per_member_and_counted(self):
        # a wage far off the equilibrium makes the warm start overflow: that
        # member alone restarts from the flat price vector, and says so
        net = build_random_exponential_network(6, 2)
        gammas = (0.1, 0.2)
        sims = [Simulator(net, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g)) for g in gammas]
        states = [sim.equilibrium_state() for sim in sims]
        states[1].h = 1e300
        new = Ensemble(sims[0], gammas).step(states, np.zeros((2, 6)))
        assert [state.flat_restarts for state in new] == [0, 1]
        assert all(state.max_residual < NEWTON_TOL for state in new)
        assert new[0].newton_iters == 0
        alone = sims[1].step(states[1], np.zeros(6))
        assert alone.flat_restarts == 1 and alone.newton_iters == new[1].newton_iters
        np.testing.assert_array_equal(alone.p, new[1].p)

    def test_step_allocates_no_n_squared_array(self):
        # the members' Jacobians are assembled in the ensemble's workspace
        n = 256
        net = build_random_exponential_network(n, 1)
        sims = [Simulator(net, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=g))
                for g in (0.12, 0.13, 0.14)]
        ensemble = Ensemble(sims[0], (0.12, 0.13, 0.14))
        rng = np.random.default_rng(0)
        states = ensemble.step([sim.equilibrium_state() for sim in sims],
                               1e-3 * rng.standard_normal((3, n)))
        tracemalloc.start()
        try:
            states = ensemble.step(states, 1e-3 * rng.standard_normal((3, n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(state.newton_iters >= 1 for state in states)
        assert peak < n * n * 8

    def test_damping_halvings_are_recorded(self):
        # q = 0.6 on random_exp n=8: full Newton steps overshoot and are halved
        net = build_random_exponential_network(8, 7)
        params = ModelParams(a=0.5, b=0.9, q=0.6, gamma=0.1, sigma=1e-3)
        traj = Simulator(net, params).simulate(NoiseProcess(1e-3, 3), steps=200, burn_in=10)
        assert traj.damping_halvings.sum() > 0
        assert traj.damping_halvings.shape == traj.flat_restarts.shape == (200,)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 8),
        net_seed=st.integers(0, 1000),
        q=st.floats(-1.0, 0.5),
        gammas=st.lists(st.floats(0.01, 0.2), min_size=2, max_size=4),
    )
    def test_stable_equilibrium_is_a_fixed_point(self, n, net_seed, q, gammas):
        # random_exp at sigma = 0 and stable (q, gamma): one step from the
        # equilibrium returns its x, p and h, alone and as ensemble members,
        # and the public clearing residual there is within the Newton tolerance
        net = build_random_exponential_network(n, net_seed)
        params = [ModelParams(a=0.5, b=0.9, q=q, gamma=g) for g in gammas]
        assume(all(analyze_stability(net, p).stable for p in params))
        sims = [Simulator(net, p) for p in params]
        eq, zero = sims[0].equilibrium, np.zeros(n)

        def at_equilibrium(state, new, sim):
            np.testing.assert_allclose(new.x_next, eq.x_eq, rtol=1e-12, atol=0)
            np.testing.assert_allclose(new.p, eq.p_eq, rtol=1e-12, atol=0)
            assert new.h == pytest.approx(eq.h_eq, rel=1e-12, abs=0)
            res = clearing_residual(np.log(new.p), new.h, sim.context_for(state, zero))
            assert np.max(np.abs(res)) <= NEWTON_TOL

        for sim in sims:
            state = sim.equilibrium_state()
            at_equilibrium(state, sim.step(state, zero), sim)
        states = [sim.equilibrium_state() for sim in sims]
        got = Ensemble(sims[0], gammas).step(states, np.zeros((len(gammas), n)))
        for state, new, sim in zip(states, got, sims):
            at_equilibrium(state, new, sim)

    def test_member_inputs_are_checked(self):
        sim = Simulator(build_plain_network(4), ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.1))
        assert [p.gamma for p in Ensemble(sim, (0.1, 0.2)).params] == [0.1, 0.2]
        with pytest.raises(ValueError, match="at least one member"):
            Ensemble(sim, [])
        for gamma in (0.0, 1.5):
            with pytest.raises(ValueError, match="gamma must lie in"):
                Ensemble(sim, (0.1, gamma))
        with pytest.raises(ValueError, match="one noise process per member"):
            Ensemble(sim, (0.1,)).simulate([], steps=10)


class TestChordClearing:
    # random_exp at the smallest size whose clearing solve takes chord steps,
    # q = -1, gamma = 0.13 (unstable phase), sigma = 1e-3
    PARAMS = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.13, sigma=1e-3)

    @pytest.fixture(scope="class")
    def net(self):
        return build_random_exponential_network(CHORD_MIN_N, 1)

    def test_every_state_clears_with_few_factorizations(self, net):
        # the public residual, re-evaluated at every returned state, is within
        # the Newton tolerance, while the Jacobian is factored on few steps
        n = net.n
        sim = Simulator(net, self.PARAMS)
        state = sim.equilibrium_state()
        rng = np.random.default_rng(0)
        iters, factorizations = [], []
        for _ in range(40):
            shock = 1e-3 * rng.standard_normal(n)
            new = sim.step(state, shock)
            res = clearing_residual(np.log(new.p), new.h, sim.context_for(state, shock))
            assert np.max(np.abs(res)) <= NEWTON_TOL
            assert new.max_residual < NEWTON_TOL
            iters.append(new.newton_iters)
            factorizations.append(new.factorizations)
            state = new
        assert np.mean(factorizations) < 0.5
        assert sum(iters) > 5 * sum(factorizations)

    def test_simulate_twice_on_one_engine_is_byte_identical(self, net, tmp_path):
        # every run starts without a factorization: the second run on an
        # engine that holds one from the first writes the first's bytes
        sim = Simulator(net, self.PARAMS)
        texts, runs = [], []
        for k in range(2):
            traj = sim.simulate(NoiseProcess(1e-3, 5), steps=40, burn_in=10, config_hash="x")
            trajectory_to_csv(traj, tmp_path / f"{k}.csv", per_sector=True)
            texts.append((tmp_path / f"{k}.csv").read_bytes())
            runs.append(traj)
        assert texts[0] == texts[1]
        _same_run(runs[1], runs[0])
        assert runs[0].factorizations.mean() < 0.5

    def test_members_run_as_they_run_alone_after_one_breaks_down(self, net):
        # gamma = 0.3 with sigma = 1e-2 loses its wealth a dozen steps in; the
        # others keep their own factorization slots and their solo bits
        cases = [(0.13, 1e-3), (0.3, 1e-2), (0.12, 1e-3)]
        params = [replace(self.PARAMS, gamma=g, sigma=s) for g, s in cases]
        noises = [NoiseProcess(s, 3) for _, s in cases]
        got = Ensemble(Simulator(net, params[0]), [p.gamma for p in params]).simulate(
            noises, steps=40, burn_in=10)
        assert isinstance(got[1], ClearingError) and 0 < got[1].t < 30
        assert not isinstance(got[0], ClearingError) and not isinstance(got[2], ClearingError)
        for outcome, p, noise in zip(got, params, noises):
            _same_run(outcome, _solo(net, p, noise, steps=40))

    def test_stable_equilibrium_is_a_fixed_point(self, net):
        # sigma = 0 at a stable (q, gamma): from the equilibrium, an engine that
        # holds a factorization from earlier steps returns the equilibrium
        params = replace(self.PARAMS, gamma=0.05, sigma=0.0)
        assert analyze_stability(net, params).stable
        sim = Simulator(net, params)
        eq, zero = sim.equilibrium, np.zeros(net.n)
        state, rng = sim.equilibrium_state(), np.random.default_rng(1)
        for _ in range(3):
            state = sim.step(state, 1e-3 * rng.standard_normal(net.n))
        assert sim._work.factors[0] is not None
        new = sim.step(sim.equilibrium_state(), zero)
        np.testing.assert_allclose(new.x_next, eq.x_eq, rtol=1e-12, atol=0)
        np.testing.assert_allclose(new.p, eq.p_eq, rtol=1e-12, atol=0)
        assert new.h == pytest.approx(eq.h_eq, rel=1e-12, abs=0)

    def test_chord_steps_kept_by_both_members_or_by_one(self, net, monkeypatch):
        # two gammas in lockstep: in some iterations both members keep their
        # chord step (the trial arrays are taken whole), in others only one
        # does (its rows are copied); either way each member's states are its
        # solo run's bits and clear on re-check
        import scipy.linalg.lapack as lapack

        import netecon.simulator as simulator

        events = []
        # each solve imports dgetrs from lapack afresh, so it calls the spy
        for module, name, letter in ((lapack, "dgetrs", "s"), (simulator, "_clearing_jacobian", "j"),
                                     (simulator, "_residual_at", "r")):
            def spy(*args, _fn=getattr(module, name), _letter=letter, **kwargs):
                events.append(_letter)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        # gamma = 0.2 takes about four times the iterations of gamma = 0.1 and
        # has its chord steps refused while the other member's are kept
        params = [replace(self.PARAMS, gamma=g) for g in (0.1, 0.2)]
        ensemble = Ensemble(Simulator(net, params[0]), [p.gamma for p in params])
        solos = [Simulator(net, p) for p in params]
        # a state carries its member's params, gamma included
        states = [replace(sim.equilibrium_state(), params=sim.params) for sim in solos]
        alone = list(states)
        rng = np.random.default_rng(4)
        for _ in range(40):
            shocks = 1e-3 * rng.standard_normal((2, net.n))
            new = ensemble.step(states, shocks)
            # only the ensemble's solve is tallied
            mark = len(events)
            alone = [sim.step(state, shock) for sim, state, shock in zip(solos, alone, shocks)]
            del events[mark:]
            for got, want, sim, state, shock in zip(new, alone, solos, states, shocks):
                for name in ("p", "x", "x_next", "lam"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                assert (got.h, got.M, got.newton_iters, got.factorizations, got.max_residual) \
                    == (want.h, want.M, want.newton_iters, want.factorizations, want.max_residual)
                res = clearing_residual(np.log(got.p), got.h, sim.context_for(state, shock))
                assert np.max(np.abs(res)) <= NEWTON_TOL
            states = new
        # a residual evaluation right after two chord solves is a chord trial
        # of both members; the Jacobians built before the next evaluation
        # are those of the members whose chord step was refused
        segments = "".join(events).split("r")
        refused = [after.count("j") for before, after in zip(segments, segments[1:])
                   if before == "ss"]
        assert refused.count(0) > 0 and refused.count(1) > 0


class TestScaledTolerance:
    """The clearing tolerance is raised to the rounding floor of the residual
    rows, which grows with n."""

    @staticmethod
    def _start_tolerance(sim, state, shock, tol=NEWTON_TOL):
        # the tolerance of the solve that steps from ``state``, at its warm start
        return _tolerances(sim.context_for(state, shock),
                           np.append(np.log(state.p), np.log(state.h)), tol)

    def test_exactly_tol_below_the_floor(self):
        # plain n = 64 at tol = 1e-13 (criterion 4) and random_exp n = 256 at
        # the default: the floor is below tol, which is kept to the bit
        for net, tol in ((build_plain_network(64), 1e-13),
                         (build_random_exponential_network(256, 1), NEWTON_TOL)):
            sim = Simulator(net, replace(PARAMS, gamma=0.13), tol=tol)
            state = sim.equilibrium_state()
            assert self._start_tolerance(sim, state, np.zeros(net.n), tol) == tol

    def test_large_economy_clears_at_its_floor(self):
        # random_exp n = 2048, network and run seed 1: on a fixed 1e-12 the
        # solve stalls at step 6 on the gauge row's rounding floor (1.8e-12);
        # the floor-scaled tolerance clears 20 steps, and every state
        # re-checks through the public residual at its step's tolerance
        n, params = 2048, ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.13, sigma=1e-3)
        sim = Simulator(build_random_exponential_network(n, 1), params)
        # the shock stream of ``simulate`` with run seed 1
        rng = np.random.default_rng(1)
        state = sim.equilibrium_state()
        state.x_next = state.x_next * np.exp(rng.uniform(-1.0, 1.0, n) * 1e-6)
        raised = 0
        for _ in range(20):
            shock = params.sigma * rng.standard_normal(n)
            tol = self._start_tolerance(sim, state, shock)
            new = sim.step(state, shock)
            res = clearing_residual(np.log(new.p), new.h, sim.context_for(state, shock))
            assert new.max_residual < tol
            assert np.max(np.abs(res)) <= tol
            raised += tol > NEWTON_TOL
            state = new
        assert raised == 20
