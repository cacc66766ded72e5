import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netecon.equilibrium import (
    ModelParams,
    equilibrium_residual,
    influence_vector_lp,
    solve_equilibrium,
)
from netecon.network import build_plain_network, build_random_exponential_network

PARAMS = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.15)


class TestModelParams:
    def test_q0_defaults_to_q(self):
        assert ModelParams(q=-0.3).q0 == -0.3
        assert ModelParams(q=-0.3, q0=0.1).q0 == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a=-0.1), dict(a=1.1), dict(b=0.0), dict(b=1.2), dict(gamma=0.0),
         dict(gamma=1.3), dict(q=-1.5), dict(q=2.0), dict(beta0=0.0), dict(sigma=-1.0),
         # non-finite values that pass the range checks
         dict(beta0=np.inf), dict(sigma=np.inf), dict(sigma=np.nan), dict(q0=np.nan),
         dict(q0=np.inf)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestSolveEquilibrium:
    def test_plain_uniform(self):
        # permutation symmetry forces uniformity; h = ab * sum(V)
        for n in (2, 7, 64):
            eq = solve_equilibrium(build_plain_network(n), PARAMS)
            assert np.allclose(eq.V_eq, 1.0, atol=1e-12)
            assert np.allclose(eq.S_eq, 1.0 / n, atol=1e-12)
            assert abs(eq.h_eq - 0.45 * n) < 1e-12
            assert np.ptp(eq.p_eq) < 1e-12
            assert np.ptp(eq.x_eq) < 1e-12

    def test_single_firm_scalar_oracle(self):
        # scalar log-linear equation solved by hand:
        # (1 - b(1-a)) log p = ab log(ab)  ->  p = 0.45 ** (0.45 / 0.55)
        eq = solve_equilibrium(build_plain_network(1), PARAMS)
        assert eq.h_eq == pytest.approx(0.45, abs=1e-15)
        assert eq.p_eq[0] == pytest.approx(0.520313128355584, abs=1e-14)
        assert eq.x_eq[0] == pytest.approx(1.921919600915002, abs=1e-13)

    def test_residual_bound_random_networks(self):
        for seed in range(5):
            net = build_random_exponential_network(30, seed)
            eq = solve_equilibrium(net, PARAMS)
            assert equilibrium_residual(eq, net, PARAMS) < 1e-10

    def test_v_is_x_times_p(self):
        net = build_random_exponential_network(12, 3)
        eq = solve_equilibrium(net, PARAMS)
        assert np.array_equal(eq.V_eq, eq.x_eq * eq.p_eq)

    def test_shares_sum_to_one(self):
        net = build_random_exponential_network(25, 9)
        eq = solve_equilibrium(net, PARAMS)
        assert eq.S_eq.sum() == pytest.approx(1.0, abs=1e-12)

    def test_crs_rejected(self):
        with pytest.raises(ValueError, match="b < 1"):
            solve_equilibrium(build_plain_network(3), ModelParams(b=1.0))


@given(seed=st.integers(0, 10**6), n=st.integers(2, 24))
@settings(max_examples=20, deadline=None)
def test_equilibrium_residual_property(seed, n):
    net = build_random_exponential_network(n, seed)
    eq = solve_equilibrium(net, PARAMS)
    assert equilibrium_residual(eq, net, PARAMS) < 1e-10
    assert np.all(eq.p_eq > 0) and np.all(eq.x_eq > 0)


class TestInfluenceVector:
    def test_scalar(self):
        v = influence_vector_lp(build_plain_network(1), a=0.5, b=0.9)
        assert v[0] == pytest.approx(1.0 / 0.55, abs=1e-14)

    def test_plain_symmetric(self):
        # each component = 1 / (n (1 - b(1-a))), by symmetry and a direct solve
        n = 10
        v = influence_vector_lp(build_plain_network(n), a=0.5, b=0.9)
        direct = np.linalg.solve(
            np.eye(n) - 0.45 * build_plain_network(n).w.T, np.full(n, 1.0 / n)
        )
        assert np.allclose(v, direct, atol=1e-14)
        assert np.allclose(v, 1.0 / (n * 0.55), atol=1e-14)

    def test_no_intermediates(self):
        v = influence_vector_lp(build_plain_network(6), a=1.0, b=0.9)
        assert np.allclose(v, 1.0 / 6, atol=1e-15)

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            influence_vector_lp(build_plain_network(3), a=0.0, b=1.0)
