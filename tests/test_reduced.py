import numpy as np
import pytest

from closed_forms import adiabatic_response
from conftest import make_symmetric_stochastic
from netecon.network import IONetwork, build_plain_network, build_random_exponential_network
from netecon.reduced import (
    NearInstabilityModel,
    build_near_instability_model,
    long_plosser_simulate,
    near_instability_stats,
    sigma_fast,
    sigma_slow,
    transversality_blowup,
)
from netecon.equilibrium import influence_vector_lp

A, B = 0.5, 0.9
C = B * (1 - A)  # 0.45


class TestLongPlosser:
    def test_zero_noise_stays_at_zero(self):
        xi = long_plosser_simulate(build_plain_network(4), A, B, 0.0, 50, seed=0)
        assert np.all(xi == 0.0)

    def test_scalar_stationary_variance(self):
        # AR(1): var = sigma^2 / (1 - c^2)
        xi = long_plosser_simulate(build_plain_network(1), A, B, 1.0, 400_000, seed=1)
        measured = xi[1000:, 0].var()
        exact = 1.0 / (1.0 - C**2)
        assert measured == pytest.approx(exact, rel=0.02)

    def test_aggregate_scales_as_inverse_sqrt_n(self):
        # plain matrix: the aggregate is an AR(1) with innovation sigma/sqrt(n)
        stds = {}
        for n in (25, 100, 400):
            xi = long_plosser_simulate(build_plain_network(n), A, B, 1.0, 60_000, seed=2)
            stds[n] = xi.mean(axis=1)[500:].std()
        assert stds[25] / stds[100] == pytest.approx(2.0, rel=0.1)
        assert stds[100] / stds[400] == pytest.approx(2.0, rel=0.1)

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            long_plosser_simulate(build_plain_network(2), 0.0, 1.0, 1.0, 10, 0)


class TestAdiabatic:
    def test_zero_shock(self):
        out = adiabatic_response(build_plain_network(3), A, B, np.zeros(3))
        assert np.all(out == 0.0)

    def test_scalar(self):
        out = adiabatic_response(build_plain_network(1), A, B, np.array([1.0]))
        assert out[0] == pytest.approx(1.0 / 0.55, abs=1e-14)

    def test_aggregate_equals_influence_dot_shock(self):
        net = build_random_exponential_network(12, 7)
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(12)
        agg = adiabatic_response(net, A, B, eps).mean()
        v = influence_vector_lp(net, A, B)
        assert agg == pytest.approx(float(v @ eps), abs=1e-12)


class TestSigmaSlowFast:
    def test_scalar_slow(self):
        val = sigma_slow(build_plain_network(1), A, B, np.array([1.0]))
        assert val == pytest.approx(1.0 / 0.55, abs=1e-12)

    def test_scalar_fast(self):
        val = sigma_fast(build_plain_network(1), A, B, np.array([1.0]))
        assert val == pytest.approx(1.0 / np.sqrt(1.0 - 0.2025), abs=1e-10)

    def test_plain_slow_symmetric(self):
        n = 16
        val = sigma_slow(build_plain_network(n), A, B, np.ones(n))
        assert val == pytest.approx(1.0 / (0.55 * np.sqrt(n)), rel=1e-12)

    @pytest.mark.parametrize("n", [10, 100])
    def test_plain_fast_closed_form(self, n):
        # the plain aggregate follows y' = c y + mean(eps): variance 1/(n (1 - c^2))
        val = sigma_fast(build_plain_network(n), A, B, np.ones(n))
        assert val == pytest.approx(1.0 / np.sqrt(n * (1.0 - C**2)), rel=1e-12)

    def test_plain_fast_exact_at_small_sigma(self):
        # C ~ 1e-6 here: a fixed-point iteration stopped on an absolute step
        # of 1e-14 misses the closed form by 3e-7 relative
        n, sig = 400, 1e-3
        val = sigma_fast(build_plain_network(n), A, B, np.full(n, sig))
        assert val == pytest.approx(sig / np.sqrt(n * (1.0 - C**2)), rel=1e-12)

    def test_zero_sigma(self):
        assert sigma_slow(build_plain_network(3), A, B, np.zeros(3)) == 0.0
        assert sigma_fast(build_plain_network(3), A, B, np.zeros(3)) == 0.0

    def test_fast_matches_kronecker_solve(self):
        # brute-force 4x4 solve of the vectorized fixed point for n = 2
        net = build_random_exponential_network(2, 5)
        sigmas = np.array([0.7, 1.3])
        w = net.w
        m_inv = np.eye(4) - C**2 * np.kron(w, w)
        cov_vec = np.linalg.solve(m_inv, np.diag(sigmas**2).reshape(-1))
        expected = np.sqrt(cov_vec.reshape(2, 2).sum() / 4.0)
        assert sigma_fast(net, A, B, sigmas) == pytest.approx(expected, abs=1e-12)

    def test_fast_matches_monte_carlo(self):
        net = build_plain_network(10)
        sig = 1.0
        xi = long_plosser_simulate(net, A, B, sig, 200_000, seed=4)
        agg = xi.mean(axis=1)[1000:]
        measured = agg.std()
        predicted = sigma_fast(net, A, B, np.full(10, sig))
        # 3 standard errors via batch means
        batches = np.array_split(agg, 40)
        se = np.std([b.std() for b in batches]) / np.sqrt(40)
        assert abs(measured - predicted) < 3 * se

    def test_scalar_slow_fast_ratio(self):
        # slow^2 / fast^2 = (1 + c) / (1 - c), exact in the scalar case
        slow = sigma_slow(build_plain_network(1), A, B, np.array([1.0]))
        fast = sigma_fast(build_plain_network(1), A, B, np.array([1.0]))
        assert slow**2 / fast**2 == pytest.approx((1 + C) / (1 - C), abs=1e-10)
        assert slow > fast

    def test_stability_of_scaled_map(self):
        # spectral radius of c W stays below one for every row-stochastic W
        for seed in range(5):
            net = build_random_exponential_network(20, seed)
            assert np.max(np.abs(np.linalg.eigvals(net.w))) * C < 1.0


class TestTransversality:
    def test_zero_stays_zero(self):
        rep = transversality_blowup(build_plain_network(4), A, B, 1.0,
                                    np.zeros(4), steps=10)
        assert rep.growth_factor == 1.0

    def test_two_block_eigenvalue(self):
        # perpendicular mode of W' has eigenvalue 0.8: growth = 1/(0.45*0.8)
        net = IONetwork(2, np.array([[0.9, 0.1], [0.1, 0.9]]))
        s0 = np.array([1.0, -1.0])
        rep = transversality_blowup(net, A, B, 1.0, s0, steps=25)
        assert rep.growth_factor == pytest.approx(1.0 / 0.36, rel=1e-10)

    def test_plain_matrix_blows_up_immediately(self):
        rep = transversality_blowup(build_plain_network(5), A, B, 1.0,
                                    np.array([1, -1, 0, 0, 0.0]), steps=10)
        assert rep.singular_subspace
        assert np.isinf(rep.growth_factor)

    def test_growth_exceeds_one_for_random_networks(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            net = build_random_exponential_network(9, seed)
            s0 = rng.standard_normal(9)
            s0 -= s0.mean()
            rep = transversality_blowup(net, A, B, 1.0, s0, steps=30)
            assert rep.growth_factor > 1.0

    def test_requires_perpendicular_start(self):
        with pytest.raises(ValueError):
            transversality_blowup(build_plain_network(3), A, B, 1.0,
                                  np.array([1.0, 1.0, 1.0]), steps=5)


class TestNearInstability:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            build_near_instability_model(np.array([1.0, 0.0]), eta=-0.1,
                                         sigmas=np.ones(2))
        # the covariance prediction assumes orthogonal modes; the tolerance is
        # absolute, so a relative asymmetry of 5e-6 is rejected too
        for a in ([[0.9, 0.05], [0.0, 0.5]], [[0.5, 0.2], [0.200001, 0.3]]):
            with pytest.raises(ValueError, match="symmetric"):
                NearInstabilityModel(A=np.array(a), U_plus=np.array([1.0, 0.0]),
                                     sigmas=np.ones(2), eta=0.1)

    def test_diagonal_reference_case(self):
        # A = diag(0.99, 0.5): component one is an AR(1) with exact
        # stationary variance 1/(1 - 0.99^2) = 50.25; prediction 50
        model = build_near_instability_model(np.array([1.0, 0.0]), eta=0.01,
                                             sigmas=np.ones(2))
        assert np.allclose(model.A, np.diag([0.99, 0.5]), atol=1e-14)
        stats = near_instability_stats(model, steps=1_000_000, seed=0)
        assert stats.cov_predicted[0, 0] == pytest.approx(50.0)
        assert stats.cov_empirical[0, 0] == pytest.approx(50.0, rel=0.10)

    def test_correlations_approach_unity(self):
        n = 4
        u = np.ones(n) / np.sqrt(n)
        model = build_near_instability_model(u, eta=0.01, sigmas=np.ones(n))
        stats = near_instability_stats(model, steps=600_000, seed=1)
        off = stats.corr_empirical[np.triu_indices(n, k=1)]
        assert np.all(off > 0.9)
        assert np.all(stats.corr_predicted_sign[np.triu_indices(n, k=1)] == 1.0)

    def test_covariance_converges_to_rank_one_prediction(self):
        n = 4
        u = np.ones(n) / np.sqrt(n)
        errs = {}
        for eta in (0.01, 0.005):
            model = build_near_instability_model(u, eta=eta, sigmas=np.ones(n))
            stats = near_instability_stats(model, steps=2_000_000, seed=2)
            errs[eta] = (np.linalg.norm(stats.cov_empirical - stats.cov_predicted)
                         / np.linalg.norm(stats.cov_predicted))
        assert errs[0.01] < 0.15
        assert errs[0.005] < errs[0.01]

    def test_burn_in_guard(self):
        model = build_near_instability_model(np.array([1.0, 0.0]), eta=0.01,
                                             sigmas=np.ones(2))
        with pytest.raises(ValueError):
            near_instability_stats(model, steps=500, seed=0)
