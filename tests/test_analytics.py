import numpy as np
import pytest

from closed_forms import linearized_volatility
from netecon.analytics import avg_abs_correlation, run_sweep, volatility, volatility_diff
from netecon.config import default_config, parse_overrides
from netecon.equilibrium import ModelParams
from netecon.network import build_plain_network
from netecon.simulator import NoiseProcess, Simulator
from periodogram import amplitude_envelope, dominant_period


def _small_traj(gamma=0.2, sigma=1e-3, n=5, steps=300, seed=3, q=-1.0, kick=1e-6):
    params = ModelParams(a=0.5, b=0.9, q=q, gamma=gamma, sigma=sigma)
    return Simulator(build_plain_network(n), params).simulate(
        NoiseProcess(sigma, seed), steps=steps, burn_in=50, initial_kick=kick)


class TestAggregateOutput:
    # the aggregates Simulator.simulate records: mean_xi, the flat average of
    # the log-deviations, and output_real, output at equilibrium prices
    def test_equilibrium_values(self):
        traj = _small_traj(sigma=0.0, seed=1, kick=0.0)
        assert np.allclose(traj.mean_xi, 0.0, atol=1e-12)
        assert np.allclose(traj.output_real, traj.output_eq, rtol=1e-12)

    def test_uniform_shift_linearity(self):
        # one firm: every step is a uniform shift of the economy
        traj = _small_traj(n=1)
        assert np.array_equal(traj.mean_xi, traj.xi[:, 0])
        assert np.allclose(traj.output_real, traj.output_eq * np.exp(traj.mean_xi),
                           rtol=1e-15, atol=0.0)

    def test_single_sector_shock_flat_weight(self):
        traj = _small_traj(n=5)
        assert np.ptp(traj.xi, axis=1).max() > 0  # sectors differ
        assert np.allclose(traj.mean_xi, traj.xi.mean(axis=1), rtol=0.0, atol=1e-18)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.2, sigma=1e-3)
        v_eq = Simulator(build_plain_network(5), params).equilibrium.V_eq
        assert np.allclose(traj.output_real, np.exp(traj.xi) @ v_eq, rtol=1e-14, atol=0.0)


class TestVolatility:
    def test_constant_series(self):
        assert volatility(np.ones(500), 100) == 0.0

    def test_sine_amplitude(self):
        t = np.arange(40_000)
        series = 2.5 * np.sin(2 * np.pi * t / 37.0)
        assert volatility(series, 0) == pytest.approx(2.5 / np.sqrt(2), rel=0.01)

    def test_too_short(self):
        with pytest.raises(ValueError):
            volatility(np.ones(50), 10)

    def test_diff_variant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        assert volatility_diff(x, 100) == pytest.approx(np.sqrt(2.0), rel=0.05)

    def test_stable_phase_matches_linearized_prediction(self):
        # bridge: measured aggregate volatility vs the Lyapunov solve of the
        # linearized state covariance
        n, gamma, sigma = 10, 0.05, 1e-3
        net = build_plain_network(n)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=gamma, sigma=sigma)
        traj = Simulator(net, params).simulate(NoiseProcess(sigma, 17),
                                               steps=16_000, burn_in=1000)
        measured = volatility(traj.mean_xi, 1000)
        predicted = linearized_volatility(net, params, sigma)
        agg = traj.mean_xi[1000:]
        batches = np.array_split(agg, 30)
        se = np.std([b.std() for b in batches]) / np.sqrt(30)
        assert abs(measured - predicted) < 3 * se


class TestCorrelation:
    def _traj_with_xi(self, xi):
        # avg_abs_correlation reads xi alone: a short run carries it
        traj = _small_traj(n=xi.shape[1], steps=60)
        traj.xi = xi
        return traj

    def test_identical_sectors(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(800)
        traj = self._traj_with_xi(np.tile(col[:, None], (1, 5)))
        assert avg_abs_correlation(traj, 0) == pytest.approx(1.0)

    def test_independent_sectors_null_level(self):
        rng = np.random.default_rng(2)
        traj = self._traj_with_xi(rng.standard_normal((10_000, 6)))
        value = avg_abs_correlation(traj, 0)
        null = np.sqrt(2.0 / np.pi) / np.sqrt(10_000)  # E|corr| for T samples
        assert value < 3 * null
        assert value > null / 3

    def test_zero_variance_excluded(self):
        rng = np.random.default_rng(3)
        xi = rng.standard_normal((500, 4))
        xi[:, 2] = 1.0
        traj = self._traj_with_xi(xi)
        with pytest.warns(UserWarning, match="zero-variance"):
            value = avg_abs_correlation(traj, 0)
        assert 0.0 <= value <= 1.0

    def test_bounds(self):
        traj = _small_traj(steps=400)
        value = avg_abs_correlation(traj, 100)
        assert 0.0 <= value <= 1.0


class TestConsumption:
    def test_equilibrium_constant(self):
        traj = _small_traj(sigma=0.0, seed=5, kick=0.0)
        cons = traj.consumption_real
        assert np.ptp(cons) / cons.mean() < 1e-8

    def test_matches_definition(self):
        # recorded consumption equals sum_i M / (n p_i) rebuilt from states
        n = 4
        net = build_plain_network(n)
        params = ModelParams(a=0.5, b=0.9, q=-1.0, gamma=0.2, sigma=1e-3)
        sim = Simulator(net, params)
        rng = np.random.default_rng(0)
        state = sim.equilibrium_state()
        state.x_next = state.x_next * np.exp(1e-6 * rng.uniform(-1, 1, n))
        recomputed = []
        for _ in range(40):
            state = sim.step(state, 1e-3 * rng.standard_normal(n))
            recomputed.append(state.M / n * np.sum(1.0 / state.p))
        traj = sim.simulate(NoiseProcess(1e-3, 11), 40, 5)
        assert traj.consumption_real.shape == (40,)
        assert np.all(np.isfinite(recomputed))


class TestDominantPeriod:
    def test_recovers_sine_period(self):
        t = np.arange(4096)
        est = dominant_period(np.sin(2 * np.pi * t / 50.0), 0)
        assert est.period == pytest.approx(50.0, abs=1.0)

    def test_white_noise_has_no_peak(self):
        rng = np.random.default_rng(4)
        est = dominant_period(rng.standard_normal(4096), 0)
        assert est.period is None
        assert est.prominence < 50.0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            dominant_period(np.ones(1000), 0)

    def test_noisy_sine_still_found(self):
        rng = np.random.default_rng(5)
        t = np.arange(8192)
        series = np.sin(2 * np.pi * t / 50.0) + 0.3 * rng.standard_normal(8192)
        est = dominant_period(series, 0)
        assert est.period == pytest.approx(50.0, abs=1.0)


class TestEnvelope:
    def test_modulated_carrier(self):
        # fast carrier with slow amplitude modulation: the envelope spectrum
        # peaks at the modulation period
        t = np.arange(8192)
        series = (1.0 + 0.5 * np.sin(2 * np.pi * t / 50.0)) * np.sin(2 * np.pi * t / 5.0)
        env = amplitude_envelope(series, window=5)
        est = dominant_period(env, 0)
        assert est.period == pytest.approx(50.0, abs=1.5)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            amplitude_envelope(np.ones(10), window=1)


def _sweep(conf, axis, values, replicas, seed, **keys):
    """run_sweep of ``conf`` along ``axis``: replica r has base seed seed + r;
    ``keys`` sets further top-level keys (``jobs``)."""
    sets = [f"sweep.axis={axis}", "sweep.values=" + ",".join(map(repr, values)),
            f"run.replicas={replicas}", f"run.seed={seed}"]
    return run_sweep(parse_overrides(conf, sets + [f"{k}={v}" for k, v in keys.items()]))


class TestRunSweep:
    def test_gamma_sweep_detects_instability(self):
        conf = parse_overrides(default_config(), ["network.n=8", "run.steps=1200",
                                                  "run.burn_in=400", "params.sigma=1e-3"])
        result = _sweep(conf, "gamma", [0.05, 0.15], replicas=2, seed=1)
        assert result.axis == "gamma"
        assert len(result.points) == 2
        stable, unstable = result.points
        assert stable.statistic < unstable.statistic
        assert stable.failed == 0 and unstable.failed == 0
        assert all(len(p.seeds) == 2 for p in result.points)
        assert "mean_output" in stable.extras
        assert "mean_consumption" in stable.extras

    def test_deterministic_given_seeds(self):
        conf = parse_overrides(default_config(), ["network.n=6", "run.steps=600",
                                                  "run.burn_in=150"])
        r1 = _sweep(conf, "sigma", [1e-3], replicas=1, seed=9)
        r2 = _sweep(conf, "sigma", [1e-3], replicas=1, seed=9)
        assert r1.points[0].statistic == r2.points[0].statistic

    def _small_conf(self):
        return parse_overrides(default_config(), ["network.n=4", "run.steps=150",
                                                  "run.burn_in=20"])

    def test_programming_error_propagates(self, monkeypatch):
        from netecon.simulator import Ensemble

        def broken(self, *args, **kwargs):
            raise TypeError("bug in the simulation code")

        monkeypatch.setattr(Ensemble, "step", broken)
        with pytest.raises(TypeError, match="bug"):
            _sweep(self._small_conf(), "gamma", [0.1], replicas=1, seed=1, jobs=1)

    def test_other_numerical_failure_fails_the_ensembles_cells(self, monkeypatch):
        # an error of the ensemble's step as a whole, not of one member's
        # solve, fails every cell the ensemble steps, and the sweep goes on
        from netecon.simulator import Ensemble

        def overflows(self, *args, **kwargs):
            raise FloatingPointError("overflow in the step")

        monkeypatch.setattr(Ensemble, "step", overflows)
        (point,) = _sweep(self._small_conf(), "gamma", [0.1], replicas=2, seed=1,
                          jobs=1).points
        assert point.failed == 2 and np.isnan(point.statistic)
        assert all(isinstance(failure, FloatingPointError) for _, failure in point.failures)

    @staticmethod
    def _break_high_gamma_at_step_7(monkeypatch):
        # the ensemble's step reports a breakdown for the members above
        # gamma = 0.2 at step 7, as it reports a member whose solve fails
        from netecon.simulator import ClearingError, Ensemble

        original = Ensemble.step

        def breaks_at_high_gamma(self, states, shocks, members=None):
            return [ClearingError("wealth non-positive", t=new.t)
                    if new.t == 7 and new.params.gamma > 0.2 else new
                    for new in original(self, states, shocks, members)]

        monkeypatch.setattr(Ensemble, "step", breaks_at_high_gamma)

    def test_breakdown_counted_as_failed(self, monkeypatch):
        self._break_high_gamma_at_step_7(monkeypatch)
        result = _sweep(self._small_conf(), "gamma", [0.1, 0.3], replicas=2, seed=1, jobs=1)
        ok, broken = result.points
        assert ok.failed == 0 and np.isfinite(ok.statistic)
        assert broken.failed == 2 and np.isnan(broken.statistic)
        assert np.isnan(broken.std_err) and broken.extras == {}

    def test_failure_reasons_are_kept_per_cell(self, monkeypatch):
        self._break_high_gamma_at_step_7(monkeypatch)
        ok, broken = _sweep(self._small_conf(), "gamma", [0.1, 0.3], replicas=2, seed=1,
                            jobs=1).points
        assert ok.failures == ()
        assert [seed for seed, _ in broken.failures] == list(broken.seeds)
        for _, failure in broken.failures:
            assert failure.t == 7 and str(failure) == "step 7: wealth non-positive"

    def test_csv_does_not_depend_on_jobs_or_ensemble_size(self, tmp_path, monkeypatch):
        # the pool and the cap on ensemble members split the cells into
        # smaller ensembles; every cell's run, and so the file, stays the same
        from netecon import analytics
        from netecon.config import config_hash

        sizes = []

        class Recorded(analytics.Ensemble):
            def __init__(self, sim, gammas):
                super().__init__(sim, gammas)
                sizes.append(len(self.params))

        monkeypatch.setattr(analytics, "Ensemble", Recorded)
        conf = parse_overrides(default_config(), ["network.n=6", "run.steps=300",
                                                  "run.burn_in=100", "params.sigma=1e-3"])
        texts, failures = [], []
        for jobs, cells in ((1, 8), (2, 8), (1, 4)):
            monkeypatch.setattr(analytics, "ENSEMBLE_CELLS", cells)
            path = tmp_path / f"jobs{jobs}_cells{cells}" / "sweep_gamma.csv"
            path.parent.mkdir()
            result = _sweep(conf, "gamma", [0.08, 0.14, 0.3], replicas=2, seed=1, jobs=jobs)
            result.to_csv(path, config_hash=config_hash(conf))
            texts.append(path.read_bytes())
            # a worker process sends each failure back with its step
            failures.append([(seed, failure.t, str(failure))
                             for point in result.points for seed, failure in point.failures])
        assert texts[0] == texts[1] == texts[2]
        assert b"\n0.29999999999999999,nan," in texts[0]  # the gamma = 0.3 cells break down
        assert len(failures[0]) == 2 and failures[0] == failures[1] == failures[2]
        # in this process: all six cells as one ensemble, then two of three
        # (the pool's ensembles are made in its workers)
        assert sizes == [6, 3, 3]

    def test_configuration_error_propagates(self):
        # b = 1 has no equilibrium: an error of the configuration, not a
        # failed cell
        conf = parse_overrides(self._small_conf(), ["params.b=1.0"])
        with pytest.raises(ValueError, match="b < 1"):
            _sweep(conf, "gamma", [0.1], replicas=1, seed=1)
