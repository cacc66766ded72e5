"""Summary statistics over trajectories.

Level and first-difference volatility, average absolute pairwise
correlations, dominant-period detection via the periodogram, the amplitude
envelope, the linearized volatility prediction and a reproducible
parameter-sweep runner, which steps the cells of one network size as
``Ensemble``s.  The observables themselves (the flat-log aggregate
``mean_xi``, real output at equilibrium prices ``output_real`` and real
consumption) are recorded by ``Simulator.simulate`` on the
``Trajectory``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import periodogram

from . import config as cfg
from .csvio import write_csv
from .simulator import NUMERICAL_FAILURES, Ensemble, NoiseProcess, Simulator, Trajectory

__all__ = [
    "PeriodEstimate",
    "SweepPoint",
    "SweepResult",
    "amplitude_envelope",
    "avg_abs_correlation",
    "dominant_period",
    "linearized_volatility",
    "run_sweep",
    "volatility",
    "volatility_diff",
]


def volatility(series: np.ndarray, burn_in: int) -> float:
    """Standard deviation of the series level over the stationary window."""
    series = np.asarray(series, dtype=float)
    if len(series) <= burn_in + 100:
        raise ValueError("series too short beyond burn-in")
    return float(np.std(series[burn_in:]))


def volatility_diff(series: np.ndarray, burn_in: int) -> float:
    """Standard deviation of first differences over the stationary window."""
    series = np.asarray(series, dtype=float)
    if len(series) <= burn_in + 100:
        raise ValueError("series too short beyond burn-in")
    return float(np.std(np.diff(series[burn_in:])))


def avg_abs_correlation(traj: Trajectory, burn_in: int) -> float:
    """Mean over sector pairs of |Pearson correlation| of the log-deviations.

    Zero-variance sectors are excluded from the pairs (a diagnostic warning
    records how many); NaN when fewer than two sectors survive.
    """
    xi = traj.xi[burn_in:]
    stds = xi.std(axis=0)
    keep = stds > 0
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"{dropped} zero-variance sectors excluded from correlations",
                      stacklevel=2)
    xi = xi[:, keep]
    n = xi.shape[1]
    if n < 2:
        return float("nan")
    corr = np.corrcoef(xi.T)
    iu = np.triu_indices(n, k=1)
    return float(np.mean(np.abs(corr[iu])))


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant period with its prominence (peak power over median power)."""

    period: float | None
    prominence: float
    frequency: float


def dominant_period(series: np.ndarray, burn_in: int,
                    min_prominence: float = 50.0) -> PeriodEstimate:
    """Period of the largest nonzero-frequency periodogram peak.

    The series is mean-removed and Hann-tapered.  The peak must stand out
    from the spectral floor: prominence is the ratio of peak power to the
    median power, and a flat spectrum (prominence below ``min_prominence``,
    which white noise essentially never exceeds) yields period None.
    Needs at least 2048 post-burn-in samples.
    """
    series = np.asarray(series, dtype=float)
    x = series[burn_in:]
    if len(x) < 2048:
        raise ValueError("need at least 2048 post-burn-in samples")
    freqs, power = periodogram(x - x.mean(), window="hann", detrend=False)
    freqs, power = freqs[1:], power[1:]
    k = int(np.argmax(power))
    floor = float(np.median(power))
    prominence = float(power[k] / floor) if floor > 0 else float("inf")
    if prominence < min_prominence:
        return PeriodEstimate(period=None, prominence=prominence, frequency=float(freqs[k]))
    return PeriodEstimate(period=float(1.0 / freqs[k]), prominence=prominence,
                          frequency=float(freqs[k]))


def amplitude_envelope(series: np.ndarray, window: int = 6) -> np.ndarray:
    """Rolling standard deviation of the series, one value per window start.

    The unstable phase superposes a fast oscillation (a few steps) on a slow
    modulation of its amplitude; the business cycle the eye picks out of an
    output plot is that envelope.  ``window`` should cover roughly one fast
    period.
    """
    series = np.asarray(series, dtype=float)
    if window < 2 or len(series) <= window:
        raise ValueError("window must cover at least two samples of the series")
    cum = np.cumsum(np.insert(series, 0, 0.0))
    cum2 = np.cumsum(np.insert(series**2, 0, 0.0))
    mean = (cum[window:] - cum[:-window]) / window
    mean2 = (cum2[window:] - cum2[:-window]) / window
    return np.sqrt(np.maximum(mean2 - mean**2, 0.0))


def linearized_volatility(net, params, sigma: float) -> float:
    """Stationary flat-log aggregate volatility predicted by the linearized map.

    Solves the discrete Lyapunov equation for the state covariance of
    state <- S state + B eps and returns the standard deviation of mean(xi).
    Only defined in the stable phase.
    """
    from scipy.linalg import solve_discrete_lyapunov

    from .stability import linear_state_map

    s_map, b_map = linear_state_map(net, params)
    radius = float(np.max(np.abs(np.linalg.eigvals(s_map))))
    if radius >= 1.0:
        raise ValueError(f"linearized map is unstable (spectral radius {radius:.4f})")
    q = sigma**2 * (b_map @ b_map.T)
    cov = solve_discrete_lyapunov(s_map, q)
    n = net.n
    weights = np.zeros(s_map.shape[0])
    weights[:n] = 1.0 / n
    return float(np.sqrt(weights @ cov @ weights))


# ---------------------------------------------------------------------------
# sweep runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One swept value: the statistic over its replicas that ran through, and
    ``failures``, the (cell seed, error) of each replica that broke down."""

    value: float
    statistic: float
    std_err: float
    replicas: int
    seeds: tuple[int, ...]
    failures: tuple[tuple[int, Exception], ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(eq=False)
class SweepResult:
    axis: str
    points: list[SweepPoint]

    def to_csv(self, path, config_hash: str = "") -> None:
        extras = sorted({k for p in self.points for k in p.extras})
        rows = [[p.value, p.statistic, p.std_err, p.replicas, p.failed]
                + [p.extras.get(name, float("nan")) for name in extras]
                for p in self.points]
        write_csv(path, ["axis_value", "statistic", "std_err", "replicas", "failed_count"]
                  + extras, rows, config_hash, [f"axis={self.axis}"])


def _cell_seed(base_seed: int, value_index: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(base_seed), int(value_index)))
               .generate_state(1)[0])


# the statistics of one sweep cell, by name: any one of them can be the
# sweep's statistic column, and the others become its extra columns.  Each
# calls its function through the module, where a profiler may wrap it.
_CELL_STATISTICS = {
    "volatility": lambda traj, burn: volatility(traj.mean_xi, burn),
    "volatility_diff": lambda traj, burn: volatility_diff(traj.mean_xi, burn),
    "correlation": lambda traj, burn: avg_abs_correlation(traj, burn),
    "mean_output": lambda traj, burn: float(np.mean(traj.output_real[burn:])),
    "mean_consumption": lambda traj, burn: float(np.mean(traj.consumption_real[burn:])),
    "output_eq": lambda traj, burn: traj.output_eq,
    "consumption_eq": lambda traj, burn: traj.consumption_eq,
}


# the most sweep cells one ensemble steps.  Every member keeps its whole
# trajectory (steps x n values of xi) until the ensemble's statistics are
# taken, so memory grows with the ensemble; a member-step at 8 members costs
# 35-51% of a lone step at n = 10-64, and at 16 members 18-50%.
ENSEMBLE_CELLS = 8


def _run_cells(cells) -> list[dict | Exception]:
    """Sweep cells of one network size, (cell config, cell seed) each,
    stepped as one ensemble.  Returns per cell the statistics of
    ``_CELL_STATISTICS``, or the failure (one of ``NUMERICAL_FAILURES``) that
    stopped its simulation.  A member's own breakdown (a ClearingError)
    fails its cell alone; any other numerical failure in the ensemble fails
    all its cells.  Any other error (configuration, programming)
    propagates."""
    first = cells[0][0]
    run = first.run
    try:
        sim = Simulator(cfg.build_network(first), first.params)
        outcomes = Ensemble(sim, [conf.params.gamma for conf, _ in cells]).simulate(
            [NoiseProcess(sigma=conf.params.sigma, seed=seed) for conf, seed in cells],
            steps=run.steps, burn_in=run.burn_in, initial_kick=run.initial_kick,
        )
    except NUMERICAL_FAILURES as exc:
        return [exc] * len(cells)
    return [traj if isinstance(traj, Exception)
            else {name: stat(traj, traj.burn_in) for name, stat in _CELL_STATISTICS.items()}
            for traj in outcomes]


def run_sweep(conf) -> SweepResult:
    """Replicated simulations along the axis ``sweep.axis`` of ``conf``.

    Each of ``sweep.values`` runs ``run.replicas`` cells; replica r has base
    seed ``run.seed`` + r, and the cell seed mixes the base seed with the
    value index, so the whole sweep is reproducible from the config.  The
    cells of one network size run as ensembles of at most ``ENSEMBLE_CELLS``
    members, split as evenly as that allows; with ``jobs`` > 1 a process
    pool runs the ensembles, each size split into a multiple of ``jobs`` of
    them.  A cell's simulation is the same in every ensemble, so the result
    does not depend on ``jobs``.  Cells whose simulation breaks down (one of
    ``NUMERICAL_FAILURES``) are kept with their error in the point's
    ``failures``; any other error propagates.  ``sweep.statistic`` names one
    of ``_CELL_STATISTICS``.
    """
    axis, statistic, replicas = conf.sweep_axis, conf.sweep_statistic, conf.run.replicas
    if statistic not in _CELL_STATISTICS:
        raise ValueError(f"unknown sweep statistic {statistic!r} "
                         f"({', '.join(_CELL_STATISTICS)})")
    jobs = max(conf.jobs, 1)
    values = [float(value) for value in conf.sweep_values]
    seeds = [tuple(_cell_seed(conf.run.seed + r, i) for r in range(replicas))
             for i in range(len(values))]
    tasks = [(cfg.apply_axis(conf, axis, value), seed)
             for value, cell_seeds in zip(values, seeds) for seed in cell_seeds]

    by_size: dict[int, list[int]] = {}
    for index, (cell, _) in enumerate(tasks):
        by_size.setdefault(cell.network.n, []).append(index)
    groups = []
    for members in by_size.values():
        ensembles = -(-len(members) // ENSEMBLE_CELLS)
        ensembles = min(-(-ensembles // jobs) * jobs, len(members))
        groups += [part.tolist() for part in np.array_split(members, ensembles)]
    batches = [[tasks[i] for i in group] for group in groups]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cells, batches))
    else:
        results = list(map(_run_cells, batches))
    outcomes: list = [None] * len(tasks)
    for group, result in zip(groups, results):
        for index, outcome in zip(group, result):
            outcomes[index] = outcome

    points = []
    for i, (value, cell_seeds) in enumerate(zip(values, seeds)):
        cell = outcomes[i * replicas:(i + 1) * replicas]
        good = [c for c in cell if isinstance(c, dict)]
        failures = tuple((seed, c) for seed, c in zip(cell_seeds, cell)
                         if not isinstance(c, dict))
        if not good:
            points.append(SweepPoint(value=value, statistic=float("nan"),
                                     std_err=float("nan"), replicas=replicas,
                                     seeds=cell_seeds, failures=failures))
            continue
        stats = np.array([c[statistic] for c in good])
        std_err = float(stats.std(ddof=1) / np.sqrt(len(stats))) if len(stats) > 1 else float("nan")
        extras = {k: float(np.mean([c[k] for c in good])) for k in good[0] if k != statistic}
        points.append(SweepPoint(value=value, statistic=float(stats.mean()),
                                 std_err=std_err, replicas=replicas,
                                 seeds=cell_seeds, failures=failures, extras=extras))
    return SweepResult(axis=axis, points=points)
