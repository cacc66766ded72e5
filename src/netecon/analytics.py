"""Summary statistics over trajectories.

Level and first-difference volatility, average absolute pairwise
correlations and a reproducible parameter-sweep runner, which steps the
cells of one network size as ``Ensemble``s.  The observables themselves (the
flat-log aggregate ``mean_xi``, real output at equilibrium prices
``output_real`` and real consumption) are recorded by
``Simulator.simulate`` on the ``Trajectory``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import config as cfg
from .csvio import write_csv
from .simulator import NUMERICAL_FAILURES, Ensemble, NoiseProcess, Simulator, Trajectory

__all__ = [
    "SweepPoint",
    "SweepResult",
    "avg_abs_correlation",
    "run_sweep",
    "volatility",
    "volatility_diff",
]


def _stationary_window(series: np.ndarray, burn_in: int) -> np.ndarray:
    """The series after ``burn_in``, which must leave more than 100 samples."""
    series = np.asarray(series, dtype=float)
    if len(series) <= burn_in + 100:
        raise ValueError("series too short beyond burn-in")
    return series[burn_in:]


def volatility(series: np.ndarray, burn_in: int) -> float:
    """Standard deviation of the series level over the stationary window."""
    return float(np.std(_stationary_window(series, burn_in)))


def volatility_diff(series: np.ndarray, burn_in: int) -> float:
    """Standard deviation of first differences over the stationary window."""
    return float(np.std(np.diff(_stationary_window(series, burn_in))))


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
    cfg._axis_key(conf, axis)  # checked before the cells: sweep.values may be empty
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
        # a value none of whose replicas ran through has NaN statistics and no extras
        stats = np.array([c[statistic] for c in good])
        std_err = float(stats.std(ddof=1) / np.sqrt(len(stats))) if len(stats) > 1 else float("nan")
        extras = {k: float(np.mean([c[k] for c in good]))
                  for k in _CELL_STATISTICS if good and k != statistic}
        points.append(SweepPoint(value=value, statistic=float(stats.mean()) if good else float("nan"),
                                 std_err=std_err, replicas=replicas,
                                 seeds=cell_seeds, failures=failures, extras=extras))
    return SweepResult(axis=axis, points=points)
