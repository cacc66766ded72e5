"""Command-line front-end: reproducible experiment runs emitting CSV datasets.

Subcommands: equilibrium, simulate, stability, phase-diagram, sweep, reduced.
Every output file starts with a ``# config_hash=...`` line; re-running a
command with the same configuration reproduces the data rows byte for byte.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analytics, config as cfg, reduced as red
from .csvio import format_value, write_csv
from .equilibrium import equilibrium_residual, solve_equilibrium
from .simulator import NUMERICAL_FAILURES, NoiseProcess, Simulator, trajectory_to_csv
from .stability import analyze_stability, report_to_csv, trace_critical_line, critical_line_to_csv

__all__ = [
    "cmd_equilibrium",
    "cmd_simulate",
    "cmd_stability",
    "cmd_phase_diagram",
    "cmd_sweep",
    "cmd_reduced",
    "main",
]


def _out_path(conf: cfg.ExperimentConfig, name: str) -> str:
    os.makedirs(conf.output.directory, exist_ok=True)
    return os.path.join(conf.output.directory, name)


def cmd_equilibrium(conf: cfg.ExperimentConfig) -> list[str]:
    """Solve the static equilibrium and write equilibrium.csv."""
    net = cfg.build_network(conf)
    eq = solve_equilibrium(net, conf.params)
    residual = equilibrium_residual(eq, net, conf.params)
    path = _out_path(conf, "equilibrium.csv")
    write_csv(path, ["i", "p_eq", "x_eq", "V_eq", "S_eq"],
              zip(range(net.n), eq.p_eq, eq.x_eq, eq.V_eq, eq.S_eq), cfg.config_hash(conf),
              [f"h_eq={format_value(eq.h_eq)} residual={format_value(residual)}"])
    return [path]


def cmd_simulate(conf: cfg.ExperimentConfig) -> list[str]:
    """Run one simulation and write trajectory.csv."""
    net = cfg.build_network(conf)
    params = conf.params
    sim = Simulator(net, params)
    traj = sim.simulate(
        NoiseProcess(sigma=params.sigma, seed=conf.run.seed),
        steps=conf.run.steps,
        burn_in=conf.run.burn_in,
        initial_kick=conf.run.initial_kick,
        config_hash=cfg.config_hash(conf),
    )
    path = _out_path(conf, "trajectory.csv")
    trajectory_to_csv(traj, path, per_sector=conf.output.per_sector)
    return [path]


def cmd_stability(conf: cfg.ExperimentConfig) -> list[str]:
    """Stability report CSV plus a one-line verdict on stdout."""
    report = analyze_stability(cfg.build_network(conf), conf.params)
    path = _out_path(conf, "stability.csv")
    report_to_csv(report, path, config_hash=cfg.config_hash(conf))
    verdict = "stable" if report.stable else "unstable"
    print(f"{verdict} max_alpha={report.max_alpha:.10g} method={report.method}")
    return [path]


def cmd_phase_diagram(conf: cfg.ExperimentConfig) -> list[str]:
    """Critical line gamma_c(q) over the configured q grid."""
    line = trace_critical_line(cfg.build_network(conf), conf.params, conf.phase_q_grid,
                               jobs=conf.jobs)
    path = _out_path(conf, "phase_diagram.csv")
    critical_line_to_csv(line, path, config_hash=cfg.config_hash(conf))
    return [path]


def cmd_sweep(conf: cfg.ExperimentConfig) -> list[str]:
    """Replicated parameter sweep; also emits mean output / consumption columns.
    Each cell that broke down is named on stderr with its seed, step and
    reason; the CSV counts it in failed_count."""
    result = analytics.run_sweep(conf)
    for point in result.points:
        for seed, failure in point.failures:
            print(f"failed cell {result.axis}={point.value!r} seed={seed}: {failure}",
                  file=sys.stderr)
    path = _out_path(conf, f"sweep_{result.axis}.csv")
    result.to_csv(path, config_hash=cfg.config_hash(conf))
    return [path]


def cmd_reduced(conf: cfg.ExperimentConfig, model: str) -> list[str]:
    """Reference-model datasets: prediction next to simulation."""
    params = conf.params
    a, b = params.a, params.b
    stamp = cfg.config_hash(conf)
    if model == "long_plosser":
        rows = []
        for n in conf.reduced_n_values:
            net = cfg.build_network(cfg.apply_axis(conf, "n", n))
            sigmas = np.full(n, params.sigma if params.sigma > 0 else 1e-3)
            xi = red.long_plosser_simulate(net, a, b, float(sigmas[0]),
                                           conf.run.steps, conf.run.seed)
            measured = float(xi.mean(axis=1)[conf.run.burn_in:].std())
            rows.append((n, measured, red.sigma_fast(net, a, b, sigmas),
                         red.sigma_slow(net, a, b, sigmas)))
        path = _out_path(conf, "reduced_long_plosser.csv")
        write_csv(path, ["n", "measured_agg_std", "sigma_fast_pred", "sigma_slow_pred"],
                  rows, stamp)
        return [path]
    if model == "adiabatic":
        net = cfg.build_network(conf)
        sigmas = np.full(net.n, params.sigma if params.sigma > 0 else 1e-3)
        slow = red.sigma_slow(net, a, b, sigmas)
        fast = red.sigma_fast(net, a, b, sigmas)
        path = _out_path(conf, "reduced_adiabatic.csv")
        write_csv(path, ["n", "sigma_slow", "sigma_fast", "ratio"],
                  [(net.n, slow, fast, slow / fast)], stamp)
        return [path]
    if model == "transversality":
        net = cfg.build_network(conf)
        rng = np.random.default_rng(conf.run.seed)
        s0 = rng.standard_normal(net.n)
        s0 -= s0.mean()
        report = red.transversality_blowup(net, a, b, params.beta0, s0, steps=40)
        path = _out_path(conf, "reduced_transversality.csv")
        write_csv(path, ["step", "norm"], enumerate(report.norms), stamp,
                  [f"growth_factor={format_value(report.growth_factor)} "
                   f"singular_subspace={report.singular_subspace}"])
        return [path]
    if model == "near_instability":
        n = min(conf.network.n, 8)
        u = np.ones(n) / np.sqrt(n)
        model_obj = red.build_near_instability_model(u, eta=0.01, sigmas=np.ones(n))
        stats = red.near_instability_stats(model_obj, steps=400_000, seed=conf.run.seed)
        rows = [("var", j, j, stats.cov_predicted[j, j], stats.cov_empirical[j, j])
                for j in range(n)]
        rows += [("corr", j, k, stats.corr_predicted_sign[j, k], stats.corr_empirical[j, k])
                 for j in range(n) for k in range(j + 1, n)]
        path = _out_path(conf, "reduced_near_instability.csv")
        write_csv(path, ["stat", "j", "k", "predicted", "empirical"], rows, stamp)
        return [path]
    raise cfg.ConfigError(f"unknown reduced model {model!r}")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS defaults let the flags appear before or after the subcommand
    # without the subparser clobbering already-parsed values
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="key-value configuration file")
    parser.add_argument("--set", action="append", default=argparse.SUPPRESS,
                        metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker pool size")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base RNG seed")
    parser.add_argument("--per-sector", action="store_true",
                        default=argparse.SUPPRESS,
                        help="include per-sector columns in trajectory output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netecon",
        description="Interconnected-firm economy: equilibrium, dynamics, stability.",
    )
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("equilibrium", "simulate", "stability", "phase-diagram"):
        _add_common_flags(sub.add_parser(name))
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--axis", default=argparse.SUPPRESS, choices=["gamma", "sigma", "n"],
                       help="swept parameter (sets sweep.axis)")
    _add_common_flags(sweep)
    reduced = sub.add_parser("reduced")
    reduced.add_argument("model", choices=["long_plosser", "adiabatic",
                                           "transversality", "near_instability"])
    _add_common_flags(reduced)
    return parser


# common flags that set a configuration key; applied after --set, so they win
_FLAG_KEYS = {"out": "output.dir", "jobs": "jobs", "seed": "run.seed",
              "per_sector": "output.per_sector", "axis": "sweep.axis"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        conf = cfg.load_config(getattr(args, "config", None), getattr(args, "set", []))
        for attr, key in _FLAG_KEYS.items():
            if hasattr(args, attr):
                conf = cfg.set_key(conf, key, getattr(args, attr))
    except cfg.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "equilibrium":
            paths = cmd_equilibrium(conf)
        elif args.command == "simulate":
            paths = cmd_simulate(conf)
        elif args.command == "stability":
            paths = cmd_stability(conf)
        elif args.command == "phase-diagram":
            paths = cmd_phase_diagram(conf)
        elif args.command == "sweep":
            paths = cmd_sweep(conf)
        elif args.command == "reduced":
            paths = cmd_reduced(conf, args.model)
        else:  # unreachable, argparse enforces choices
            return 1
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
