"""Volatility and cross-correlation versus adjustment speed (CSV datasets).

Main dataset: aggregate volatility against gamma for several economy sizes at
sigma = 1e-3 (the unstable branch stays high as n grows).  Inset dataset: the
same gamma axis at n = 10 for three shock scales (volatility becomes
sigma-independent past the critical point).  Correlation dataset: average
absolute pairwise correlation against gamma.
"""

import argparse
import os

from netecon.cli import cmd_sweep
from netecon.config import default_config, parse_overrides

GAMMAS = "0.05,0.08,0.1,0.11,0.115,0.12,0.13,0.15,0.17"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/volatility")
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--burn-in", type=int, default=1500)
    ap.add_argument("--replicas", type=int, default=2)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    def sweep(name, overrides, statistic="volatility"):
        # replica r runs from base seed 1000 + r
        conf = parse_overrides(default_config(), [
            "params.q=-1", "params.sigma=1e-3",
            f"run.steps={args.steps}", f"run.burn_in={args.burn_in}",
            f"run.replicas={args.replicas}", "run.seed=1000",
            "sweep.axis=gamma", f"sweep.values={GAMMAS}", f"sweep.statistic={statistic}",
            f"jobs={args.jobs}", f"output.dir={args.out}",
        ] + overrides)
        path = os.path.join(args.out, name)
        os.replace(cmd_sweep(conf)[0], path)
        print(path)

    for n in (10, 64):
        sweep(f"volatility_vs_gamma_n{n}.csv", [f"network.n={n}"])
    for sigma in (1e-3, 1e-4, 1e-5):
        sweep(f"volatility_vs_gamma_sigma{sigma:g}.csv", ["network.n=10", f"params.sigma={sigma}"])
    sweep("correlation_vs_gamma_n64.csv", ["network.n=64"], statistic="correlation")


if __name__ == "__main__":
    main()
