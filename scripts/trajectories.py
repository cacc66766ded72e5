"""Aggregate-output trajectories across the instability (CSV datasets).

Runs the plain n=64 economy at q=-1 for adjustment speeds straddling the
critical point (gamma_c = 1/9 for this configuration) and writes one
trajectory file per gamma.  Plot aggregate_output or mean_xi against t with
any tool.
"""

import argparse
import os

from netecon.cli import cmd_simulate
from netecon.config import default_config, parse_overrides

GAMMAS = (0.105, 0.115, 0.13, 0.15, 0.185)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/trajectories")
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    for gamma in GAMMAS:
        conf = parse_overrides(default_config(), [
            f"network.n={args.n}", "params.q=-1", f"params.gamma={gamma}",
            "params.sigma=1e-3", f"run.steps={args.steps}",
            f"run.burn_in={min(1000, args.steps // 5)}", f"run.seed={args.seed}",
            f"output.dir={args.out}",
        ])
        path = os.path.join(args.out, f"trajectory_gamma{gamma}.csv")
        os.replace(cmd_simulate(conf)[0], path)
        print(path)


if __name__ == "__main__":
    main()
