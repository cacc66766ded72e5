"""Critical lines gamma_c(q) for several network families (CSV datasets).

Traces the stability boundary in the (q, gamma) plane for the plain matrix
and for random exponential networks of growing size (their lines rise toward
the plain-matrix line as the eigenvalue bulk shrinks).
"""

import argparse
import os

from netecon.cli import cmd_phase_diagram
from netecon.config import default_config, parse_overrides


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/phase_diagram")
    ap.add_argument("--q-step", type=float, default=0.1)
    ap.add_argument("--sizes", type=int, nargs="*", default=[20, 40, 80])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    q_grid = [round(-1.0 + k * args.q_step, 10)
              for k in range(int(2.0 / args.q_step) + 1)]
    nets = [("plain_n40", ["network.kind=plain", "network.n=40"])]
    nets += [(f"randexp_n{n}", ["network.kind=random_exp", f"network.n={n}",
                                f"network.seed={n}"]) for n in args.sizes]
    for label, network in nets:
        conf = parse_overrides(default_config(), network + [
            "params.q=-1", "phase.q_grid=" + ",".join(str(q) for q in q_grid),
            f"jobs={args.jobs}", f"output.dir={args.out}",
        ])
        path = os.path.join(args.out, f"critical_line_{label}.csv")
        os.replace(cmd_phase_diagram(conf)[0], path)
        print(path)


if __name__ == "__main__":
    main()
