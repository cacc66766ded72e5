"""Record the phase_rexp32 oracle: gamma_c and crossing kind per network and q.

The values come from ``netecon phase-diagram`` at a commit whose
``critical_gamma`` is the exhaustive 1e-3 grid scan refined by bisection, so
they serve as the reference for any faster critical-line method.  Run from the
repository root at such a commit::

    python3 perfbench/record_phase_oracle.py
"""

import json
import shutil

import run

NETWORKS = 8


def main() -> None:
    workdir = run.OUT / "oracle-work"
    workdir.mkdir(parents=True, exist_ok=True)
    cells = []
    try:
        for net_seed in range(NETWORKS):
            for q in run.PhaseRexp32.Q_GRID:
                argv = (["phase-diagram", "--out", str(workdir)]
                        + run.set_args(run.phase_sets("random_exp", net_seed, [q])))
                code, seconds, err = run.cli_call(argv, None, "")
                if code != 0:
                    raise SystemExit(f"network {net_seed} q={q}: exited {code}: {err}")
                _, rows = run.read_csv(workdir / "phase_diagram.csv")
                cells.append({"network_seed": net_seed, "q": q,
                              "gamma_c": float(rows[0][1]), "kind": rows[0][2]})
                print(cells[-1], f"{seconds:.2f}s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = run.environment()
    with open(run.BENCH / "phase_oracle.json", "w") as fh:
        json.dump({"method": "exhaustive 1e-3 gamma scan + bisection to |max|alpha|-1| < 1e-10",
                   "git_revision": env["git_revision"], "src_sha256": env["src_sha256"],
                   "cells": cells}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
