#!/usr/bin/env bash
# Run the twelve reference CLI commands, each into its own subdirectory of DIR,
# and print the sha256 of every file they write (and of the stability
# verdicts printed on stdout).  Comparing the listing of two checkouts shows
# whether a change kept every CLI output byte-identical.
#
#   scripts/reference_outputs.sh DIR
#
# The package is imported from the src/ directory of the checkout that holds
# this script, so no install is needed.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
# relative --out paths, so that the printed paths do not depend on DIR
cd "$out"

run() {
    local name=$1
    shift
    PYTHONPATH="$root/src" python3 -m netecon.cli --out "$name" "$@" > "$name.stdout"
}

run equilibrium --set network.kind=random_exp --set network.n=16 equilibrium
run simulate --set network.kind=random_exp --set network.n=16 --set run.steps=300 \
    --set run.burn_in=100 --set params.sigma=1e-3 --set params.gamma=0.13 \
    --per-sector simulate
run stability_plain --set network.n=8 --set params.q=0 --set params.gamma=0.19 stability
run stability_rexp --set network.kind=random_exp --set network.n=8 stability
run phase_diagram --set network.kind=random_exp --set network.n=8 \
    --set phase.q_grid=-1,0 phase-diagram
run sweep --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.values=0.08,0.14 --set run.replicas=2 sweep --axis gamma
run sweep_sigma --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.axis=sigma --set sweep.values=1e-4,1e-3 --set run.replicas=2 sweep
run sweep_n --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.axis=n --set sweep.values=6,8 --set run.replicas=2 sweep
run reduced_long_plosser --set reduced.n_values=5,10 --set run.steps=2000 \
    reduced long_plosser
run reduced_adiabatic --set network.n=8 reduced adiabatic
run reduced_transversality --set network.n=8 reduced transversality
run reduced_near_instability --set network.n=4 reduced near_instability

sha256sum -- */*.csv stability_plain.stdout stability_rexp.stdout
