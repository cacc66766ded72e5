#!/usr/bin/env bash
# Run the sixteen reference CLI commands, each into its own subdirectory of DIR,
# and print the sha256 of every file they write (and of the stability
# verdicts printed on stdout).  No command writes the linear map, so its S
# and B (``stability.linear_state_map``) are written too, as the raw float64
# bytes S.f64 and B.f64, for two configurations.  Comparing the listing of
# two checkouts shows whether a change kept every CLI output and the linear
# map byte-identical.
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
# n = 256 clears with chord steps (n >= simulator.CHORD_MIN_N)
run simulate_chord --set network.kind=random_exp --set network.n=256 --set run.steps=40 \
    --set run.burn_in=10 --set params.sigma=1e-3 --set params.gamma=0.13 \
    --per-sector simulate
run stability_plain --set network.n=8 --set params.q=0 --set params.gamma=0.19 stability
run stability_rexp --set network.kind=random_exp --set network.n=8 stability
run phase_diagram --set network.kind=random_exp --set network.n=8 \
    --set phase.q_grid=-1,0 phase-diagram
# the phase_rexp32 benchmark workload's configuration (perfbench/run.py)
run phase_diagram_rexp32 --set network.kind=random_exp --set network.n=32 \
    --set phase.q_grid=-1,-0.5,0 phase-diagram
# a normal network, on the state-space path as every network: gamma_c = 1/9,
# 0.2 and 1/9.5
run phase_diagram_plain --set network.n=8 --set phase.q_grid=-1,0,0.5 phase-diagram
run sweep --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.values=0.08,0.14 --set run.replicas=2 sweep --axis gamma
# an ensemble (one member per gamma) that clears with chord steps
run sweep_chord --set network.kind=random_exp --set network.n=96 --set network.seed=1 \
    --set params.sigma=1e-3 --set run.steps=150 --set run.burn_in=40 \
    --set sweep.values=0.1,0.2 sweep --axis gamma
run sweep_sigma --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.axis=sigma --set sweep.values=1e-4,1e-3 --set run.replicas=2 sweep
run sweep_n --set network.n=8 --set run.steps=300 --set run.burn_in=100 \
    --set sweep.axis=n --set sweep.values=6,8 --set run.replicas=2 sweep
run reduced_long_plosser --set reduced.n_values=5,10 --set run.steps=2000 \
    reduced long_plosser
run reduced_adiabatic --set network.n=8 reduced adiabatic
run reduced_transversality --set network.n=8 reduced transversality
run reduced_near_instability --set network.n=4 reduced near_instability

# the linear map at the configuration of the --set overrides that follow NAME
linear_map() {
    local name=$1
    shift
    mkdir -p "$name"
    PYTHONPATH="$root/src" python3 -c '
import sys
from netecon.config import build_network, load_config
from netecon.stability import linear_state_map
conf = load_config(None, sys.argv[2:])
s_map, b_map = linear_state_map(build_network(conf), conf.params)
s_map.tofile(sys.argv[1] + "/S.f64")
b_map.tofile(sys.argv[1] + "/B.f64")
' "$name" "$@"
}

linear_map linear_map_plain network.n=8
linear_map linear_map_rexp network.kind=random_exp network.n=16 params.q0=0.3

sha256sum -- */*.csv */*.f64 stability_plain.stdout stability_rexp.stdout
