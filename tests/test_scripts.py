"""The figure scripts stamp each dataset with the hash of the inputs it ran."""

import os
import subprocess
import sys
from pathlib import Path

from netecon.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_phase_diagram_script_matches_the_cli_on_its_stamped_config(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_diagram.py"), "--sizes", "6",
         "--q-step", "1.0", "--out", str(tmp_path / "script")],
        check=True, env=env, capture_output=True, timeout=300,
    )
    networks = {
        "plain_n40": ["network.kind=plain", "network.n=40"],
        "randexp_n6": ["network.kind=random_exp", "network.n=6", "network.seed=6"],
    }
    for label, sets in networks.items():
        # the same experiment through the CLI: identical stamp and data rows
        argv = [arg for item in sets + ["phase.q_grid=-1,0,1"] for arg in ("--set", item)]
        assert main(argv + ["--out", str(tmp_path / label), "phase-diagram"]) == 0
        script_file = tmp_path / "script" / f"critical_line_{label}.csv"
        assert script_file.read_text() == (tmp_path / label / "phase_diagram.csv").read_text()
