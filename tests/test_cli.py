import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netecon.cli import main
from netecon.config import (
    KEYS,
    ConfigError,
    apply_axis,
    config_hash,
    default_config,
    load_config,
    parse_overrides,
    set_key,
)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestConfig:
    def test_defaults_roundtrip(self):
        conf = default_config()
        assert conf.params.a == 0.5
        assert config_hash(conf) == config_hash(default_config())

    def test_file_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("""
# comment
network.kind = plain
network.n = 6
params.gamma = 0.13   # inline comment
run.steps = 100
""")
        conf = load_config(str(path), ["params.gamma=0.2", "run.seed=7"])
        assert conf.network.n == 6
        assert conf.params.gamma == 0.2  # override wins
        assert conf.run.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("network.size = 5\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(default_config(), ["network.n=abc"])
        with pytest.raises(ConfigError):
            parse_overrides(default_config(), ["params.gamma=2.0"])

    def test_axis_application(self):
        conf = default_config()
        assert apply_axis(conf, "gamma", 0.07).params.gamma == 0.07
        assert apply_axis(conf, "sigma", 1e-4).params.sigma == 1e-4
        assert apply_axis(conf, "n", 12).network.n == 12
        assert apply_axis(conf, "n", 12.0).network.n == 12
        with pytest.raises(ConfigError):
            apply_axis(conf, "q", 0.0)
        for value in (5.6, 6.4, float("nan")):
            with pytest.raises(ConfigError, match="not an integer"):
                apply_axis(conf, "n", value)

    def test_hash_sensitive_to_values(self):
        conf = default_config()
        other = parse_overrides(conf, ["params.gamma=0.017"])
        assert config_hash(conf) != config_hash(other)

    def test_q0_follows_q_until_set(self):
        assert load_config(None, ["params.q=0"]).params.q0 == 0.0
        assert load_config(None, ["params.q=0", "params.q0=-0.5"]).params.q0 == -0.5
        assert load_config(None, ["params.q0=-0.5", "params.q=0"]).params.q0 == -0.5
        # the default stamp, with q0 = q = -1 materialized, is unchanged
        assert config_hash(default_config()) == "e9070605e7816b76"
        assert config_hash(load_config(None, ["params.q=-1"])) == "e9070605e7816b76"

    def test_file_network_stamp_covers_the_matrix(self, tmp_path):
        # two different tables written to one path get different stamps; the
        # same table gets the same stamp, and the path alone still counts
        path = tmp_path / "wiring.csv"
        conf = load_config(None, ["network.kind=file", f"network.path={path}"])
        path.write_text("0.6,0.4\n0.3,0.7\n")
        first = config_hash(conf)
        path.write_text("0.5,0.5\n0.5,0.5\n")
        second = config_hash(conf)
        assert first != second
        path.write_text("0.6,0.4\n0.3,0.7\n")
        assert config_hash(conf) == first
        other = tmp_path / "copy.csv"
        other.write_text("0.6,0.4\n0.3,0.7\n")
        assert config_hash(set_key(conf, "network.path", str(other))) != first

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Configuration reference", 1)[1].split("\n## ", 1)[0]
        assert sorted(re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)) == sorted(KEYS)

    def test_readme_lists_every_sweep_statistic(self):
        from netecon.analytics import _CELL_STATISTICS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = re.search(r"^\| `sweep.statistic` \|.*$", readme, flags=re.M).group(0)
        assert re.findall(r"`(\w+)`", row.split("|")[3]) == list(_CELL_STATISTICS)


# (--set overrides, command, overrides the flags in the command stand for):
# every subcommand, stability on a normal and a non-normal network and all
# four reduced models
STAMP_CASES = {
    "equilibrium": (["network.n=4"], ["equilibrium"], []),
    "simulate": (["network.n=4", "run.steps=30", "run.burn_in=5"],
                 ["--seed", "3", "--per-sector", "simulate"], ["run.seed=3"]),
    "stability-modal": (["network.n=6"], ["stability"], []),
    "stability-state-space": (["network.kind=random_exp", "network.n=6"], ["stability"], []),
    "phase-diagram": (["network.n=4", "phase.q_grid=0"], ["phase-diagram"], []),
    "sweep": (["network.n=4", "run.steps=150", "run.burn_in=20", "sweep.values=0.05"],
              ["--jobs", "1", "sweep"], []),
    "long_plosser": (["reduced.n_values=5", "run.steps=300", "run.burn_in=50"],
                     ["reduced", "long_plosser"], []),
    "adiabatic": (["network.n=6"], ["reduced", "adiabatic"], []),
    "transversality": (["network.n=6"], ["reduced", "transversality"], []),
    "near_instability": (["network.n=4"], ["reduced", "near_instability"], []),
}


@pytest.mark.parametrize("sets, command, flag_sets", STAMP_CASES.values(), ids=STAMP_CASES)
def test_first_line_is_the_hash_of_the_loaded_config(tmp_path, sets, command, flag_sets):
    argv = [arg for item in sets for arg in ("--set", item)] + ["--out", str(tmp_path)]
    assert main(argv + command) == 0
    (path,) = tmp_path.glob("*.csv")
    expected = config_hash(load_config(None, sets + flag_sets))
    assert _read(path).splitlines()[0] == f"# config_hash={expected}"


class TestCommands:
    def test_equilibrium_plain_shares(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--set", "network.n=4", "--out", str(out), "equilibrium"])
        assert code == 0
        text = _read(out / "equilibrium.csv")
        assert text.startswith("# config_hash=")
        rows = _data_rows(text)[1:]
        shares = [float(r.split(",")[4]) for r in rows]
        assert np.allclose(shares, 0.25, atol=1e-12)

    def test_equilibrium_rejects_crs(self, tmp_path, capsys):
        code = main(["--set", "params.b=1.0", "--out", str(tmp_path), "equilibrium"])
        assert code == 1
        assert "b < 1" in capsys.readouterr().err

    def test_equilibrium_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["--set", "network.n=5", "--out", str(out), "equilibrium"]) == 0
        assert _read(out1 / "equilibrium.csv") == _read(out2 / "equilibrium.csv")

    def test_simulate_columns_and_flags(self, tmp_path):
        args = ["--set", "network.n=4", "--set", "run.steps=60",
                "--set", "run.burn_in=10", "--out", str(tmp_path)]
        assert main(args + ["simulate"]) == 0
        header = _data_rows(_read(tmp_path / "trajectory.csv"))[0]
        assert header == ("t,aggregate_output,mean_xi,consumption_real,wage,"
                          "price_level,newton_iters,max_residual")
        assert main(args + ["--per-sector", "simulate"]) == 0
        header2 = _data_rows(_read(tmp_path / "trajectory.csv"))[0]
        assert header2.endswith("xi_1,xi_2,xi_3,xi_4")

    def test_simulate_constant_columns_without_noise(self, tmp_path):
        # constant to machine precision: each step recomputes the fixed point
        args = ["--set", "network.n=3", "--set", "run.steps=40",
                "--set", "run.burn_in=5", "--set", "params.sigma=0",
                "--set", "run.initial_kick=0", "--out", str(tmp_path), "simulate"]
        assert main(args) == 0
        rows = _data_rows(_read(tmp_path / "trajectory.csv"))[1:]
        outputs = np.array([float(r.split(",")[1]) for r in rows])
        assert np.ptp(outputs) < 1e-13 * outputs.mean()

    def test_stability_verdicts(self, tmp_path, capsys):
        base = ["--set", "network.n=6", "--out", str(tmp_path)]
        assert main(base + ["--set", "params.q=0", "--set", "params.gamma=0.19",
                            "stability"]) == 0
        assert "stable" in capsys.readouterr().out
        assert main(base + ["--set", "params.q=0", "--set", "params.gamma=0.21",
                            "stability"]) == 0
        assert "unstable" in capsys.readouterr().out

    def test_stability_state_space_for_non_normal(self, tmp_path, capsys):
        args = ["--set", "network.kind=random_exp", "--set", "network.n=6",
                "--out", str(tmp_path), "stability"]
        assert main(args) == 0
        assert "state_space" in capsys.readouterr().out
        assert "method=state_space" in _read(tmp_path / "stability.csv")

    @pytest.mark.parametrize("kind", ["plain", "random_exp"])
    def test_stability_rows_keep_the_per_mode_columns(self, tmp_path, kind):
        # one row per eigenvalue of the map, with s and the second root
        # written as the complex NaN, nan + 0j
        assert main(["--set", f"network.kind={kind}", "--set", "network.n=6",
                     "--out", str(tmp_path), "stability"]) == 0
        header, *rows = _data_rows(_read(tmp_path / "stability.csv"))
        assert header == "s_re,s_im,alpha1_re,alpha1_im,alpha2_re,alpha2_im,max_mod"
        assert len(rows) == 12
        for row in rows:
            cells = row.split(",")
            assert cells[:2] == cells[4:6] == ["nan", "0"]

    def test_phase_diagram_plain_reference_points(self, tmp_path):
        args = ["--set", "network.n=6", "--set", "phase.q_grid=-1,0",
                "--out", str(tmp_path), "phase-diagram"]
        assert main(args) == 0
        rows = _data_rows(_read(tmp_path / "phase_diagram.csv"))[1:]
        gamma_c = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        kinds = {float(r.split(",")[0]): r.split(",")[2] for r in rows}
        assert gamma_c[-1.0] == pytest.approx(1.0 / 9.0, abs=1e-6)
        assert gamma_c[0.0] == pytest.approx(0.2, abs=1e-6)
        assert kinds[-1.0] == "complex_pair"
        assert kinds[0.0] == "real_minus_one"

    def test_phase_diagram_pool_writes_the_serial_bytes(self, tmp_path):
        # the q cells on a process pool write the file one process writes
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["--set", "network.n=8", "--set", "phase.q_grid=-1,0,0.5",
                         "--jobs", jobs, "--out", str(out), "phase-diagram"]) == 0
            texts.append((out / "phase_diagram.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_sweep_csv(self, tmp_path):
        args = ["--set", "network.n=5", "--set", "run.steps=600",
                "--set", "run.burn_in=150", "--set", "params.sigma=1e-3",
                "--set", "sweep.values=0.05,0.15",
                "--out", str(tmp_path), "sweep", "--axis", "gamma"]
        assert main(args) == 0
        text = _read(tmp_path / "sweep_gamma.csv")
        header = _data_rows(text)[0]
        assert header.startswith("axis_value,statistic,std_err,replicas,failed_count")
        assert "mean_output" in header and "mean_consumption" in header
        assert len(_data_rows(text)) == 3

    def test_sweep_names_each_failed_cell_on_stderr(self, tmp_path, capsys):
        # plain n=8 at gamma = 0.3 loses its wealth within a few dozen steps:
        # the CSV counts the cell, stderr names it with its seed, step and reason
        args = ["--set", "network.n=8", "--set", "run.steps=300", "--set", "run.burn_in=100",
                "--set", "sweep.values=0.08,0.3", "--out", str(tmp_path),
                "sweep", "--axis", "gamma"]
        assert main(args) == 0
        err = capsys.readouterr().err
        rows = _data_rows(_read(tmp_path / "sweep_gamma.csv"))
        assert [row.split(",")[4] for row in rows[1:]] == ["0", "1"]
        assert re.fullmatch(r"failed cell gamma=0\.3 seed=\d+: step \d+: "
                            r"household wealth \S+ is not positive\n", err)

    def test_axis_flag_is_the_sweep_axis_key(self, tmp_path):
        # --axis sets sweep.axis: it writes the file --set sweep.axis writes,
        # stamp included, and the stamp tells the axes apart
        base = ["--set", "network.n=4", "--set", "run.steps=150", "--set", "run.burn_in=20",
                "--set", "sweep.values=1e-4,1e-3", "--set", "run.replicas=2"]
        runs = {"flag_sigma": ["sweep", "--axis", "sigma"],
                "key_sigma": ["--set", "sweep.axis=sigma", "sweep"],
                "flag_gamma": ["sweep", "--axis", "gamma"]}
        texts = {}
        for name, command in runs.items():
            assert main(base + ["--out", str(tmp_path / name)] + command) == 0
            (path,) = (tmp_path / name).glob("*.csv")
            texts[name] = (path.name, _read(path))
        assert texts["flag_sigma"] == texts["key_sigma"]
        assert texts["flag_sigma"][0] == "sweep_sigma.csv"
        stamp = {name: text.splitlines()[0] for name, (_, text) in texts.items()}
        assert stamp["flag_gamma"] != stamp["flag_sigma"]

    def test_reduced_models(self, tmp_path):
        base = ["--set", "network.n=6", "--set", "run.steps=2000",
                "--set", "run.burn_in=200", "--out", str(tmp_path)]
        assert main(base + ["reduced", "adiabatic"]) == 0
        text = _read(tmp_path / "reduced_adiabatic.csv")
        assert "sigma_slow" in text
        assert main(base + ["reduced", "transversality"]) == 0
        assert "growth_factor" in _read(tmp_path / "reduced_transversality.csv")

    def test_reduced_invalid_model(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path), "reduced", "nonsense"])

    def test_calls_in_one_process_share_no_parsed_state(self, tmp_path, capsys):
        # main builds its parser once per process: each call's file is stamped
        # with its own overrides and flags alone, whatever the call before it
        # set, or failed on
        def run(name, *argv):
            assert main(["--out", str(tmp_path / name), *argv]) == 0
            (path,) = (tmp_path / name).glob("*.csv")
            return _read(path)

        def stamped(text, sets):
            return text.splitlines()[0] == f"# config_hash={config_hash(load_config(None, sets))}"

        sim = ["network.n=4", "run.steps=30", "run.burn_in=5"]
        sim_args = [arg for item in sim for arg in ("--set", item)]
        per_sector = run("per_sector", *sim_args, "--per-sector", "simulate")
        plain = run("plain", *sim_args, "simulate")
        assert _data_rows(per_sector)[0].endswith("xi_4") and stamped(
            per_sector, sim + ["output.per_sector=True"])
        assert not _data_rows(plain)[0].endswith("xi_4") and stamped(plain, sim)
        split = run("split", "--set", "network.n=4", "equilibrium", "--set", "params.q=0")
        neither = run("neither", "equilibrium")
        assert len(_data_rows(split)) == 1 + 4 and stamped(split, ["network.n=4", "params.q=0"])
        assert len(_data_rows(neither)) == 1 + 64 and stamped(neither, [])
        with pytest.raises(SystemExit):
            main(["--set", "network.n=6", "--out", str(tmp_path / "bad"), "reduced", "nonsense"])
        assert "invalid choice" in capsys.readouterr().err
        after = run("after", "--set", "network.n=5", "equilibrium")
        assert len(_data_rows(after)) == 1 + 5 and stamped(after, ["network.n=5"])

    def test_determinism_across_commands(self, tmp_path):
        # identical config + seeds -> byte-identical files
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("network.n = 5\nrun.steps = 80\nrun.burn_in = 10\n"
                       "params.sigma = 1e-3\n")
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
            outs.append(_read(out / "trajectory.csv"))
        assert outs[0] == outs[1]

    def test_file_network_end_to_end(self, tmp_path, capsys):
        # CSV-loaded wiring drives the whole pipeline: equilibrium, verdict
        rows = ["0.6,0.2,0.2", "0.25,0.5,0.25", "0.1,0.3,0.6"]
        net_csv = tmp_path / "wiring.csv"
        net_csv.write_text("\n".join(rows) + "\n")
        args = ["--set", "network.kind=file", "--set", f"network.path={net_csv}",
                "--set", "params.gamma=0.05", "--out", str(tmp_path)]
        assert main(args + ["equilibrium"]) == 0
        shares = [float(r.split(",")[4])
                  for r in _data_rows(_read(tmp_path / "equilibrium.csv"))[1:]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        assert main(args + ["stability"]) == 0
        assert "stable" in capsys.readouterr().out

    def test_seed_flag_changes_draws(self, tmp_path):
        base = ["--set", "network.n=4", "--set", "run.steps=50",
                "--set", "run.burn_in=10", "--set", "params.sigma=1e-3"]
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        assert main(base + ["--seed", "1", "--out", str(out1), "simulate"]) == 0
        assert main(base + ["--seed", "2", "--out", str(out2), "simulate"]) == 0
        assert main(base + ["--seed", "1", "--out", str(out3), "simulate"]) == 0
        a, b, c = (_read(p / "trajectory.csv") for p in (out1, out2, out3))
        assert a != b and a == c

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["--set", "bogus.key=1", "--out", str(tmp_path),
                     "equilibrium"]) == 1
        assert "configuration error" in capsys.readouterr().err
        # output.dir is the one spelling of the output directory key
        assert main(["--set", f"output.directory={tmp_path}", "equilibrium"]) == 1
        assert "unknown key 'output.directory'" in capsys.readouterr().err
        # non-finite model parameters are rejected, not run
        assert main(["--set", "params.q0=nan", "--out", str(tmp_path), "stability"]) == 1
        assert "must be finite" in capsys.readouterr().err
        # a sweep without replicas is rejected, not written as a NaN row
        assert main(["--set", "run.replicas=0", "--out", str(tmp_path), "sweep"]) == 1
        assert "run.replicas must be at least 1" in capsys.readouterr().err
        # a flag's value is parsed as its key's, as the same value through --set is
        for flag, value, key in (("--jobs", "x", "jobs"), ("--seed", "1.5", "run.seed")):
            for args in ([flag, value], ["--set", f"{key}={value}"]):
                assert main(args + ["--out", str(tmp_path), "equilibrium"]) == 1
                err = capsys.readouterr().err
                assert err.startswith("configuration error: ")
                assert f"integer expected for {key}, got {value!r}" in err
        # with no sweep value the axis is still checked
        for values in ("0.1", ""):
            assert main(["--set", f"sweep.values={values}", "--out", str(tmp_path),
                         "sweep", "--axis", "foo"]) == 1
            assert "configuration error: unknown sweep axis 'foo'" in capsys.readouterr().err

    def test_set_before_and_after_the_subcommand_both_apply(self, tmp_path):
        # the --set lists on either side of the subcommand are kept, in
        # command-line order: the later setting of a key wins
        runs = {"split": ["--set", "network.n=4", "equilibrium", "--set", "params.q=0"],
                "before": ["--set", "network.n=4", "--set", "params.q=0", "equilibrium"],
                "later_wins": ["--set", "network.n=6", "--set", "params.q=0",
                               "equilibrium", "--set", "network.n=4"]}
        texts = {}
        for name, argv in runs.items():
            assert main(["--out", str(tmp_path / name)] + argv) == 0
            texts[name] = _read(tmp_path / name / "equilibrium.csv")
        assert len(_data_rows(texts["split"])) == 1 + 4
        assert texts["split"] == texts["before"] == texts["later_wins"]

    def test_unknown_sweep_statistic_is_rejected_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr("netecon.analytics.Simulator", no_simulation)
        assert main(["--set", "network.n=4", "--set", "sweep.statistic=foo",
                     "--out", str(tmp_path), "sweep"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'foo'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind, values, message", [
        ("file", "4,6", "network.kind = file"),
        ("plain", "5.6,6.4", "not an integer"),
    ])
    def test_n_axis_that_cannot_be_run_is_rejected_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, kind, values, message):
        # an n-axis sweep of a file network would run the file's size under
        # every label, and a fractional n a rounded one: neither is run
        def no_simulation(*args, **kwargs):
            raise AssertionError("a sweep cell ran")

        net_csv = tmp_path / "wiring.csv"
        net_csv.write_text("0.6,0.2,0.2\n0.25,0.5,0.25\n0.1,0.3,0.6\n")
        out = tmp_path / "out"
        monkeypatch.setattr("netecon.analytics.Simulator", no_simulation)
        assert main(["--set", f"network.kind={kind}", "--set", f"network.path={net_csv}",
                     "--set", "params.gamma=0.05", "--set", "run.steps=300",
                     "--set", "run.burn_in=100", "--set", f"sweep.values={values}",
                     "--out", str(out), "sweep", "--axis", "n"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not out.exists()

    def test_missing_network_file_is_a_configuration_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["--set", "network.kind=file", "--set", f"network.path={missing}",
                     "--out", str(tmp_path), "equilibrium"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(missing) in err

    def test_linear_algebra_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it is still a numerical failure
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("netecon.cli.analyze_stability", singular)
        assert main(["--set", "network.n=4", "--out", str(tmp_path), "stability"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "configuration error" not in err

    @pytest.mark.parametrize("command", ["equilibrium", "stability"])
    def test_no_equilibrium_at_a_zero(self, tmp_path, capsys, command):
        # a = 0: labor earns nothing, the wage h is 0 and has no log; a
        # numerical failure, with no row written
        assert main(["--set", "network.n=4", "--set", "params.a=0",
                     "--out", str(tmp_path), command]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "wage" in err
        assert not list(tmp_path.iterdir())

    def test_phase_diagram_at_a_one(self, tmp_path):
        # a = 1 makes the gamma = 0 step singular; the cell has no crossing
        assert main(["--set", "network.kind=random_exp", "--set", "network.n=6",
                     "--set", "params.a=1", "--set", "params.b=0.1",
                     "--set", "phase.q_grid=-1", "--out", str(tmp_path),
                     "phase-diagram"]) == 0
        rows = _data_rows(_read(tmp_path / "phase_diagram.csv"))
        assert rows[1:] == ["-1,nan,none,nan,0"]

    @pytest.mark.parametrize("kind", ["plain", "random_exp"])
    def test_stability_at_a_one(self, tmp_path, capsys, kind):
        # a = 1 drops the network (c = 0): both networks report one economy
        base = ["--set", f"network.kind={kind}", "--set", "network.n=8",
                "--set", "params.a=1", "--out", str(tmp_path)]
        assert main(base + ["stability"]) == 0
        assert "max_alpha=1.161895004 method=state_space" in capsys.readouterr().out
        assert main(base + ["--set", "phase.q_grid=-1", "phase-diagram"]) == 0
        assert _data_rows(_read(tmp_path / "phase_diagram.csv"))[1].startswith("-1,0.111111111")

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # far outside the model's regime: the clearing solve breaks down,
        # and the message names the step
        args = ["--set", "network.kind=random_exp", "--set", "network.n=8",
                "--set", "network.seed=6", "--set", "params.gamma=0.25",
                "--set", "params.sigma=1e-2", "--set", "run.steps=300",
                "--set", "run.burn_in=50", "--set", "run.seed=0",
                "--out", str(tmp_path), "simulate"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert re.search(r"step \d+", err)

    def test_root_finder_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a NaN max|alpha| at the first midpoint of the critical search's
        # bisection (taken once Newton declines) is a numerical failure,
        # exit 2, like a clearing breakdown, naming that gamma
        from dataclasses import replace

        from netecon import stability

        bisect, report, midpoints = stability._bisect, stability._state_space_report, []

        def bisecting(f, lo, hi, xtol):
            midpoints.append(0.5 * (lo + hi))
            return bisect(f, lo, hi, xtol)

        monkeypatch.setattr(stability, "_crossing_newton", lambda *args: None)
        monkeypatch.setattr(stability, "_bisect", bisecting)
        monkeypatch.setattr(stability, "_state_space_report", lambda vals: replace(
            report(vals), max_alpha=float("nan")) if midpoints else report(vals))
        args = ["--set", "network.kind=random_exp", "--set", "network.n=8",
                "--set", "phase.q_grid=-1", "--out", str(tmp_path), "phase-diagram"]
        assert main(args) == 2
        assert (f"numerical failure: critical search: max|alpha| is NaN at gamma = "
                f"{midpoints[0]!r}") in capsys.readouterr().err

    def test_nan_in_the_critical_search_exit_code(self, tmp_path, capsys, monkeypatch):
        # a NaN max|alpha| at a grid point of the search exits 2, naming gamma
        from dataclasses import replace

        from netecon import stability

        report = stability._state_space_report
        monkeypatch.setattr(stability, "_state_space_report", lambda vals: replace(
            report(vals), max_alpha=float("nan")))
        args = ["--set", "network.kind=random_exp", "--set", "network.n=8",
                "--set", "phase.q_grid=-1", "--out", str(tmp_path), "phase-diagram"]
        assert main(args) == 2
        assert "numerical failure: critical search: max|alpha| is NaN at gamma" in (
            capsys.readouterr().err)

    def test_singular_flip_pencil_exit_code(self, tmp_path, capsys, monkeypatch):
        # a flip pencil singular at the shift exits 2, naming q and the flip
        from netecon import stability

        pencil = stability._gamma_pencil

        def zero_row(*args):
            l0, l1 = pencil(*args)
            l0[0] = l1[0] = 0.0
            return l0, l1

        monkeypatch.setattr(stability, "_gamma_pencil", zero_row)
        args = ["--set", "network.kind=random_exp", "--set", "network.n=8",
                "--set", "phase.q_grid=-1", "--out", str(tmp_path), "phase-diagram"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "numerical failure: flip search at q = -1.0:" in err and "alpha = -1" in err


# run in a fresh interpreter (the test process has scipy loaded already): the
# scipy modules loaded after the import and after each group of commands
_FOOTPRINT = """
import json, sys
from netecon import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    assert cli.main(["--out", sys.argv[1], *argv]) == 0, argv

seen = {"import": scipy_loaded()}
small = ["--set", "network.n=8", "--set", "run.steps=300", "--set", "run.burn_in=100"]
run(*small, "simulate")
run(*small, "--set", "sweep.values=0.08,0.14", "sweep")
seen["small"] = scipy_loaded()
# before the chord solve, which loads scipy.linalg: the search on a non-normal
# network (random_exp) and on a normal one (plain)
run("--set", "network.kind=random_exp", "--set", "network.n=8", "--set", "phase.q_grid=-1,0",
    "phase-diagram")
run("--set", "network.n=8", "--set", "phase.q_grid=-1,0,0.5", "phase-diagram")
seen["phase"] = scipy_loaded()
run("--set", "network.kind=random_exp", "--set", "network.n=96", "--set", "run.steps=4",
    "--set", "run.burn_in=1", "simulate")
seen["chord"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_scipy_modules_load_with_the_commands_that_use_them(tmp_path):
    # importing the package loads numpy only; a small simulate or sweep and
    # the critical search (its flip a numpy shift-invert, its Newton solve
    # numpy, its bisection fallback the package's own) load no scipy; LAPACK comes with the
    # first chord solve (n >= CHORD_MIN_N), and scipy.signal and
    # scipy.optimize with none of them
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["small"] == [] and seen["phase"] == []
    assert "scipy.linalg.lapack" in seen["chord"]
    assert not {"scipy.signal", "scipy.optimize"} & set(seen["chord"])
