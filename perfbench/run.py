"""netecon benchmark: the CLI's simulate, phase-diagram and sweep calls at fixed
configs, timed from one process, with an optional traced run per layer.

Run from the repository root::

    python3 perfbench/run.py --workload simulate_n256 --seed 1 --seconds 35 --trace 0

``--seed`` fixes every input.  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics (``setup_s``, ``wall_ref``, ``peak_rss_mb``),
plus ``wall_s``, the derived ``steps_per_s`` or ``cell_s`` and
``failed_ratio`` on ``metric`` lines.  With ``--trace 1`` every second CLI
call runs with the public layer functions wrapped (``spans.py``) and the run
reports the per-layer metrics.  Each call's output files are checked against
the oracles; a violation prints ``"correct": false`` and exits 1.  The last
line of stdout is the JSON result.  README.md defines the workloads, metrics
and oracles.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# pinned before numpy is imported: BLAS threading moves these timings by up to 2x
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import seconds_per_pass  # noqa: E402
from spans import Tracer, median, percentile  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS_PER_CALL = 20
# reference work before and after each timed call: this share of the previous
# call's time, and at least REFERENCE_MIN_S
REFERENCE_SHARE = 0.05
REFERENCE_MIN_S = 0.2
RESIDUAL_LIMIT = 1e-10
GAMMA_C_TOL = 1e-8

END_TO_END = {"setup_s": "s", "wall_ref": "passes", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "simulator.step_ms.p50": "ms",
    "simulator.step_ms.p90": "ms",
    "simulator.step_samples": "count",
    "simulator.newton_iters_per_step": "count",
    "simulator.newton_iter_ms": "ms",
    "simulator.residual_eval_ms": "ms",
    "simulator.csv_write_s": "s",
    "stability.spectrum_calls_per_cell": "count",
    "stability.spectrum_samples": "count",
    "stability.spectrum_ms.p50": "ms",
    "stability.spectrum_ms.p90": "ms",
    "stability.build_linearized_ms.p50": "ms",
    "stability.critical_gamma_self_s": "s",
    "equilibrium.solve_ms": "ms",
    "network.build_ms": "ms",
    "analytics.cell_stats_ms": "ms",
    "tracing.overhead_s": "s",
}

# (module, attribute, span name); "Class.method" attributes are patched on the class
LAYERS = [
    ("simulator", "Simulator.step", "simulator.step"),
    ("simulator", "Simulator.simulate", "simulator.simulate"),
    ("simulator", "clearing_residual", "simulator.clearing_residual"),
    ("simulator", "trajectory_to_csv", "simulator.trajectory_to_csv"),
    ("equilibrium", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("network", "build_random_exponential_network", "network.build"),
    ("network", "build_plain_network", "network.build"),
    ("stability", "build_linearized", "stability.build_linearized"),
    ("stability", "state_space_spectrum", "stability.state_space_spectrum"),
    ("stability", "critical_gamma", "stability.critical_gamma"),
    ("analytics", "volatility", "analytics.statistics"),
    ("analytics", "volatility_diff", "analytics.statistics"),
    ("analytics", "avg_abs_correlation", "analytics.statistics"),
]


def _load_package():
    """Import numpy and netecon from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "netecon" / "__init__.py").is_file():
        print(f"netecon sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy
    import netecon

    if Path(netecon.__file__).resolve().parent != (SRC / "netecon").resolve():
        print(f"imported netecon from {netecon.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return numpy, netecon


np, netecon = _load_package()
from netecon import cli, config  # noqa: E402


class Tally:
    """Operations attempted and failed, plus every violated oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def problem(self, message: str) -> None:
        self.problems.append(message)


def set_args(items):
    return [arg for item in items for arg in ("--set", item)]


class Gauge:
    """Reference passes just before and just after each timed call."""

    def __init__(self) -> None:
        self.last_call_s = 0.0

    def block(self) -> float:
        return seconds_per_pass(max(REFERENCE_MIN_S, REFERENCE_SHARE * self.last_call_s))


def cli_call(argv, tracer, span_name, gauge=None):
    """Run ``netecon <argv>`` in-process.

    Returns (exit code, seconds, stderr, reference): ``reference`` is the mean
    seconds per reference pass of the blocks around the call, or NaN without
    a ``gauge``.
    """
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.span(span_name) if tracer else contextlib.nullcontext()
    before = gauge.block() if gauge else math.nan
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with scope:
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    if gauge:
        gauge.last_call_s = seconds
    after = gauge.block() if gauge else math.nan
    return code, seconds, err.getvalue().strip(), 0.5 * (before + after)


def read_csv(path):
    """(header names, rows of strings) of a CLI CSV, skipping ``#`` lines."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


class SimulateN256:
    """``netecon simulate --per-sector`` on random_exp n=256, q=-1, gamma=0.13."""

    N, STEPS, BURN_IN = 256, 150, 75
    # saturated unstable phase: per-sector RMS log-deviation ~0.1, against
    # ~0.003 for noise-driven fluctuations in the stable phase
    RMS_XI_RANGE = (0.03, 1.0)

    def __init__(self, seed: int, workdir: Path):
        self.sets = ["network.kind=random_exp", f"network.n={self.N}", f"network.seed={seed}",
                     "params.q=-1", "params.gamma=0.13", "params.sigma=1e-3",
                     f"run.steps={self.STEPS}", f"run.burn_in={self.BURN_IN}",
                     f"run.seed={seed}"]
        self.argv = ["simulate", "--per-sector", "--out", str(workdir)] + set_args(self.sets)
        self.csv = workdir / "trajectory.csv"

    def setup(self) -> None:
        conf = config.load_config(None, self.sets)
        netecon.simulator.Simulator(config.build_network(conf), conf.params).equilibrium_state()

    def op(self, tally: Tally, tracer, gauge) -> list[tuple[float, float]]:
        code, seconds, err, ref = cli_call(self.argv, tracer, "cli.simulate", gauge)
        self.check(tally, code, err)
        return [(seconds, ref)]

    def check(self, tally: Tally, code: int, err: str) -> None:
        if code != 0:
            tally.add(self.STEPS, self.STEPS)
            tally.problem(f"simulate exited {code}: {err}")
            return
        names, rows = read_csv(self.csv)
        data = np.array(rows, dtype=float).reshape(len(rows), len(names))
        residual = data[:, names.index("max_residual")]
        bad = int(np.sum(~(residual <= RESIDUAL_LIMIT)))
        missing = self.STEPS - len(rows)
        tally.add(self.STEPS, bad + max(missing, 0))
        if bad or missing:
            tally.problem(f"simulate: {missing} missing steps, {bad} residuals > {RESIDUAL_LIMIT}")
        xi_cols = [i for i, name in enumerate(names) if name.startswith("xi_")]
        xi = data[self.BURN_IN:, xi_cols]
        rms = float(np.sqrt(np.mean(xi ** 2))) if xi.size else math.nan
        lo, hi = self.RMS_XI_RANGE
        if len(xi_cols) != self.N or not lo <= rms <= hi:
            tally.problem(f"simulate: post-burn-in RMS xi {rms:.3g} outside [{lo}, {hi}] "
                          f"({len(xi_cols)} sectors)")

    def derived(self, wall_s: float) -> dict:
        return {"steps_per_s": (self.STEPS / wall_s, "1/s")}


def phase_sets(kind: str, net_seed: int, q_grid) -> list[str]:
    """Config overrides of a phase-diagram call (``kind`` random_exp or plain)."""
    if kind == "random_exp":
        net = ["network.kind=random_exp", "network.n=32", f"network.seed={net_seed}"]
    else:
        net = ["network.kind=plain", "network.n=64"]
    return net + ["phase.q_grid=" + ",".join(repr(q) for q in q_grid)]


class PhaseRexp32:
    """``netecon phase-diagram`` on random_exp n=32, plus the plain-network oracle."""

    Q_GRID = (-1.0, -0.5, 0.0)
    # closed forms for the plain network: gamma_c(-1) = 1/9, gamma_c(0) = 0.2
    PLAIN = {-1.0: (1.0 / 9.0, "complex_pair"), 0.0: (0.2, "real_minus_one")}

    def __init__(self, seed: int, workdir: Path):
        with open(BENCH / "phase_oracle.json") as fh:
            oracle = json.load(fh)
        net_seeds = sorted({cell["network_seed"] for cell in oracle["cells"]})
        self.net_seed = net_seeds[seed % len(net_seeds)]
        self.expected = {cell["q"]: (cell["gamma_c"], cell["kind"])
                         for cell in oracle["cells"] if cell["network_seed"] == self.net_seed}
        self.workdir = workdir
        self.csv = workdir / "phase_diagram.csv"

    def setup(self) -> None:
        conf = config.load_config(None, phase_sets("random_exp", self.net_seed, self.Q_GRID))
        net = config.build_network(conf)
        eq = netecon.equilibrium.solve_equilibrium(net, conf.params)
        netecon.stability.build_linearized(net, conf.params, eq)
        config.build_network(config.load_config(None, phase_sets("plain", 0, self.PLAIN)))

    def op(self, tally: Tally, tracer, gauge) -> list[tuple[float, float]]:
        # one call per q cell, so that the reference blocks sit within a few
        # seconds of the work they calibrate; the round's sample sums the cells
        cells = [self.diagram(tally, tracer, "random_exp", {q: ref}, gauge)
                 for q, ref in self.expected.items()]
        self.diagram(tally, tracer, "plain", self.PLAIN)
        wall = sum(seconds for seconds, _ in cells)
        return [(wall, wall / sum(seconds / ref for seconds, ref in cells))]

    def diagram(self, tally, tracer, kind, expected, gauge=None) -> tuple[float, float]:
        """One phase-diagram call over the q values of ``expected``; checks every row.

        Returns the call's (seconds, reference seconds per pass)."""
        argv = (["phase-diagram", "--out", str(self.workdir)]
                + set_args(phase_sets(kind, self.net_seed, expected)))
        code, seconds, err, ref = cli_call(argv, tracer, f"cli.phase_diagram.{kind}", gauge)
        if code != 0:
            tally.add(len(expected), len(expected))
            tally.problem(f"phase-diagram {kind} exited {code}: {err}")
            return seconds, ref
        _, rows = read_csv(self.csv)
        got = {float(row[0]): (float(row[1]), row[2]) for row in rows}
        for q, (gamma_ref, kind_ref) in expected.items():
            gamma_c, got_kind = got.get(q, (math.nan, "missing"))
            ok = abs(gamma_c - gamma_ref) <= GAMMA_C_TOL and got_kind == kind_ref
            tally.add(1, 0 if ok else 1)
            if not ok:
                tally.problem(f"phase {kind} q={q}: gamma_c={gamma_c!r} {got_kind}, "
                              f"expected {gamma_ref!r} {kind_ref}")
        return seconds, ref

    def derived(self, wall_s: float) -> dict:
        return {"cell_s": (wall_s / len(self.Q_GRID), "s")}


class SweepN32:
    """``netecon sweep --axis gamma`` on random_exp n=32 around gamma_c ~ 0.111."""

    STEPS, BURN_IN, REPLICAS = 400, 200, 2
    GAMMAS = (0.08, 0.10, 0.12, 0.14)
    VOLATILITY_RATIO = 3.0

    def __init__(self, seed: int, workdir: Path):
        self.sets = ["network.kind=random_exp", "network.n=32", f"network.seed={seed}",
                     "params.q=-1", "params.sigma=1e-3",
                     f"run.steps={self.STEPS}", f"run.burn_in={self.BURN_IN}",
                     f"run.replicas={self.REPLICAS}", f"run.seed={seed}",
                     "sweep.values=" + ",".join(repr(g) for g in self.GAMMAS)]
        self.argv = (["sweep", "--axis", "gamma", "--jobs", "1", "--out", str(workdir)]
                     + set_args(self.sets))
        self.csv = workdir / "sweep_gamma.csv"
        self.cells = len(self.GAMMAS) * self.REPLICAS

    def setup(self) -> None:
        conf = config.load_config(None, self.sets)
        netecon.simulator.Simulator(config.build_network(conf), conf.params).equilibrium_state()

    def op(self, tally: Tally, tracer, gauge) -> list[tuple[float, float]]:
        code, seconds, err, ref = cli_call(self.argv, tracer, "cli.sweep", gauge)
        self.check(tally, code, err)
        return [(seconds, ref)]

    def check(self, tally: Tally, code: int, err: str) -> None:
        if code != 0:
            tally.add(self.cells, self.cells)
            tally.problem(f"sweep exited {code}: {err}")
            return
        names, rows = read_csv(self.csv)
        value, stat, failed = (names.index(k) for k in ("axis_value", "statistic", "failed_count"))
        n_failed = sum(int(row[failed]) for row in rows)
        tally.add(self.cells, n_failed)
        if n_failed or len(rows) != len(self.GAMMAS):
            tally.problem(f"sweep: {n_failed} failed cells, {len(rows)} rows")
            return
        stable = max(float(r[stat]) for r in rows if float(r[value]) <= 0.10)
        unstable = min(float(r[stat]) for r in rows if float(r[value]) >= 0.12)
        if not unstable >= self.VOLATILITY_RATIO * stable:
            tally.problem(f"sweep: volatility {unstable:.3g} at gamma >= 0.12 is not "
                          f"{self.VOLATILITY_RATIO}x the {stable:.3g} at gamma <= 0.10")

    def derived(self, wall_s: float) -> dict:
        return {"steps_per_s": (self.cells * self.STEPS / wall_s, "1/s")}


WORKLOADS = {"simulate_n256": SimulateN256, "phase_rexp32": PhaseRexp32, "sweep_n32": SweepN32}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _install_layers(tracer: Tracer, tally: Tally) -> list[str]:
    """Wrap every layer in LAYERS; returns the ones this checkout lacks."""
    simulator = netecon.simulator

    def after_step(args, new_state):
        # the solver's own residual, then an independent evaluation through
        # the public clearing_residual at the returned point
        sim, state, shock = args[:3]
        tracer.counts["newton_iters"] += int(new_state.newton_iters)
        ctx = sim.context_for(state, shock)
        res = simulator.clearing_residual(np.log(new_state.p), new_state.h, ctx)
        worst = max(float(np.max(np.abs(res))), float(new_state.max_residual))
        if not worst <= RESIDUAL_LIMIT:
            tally.problem(f"step t={new_state.t}: clearing residual {worst:.3e}")

    missing = []
    for module_name, attr, span in LAYERS:
        owner = getattr(netecon, module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        after = after_step if span == "simulator.step" else None
        if not tracer.install(owner, attr, span, after):
            missing.append(f"{module_name}.{attr}")
    return missing


@contextlib.contextmanager
def _layers_traced(tracer: Tracer, tally: Tally, missing: list):
    missing[:] = _install_layers(tracer, tally)
    try:
        yield
    finally:
        tracer.uninstall()


def _layer_metrics(tr: Tracer, traced_walls, untraced_walls) -> dict:
    steps = tr.durations("simulator.step")
    iters = tr.counts["newton_iters"]
    rexp = {"cli.phase_diagram.random_exp"}
    rexp_cells = tr.count("stability.critical_gamma", rexp)
    spectrum = tr.durations("stability.state_space_spectrum")
    sweep_cells = tr.count("simulator.simulate", {"cli.sweep"})
    stats = tr.durations("analytics.statistics", {"cli.sweep"})
    values = {
        "simulator.step_ms.p50": 1e3 * median(steps),
        "simulator.step_ms.p90": 1e3 * percentile(steps, 90),
        "simulator.step_samples": len(steps),
        "simulator.newton_iters_per_step": iters / len(steps) if steps else 0.0,
        "simulator.newton_iter_ms": 1e3 * sum(steps) / iters if iters else 0.0,
        "simulator.residual_eval_ms": 1e3 * median(tr.durations("simulator.clearing_residual")),
        "simulator.csv_write_s": median(tr.durations("simulator.trajectory_to_csv")),
        "stability.spectrum_calls_per_cell": (
            tr.count("stability.state_space_spectrum", rexp) / rexp_cells if rexp_cells else 0.0),
        "stability.spectrum_samples": len(spectrum),
        "stability.spectrum_ms.p50": 1e3 * median(spectrum),
        "stability.spectrum_ms.p90": 1e3 * percentile(spectrum, 90),
        "stability.build_linearized_ms.p50": 1e3 * median(tr.durations("stability.build_linearized")),
        "stability.critical_gamma_self_s": median(tr.self_times("stability.critical_gamma", rexp)),
        "equilibrium.solve_ms": 1e3 * median(tr.durations("equilibrium.solve_equilibrium")),
        "network.build_ms": 1e3 * median(tr.durations("network.build")),
        "analytics.cell_stats_ms": 1e3 * sum(stats) / sweep_cells if sweep_cells else 0.0,
        "tracing.overhead_s": median(traced_walls) - median(untraced_walls),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _blas_threads_in_effect():
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=10,
                                      check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "netecon").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        tally = Tally()
        tracer = Tracer() if trace else None
        missing = []

        def traced_scope(enabled):
            return _layers_traced(tracer, tally, missing) if enabled else contextlib.nullcontext()

        gauge = None if trace else Gauge()
        setup_times, samples, op_walls, rounds = [], [], {False: [], True: []}, []
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            round_start = time.perf_counter()
            traced = trace and k % 2 == 1
            with traced_scope(traced):
                # set-up repetitions are spread over the run, so that their
                # median does not hang on one moment's machine load
                for _ in range(SETUP_REPS_PER_CALL):
                    start = time.perf_counter()
                    workload.setup()
                    setup_times.append(time.perf_counter() - start)
                op_samples = workload.op(tally, tracer if traced else None, gauge)
            op_walls[traced].append(sum(wall for wall, _ in op_samples))
            if not traced:
                samples.extend(op_samples)
            k += 1
            rounds.append(time.perf_counter() - round_start)
            # stop when the next round would end more than half a round past
            # the deadline, so a run lasts about ``seconds`` whatever its size
            if (not trace or k >= 2) and time.perf_counter() + 0.5 * median(rounds) >= deadline:
                break

        if trace:
            metrics = _layer_metrics(tracer, op_walls[True], op_walls[False])
            tracer.write(OUT / f"trace-{workload_name}-seed{seed}.json")
            info = {}
        else:
            wall_s = median([wall for wall, _ in samples])
            values = {
                "setup_s": median(setup_times),
                # each call in reference passes of the blocks around it: the
                # host's drift in speed moves both and cancels in the ratio
                "wall_ref": median([wall / ref for wall, ref in samples]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
            info = {"wall_s": (wall_s, "s"), **workload.derived(wall_s),
                    "reference_pass_ms": (1e3 * median([ref for _, ref in samples]), "ms")}
        info["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
        return {"metrics": metrics, "info": info, "tally": tally, "missing": missing,
                "op_walls": op_walls, "samples": samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(), sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    for name in result["missing"]:
        print(f"note: layer {name} not found in this checkout; its metrics read 0")
    for name, (value, unit) in {**result["metrics"], **result["info"]}.items():
        print(f"metric {name} = {value!r} {unit}")
    for traced, walls in result["op_walls"].items():
        if walls:
            print(f"samples {'traced' if traced else 'untraced'}_op_s = "
                  + json.dumps([round(w, 4) for w in walls]))
    if not args.trace:
        print("samples wall_ref = "
              + json.dumps([round(wall / ref, 1) for wall, ref in result["samples"]]))
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
