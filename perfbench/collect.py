"""Run the benchmark over several seeds and summarise each metric.

For every workload and seed this runs ``run.py`` in a fresh process, one after
another, and reports per metric the median, the quartiles and the quartile
spread (q3 - q1) / median, with quartiles from ``statistics.quantiles(n=4)``.
Run from the repository root::

    python3 perfbench/collect.py --seeds 1-10 --trace 0 \\
        --out perfbench/out/summary.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs, run_seconds = [], []
        for seed in _seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            run_seconds.append(round(time.monotonic() - start, 2))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            env = next((line[4:] for line in lines if line.startswith("env ")), None)
            if env and "env" not in report:
                report["env"] = json.loads(env)
            # ``metric`` lines outside the result (raw wall_s, derived rates)
            result["info"] = {line.split()[1]: float(line.split()[3]) for line in lines
                              if line.startswith("metric ")
                              and line.split()[1] not in result.get("metrics", {})}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if proc.returncode != 0 or not result.get("correct") or got != expected:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct={result.get('correct')}, metrics match={got == expected}\n"
                      f"{proc.stderr.strip()}", file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()),
                flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs
                                    if name in r.get("metrics", {})])
                   for name in expected}
        raw_walls = [r["info"]["wall_s"] for r in runs if "wall_s" in r["info"]]
        if raw_walls:
            metrics["wall_s"] = summarise(raw_walls)
        report["workloads"][workload] = metrics
        report.setdefault("run_seconds", {})[workload] = run_seconds
        print(f"  {workload:14s} process seconds per run: max {max(run_seconds):.1f}, "
              f"mean {statistics.mean(run_seconds):.1f}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if not bound or args.trace else (
                "  ok" if s["spread"] < bound / 3 else "  SPREAD >= bound/3")
            print(f"  {workload:14s} {name:36s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
