"""Measure a baseline: every end-to-end metric over several seeds, and one
traced run, per workload.

    python3 bench/baseline.py --out bench/BASELINE.json

Runs ``bench/run.py`` once per seed (seeds 1..10) and workload, one after
another, for ``run_seconds`` of ``BENCHMARK.json`` each, and records each
metric's median, quartiles and spread (interquartile range over median, as
``statistics.quantiles(n=4)`` gives them), then one traced run on seed 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    report: dict = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            result, env = run_once(wl, seed, seconds, 0)
            report.setdefault("env_first_run", env)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, _ = run_once(wl, 1, seconds, 1)
        report["workloads"][wl] = {
            "end_to_end": {k: describe(v) for k, v in values.items()},
            "per_layer_seed1": {
                k: m["value"] for k, m in traced["metrics"].items() if m["value"] != 0
            },
        }
        for k, v in values.items():
            d = report["workloads"][wl]["end_to_end"][k]
            print(f"{wl} {k:12s} median {d['median']:10.4f} spread {d['spread']:.4f}", flush=True)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
