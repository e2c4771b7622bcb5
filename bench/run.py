"""Closed-loop benchmark for extensio.

    python3 bench/run.py --workload laws-small --seed 1 --seconds 25 --trace 0

One client runs the cases of a workload back to back; the next case starts
when the previous one returns.  Every case is checked against its oracle,
and a case that raises or misses counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(set-up time, throughput, per-case latency, peak RSS); with ``--trace 1``
they are per-span self time, calls and SVD counts from a traced run, plus
the tracing overhead.  The exit code is 0 only if every case passed and
the run-level gates of the workload held.

The library is imported from ``src/`` next to this directory; the run
fails without a result when it is missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import itertools
import json
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np
import scipy

from spans import CASE, Recorder
from speed import SpeedReference
from workloads import SPANS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_CASES = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only imports and generates, for setup_s.
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    if not (SRC / "extensio" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no extensio sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import extensio

    if Path(extensio.__file__).resolve().parent != SRC / "extensio":
        sys.stderr.write(f"bench: imported extensio from {extensio.__file__}\n")
        raise SystemExit(2)
    return extensio


def library_namespace(recorder=None) -> SimpleNamespace:
    """The functions the workloads call, span-wrapped when tracing."""
    funcs = {}
    for names in SPANS.values():
        for qual in names:
            module, name = qual.split(".")
            fn = getattr(importlib.import_module(f"extensio.{module}"), name)
            funcs[name] = recorder.wrap(qual, fn) if recorder else fn
    # A dataclass constructor, not a public function: no span.
    funcs["SpaceSplit"] = importlib.import_module("extensio.transforms").SpaceSplit
    return SimpleNamespace(**funcs)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def setup_probe(args: argparse.Namespace) -> float:
    """Wall time from spawning a fresh interpreter to its first case being
    ready: interpreter start, ``import extensio`` and input generation."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    return elapsed


@dataclass
class RunLog:
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    tags: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    speed: SpeedReference = field(default_factory=SpeedReference)

    def scaled(self) -> np.ndarray:
        """Latencies at the speed reference's nominal machine speed."""
        return np.asarray(self.latencies) * self.speed.scales(self.starts)


def round_stream(make_round, seed: int):
    """Rounds 0, 1, 2, ... of a workload, each drawn from ``(seed, k)``."""
    return (make_round(seed, k) for k in itertools.count())


def run_rounds(lib, rounds, run_case, seconds: float, min_cases: int, recorder=None) -> RunLog:
    """Run whole rounds from ``rounds`` until ``seconds`` have passed and
    ``min_cases`` ran.  Each round is drawn before it starts, outside the
    timed cases, so no input reaches the library twice in a run."""
    log = RunLog()
    begin = time.perf_counter()
    log.speed.maybe_sample()
    for cases in rounds:
        log.rounds += 1
        for case in cases:
            root = None
            if recorder is not None:
                recorder.case_id += 1
                root = recorder.open(CASE)
            t0 = time.perf_counter()
            try:
                log.tags.append(run_case(lib, case))
            except Exception as exc:  # a failed case is counted, not raised
                log.failures.append(f"{case[0]}: {type(exc).__name__}: {exc}")
            log.latencies.append(time.perf_counter() - t0)
            log.starts.append(t0)
            if root is not None:
                recorder.close(root)
            log.speed.maybe_sample()
        if time.perf_counter() - begin >= seconds and len(log.latencies) >= min_cases:
            break
    return log


def case_rate(latencies, failed: int) -> float:
    """Verified cases per second of time spent inside cases."""
    return (len(latencies) - failed) / float(np.sum(latencies))


def latency_metrics(lat, failed: int) -> dict[str, float]:
    return {
        "ops_per_s": case_rate(lat, failed),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
    }


def end_to_end(args, rounds, run_case):
    speed = SpeedReference()
    setup = [speed.scale_around(lambda: setup_probe(args)) for _ in range(SETUP_PROBES)]
    run_rounds(library_namespace(), rounds, run_case, 0.0, 0)  # warm-up round
    log = run_rounds(library_namespace(), rounds, run_case, args.seconds, MIN_CASES)
    failed = len(log.failures)
    scaled_lat = log.scaled()
    scaled = latency_metrics(scaled_lat, failed)
    raw = latency_metrics(log.latencies, failed)
    raw["setup_s"] = median(took for took, _ in setup)
    metrics = {
        "setup_s": (median(took * factor for took, factor in setup), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_p90_ms": (scaled["op_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "cases": len(log.latencies),
        "rounds": log.rounds,
        "beyond_p90": int(np.sum(scaled_lat * 1e3 > scaled["op_p90_ms"])),
        "fail_ratio": failed / len(log.latencies),
        "speed_samples": len(log.speed.samples),
        "raw": raw,
    }
    return metrics, info, log.tags, log.failures


def traced(args, rounds, run_case):
    run_rounds(library_namespace(), rounds, run_case, 0.0, 0)  # warm-up round
    recorder = Recorder()
    lib = library_namespace(recorder)
    recorder.install()
    try:
        log = run_rounds(lib, rounds, run_case, args.seconds, MIN_CASES, recorder)
    finally:
        recorder.uninstall()
    # Further rounds without spans, to state the tracing overhead.
    plain = run_rounds(library_namespace(), rounds, run_case, args.seconds / 4, 0)
    ops = len(log.latencies)
    summary = recorder.summary(ops, case_scale=log.speed.scales(log.starts))
    metrics = {}
    for name in sorted({n for group in SPANS.values() for n in group}):
        row = summary.get(name, {"self_ms": 0.0, "calls_per_op": 0.0, "svd_per_call": 0.0})
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
        metrics[f"{name}.calls_per_op"] = (row["calls_per_op"], "count")
        metrics[f"{name}.svd_per_call"] = (row["svd_per_call"], "count")
    svd_per_op, work_per_op = recorder.totals_per_op(ops)
    metrics["linalg.svd_per_op"] = (svd_per_op, "count")
    metrics["linalg.svd_work_per_op"] = (work_per_op, "mnk_computed")
    metrics["case.self_ms"] = (summary[CASE]["self_ms"], "ms")
    traced_rate = case_rate(log.scaled(), len(log.failures))
    plain_rate = case_rate(plain.scaled(), len(plain.failures))
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(path)
    info = {
        "cases": ops + len(plain.latencies),
        "traced_cases": ops,
        "spans": len(recorder.names),
        "spans_file": str(path.relative_to(ROOT)),
    }
    return metrics, info, log.tags + plain.tags, log.failures + plain.failures


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_library()

    make_round, run_case, gate = WORKLOADS[args.workload]
    if args.setup_probe:
        make_round(args.seed, 0)
        print("ready", flush=True)
        return 0

    load_start = os.getloadavg()[0]
    rounds = round_stream(make_round, args.seed)
    if args.trace:
        metrics, info, tags, failures = traced(args, rounds, run_case)
    else:
        metrics, info, tags, failures = end_to_end(args, rounds, run_case)
    gate_error = gate(tags)
    attempted = info["cases"]
    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()[0]
    print("env " + json.dumps(env))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    if gate_error:
        print(f"GATE {gate_error}", file=sys.stderr)
    correct = not failures and gate_error is None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
