"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = (".calls_per_op", ".svd_per_call", "linalg.svd_per_op", "linalg.svd_work_per_op")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def counts(proc: subprocess.CompletedProcess) -> dict[str, float]:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNTS)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    def traced(seed: str) -> dict[str, float]:
        return counts(bench("--workload", workload, "--seed", seed, "--seconds", "0.5", "--trace", "1"))

    first = traced("3")
    assert traced("3") == first
    # Rounds have fixed shapes, so another seed gives the same counts.
    assert traced("4") == first
    assert first["linalg.svd_per_op"] > 0
    called = {k for k, v in first.items() if k.endswith(".calls_per_op") and v > 0}
    assert called == {f"{name}.calls_per_op" for name in workloads.SPANS[workload]}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "laws-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_answer_is_counted_not_raised():
    run.import_library()
    lib = run.library_namespace()
    lib.containment_gap = lambda inner, outer: 1.0
    cases = workloads.laws_round(1, 0)[:8]
    log = run.run_rounds(lib, iter([cases]), workloads.laws_case, 0.0, 0)
    assert len(log.latencies) == 8
    assert len(log.failures) == 8


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_round_brings_new_inputs(workload):
    make_round = workloads.WORKLOADS[workload][0]

    def inputs(k: int) -> list:
        """Non-empty arrays and model-file texts; kind labels and shapes left out."""
        return [
            x
            for case in make_round(1, k)
            for x in case
            if isinstance(x, np.ndarray) and x.size or isinstance(x, str) and x.startswith("{")
        ]

    first, again, second = inputs(0), inputs(0), inputs(1)
    assert [np.shape(x) for x in first] == [np.shape(x) for x in second]
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not any(np.array_equal(x, y) for x, y in zip(first, second))


def test_run_gates():
    assert workloads.resolvent_gate(list(workloads.SIZES)) is None
    assert workloads.resolvent_gate(list(workloads.SIZES[:-1])) is not None
    assert workloads.admissibility_gate([True, False]) is None
    assert workloads.admissibility_gate([True, True]) is not None
    assert workloads.laws_gate(["law", "selfadjoint", "symmetric"]) is not None
