"""The BENCH_<n>.json records at the repo root follow one schema.

The schema is described in the README ("Performance records"); metric and
workload names come from BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pr_number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=_pr_number)
NEWEST = json.loads(RECORDS[-1].read_text())
SIDES = ("parent", "change")


def _benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    return workloads, end_to_end, per_layer


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_records_exist():
    assert {p.name for p in RECORDS} >= {"BENCH_3.json", "BENCH_4.json", "BENCH_5.json", "BENCH_6.json"}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    workloads, end_to_end, per_layer = _benchmark_names()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "extensio-bench-pr/1"
    assert doc["pr"] == _pr_number(path)
    for key in ("title", "parent_commit", "host", "command"):
        assert isinstance(doc[key], str) and doc[key]
    assert doc["commit"] is None or isinstance(doc["commit"], str)
    assert all(isinstance(doc["src_lines"][side], int) for side in SIDES)

    assert doc["runs"]
    run_seeds = {}
    for run in doc["runs"]:
        assert run["workload"] in workloads
        seeds = run["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds) and len(set(seeds)) == len(seeds)
        run_seeds.setdefault(run["workload"], set()).update(seeds)
        assert run["change_wins"] is None or 0 <= run["change_wins"] <= len(seeds)
        assert isinstance(run["order"], str) and isinstance(run.get("note", ""), str)
        assert run["metrics"] and set(run["metrics"]) <= end_to_end
        for sides in run["metrics"].values():
            for side in SIDES:
                median, quartiles = sides[side]["median"], sides[side]["quartiles"]
                assert _number(median)
                if quartiles is not None:
                    low, high = quartiles
                    assert _number(low) and _number(high) and low <= median <= high

    for row in doc["traced"]:
        assert row["workload"] in workloads and isinstance(row["seed"], int)
        assert row["metric"] in per_layer
        assert _number(row["parent"]) and _number(row["change"])

    # optional: the raw value of every pair behind the medians
    for pair in doc.get("pairs", []):
        assert pair["seed"] in run_seeds[pair["workload"]]
        assert pair["first"] in SIDES
        for side in SIDES:
            assert set(pair[side]) <= end_to_end
            assert all(_number(v) for v in pair[side].values())


def test_only_the_newest_record_lacks_its_commit():
    for path in RECORDS[:-1]:
        assert json.loads(path.read_text())["commit"], f"{path.name} has no commit"


def test_newest_record_counts_the_src_lines_of_the_tree():
    """Net src/ line count is tracked next to the bench numbers: the newest
    record's change side is the tree's count (newlines, as ``wc -l``)."""
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))
    assert NEWEST["src_lines"]["change"] == lines


COUNT_ROWS = [
    row for row in NEWEST["traced"] if row["metric"] == "linalg.svd_per_op" or row["metric"].endswith(".svd_per_call")
]
COUNT_RUNS = sorted({(row["workload"], row["seed"]) for row in COUNT_ROWS})


@pytest.mark.parametrize("workload,seed", COUNT_RUNS, ids=[f"{w}-{s}" for w, s in COUNT_RUNS])
def test_newest_traced_svd_counts_match_the_tree(workload, seed):
    """SVD counts per op and per call are deterministic, so the newest
    record's traced count rows must reproduce on the tree they were
    recorded with; one traced run checks every row of its workload and
    seed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for row in COUNT_ROWS:
        if (row["workload"], row["seed"]) == (workload, seed):
            value = metrics[row["metric"]]["value"]
            assert abs(value - row["change"]) <= 1e-4 * abs(row["change"]), row["metric"]
