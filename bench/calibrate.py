"""One-off calibration against the reference points of the ROADMAP.

    python3 bench/calibrate.py

Not a workload: it prints, once,

* ``krein_rhs`` against ``generalized_resolvent`` at n1 = n2 = 32 on one
  seeded scene (best-of-5 wall time and ``numpy.linalg`` SVD-family calls
  per call, split by function), and
* the SVD-family calls made by the ``admissible`` calls over the
  criterion-7 catalog of ``tests/test_acceptance.py``.

so that later changes can be traced back to the ROADMAP table.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time

from run import ROOT, import_library
from spans import Recorder


def best_of(fn, k: int = 5) -> float:
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def svd_calls(fn) -> dict:
    """SVD-family calls made by ``fn``: the total and the split by function."""
    rec = Recorder()
    rec.install()
    try:
        idx = rec.open("calibration")
        fn()
        rec.close(idx)
    finally:
        rec.uninstall()
    return {"svd_calls": rec.svd_calls[idx], "by_function": dict(sorted(rec.by_function.items()))}


def main() -> None:
    ex = import_library()
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import SAMPLES, admissibility_catalog

    scene = ex.random_scene(32, 32, 32)
    pi = ex.scene_triplet(scene)
    tau = ex.tau_of_extension(scene, pi)
    rows = {
        "krein_rhs_n32": (lambda: ex.krein_rhs(pi, tau, 1j)),
        "generalized_resolvent_n32": (lambda: ex.generalized_resolvent(scene, 1j)),
    }
    out = {}
    for name, fn in rows.items():
        fn()
        out[name] = {"best_ms": best_of(fn) * 1e3, **svd_calls(fn)}
    out["krein_over_resolvent"] = out["krein_rhs_n32"]["best_ms"] / out[
        "generalized_resolvent_n32"
    ]["best_ms"]
    catalog = admissibility_catalog()

    def first_admissible():
        for pi_c, pair in catalog:
            ex.admissible(pi_c, pair, z0=1j)

    def all_admissible():
        for pi_c, pair in catalog:
            for z0 in SAMPLES:
                ex.admissible(pi_c, pair, z0=z0)

    out["criterion7_admissible_30_calls"] = {
        "best_ms": best_of(first_admissible, 3) * 1e3,
        **svd_calls(first_admissible),
    }
    out["criterion7_admissible_90_calls"] = svd_calls(all_admissible)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
