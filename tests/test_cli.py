"""Command-line interface: exit codes, report modes, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import extensio as ex


@pytest.fixture
def model_path(tmp_path):
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    chi = ex.induced_chi(scene, pi)
    doc = {
        "relations": {
            "fixb": ex.relation_to_json(ex.fix_b_relation()),
            "two": ex.relation_to_json(ex.relation_from_matrix([[2.0]])),
        },
        "triplets": {
            "ident": ex.triplet_to_json(pi),
            "chi": ex.triplet_to_json(chi),
            # constant Weyl family {0} x C: every value is multivalued
            "mul-chi": ex.triplet_to_json(ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))),
        },
        "pairs": {
            "neg-recip": {
                "kind": "scalar-rational",
                "numerator": [[-1.0, 0.0]],
                "denominator": [[0.0, 0.0], [1.0, 0.0]],
            },
            "const-two": {"kind": "constant", "relation": "two"},
        },
        "scenes": {"fixb-scene": {"h1_dim": 1, "h2_dim": 1, "a_tilde": "fixb"}},
    }
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def bad_triplet_path(tmp_path):
    # isometric scaling breaks the pairing identity but parses fine
    r = 5.0**-0.5
    gens = {
        "rows": 4,
        "cols": 2,
        "data": [
            [2.0**-0.5, 0.0], [0.0, 0.0],
            [0.0, r], [0.0, 0.0],
            [2.0**-0.5, 0.0], [0.0, 0.0],
            [0.0, 2 * r], [0.0, 0.0],
        ],
    }
    doc = {
        "triplets": {
            "bad": {
                "state_dim": 1,
                "boundary_dim": 1,
                "gamma": {"dim_in": 2, "dim_out": 2, "generators": gens},
            }
        }
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_unitary_pass(model_path, capsys):
    assert ex.cli_run(["check-unitary", model_path, "ident"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_check_unitary_json_report(model_path, capsys):
    assert ex.cli_run(["--report", "json", "check-unitary", model_path, "ident"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["op"] == "check-unitary"
    assert report["verdict"] == "pass"
    assert report["residuals"]["green"] < 1e-12


def test_check_unitary_fail(bad_triplet_path, capsys):
    assert ex.cli_run(["check-unitary", bad_triplet_path, "bad"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_check_unitary_refuses_odd_graph_spaces(model_path, capsys):
    # the relation "two" acts on C^1, which carries no indefinite pairing
    assert ex.cli_run(["check-unitary", model_path, "two"]) == 2
    assert "even dimension" in capsys.readouterr().err


def test_weyl_eval_values(model_path, capsys):
    assert ex.cli_run(["--report", "json", "weyl-eval", model_path, "ident", "--lambda", "0+2i"]) == 0
    report = json.loads(capsys.readouterr().out)
    mat = ex.json_to_matrix(report["matrix"])
    assert abs(mat[0, 0] - 2j) < 1e-10


def test_weyl_eval_multivalued_value(model_path, capsys):
    assert ex.cli_run(["--report", "json", "weyl-eval", model_path, "mul-chi", "--lambda", "0+1i"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass" and "matrix" not in report
    assert report["lines"][0] == "value is multivalued; generators follow"
    value = ex.json_to_relation(report["relation"])
    assert ex.rel_equal(value, ex.mul_relation(ex.full_subspace(1)))


def test_weyl_eval_rejects_real_lambda(model_path, capsys):
    assert ex.cli_run(["weyl-eval", model_path, "ident", "--lambda", "1+0i"]) == 2
    assert "nonreal" in capsys.readouterr().err


def test_weyl_eval_rejects_bad_lambda(model_path):
    assert ex.cli_run(["weyl-eval", model_path, "ident", "--lambda", "spam"]) == 2


def test_missing_name_is_input_error(model_path):
    assert ex.cli_run(["weyl-eval", model_path, "ghost", "--lambda", "0+1i"]) == 2


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert ex.cli_run(["check-unitary", str(path), "x"]) == 2


def test_couple_writes_output(model_path, tmp_path, capsys):
    out = tmp_path / "coupled.json"
    assert ex.cli_run(["couple", model_path, "ident", "chi", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    coupled = ex.json_to_relation(doc["relations"]["coupled"])
    assert ex.rel_equal(coupled, ex.fix_b_relation())


def test_resolvent_residual(model_path, capsys):
    assert ex.cli_run(["--report", "json", "resolvent", model_path, "fixb-scene", "--lambda", "0+1i"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residuals"]["difference"] < 1e-10
    assert report["verdict"] == "pass"


def test_resolvent_tol_gate(model_path, capsys):
    # an absurd gate flips the verdict without touching the numbers
    code = ex.cli_run(["--tol", "1e-300", "resolvent", model_path, "fixb-scene", "--lambda", "0+1i"])
    assert code == 1
    assert "fail" in capsys.readouterr().out


def test_admissibility_report(model_path, capsys):
    assert ex.cli_run(["--report", "json", "admissibility", model_path, "ident", "neg-recip"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert any("no finite realization" in line for line in report["lines"])


def test_admissibility_constant_pair_has_an_exact_verdict(model_path, capsys):
    # a constant selfadjoint pair carries a realization, so the report
    # adds the exact multivalued dimension to the limit verdict
    assert ex.cli_run(["--report", "json", "admissibility", model_path, "ident", "const-two"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert "exact multivalued dimension: 0" in report["lines"]
    assert "limit verdict: admissible" in report["lines"]


def test_admissibility_z0_guard(model_path):
    assert ex.cli_run(["admissibility", model_path, "ident", "neg-recip", "--z0", "0-1i"]) == 2


def test_selftest_emits_json(capsys):
    assert ex.cli_run(["selftest", "--seed", "1", "--cases", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["residuals"]
    assert res["relation_laws_max"] < 1e-8
    assert res["resolvent_max"] < 1e-8
    assert res["transform_disagreements"] == 0


def test_env_tolerance_gate(model_path, capsys, monkeypatch):
    monkeypatch.setenv("EXTENSIO_TOL", "1e-300")
    assert ex.cli_run(["resolvent", model_path, "fixb-scene", "--lambda", "0+1i"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("EXTENSIO_TOL", "not-a-number")
    assert ex.cli_run(["resolvent", model_path, "fixb-scene", "--lambda", "0+1i"]) == 2


def test_unknown_subcommand_is_input_error(capsys):
    assert ex.cli_run(["make-coffee"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_without_warning():
    # the package runs as ``python -m extensio``; a RuntimeWarning from
    # runpy (module imported before execution) would fail the run
    src = str(Path(ex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "extensio", "selftest", "--seed", "1", "--cases", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["seed"] == 1
