"""Command line interface.

Subcommands check unitarity of stored boundary relations, evaluate Weyl
families, couple triplets, compare the two resolvent routes, run the
admissibility report, and execute a seeded self-test suite.  Exit codes:
0 success, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

import numpy as np

from .errors import ArgumentError, AssumptionError, ExtensioError, SingularAtLambda
from .linrel import (
    largest_principal_angle,
    rel_adjoint,
    rel_classify,
    rel_inverse,
    rel_matrix,
    rel_product,
)
from .kreinspace import inverse_main_transform, is_unitary, main_transform
from .boundary import green_residual, ordinary_triplet, validate_boundary_relation, weyl_eval
from .coupling import couple, generalized_resolvent, krein_rhs, tau_of_extension
from .admissibility import DEFAULT_PROBE, admissible
from .models import random_relation, random_scene, random_selfadjoint_relation, scene_triplet
from .serialize import matrix_to_json, parse_model_file, relation_to_json

PASS, FAIL, BAD_INPUT = 0, 1, 2

# The verdict gate when neither --tol nor EXTENSIO_TOL sets one.
_DEFAULT_TOL_GATE = 1e-8
# check-unitary passes a Green residual of up to this many verdict gates.
_UNITARY_GATE_FACTOR = 10


def _default_tol() -> float:
    env = os.environ.get("EXTENSIO_TOL")
    if env is None:
        return _DEFAULT_TOL_GATE
    try:
        return float(env)
    except ValueError:
        raise ArgumentError(f"EXTENSIO_TOL is not a number: {env!r}")


def parse_lambda(text: str) -> complex:
    """Accept forms like 1+2i, -3i, 0.5, 2+0i."""
    cleaned = text.strip().replace("I", "i").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ArgumentError(f"cannot parse lambda value {text!r}")


def _matrix_text(mat: np.ndarray) -> str:
    return np.array2string(np.asarray(mat), precision=6, suppress_small=True)


def _emit(report: dict[str, Any], mode: str) -> None:
    if mode == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return
    print(f"op: {report['op']}")
    for key, value in report.get("inputs", {}).items():
        print(f"  {key}: {value}")
    for key, value in report.get("residuals", {}).items():
        print(f"  {key}: {value:.3e}" if isinstance(value, float) else f"  {key}: {value}")
    for line in report.get("lines", []):
        print(line)
    print(f"verdict: {report['verdict']}")


def _named(table: dict[str, Any], name: str, kind: str) -> Any:
    """The object the model file stores under name in table."""
    if name not in table:
        raise ArgumentError(f"no {kind} named {name!r}")
    return table[name]


def _stored_as(build, gamma, what: str):
    """build(gamma) for a stored relation, whose failed assumption is an
    input error."""
    try:
        return build(gamma)
    except AssumptionError as exc:
        raise ArgumentError(f"stored object is not {what}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="extensio")
    parser.add_argument("--tol", type=float, default=None, help="residual threshold for verdicts")
    parser.add_argument("--report", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-unitary", help="adjoint-pairing unitarity of a stored boundary relation")
    p.add_argument("file")
    p.add_argument("name")

    p = sub.add_parser("weyl-eval", help="evaluate the Weyl family of a stored triplet")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("couple", help="couple a triplet with a boundary relation")
    p.add_argument("file")
    p.add_argument("triplet")
    p.add_argument("chi")
    p.add_argument("--out", default=None)

    p = sub.add_parser("resolvent", help="compare the compressed resolvent with the formula route")
    p.add_argument("file")
    p.add_argument("scene")
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("admissibility", help="limit and exact operator tests for a parameter pair")
    p.add_argument("file")
    p.add_argument("triplet")
    p.add_argument("pair")
    p.add_argument("--z0", default="0+1i")

    p = sub.add_parser("selftest", help="seeded oracle property suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=int, default=30)

    return parser


def _check_unitary(args, tol_gate: float, mode: str) -> int:
    mf = parse_model_file(args.file)
    stored = {**mf.relations, **{key: trip.gamma for key, trip in mf.triplets.items()}}
    gamma = _named(stored, args.name, "triplet or relation")
    residual = green_residual(gamma)
    try:
        validate_boundary_relation(gamma)
        ok = True
        detail = "unitary"
    except AssumptionError as exc:
        ok = False
        detail = str(exc)
    report = {
        "op": "check-unitary",
        "inputs": {"file": args.file, "name": args.name},
        "residuals": {"green": residual},
        "lines": [detail],
        "verdict": "pass" if ok and residual <= tol_gate * _UNITARY_GATE_FACTOR else "fail",
    }
    _emit(report, mode)
    return PASS if report["verdict"] == "pass" else FAIL


def _weyl_eval(args, tol_gate: float, mode: str) -> int:
    mf = parse_model_file(args.file)
    gamma = _named(mf.triplets, args.name, "triplet").gamma
    lam = parse_lambda(args.lam)
    value = weyl_eval(_stored_as(validate_boundary_relation, gamma, "a boundary relation"), lam)
    report: dict[str, Any] = {
        "op": "weyl-eval",
        "inputs": {"file": args.file, "name": args.name, "lambda": str(lam)},
        "residuals": {},
        "verdict": "pass",
    }
    try:
        mat = rel_matrix(value)
        report["matrix"] = matrix_to_json(mat)
        report["lines"] = [_matrix_text(mat)]
    except (AssumptionError, ArgumentError):
        report["relation"] = relation_to_json(value)
        report["lines"] = ["value is multivalued; generators follow", _matrix_text(value.graph.basis)]
    _emit(report, mode)
    return PASS


def _couple(args, tol_gate: float, mode: str) -> int:
    mf = parse_model_file(args.file)
    gammas = [_named(mf.triplets, key, "triplet").gamma for key in (args.triplet, args.chi)]
    result = couple(*(_stored_as(validate_boundary_relation, gamma, "a boundary relation") for gamma in gammas))
    if args.out:
        doc = {"relations": {"coupled": relation_to_json(result)}}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    report = {
        "op": "couple",
        "inputs": {"file": args.file, "triplet": args.triplet, "chi": args.chi},
        "residuals": {},
        "lines": [f"coupled relation on C^{result.dim_in}, graph dimension {result.graph_dim}"],
        "verdict": "pass",
    }
    _emit(report, mode)
    return PASS


def _resolvent(args, tol_gate: float, mode: str) -> int:
    mf = parse_model_file(args.file)
    scene = _named(mf.scenes, args.scene, "scene")
    lam = parse_lambda(args.lam)
    pi = scene_triplet(scene)
    tau = tau_of_extension(scene, pi)
    try:
        lhs = generalized_resolvent(scene, lam).compressed
        rhs = krein_rhs(pi, tau, lam)
    except SingularAtLambda as exc:
        raise ArgumentError(str(exc))
    residual = float(np.abs(lhs - rhs).max()) if lhs.size else 0.0
    report = {
        "op": "resolvent",
        "inputs": {"file": args.file, "scene": args.scene, "lambda": str(lam)},
        "residuals": {"difference": residual},
        "lines": [
            "compressed resolvent:",
            _matrix_text(lhs),
            "formula route:",
            _matrix_text(rhs),
        ],
        "verdict": "pass" if residual < tol_gate else "fail",
    }
    _emit(report, mode)
    return PASS if residual < tol_gate else FAIL


def _admissibility(args, tol_gate: float, mode: str) -> int:
    mf = parse_model_file(args.file)
    gamma = _named(mf.triplets, args.triplet, "triplet").gamma
    tau = _named(mf.pairs, args.pair, "pair")
    z0 = parse_lambda(args.z0)
    rep = admissible(_stored_as(ordinary_triplet, gamma, "an ordinary triplet"), tau, DEFAULT_PROBE, z0=z0)
    lines = [
        f"limit verdict: {'admissible' if rep.admissible else 'inadmissible'}",
        f"condition 1: {'pass' if rep.adm1_pass else 'fail'}"
        f"  condition 2: {'pass' if rep.adm2_pass else 'fail'}"
        f"  quadratic-form test: {'pass' if rep.qlt_pass else 'fail'}",
    ]
    if rep.exact_mul_dim is None:
        lines.append("no finite realization attached; exact verdict unavailable")
        ok = True
    else:
        lines.append(f"exact multivalued dimension: {rep.exact_mul_dim}")
        ok = bool(rep.agreement)
    report = {
        "op": "admissibility",
        "inputs": {
            "file": args.file,
            "triplet": args.triplet,
            "pair": args.pair,
            "z0": str(z0),
        },
        "residuals": {"adm1_slope": rep.adm1_slope, "adm2_slope": rep.adm2_slope},
        "lines": lines,
        "verdict": "pass" if ok else "fail",
    }
    _emit(report, mode)
    return PASS if ok else FAIL


def _selftest(args, tol_gate: float, mode: str) -> int:
    rng = np.random.default_rng(args.seed)
    cases = max(4, args.cases)
    law_residual = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        r = random_relation(rng, n, m)
        a = random_relation(rng, m, k)
        law_residual = max(
            law_residual,
            largest_principal_angle(rel_inverse(rel_inverse(r)).graph, r.graph),
            largest_principal_angle(rel_inverse(rel_adjoint(r)).graph, rel_adjoint(rel_inverse(r)).graph),
            largest_principal_angle(
                rel_inverse(rel_product(a, r)).graph, rel_product(rel_inverse(r), rel_inverse(a)).graph
            ),
        )
    transform_disagreements = 0
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        if rng.integers(0, 2):
            candidate = inverse_main_transform(
                random_selfadjoint_relation(rng, n + m), (n, m)
            )
        else:
            candidate = random_relation(rng, 2 * n, 2 * m)
        unitary = is_unitary(candidate)
        selfadjoint = rel_classify(main_transform(candidate)).selfadjoint
        if unitary != selfadjoint:
            transform_disagreements += 1
    resolvent_residual = 0.0
    for idx in range(max(2, cases // 6)):
        scene = random_scene(args.seed + 100 + idx, 2, 2)
        pi = scene_triplet(scene)
        tau = tau_of_extension(scene, pi)
        for lam in (1j, 2j, 1 + 1j):
            lhs = generalized_resolvent(scene, lam).compressed
            rhs = krein_rhs(pi, tau, lam)
            resolvent_residual = max(resolvent_residual, float(np.abs(lhs - rhs).max()))
    ok = (
        law_residual < tol_gate
        and transform_disagreements == 0
        and resolvent_residual < tol_gate
    )
    report = {
        "op": "selftest",
        "inputs": {"seed": args.seed, "cases": cases},
        "residuals": {
            "relation_laws_max": law_residual,
            "transform_disagreements": transform_disagreements,
            "resolvent_max": resolvent_residual,
        },
        "verdict": "pass" if ok else "fail",
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return PASS if ok else FAIL


_HANDLERS = {
    "check-unitary": _check_unitary,
    "weyl-eval": _weyl_eval,
    "couple": _couple,
    "resolvent": _resolvent,
    "admissibility": _admissibility,
    "selftest": _selftest,
}


def cli_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return PASS if exc.code in (0, None) else BAD_INPUT
    try:
        tol_gate = args.tol if args.tol is not None else _default_tol()
        return _HANDLERS[args.command](args, tol_gate, args.report)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ExtensioError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return FAIL


def main() -> int:
    return cli_run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
