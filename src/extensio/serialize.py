"""JSON model files.

Portable descriptions of the objects the command line works with:
matrices, relations as generator columns, boundary relations, parameter
pairs as tagged closed forms, and coupling scenes.  Complex scalars are
[re, im] pairs; matrices are row-major.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ArgumentError
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    rel_classify,
    relation_from_generators,
)
from .boundary import BoundaryRelation
from .nevanlinna import (
    HerglotzModel,
    NevanlinnaPairEval,
    pair_from_herglotz,
    pair_from_relation,
)
from .coupling import CouplingScene, coupling_scene
from .models import SLModel, realized_constant_pair, sl_pair_eval

__all__ = [
    "ModelFile",
    "matrix_to_json",
    "json_to_matrix",
    "relation_to_json",
    "json_to_relation",
    "triplet_to_json",
    "json_to_triplet",
    "pair_from_spec",
    "parse_model_text",
    "parse_model_file",
]


# Frobenius distance of a stored generator Gram matrix from the identity, per
# column, up to which json_to_relation keeps the generators verbatim as the
# basis; tighter than the Subspace check, so a kept basis passes it.
_VERBATIM_GRAM_TOL = 1e-9


def _complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _complex_entries(data: list) -> np.ndarray:
    """[re, im] pairs as a complex vector in one numpy parse; viewing the
    contiguous (N, 2) float64 array as complex keeps every entry bit-exact."""
    try:
        pairs = np.array(data) if data else np.zeros((0, 2))
        if pairs.dtype.kind == "O" and all(isinstance(p, (int, float)) for p in pairs.flat):
            pairs = pairs.astype(float)  # integers beyond int64, which json keeps exact
    except (ValueError, OverflowError) as exc:
        raise ArgumentError("complex scalars must be [re, im] pairs of finite numbers") from exc
    if pairs.shape != (len(data), 2) or pairs.dtype.kind not in "biuf" or not np.isfinite(pairs).all():
        raise ArgumentError("complex scalars must be [re, im] pairs of finite numbers")
    return np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(-1)


def _json_to_complex(item: Any) -> complex:
    if not isinstance(item, (list, tuple)):
        raise ArgumentError(f"complex scalar must be [re, im], got {item!r}")
    return complex(_complex_entries([item])[0])


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ArgumentError("matrices must be two-dimensional")
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": [_complex_to_json(z) for z in arr.reshape(-1)],
    }


def json_to_matrix(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise ArgumentError("matrix object needs rows, cols and data")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ArgumentError("matrix dimensions must be nonnegative integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ArgumentError("matrix data length does not match rows*cols")
    return _complex_entries(data).reshape(rows, cols)


def relation_to_json(rel: LinearRelation) -> dict:
    return {
        "dim_in": rel.dim_in,
        "dim_out": rel.dim_out,
        "generators": matrix_to_json(rel.graph.basis),
    }


def json_to_relation(obj: Any, tol: Tolerances = TOL) -> LinearRelation:
    if not isinstance(obj, dict) or not {"dim_in", "dim_out", "generators"} <= set(obj):
        raise ArgumentError("relation object needs dim_in, dim_out and generators")
    gens = json_to_matrix(obj["generators"])
    dim_in, dim_out = obj["dim_in"], obj["dim_out"]
    if not isinstance(dim_in, int) or not isinstance(dim_out, int):
        raise ArgumentError("relation dimensions must be integers")
    if gens.shape[0] != dim_in + dim_out:
        raise ArgumentError("generator rows do not match dim_in + dim_out")
    k = gens.shape[1]
    if k and k <= gens.shape[0]:
        gram = gens.conj().T @ gens
        if np.linalg.norm(gram - np.eye(k)) <= _VERBATIM_GRAM_TOL * max(1, k):
            # Stored basis is already canonical; keep it verbatim so the
            # emitted decimal text survives a parse round trip unchanged.
            return LinearRelation(dim_in, dim_out, Subspace(gens.shape[0], gens))
    return relation_from_generators(dim_in, dim_out, gens, tol)


def triplet_to_json(br: BoundaryRelation) -> dict:
    return {
        "state_dim": br.state_dim,
        "boundary_dim": br.boundary_dim,
        "gamma": relation_to_json(br.gamma),
    }


def json_to_triplet(obj: Any, tol: Tolerances = TOL) -> BoundaryRelation:
    """Build the boundary relation without the unitarity gate, so that
    check commands can report failures instead of refusing the input."""
    if not isinstance(obj, dict) or not {"state_dim", "boundary_dim", "gamma"} <= set(obj):
        raise ArgumentError("triplet object needs state_dim, boundary_dim and gamma")
    gamma = json_to_relation(obj["gamma"], tol)
    n, m = obj["state_dim"], obj["boundary_dim"]
    if gamma.dim_in != 2 * n or gamma.dim_out != 2 * m:
        raise ArgumentError("gamma dimensions do not match the declared spaces")
    return BoundaryRelation(gamma, tol)


def pair_from_spec(
    spec: Any, relations: dict[str, LinearRelation], tol: Tolerances = TOL
) -> NevanlinnaPairEval:
    """Build a parameter pair from its tagged closed form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ArgumentError("pair object needs a kind tag")
    kind = spec["kind"]
    if kind == "herglotz":
        try:
            masses = tuple(
                (float(m["point"]), json_to_matrix(m["weight"]))
                for m in spec.get("masses", [])
            )
            model = HerglotzModel(
                json_to_matrix(spec["const"]), json_to_matrix(spec["linear"]), masses
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed herglotz pair: {exc}") from exc
        return pair_from_herglotz(model)
    if kind == "sl-interval":
        length = spec.get("length")
        if not isinstance(length, (int, float)):
            raise ArgumentError("sl-interval pair needs a numeric length")
        return sl_pair_eval(SLModel(float(length)))
    if kind == "constant":
        ref = spec.get("relation")
        if isinstance(ref, str):
            if ref not in relations:
                raise ArgumentError(f"unknown relation name {ref!r}")
            value = relations[ref]
        else:
            value = json_to_relation(ref, tol)
        if rel_classify(value, tol).selfadjoint:
            return realized_constant_pair(value, tol)
        return pair_from_relation(value)
    if kind == "scalar-rational":
        num = spec.get("numerator")
        den = spec.get("denominator")
        if not isinstance(num, list) or not isinstance(den, list) or not den:
            raise ArgumentError("scalar-rational pair needs coefficient lists")
        p = [_json_to_complex(c) for c in num]
        q = [_json_to_complex(c) for c in den]

        def eval_at(lam: complex) -> tuple[np.ndarray, np.ndarray]:
            lam = complex(lam)
            phi = sum(c * lam**k for k, c in enumerate(q))
            psi = sum(c * lam**k for k, c in enumerate(p))
            return np.array([[phi]]), np.array([[psi]])

        return NevanlinnaPairEval(1, eval_at)
    raise ArgumentError(f"unknown pair kind {kind!r}")


@dataclass
class ModelFile:
    """Named objects loaded from one JSON document."""

    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    relations: dict[str, LinearRelation] = field(default_factory=dict)
    triplets: dict[str, BoundaryRelation] = field(default_factory=dict)
    pairs: dict[str, NevanlinnaPairEval] = field(default_factory=dict)
    scenes: dict[str, CouplingScene] = field(default_factory=dict)


def _named_section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ArgumentError(f"section {key!r} must map names to objects")
    return section


def parse_model_text(text: str, tol: Tolerances = TOL) -> ModelFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArgumentError("model file must be a JSON object")
    mf = ModelFile()
    for name, obj in _named_section(doc, "matrices").items():
        mf.matrices[name] = json_to_matrix(obj)
    for name, obj in _named_section(doc, "relations").items():
        mf.relations[name] = json_to_relation(obj, tol)
    for name, obj in _named_section(doc, "triplets").items():
        mf.triplets[name] = json_to_triplet(obj, tol)
    for name, obj in _named_section(doc, "pairs").items():
        mf.pairs[name] = pair_from_spec(obj, mf.relations, tol)
    for name, obj in _named_section(doc, "scenes").items():
        if not isinstance(obj, dict) or not {"h1_dim", "h2_dim", "a_tilde"} <= set(obj):
            raise ArgumentError("scene object needs h1_dim, h2_dim and a_tilde")
        ref = obj["a_tilde"]
        if isinstance(ref, str):
            if ref not in mf.relations:
                raise ArgumentError(f"unknown relation name {ref!r}")
            a_tilde = mf.relations[ref]
        else:
            a_tilde = json_to_relation(ref, tol)
        h1, h2 = obj["h1_dim"], obj["h2_dim"]
        if not isinstance(h1, int) or not isinstance(h2, int):
            raise ArgumentError("scene dimensions must be integers")
        mf.scenes[name] = coupling_scene(a_tilde, h1, h2, tol)
    return mf


def parse_model_file(path: str, tol: Tolerances = TOL) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read model file: {exc}") from exc
    return parse_model_text(text, tol)
