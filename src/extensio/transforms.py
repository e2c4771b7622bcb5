"""Transforms of parameter relations and boundary relations: subspace
images under block relations, compositions with J-unitary factors,
compressions, Schur complements, the quadratic block transform, and
Weyl-family sums.

Every transform is implemented once at the relation level, by composing
the boundary relation with an explicit block relation.  The matrix
formulas for the transformed Weyl families are returned alongside as
independent evaluation routes so tests can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ArgumentError,
    BGNotHermitian,
    DimMismatch,
    GSingular,
    HypothesisFailed,
    KernelNontrivial,
    NotUnitary,
    SingularAtLambda,
)
from .kreinspace import FundamentalSymmetry
from .linrel import (
    TOL,
    LinearRelation,
    Tolerances,
    _rank,
    as_complex_matrix,
    rel_direct_sum,
    rel_image,
    rel_inverse,
    rel_matrix,
    rel_permute,
    rel_product,
    relation_from_generators,
    relation_from_matrix,
    subspace_equal,
)
from .boundary import (
    BoundaryRelation,
    OrdinaryTriplet,
    _as_boundary,
    check_B123,
    validate_boundary_relation,
    weyl_eval,
)
from .nevanlinna import FamilyEval

__all__ = [
    "StandardJUnitary",
    "SpaceSplit",
    "TransformResult",
    "standard_j_unitary",
    "shmulyan",
    "shmulyan_family",
    "compose_boundary",
    "transpose_boundary",
    "recover_transform",
    "affine_transform",
    "block_compress",
    "schur_complement",
    "t_transform",
    "boundary_direct_sum",
    "sum_weyl",
]


@dataclass(frozen=True)
class StandardJUnitary:
    """Bounded everywhere-defined J-unitary block operator on C^{2m}."""

    w00: np.ndarray
    w01: np.ndarray
    w10: np.ndarray
    w11: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.w00).shape[0]
        for name in ("w00", "w01", "w10", "w11"):
            block = as_complex_matrix(getattr(self, name), m, m)
            object.__setattr__(self, name, block)
        w = self.matrix
        j = FundamentalSymmetry(m).matrix
        scale = 1 + np.linalg.norm(w) ** 2
        if (
            np.linalg.norm(w.conj().T @ j @ w - j) > 1e-8 * scale
            or np.linalg.norm(w @ j @ w.conj().T - j) > 1e-8 * scale
        ):
            raise NotUnitary("blocks do not assemble to a standard J-unitary operator")

    @property
    def dim(self) -> int:
        return self.w00.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.vstack(
            [np.hstack([self.w00, self.w01]), np.hstack([self.w10, self.w11])]
        )


def standard_j_unitary(mat) -> StandardJUnitary:
    """Split a 2m x 2m matrix into blocks and validate it."""
    w = as_complex_matrix(mat)
    if w.shape[0] != w.shape[1] or w.shape[0] % 2:
        raise ArgumentError("a standard transform acts on C^{2m}")
    m = w.shape[0] // 2
    return StandardJUnitary(w[:m, :m], w[:m, m:], w[m:, :m], w[m:, m:])


@dataclass(frozen=True)
class SpaceSplit:
    """Coordinate split of the boundary space into leading and trailing blocks."""

    dim1: int
    dim2: int

    def __post_init__(self) -> None:
        if self.dim1 < 0 or self.dim2 < 0:
            raise ArgumentError("split dimensions must be nonnegative")

    @property
    def total(self) -> int:
        return self.dim1 + self.dim2


class TransformResult(NamedTuple):
    """Symmetric kernel, transformed boundary relation, and the matrix
    route for its Weyl family."""

    kernel_rel: LinearRelation
    boundary: BoundaryRelation
    weyl_fn: Callable[[complex], np.ndarray]


def _to_relation(w, tol: Tolerances) -> LinearRelation:
    if isinstance(w, LinearRelation):
        return w
    if isinstance(w, StandardJUnitary):
        return relation_from_matrix(w.matrix, tol)
    return relation_from_matrix(as_complex_matrix(w), tol)


def _embed(m: int, start: int, d: int) -> np.ndarray:
    out = np.zeros((m, d), dtype=complex)
    out[start : start + d, :] = np.eye(d, dtype=complex)
    return out


def _weyl_matrix(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    return rel_matrix(weyl_eval(br, lam, tol), tol)


def _t_combination(full: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t^H M11 t + t^H M12 + M21 t + M22 for the blocks of full split after
    t.shape[0] rows and columns; full may be a stack of matrices."""
    d1 = t.shape[0]
    t_h = t.conj().T
    return t_h @ full[..., :d1, :d1] @ t + t_h @ full[..., :d1, d1:] + full[..., d1:, :d1] @ t + full[..., d1:, d1:]


def shmulyan(w: LinearRelation, theta: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Image of the graph of theta under the block relation w."""
    if theta.dim_in != theta.dim_out:
        raise ArgumentError("parameter relation must be square")
    if w.dim_in != theta.dim_in + theta.dim_out or w.dim_out % 2:
        raise DimMismatch("transform does not act between graph spaces")
    k = w.dim_out // 2
    image = rel_image(w, theta.graph, tol)
    return LinearRelation(k, k, image)


def shmulyan_family(w, f: FamilyEval, tol: Tolerances = TOL) -> FamilyEval:
    """Pointwise transform of a relation-valued family."""
    w_rel = _to_relation(w, tol)
    if w_rel.dim_out % 2:
        raise DimMismatch("transform does not act between graph spaces")
    k = w_rel.dim_out // 2
    return FamilyEval(k, lambda lam: shmulyan(w_rel, f.eval(lam), tol))


def compose_boundary(w, obj: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation for the same symmetric kernel with transformed
    boundary values; the Weyl family moves by the graph-image transform."""
    br = _as_boundary(obj)
    w_rel = _to_relation(w, tol)
    composite = rel_product(w_rel, br.gamma, tol)
    result = validate_boundary_relation(composite, tol)
    if not subspace_equal(result.s_rel.graph, br.s_rel.graph, tol):
        raise KernelNontrivial("composition enlarged the kernel beyond S")
    return result


def transpose_boundary(obj: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> BoundaryRelation:
    """Compose with the fundamental symmetry; the Weyl family becomes the
    negative inverse."""
    br = _as_boundary(obj)
    return compose_boundary(FundamentalSymmetry(br.boundary_dim).matrix, br, tol)


def recover_transform(first: BoundaryRelation | OrdinaryTriplet, second: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> StandardJUnitary:
    """The standard factor connecting two boundary relations of one S,
    recovered as the relation composition of the second with the inverse
    of the first."""
    a = _as_boundary(first)
    b = _as_boundary(second)
    if a.gamma.dim_in != b.gamma.dim_in or a.gamma.dim_out != b.gamma.dim_out:
        raise DimMismatch("boundary relations are not comparable")
    composite = rel_product(b.gamma, rel_inverse(a.gamma), tol)
    return standard_j_unitary(rel_matrix(composite, tol))


def affine_transform(obj: BoundaryRelation | OrdinaryTriplet, b, g, tol: Tolerances = TOL) -> BoundaryRelation:
    """Lower-triangular standard transform: boundary values map to
    (G^{-1} h, B h + G^H h'); the Weyl family moves to BG + G^H M G."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    b = as_complex_matrix(b, m, m)
    g = as_complex_matrix(g, m, m)
    if _rank(np.linalg.svd(g, compute_uv=False), g.shape, tol, 1.0) < m:
        raise GSingular("scaling block must be invertible")
    bg = b @ g
    if np.linalg.norm(bg - bg.conj().T) > tol.angle * (1 + np.linalg.norm(bg)):
        raise BGNotHermitian("product of the affine blocks must be Hermitian")
    g_inv = np.linalg.inv(g) if m else g
    zero = np.zeros((m, m), dtype=complex)
    w = np.vstack([np.hstack([g_inv, zero]), np.hstack([b, g.conj().T])])
    return compose_boundary(w, br, tol)


def block_compress(obj: BoundaryRelation | OrdinaryTriplet, split: SpaceSplit, which: int, tol: Tolerances = TOL) -> TransformResult:
    """Restrict boundary data to one block of the split: inputs must lie
    in the block, outputs are projected onto it.  The Weyl family is the
    matching diagonal block."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    if which not in (1, 2):
        raise ArgumentError("which must be 1 or 2")
    start = 0 if which == 1 else split.dim1
    d = split.dim1 if which == 1 else split.dim2
    emb = _embed(m, start, d)
    cols_h = np.vstack(
        [emb, np.zeros((m, d)), np.eye(d, dtype=complex), np.zeros((d, d))]
    )
    cols_hp = np.vstack(
        [np.zeros((m, m)), np.eye(m, dtype=complex), np.zeros((d, m)), emb.conj().T]
    )
    p_rel = relation_from_generators(2 * m, 2 * d, np.hstack([cols_h, cols_hp]), tol)
    result = validate_boundary_relation(rel_product(p_rel, br.gamma, tol), tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        full = _weyl_matrix(br, lam, tol)
        return emb.conj().T @ full @ emb

    return TransformResult(result.s_rel, result, weyl_fn)


def schur_complement(obj: BoundaryRelation | OrdinaryTriplet, split: SpaceSplit, tol: Tolerances = TOL) -> TransformResult:
    """Constrain the second boundary output block to zero: inputs are
    projected onto the first block and the Weyl family becomes the Schur
    complement of the second diagonal block."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    if not check_B123(br, tol).all_hold:
        raise HypothesisFailed("base_boundary_conditions")
    if not check_B123(transpose_boundary(br, tol), tol).all_hold:
        raise HypothesisFailed("transposed_boundary_conditions")
    second = block_compress(br, split, 2, tol).boundary
    if not check_B123(transpose_boundary(second, tol), tol).all_hold:
        raise HypothesisFailed("second_block_transpose_conditions")
    d1, d2 = split.dim1, split.dim2
    e1 = _embed(m, 0, d1)
    e2 = _embed(m, d1, d2)
    cols_h = np.vstack(
        [np.eye(m, dtype=complex), np.zeros((m, m)), e1.conj().T, np.zeros((d1, m))]
    )
    cols_hp = np.vstack(
        [np.zeros((m, d1)), e1, np.zeros((d1, d1)), np.eye(d1, dtype=complex)]
    )
    q_rel = relation_from_generators(2 * m, 2 * d1, np.hstack([cols_h, cols_hp]), tol)
    result = validate_boundary_relation(rel_product(q_rel, br.gamma, tol), tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        full = _weyl_matrix(br, lam, tol)
        m11 = e1.conj().T @ full @ e1
        m12 = e1.conj().T @ full @ e2
        m21 = e2.conj().T @ full @ e1
        m22 = e2.conj().T @ full @ e2
        if d2:
            if _rank(np.linalg.svd(m22, compute_uv=False), m22.shape, tol, 1.0) < d2:
                raise SingularAtLambda(lam, "second diagonal block not invertible")
            return m11 - m12 @ np.linalg.inv(m22) @ m21
        return m11

    for lam in (1j, 2j):
        full = _weyl_matrix(br, lam, tol)
        try:
            schur = weyl_fn(lam)
        except SingularAtLambda:
            continue
        if _rank(np.linalg.svd(full, compute_uv=False), full.shape, tol, 1.0) < m:
            continue
        if _rank(np.linalg.svd(schur, compute_uv=False), schur.shape, tol, 1.0) < d1:
            continue
        lhs = np.linalg.inv(full)[:d1, :d1]
        rhs = np.linalg.inv(schur) if d1 else schur
        if np.linalg.norm(lhs - rhs) > 1e-8 * (1 + np.linalg.norm(rhs)):
            raise HypothesisFailed("inverse_block_identity", f"fails at {lam}")
    return TransformResult(result.s_rel, result, weyl_fn)


def t_transform(obj: BoundaryRelation | OrdinaryTriplet, split: SpaceSplit, t, tol: Tolerances = TOL) -> TransformResult:
    """Couple the two blocks through the matrix t: inputs are constrained
    to h = (t h2, h2) and the outputs pair h2 with the matching
    combination of the second components.  The Weyl family becomes
    t^H M11 t + t^H M12 + M21 t + M22."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    d1, d2 = split.dim1, split.dim2
    t = as_complex_matrix(t, d1, d2)
    e1 = _embed(m, 0, d1)
    e2 = _embed(m, d1, d2)
    cols_h = np.vstack(
        [e1 @ t + e2, np.zeros((m, d2)), np.eye(d2, dtype=complex), np.zeros((d2, d2))]
    )
    cols_hp = np.vstack(
        [
            np.zeros((m, m)),
            np.eye(m, dtype=complex),
            np.zeros((d2, m)),
            t.conj().T @ e1.conj().T + e2.conj().T,
        ]
    )
    r_rel = relation_from_generators(2 * m, 2 * d2, np.hstack([cols_h, cols_hp]), tol)
    result = validate_boundary_relation(rel_product(r_rel, br.gamma, tol), tol)

    return TransformResult(result.s_rel, result, lambda lam: _t_combination(_weyl_matrix(br, lam, tol), t))


def boundary_direct_sum(first: BoundaryRelation | OrdinaryTriplet, second: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> BoundaryRelation:
    """Orthogonal sum acting between the merged graph spaces."""
    a = _as_boundary(first)
    b = _as_boundary(second)
    n1, n2 = a.state_dim, b.state_dim
    m1, m2 = a.boundary_dim, b.boundary_dim
    merged = rel_direct_sum(a.gamma, b.gamma)

    def interleave(p: int, q: int) -> list[int]:
        return (
            list(range(p))
            + list(range(2 * p, 2 * p + q))
            + list(range(p, 2 * p))
            + list(range(2 * p + q, 2 * (p + q)))
        )

    shuffled = rel_permute(merged, interleave(n1, n2), interleave(m1, m2))
    return validate_boundary_relation(shuffled, tol)


def sum_weyl(first: BoundaryRelation | OrdinaryTriplet, second: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> TransformResult:
    """Boundary relation on the orthogonal sum whose Weyl family is the
    sum of the two Weyl families; realized as the identity coupling of
    the direct sum."""
    a = _as_boundary(first)
    b = _as_boundary(second)
    if a.boundary_dim != b.boundary_dim:
        raise DimMismatch("summands need equal boundary dimensions")
    m = a.boundary_dim
    merged = boundary_direct_sum(a, b, tol)
    kernel, boundary, _ = t_transform(merged, SpaceSplit(m, m), np.eye(m, dtype=complex), tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        return _weyl_matrix(a, lam, tol) + _weyl_matrix(b, lam, tol)

    return TransformResult(kernel, boundary, weyl_fn)
