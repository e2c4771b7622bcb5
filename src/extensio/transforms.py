"""Transforms of parameter relations and boundary relations: subspace
images under block relations, compositions with J-unitary factors,
compressions, Schur complements, the quadratic block transform, and
Weyl-family sums.

A J-unitary matrix W moves only the boundary rows H of Gamma's graph
basis [F; H], to W H.  Transposition is W = J, the affine transform a
lower-triangular W, and the Schur complement the transpose of the
first-block compression of the transpose.  The compressions and the
T-transform meet coefficients on Gamma's graph basis; only a
relation-valued W and ``recover_transform`` compose relations.  The
matrix formulas for the transformed Weyl families are returned alongside
as independent evaluation routes so tests can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from .kreinspace import _apply_j, _halves, is_unitary
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    _checked_inverse,
    _meet,
    _q_factor,
    _span,
    as_complex_matrix,
    rel_direct_sum,
    rel_image,
    rel_inverse,
    rel_matrix,
    rel_permute,
    rel_product,
    relation_from_matrix,
    subspace_equal,
)
from .boundary import (
    BoundaryRelation,
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

# Residual of W* J W = J and W J W* = J, relative to 1 + ||W||^2, up to
# which StandardJUnitary accepts its blocks.
_J_UNITARY_TOL = 1e-8


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
        # |W*JW - J| = |JW*JW - I| and |WJW* - J| = |WJW*J - I| (J unitary, J^2 = I)
        w = self.matrix
        wh_j = _apply_j(w).conj().T
        eye = np.eye(2 * m)
        scale = 1 + np.linalg.norm(w) ** 2
        if (
            np.linalg.norm(_apply_j(wh_j @ w) - eye) > _J_UNITARY_TOL * scale
            or np.linalg.norm(w @ _apply_j(wh_j) - eye) > _J_UNITARY_TOL * scale
        ):
            raise NotUnitary("blocks do not assemble to a standard J-unitary operator")

    @property
    def dim(self) -> int:
        return self.w00.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        top = np.concatenate([self.w00, self.w01], axis=1)
        return np.concatenate([top, np.concatenate([self.w10, self.w11], axis=1)])


def standard_j_unitary(mat) -> StandardJUnitary:
    """Split a 2m x 2m matrix into blocks and validate it; a
    StandardJUnitary is returned unchanged.  An odd dimension raises
    ``ArgumentError``."""
    if isinstance(mat, StandardJUnitary):
        return mat
    w = as_complex_matrix(mat)
    if w.shape[0] != w.shape[1]:
        raise ArgumentError("a standard transform acts on C^{2m}")
    (m,) = _halves(w.shape[0])
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


@dataclass(frozen=True)
class TransformResult:
    """Transformed boundary relation and the matrix route for its Weyl family."""

    boundary: BoundaryRelation
    weyl_fn: Callable[[complex], np.ndarray]


def _embed(m: int, start: int, d: int) -> np.ndarray:
    out = np.zeros((m, d), dtype=complex)
    out[start : start + d, :] = np.eye(d, dtype=complex)
    return out


def _weyl_matrix(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    return rel_matrix(weyl_eval(br, lam, tol), tol)


def _block_transform(br: BoundaryRelation, e: np.ndarray, tol: Tolerances) -> BoundaryRelation:
    """Gamma composed with the block relation {((E k, h'), (k, E* h'))}
    for an m x d matrix E: inputs are constrained to ran E and the outputs
    pair k with E* h'.

    With Gamma's graph basis split into state rows F and boundary rows
    H0, H1, the composite is spanned by [F u; k; E* H1 u] over the meet
    H0 u = E k; no block relation is built.  Both callers pass an E with
    smallest singular value at least one (an embedding, or [t; I]), so the
    generators are anchored at unit scale as in ``rel_product``."""
    n, m = br.state_dim, br.boundary_dim
    g = br.gamma.graph.basis
    u, k = _meet(g[2 * n : 2 * n + m, :], e, tol)
    gens = np.concatenate([g[: 2 * n, :] @ u, k, e.conj().T @ (g[2 * n + m :, :] @ u)])
    return validate_boundary_relation(LinearRelation(2 * n, 2 * e.shape[1], _span(gens, tol, 1.0)), tol)


def _with_boundary_rows(br: BoundaryRelation, rows: np.ndarray, tol: Tolerances) -> BoundaryRelation:
    """W o Gamma for an invertible W on C^{2m}, given the rows W H of
    Gamma's orthonormal graph basis [F; H].  The columns [F; W H] are
    independent (sigma_min >= min(1, sigma_min(W))), so one QR spans the
    composite with no rank decision, and its kernel is ker Gamma."""
    gamma = br.gamma
    basis = _q_factor(np.concatenate([gamma.in_block, rows]))
    graph = Subspace._trusted(gamma.dim_in + gamma.dim_out, basis)
    return validate_boundary_relation(LinearRelation(gamma.dim_in, gamma.dim_out, graph), tol)


def _t_combination(full: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t^H M11 t + t^H M12 + M21 t + M22 for the blocks of full split after
    t.shape[0] rows and columns; full may be a stack of matrices."""
    d1 = t.shape[0]
    t_h = t.conj().T
    return t_h @ full[..., :d1, :d1] @ t + t_h @ full[..., :d1, d1:] + full[..., d1:, :d1] @ t + full[..., d1:, d1:]


def _schur_block(full: np.ndarray, d1: int, lam: complex, tol: Tolerances) -> np.ndarray:
    """M11 - M12 M22^{-1} M21 for M(lam) split after d1 rows and columns;
    SingularAtLambda where M22 has a unit-anchored rank deficit."""
    m22 = full[d1:, d1:]
    if not m22.size:
        return full[:d1, :d1]
    inv = _checked_inverse(m22, tol, SingularAtLambda, lam, "second diagonal block not invertible")
    return full[:d1, :d1] - full[:d1, d1:] @ inv @ full[d1:, :d1]


def shmulyan(w: LinearRelation, theta: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Image of the graph of theta under the block relation w; an odd
    dim_out of w raises ``ArgumentError``."""
    if theta.dim_in != theta.dim_out:
        raise ArgumentError("parameter relation must be square")
    if w.dim_in != theta.dim_in + theta.dim_out:
        raise DimMismatch("transform does not act between graph spaces")
    (k,) = _halves(w.dim_out)
    image = rel_image(w, theta.graph, tol)
    return LinearRelation(k, k, image)


def shmulyan_family(w, f: FamilyEval, tol: Tolerances = TOL) -> FamilyEval:
    """Pointwise transform of a relation-valued family.  A matrix W must
    be standard J-unitary, as in ``compose_boundary``, and a relation W
    J-unitary (``NotUnitary``); a relation W with an odd side raises
    ``ArgumentError``."""
    if not isinstance(w, LinearRelation):
        w = relation_from_matrix(standard_j_unitary(w).matrix)
    elif not is_unitary(w, tol):
        raise NotUnitary("transform is not a J-unitary relation")
    (k,) = _halves(w.dim_out)
    return FamilyEval(k, lambda lam: shmulyan(w, f.eval(lam), tol))


def compose_boundary(w, br: BoundaryRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation for the same symmetric kernel with transformed
    boundary values; the Weyl family moves by the graph-image transform.
    A matrix W must be standard J-unitary; a relation W is composed with
    Gamma, and the kernel of the composite is checked to be S."""
    if not isinstance(w, LinearRelation):
        w = standard_j_unitary(w)
        if w.dim != br.boundary_dim:
            raise DimMismatch("transform does not act on the boundary space")
        return _with_boundary_rows(br, w.matrix @ br.gamma.out_block, tol)
    result = validate_boundary_relation(rel_product(w, br.gamma, tol), tol)
    if not subspace_equal(result.s_rel.graph, br.s_rel.graph, tol):
        raise KernelNontrivial("composition enlarged the kernel beyond S")
    return result


def transpose_boundary(br: BoundaryRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Compose with the fundamental symmetry, the exact block swap of the
    boundary rows; the Weyl family becomes the negative inverse."""
    return _with_boundary_rows(br, _apply_j(br.gamma.out_block), tol)


def recover_transform(a: BoundaryRelation, b: BoundaryRelation, tol: Tolerances = TOL) -> StandardJUnitary:
    """The standard factor connecting two boundary relations of one S,
    recovered as the relation composition of the second with the inverse
    of the first."""
    if a.gamma.dim_in != b.gamma.dim_in or a.gamma.dim_out != b.gamma.dim_out:
        raise DimMismatch("boundary relations are not comparable")
    composite = rel_product(b.gamma, rel_inverse(a.gamma), tol)
    return standard_j_unitary(rel_matrix(composite, tol))


def affine_transform(br: BoundaryRelation, b, g, tol: Tolerances = TOL) -> BoundaryRelation:
    """Lower-triangular standard transform: boundary values map to
    (G^{-1} h, B h + G^H h'); the Weyl family moves to BG + G^H M G."""
    m = br.boundary_dim
    b = as_complex_matrix(b, m, m)
    g = as_complex_matrix(g, m, m)
    g_inv = _checked_inverse(g, tol, GSingular, "scaling block must be invertible")
    bg = b @ g
    if np.linalg.norm(bg - bg.conj().T) > tol.angle * (1 + np.linalg.norm(bg)):
        raise BGNotHermitian("product of the affine blocks must be Hermitian")
    top = np.concatenate([g_inv, np.zeros((m, m))], axis=1)
    w = np.concatenate([top, np.concatenate([b, g.conj().T], axis=1)])
    return _with_boundary_rows(br, w @ br.gamma.out_block, tol)


def block_compress(br: BoundaryRelation, split: SpaceSplit, which: int, tol: Tolerances = TOL) -> TransformResult:
    """Restrict boundary data to one block of the split: inputs must lie
    in the block, outputs are projected onto it.  The Weyl family is the
    matching diagonal block."""
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    if which not in (1, 2):
        raise ArgumentError("which must be 1 or 2")
    start = 0 if which == 1 else split.dim1
    d = split.dim1 if which == 1 else split.dim2
    emb = _embed(m, start, d)
    result = _block_transform(br, emb, tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        full = _weyl_matrix(br, lam, tol)
        return emb.conj().T @ full @ emb

    return TransformResult(result, weyl_fn)


def schur_complement(br: BoundaryRelation, split: SpaceSplit, tol: Tolerances = TOL) -> TransformResult:
    """Constrain the second boundary output block to zero: inputs are
    projected onto the first block and the Weyl family becomes the Schur
    complement of the second diagonal block.

    The composite {(f, (E1* h, E1* h')) : E2* h' = 0} is the transpose of
    the first-block compression of the transpose of Gamma.  Hypotheses
    (B1)-(B3) are checked on Gamma, on its transpose and on the transpose
    of its second-block compression."""
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    if not check_B123(br, tol).all_hold:
        raise HypothesisFailed("base_boundary_conditions")
    flipped = transpose_boundary(br, tol)
    if not check_B123(flipped, tol).all_hold:
        raise HypothesisFailed("transposed_boundary_conditions")
    d1 = split.dim1
    second = _block_transform(br, _embed(m, d1, split.dim2), tol)
    if not check_B123(transpose_boundary(second, tol), tol).all_hold:
        raise HypothesisFailed("second_block_transpose_conditions")
    result = transpose_boundary(_block_transform(flipped, _embed(m, 0, d1), tol), tol)
    return TransformResult(result, lambda lam: _schur_block(_weyl_matrix(br, lam, tol), d1, lam, tol))


def t_transform(br: BoundaryRelation, split: SpaceSplit, t, tol: Tolerances = TOL) -> TransformResult:
    """Couple the two blocks through the matrix t: inputs are constrained
    to h = (t h2, h2) and the outputs pair h2 with the matching
    combination of the second components.  The Weyl family becomes
    t^H M11 t + t^H M12 + M21 t + M22."""
    m = br.boundary_dim
    if split.total != m:
        raise DimMismatch("split does not match the boundary dimension")
    d1, d2 = split.dim1, split.dim2
    t = as_complex_matrix(t, d1, d2)
    result = _block_transform(br, _embed(m, 0, d1) @ t + _embed(m, d1, d2), tol)
    return TransformResult(result, lambda lam: _t_combination(_weyl_matrix(br, lam, tol), t))


def boundary_direct_sum(a: BoundaryRelation, b: BoundaryRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Orthogonal sum acting between the merged graph spaces."""
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


def sum_weyl(a: BoundaryRelation, b: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """Boundary relation on the orthogonal sum whose Weyl family is the
    sum of the two Weyl families; realized as the identity coupling of
    the direct sum."""
    if a.boundary_dim != b.boundary_dim:
        raise DimMismatch("summands need equal boundary dimensions")
    m = a.boundary_dim
    merged = boundary_direct_sum(a, b, tol)
    boundary = t_transform(merged, SpaceSplit(m, m), np.eye(m, dtype=complex), tol).boundary

    def weyl_fn(lam: complex) -> np.ndarray:
        return _weyl_matrix(a, lam, tol) + _weyl_matrix(b, lam, tol)

    return TransformResult(boundary, weyl_fn)
