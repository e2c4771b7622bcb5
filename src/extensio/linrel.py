"""Calculus of linear relations in finite-dimensional complex spaces.

A linear relation from :math:`\\mathbb{C}^n` to :math:`\\mathbb{C}^m` is a
subspace of :math:`\\mathbb{C}^{n+m}`; the first ``n`` coordinates carry the
input component ``f``, the last ``m`` the output component ``f'``.  Graphs of
matrices are the single-valued special case; nothing below assumes
single-valuedness.  Inverses, adjoints, sums, products, eigenspaces and
resolvents are all subspace computations, with every rank decision made by an
SVD under an explicit tolerance context.

Inner products are linear in the first argument and conjugate-linear in the
second, so ``(u, v) = v^H u``.

Everything is immutable and pure; in finite dimension every relation is
closed, so closure operations are identities and are not provided.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, AssumptionError, RealAxis, SingularAtLambda

__all__ = [
    "Tolerances",
    "TOL",
    "Subspace",
    "LinearRelation",
    "as_complex_matrix",
    "subspace_from_columns",
    "zero_subspace",
    "full_subspace",
    "subspace_complement",
    "subspace_intersect",
    "subspace_sum",
    "subspace_direct_sum",
    "subspace_coords",
    "subspace_permute",
    "containment_gap",
    "is_subspace",
    "largest_principal_angle",
    "subspace_equal",
    "relation_from_generators",
    "relation_from_matrix",
    "zero_relation",
    "identity_relation",
    "mul_relation",
    "rel_parts",
    "RelationParts",
    "rel_inverse",
    "rel_adjoint",
    "rel_sum",
    "rel_comp_sum",
    "rel_product",
    "rel_intersect",
    "rel_image",
    "rel_preimage",
    "rel_direct_sum",
    "rel_permute",
    "eigenspace",
    "rel_classify",
    "RelationFlags",
    "operator_part",
    "is_simple",
    "is_subrelation",
    "rel_equal",
    "rel_matrix",
    "resolvent_matrix",
]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance context threaded through all subspace decisions.

    :param rank: relative singular-value cutoff in (0, 1); the threshold
        for a matrix ``M`` is ``rank * max(smax(M), scale) * max(M.shape)``,
        with the unit anchor ``scale = 1`` for blocks of unit bases.
    :param angle: largest principal angle (radians, finite and positive)
        below which two subspaces count as equal / contained.
    :param psd: eigenvalue slack (finite, nonnegative) for semidefiniteness
        and Hermiticity checks.

    Values outside these ranges, NaN included, raise ``ArgumentError``.
    """

    rank: float = 1e-10
    angle: float = 1e-8
    psd: float = 1e-9

    def __post_init__(self):
        # a NaN field makes every cutoff comparison false, so it is refused
        # here with the out-of-range values
        if not 0 < self.rank < 1:
            raise ArgumentError(f"rank cutoff {self.rank} must lie in (0, 1)")
        if not 0 < self.angle < np.inf:
            raise ArgumentError(f"angle tolerance {self.angle} must be finite and positive")
        if not 0 <= self.psd < np.inf:
            raise ArgumentError(f"psd slack {self.psd} must be finite and nonnegative")

    @cached_property
    def _sin_angle(self) -> float:
        """sin(angle), the symmetry cutoff of ``rel_classify``, taken once."""
        return float(np.sin(self.angle))


TOL = Tolerances()

# Frobenius distance of a basis Gram matrix from the identity, per column,
# up to which the public Subspace constructor accepts the basis.
_GRAM_TOL = 1e-7


def as_complex_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a dense complex matrix.

    Accepts anything array-like, enforces two dimensions, optional shape, and
    finiteness of all entries.
    """
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        raise ArgumentError(f"expected a matrix, got ndim={mat.ndim}")
    if rows is not None and mat.shape[0] != rows:
        raise ArgumentError(f"expected {rows} rows, got {mat.shape[0]}")
    if cols is not None and mat.shape[1] != cols:
        raise ArgumentError(f"expected {cols} columns, got {mat.shape[1]}")
    if not np.isfinite(mat).all():
        raise ArgumentError("matrix entries must be finite")
    return mat


def _spectral_point(lam, rule: str = "finite") -> complex:
    """Validate a spectral point: finite, and nonreal (``"nonreal"``, for
    Weyl families, gamma fields and pairs) or in the open upper half plane
    (``"upper"``, for reference points and limit grids) where rule asks."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ArgumentError(f"spectral point {lam} is not finite")
    if rule == "nonreal" and lam.imag == 0:
        raise RealAxis(f"evaluation point {lam} must be nonreal: families live off the real axis")
    if rule == "upper" and not lam.imag > 0:
        raise ArgumentError(f"point {lam} must lie in the open upper half plane")
    return lam


try:
    from numpy.linalg import _umath_linalg

    # LAPACK's SVD gufuncs by (compute_uv, full_matrices) and QR gufuncs; numpy 1.x names them otherwise
    _SVD_GUFUNCS = {(False, True): _umath_linalg.svd, (True, False): _umath_linalg.svd_s, (True, True): _umath_linalg.svd_f}
    _QR_GUFUNCS = (_umath_linalg.qr_r_raw, _umath_linalg.qr_reduced, _umath_linalg.qr_complete)
    _NUMPY_SVD = np.linalg.svd
except (ImportError, AttributeError):
    _NUMPY_SVD = _QR_GUFUNCS = None
_SVD_SIGNATURES = {np.dtype(complex): ("D->d", "D->DdD"), np.dtype(float): ("d->d", "d->ddd")}
_QR_SIGNATURES = {np.dtype(complex): ("D->D", "DD->D"), np.dtype(float): ("d->d", "dd->d")}


def _svd(mat: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    """``np.linalg.svd(mat, full_matrices, compute_uv)``, bit for bit, from
    LAPACK's gufunc without numpy's per-call wrapper.  numpy's function
    itself serves input that is neither complex128 nor float64, a numpy
    without the gufuncs, and an ``np.linalg.svd`` replaced at run time, so
    a counting wrapper sees every call.  A LAPACK failure or non-finite
    input raises AssumptionError, whether or not RuntimeWarning is an error."""
    sigs = _SVD_SIGNATURES.get(mat.dtype)
    try:
        if sigs is None or np.linalg.svd is not _NUMPY_SVD:
            out = np.linalg.svd(mat, full_matrices=full_matrices, compute_uv=compute_uv)
        else:
            out = _SVD_GUFUNCS[compute_uv, full_matrices](mat, signature=sigs[compute_uv])
    except (RuntimeWarning, FloatingPointError, np.linalg.LinAlgError):
        # numpy's function raises LinAlgError; the gufunc sets the invalid
        # flag, which an error filter for RuntimeWarning or np.errstate raises
        raise AssumptionError("SVD did not converge") from None
    s = out[1] if compute_uv else out
    # a failure fills every output with NaN, and inf input gives NaN
    # unflagged; each matrix of a stack has its largest value first
    if s.size and not (s[0] if s.ndim == 1 else s[..., 0].max()) < np.inf:
        raise AssumptionError("SVD did not converge")
    return out


def _cutoff(smax, shape: tuple[int, int], tol: Tolerances, scale: float | None = None):
    """The rank cutoff; smax is a float, or an array with one largest value
    per matrix."""
    if scale is not None:
        smax = np.maximum(smax, scale) if isinstance(smax, np.ndarray) else max(smax, scale)
    return tol.rank * smax * max(shape)


def _rank(singular: np.ndarray, shape: tuple[int, int], tol: Tolerances, scale: float | None = None) -> int:
    """Number of singular values (descending, as LAPACK returns them) above
    the cutoff, counted on Python floats: on a handful of values numpy's
    per-call overhead costs more than the arithmetic, and the float
    operations are the same, so the count is too."""
    values = singular.tolist()
    if not values:
        return 0
    cut = _cutoff(values[0], shape, tol, scale)
    for rank, value in enumerate(values):
        if not value > cut:
            return rank
    return len(values)


def _ranks(singular: np.ndarray, shape: tuple[int, int], tol: Tolerances, scale: float | None = None) -> list[int]:
    """``_rank`` of each matrix of a stack, from its row of singular values."""
    return [_rank(row, shape, tol, scale) for row in singular]


def _rank_of(mat: np.ndarray, tol: Tolerances, scale: float | None = None) -> int | np.ndarray:
    """Rank of mat: its singular values under the cutoff of ``_rank``.  For
    a stack of matrices, one values-only SVD gives an array of their ranks."""
    singular = _svd(mat, compute_uv=False)
    if singular.ndim == 1:
        return _rank(singular, mat.shape, tol, scale)
    return np.array(_ranks(singular, mat.shape[-2:], tol, scale))


def _frobenius(mat: np.ndarray) -> float:
    """||mat||_F as a Python float (of a stack, the norm of all its
    entries); past the float range it is inf, with no overflow warning,
    where ``np.linalg.norm`` warns."""
    return math.sqrt(np.vdot(mat, mat).real)


def _certified_inverse(mat: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """``np.linalg.inv(mat)`` of a square matrix, or of a stack of them,
    where it certifies with no SVD that the unit-anchored rank rule finds
    full rank for each matrix A: smax <= ||A||_F and smin >= 1 / ||A^-1||_F,
    so 2 cutoff(||A||_F) ||A^-1||_F < 1 proves it, the factor 2 covering
    the rounding of the inverse.  On a stack the norms of the whole stack
    bound those of each matrix, so one test certifies them all.  None
    elsewhere (not square, singular, not finite, near the cutoff), where
    the rule decides."""
    with contextlib.suppress(np.linalg.LinAlgError):
        inv = np.linalg.inv(mat)
        if 2 * _cutoff(_frobenius(mat), mat.shape[-2:], tol, 1.0) * _frobenius(inv) < 1:
            return inv
    return None


def _checked_inverse(mat: np.ndarray, tol: Tolerances, error: type[Exception], *args) -> np.ndarray:
    """Inverse of a square matrix built from blocks of unit bases, or
    ``error(*args)`` raised when its rank falls short of its size (always,
    when it is not square): the cutoff is anchored at unit scale, so a
    rounding-level matrix reads as singular.  The inverse, taken first,
    certifies full rank with no SVD where it can
    (``_certified_inverse``)."""
    inv = _certified_inverse(mat, tol)
    if inv is not None:
        return inv
    if _rank_of(mat, tol, 1.0) < max(mat.shape):
        raise error(*args)
    return np.linalg.inv(mat)


def _orthonormal_columns(mat: np.ndarray, tol: Tolerances, scale: float | None = None) -> np.ndarray | list[np.ndarray]:
    """Orthonormal basis of the column span, rank decided by SVD.

    ``scale`` anchors the cutoff for inputs sliced out of unit bases,
    where a uniformly tiny block is noise rather than a small subspace.
    For a stack of matrices, one SVD of the stack gives the list of their
    bases, each the basis of its matrix alone, bit for bit.
    """
    rows, cols = mat.shape[-2:]
    if not rows or not cols:
        return np.zeros((rows, 0), dtype=complex) if mat.ndim == 2 else [np.zeros((rows, 0), dtype=complex) for _ in mat]
    u, s, _ = _svd(mat, full_matrices=False)
    if mat.ndim == 2:
        return np.ascontiguousarray(u[:, : _rank(s, mat.shape, tol, scale)])
    return [np.ascontiguousarray(left[:, :rank]) for left, rank in zip(u, _ranks(s, (rows, cols), tol, scale))]


def _polar_factor(mat: np.ndarray) -> np.ndarray:
    """Unitary factor W V* of a square matrix W diag(s) V*: the unitary
    nearest to it, unique when the matrix is invertible."""
    u, _, vh = _svd(mat)
    return u @ vh


def _q_factor(cols: np.ndarray, complete: bool = False) -> np.ndarray:
    """Q of ``np.linalg.qr`` (mode "complete" if ``complete``) of independent
    columns, bit for bit, with no rank decision; numpy's function serves other
    dtypes, wide input and no gufuncs, and failures raise as in ``_svd``."""
    rows, k = cols.shape
    if not k and not complete:
        return cols
    sigs = _QR_SIGNATURES.get(cols.dtype)
    try:
        if sigs is None or k > rows or _QR_GUFUNCS is None:
            q = np.linalg.qr(cols, "complete" if complete else "reduced")[0]
        else:
            factor, reduced, full = _QR_GUFUNCS
            # the factorization overwrites its input with the reflectors
            packed = cols.copy()
            scalars = factor(packed, signature=sigs[0])
            q = (full if complete and rows > k else reduced)(packed, scalars, signature=sigs[1])
    except (RuntimeWarning, FloatingPointError, np.linalg.LinAlgError):
        raise AssumptionError("QR factorization failed") from None
    # a failure fills Q with NaN, and NaN or inf input leaves NaN in it unflagged
    if not np.isfinite(q).all():
        raise AssumptionError("QR factorization failed")
    return q


def _nullspace(mat: np.ndarray, tol: Tolerances, scale: float | None = None) -> np.ndarray | list[np.ndarray]:
    """Orthonormal basis of ker(mat) as columns.  For a stack of matrices,
    one SVD of the stack gives the list of their bases, each the basis of
    its matrix alone, bit for bit."""
    rows, cols = mat.shape[-2:]
    if not rows or not cols:
        return np.eye(cols, dtype=complex) if mat.ndim == 2 else [np.eye(cols, dtype=complex) for _ in mat]
    _, s, vh = _svd(mat)
    if mat.ndim == 2:
        return np.ascontiguousarray(vh[_rank(s, mat.shape, tol, scale) :, :].conj().T)
    return [np.ascontiguousarray(right[rank:, :].conj().T) for right, rank in zip(vh, _ranks(s, (rows, cols), tol, scale))]


def _meet(left: np.ndarray, right: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (u; v), orthonormal as one stack, spanning the pairs
    with left u = right v: one unit-anchored nullspace of [left, -right].

    The inputs are blocks of unit bases, so a uniformly tiny block is
    rounding noise and meets everything, never a small subspace.
    """
    coeff = _nullspace(np.concatenate([left, -right], axis=1), tol, 1.0)
    return coeff[: left.shape[1]], coeff[left.shape[1] :]


def _span(gens: np.ndarray, tol: Tolerances, scale: float | None = None) -> Subspace:
    """Span of generators the library built or has already validated.

    ``scale=1.0`` is for generators of norm at most about one, the image of
    orthonormal coefficients under blocks of unit bases: the cutoff is then
    anchored at unit scale, so projected rounding noise spans nothing.
    """
    return Subspace._trusted(gens.shape[0], _orthonormal_columns(gens, tol, scale))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of ``C^ambient_dim`` held as an orthonormal column basis.

    The constructor is where bases enter from outside: it requires a finite
    complex matrix with ``ambient_dim`` rows and at most as many orthonormal
    columns.  Bases the library computes itself enter through ``_trusted``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = as_complex_matrix(self.basis, rows=self.ambient_dim)
        object.__setattr__(self, "basis", basis)
        k = basis.shape[1]
        if k > self.ambient_dim:
            raise ArgumentError("basis has more columns than the ambient dimension")
        if k:
            gram = basis.conj().T @ basis
            if np.linalg.norm(gram - np.eye(k)) > _GRAM_TOL * max(1, k):
                raise ArgumentError("basis columns are not orthonormal")

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: np.ndarray) -> Subspace:
        """Subspace on a complex orthonormal basis with ``ambient_dim`` rows,
        unchecked: an SVD or QR factor, such a basis with its rows
        selected, permuted, sign-flipped or multiplied by a unitary, or
        columns whose Gram matrix is known to be diagonal, rescaled to unit
        length (``rel_parts``: such parts inherit the orthonormality of the
        graph basis they are read from)."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        object.__setattr__(space, "basis", basis)
        return space

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace as a dense matrix."""
        return self.basis @ self.basis.conj().T

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_from_columns(mat, tol: Tolerances = TOL) -> Subspace:
    """Span of the columns of ``mat`` with SVD rank decision.

    A zero (or empty) matrix yields the zero subspace.
    """
    return _span(as_complex_matrix(mat), tol)


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace._trusted(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace._trusted(ambient_dim, np.eye(ambient_dim, dtype=complex))


def subspace_complement(space: Subspace, tol: Tolerances = TOL) -> Subspace:
    """Orthogonal complement within the ambient space."""
    return Subspace._trusted(space.ambient_dim, _nullspace(space.basis.conj().T, tol))


def subspace_intersect(a: Subspace, b: Subspace, tol: Tolerances = TOL) -> Subspace:
    """Intersection: the span of A u over the meet A u = B v of the bases."""
    if a.ambient_dim != b.ambient_dim:
        raise ArgumentError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient_dim)
    u, _ = _meet(a.basis, b.basis, tol)
    return _span(a.basis @ u, tol, 1.0)


def subspace_sum(a: Subspace, b: Subspace, tol: Tolerances = TOL) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ArgumentError("ambient dimensions differ")
    return _span(np.concatenate([a.basis, b.basis], axis=1), tol)


def subspace_direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Block direct sum inside ``C^(ambient_a + ambient_b)``."""
    top = np.concatenate([a.basis, np.zeros((a.ambient_dim, b.dim))], axis=1)
    bot = np.concatenate([np.zeros((b.ambient_dim, a.dim)), b.basis], axis=1)
    return Subspace._trusted(a.ambient_dim + b.ambient_dim, np.concatenate([top, bot]))


def subspace_coords(space: Subspace, rows: Sequence[int], tol: Tolerances = TOL) -> Subspace:
    """Coordinate projection: span of the selected rows of the basis.

    The rank cutoff is anchored at the unit column scale of the basis, so
    a projection that is uniformly at rounding level collapses to zero.
    """
    rows = list(rows)
    if not space.dim:
        return zero_subspace(len(rows))
    return _span(space.basis[rows, :], tol, 1.0)


def subspace_permute(space: Subspace, perm: Sequence[int]) -> Subspace:
    """Reorder ambient coordinates; orthonormality is preserved."""
    perm = list(perm)
    if sorted(perm) != list(range(space.ambient_dim)):
        raise ArgumentError("not a permutation of the ambient coordinates")
    return Subspace._trusted(space.ambient_dim, space.basis[perm, :])


def containment_gap(inner: Subspace, outer: Subspace) -> float:
    """Largest principal angle from ``inner`` to its projection on ``outer``.

    Computed through the sine, ``||(I - P_outer) B_inner||_2``, which stays
    accurate for angles far below sqrt(machine eps); the arccos route loses
    exactly the small angles the equality test cares about.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ArgumentError("ambient dimensions differ")
    if inner.dim == 0:
        return 0.0
    resid = inner.basis - outer.basis @ (outer.basis.conj().T @ inner.basis)
    # The largest singular value; norm(resid, 2) computes the same SVD
    # with more overhead.
    sine = min(1.0, float(_svd(resid, compute_uv=False)[0]))
    return float(np.arcsin(sine))


def is_subspace(inner: Subspace, outer: Subspace, tol: Tolerances = TOL) -> bool:
    return containment_gap(inner, outer) <= tol.angle


def largest_principal_angle(a: Subspace, b: Subspace) -> float:
    return max(containment_gap(a, b), containment_gap(b, a))


def subspace_equal(a: Subspace, b: Subspace, tol: Tolerances = TOL) -> bool:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    # for equal dimensions the gap from a to b equals the one back
    return containment_gap(a, b) <= tol.angle


class RelationParts(NamedTuple):
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace


@dataclass(frozen=True, eq=False)
class LinearRelation:
    """A subspace of ``C^(dim_in + dim_out)`` viewed as a multivalued map."""

    dim_in: int
    dim_out: int
    graph: Subspace
    # the matrix of a graph built by ``_operator``, read-only; else None
    _matrix: ClassVar[np.ndarray | None] = None

    def __post_init__(self):
        if self.graph.ambient_dim != self.dim_in + self.dim_out:
            raise ArgumentError("graph ambient dimension must be dim_in + dim_out")

    @property
    def in_block(self) -> np.ndarray:
        return self.graph.basis[: self.dim_in, :]

    @property
    def out_block(self) -> np.ndarray:
        return self.graph.basis[self.dim_in :, :]

    @property
    def graph_dim(self) -> int:
        return self.graph.dim

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"LinearRelation({self.dim_in}->{self.dim_out}, "
            f"graph_dim={self.graph.dim})"
        )


def relation_from_generators(dim_in: int, dim_out: int, columns, tol: Tolerances = TOL) -> LinearRelation:
    """Relation spanned by generator columns in ``C^(dim_in + dim_out)``."""
    cols = as_complex_matrix(columns, rows=dim_in + dim_out)
    return LinearRelation(dim_in, dim_out, _span(cols, tol))


def _operator(mat: np.ndarray) -> LinearRelation:
    """Graph [I; mat] of a finite complex matrix, carrying a read-only copy
    of mat: the columns are independent, so one QR spans the graph with no
    rank decision, and ``rel_matrix`` needs none either."""
    rows, cols = mat.shape
    graph = Subspace._trusted(rows + cols, _q_factor(np.concatenate([np.eye(cols, dtype=complex), mat])))
    rel = LinearRelation(cols, rows, graph)
    kept = mat.copy()
    kept.flags.writeable = False
    object.__setattr__(rel, "_matrix", kept)
    return rel


def relation_from_matrix(mat) -> LinearRelation:
    """Graph of a matrix as a (single-valued, everywhere defined) relation."""
    return _operator(as_complex_matrix(mat))


def zero_relation(dim_in: int, dim_out: int) -> LinearRelation:
    """The zero operator: every input maps to 0."""
    return _operator(np.zeros((dim_out, dim_in), dtype=complex))


def identity_relation(dim: int) -> LinearRelation:
    return relation_from_matrix(np.eye(dim, dtype=complex))


def mul_relation(mul_space: Subspace) -> LinearRelation:
    """The purely multivalued relation {0} x mul_space."""
    d = mul_space.ambient_dim
    gens = np.concatenate([np.zeros((d, mul_space.dim)), mul_space.basis])
    return LinearRelation(d, d, Subspace._trusted(2 * d, gens))


def _range_and_kernel_image(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of ran a and of b ker(a) from one unit-anchored SVD
    of a, for the blocks [a; b] of an orthonormal basis (see rel_parts)."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex), b.copy()
    u, s, vh = _svd(a)
    r = _rank(s, a.shape, tol, 1.0)
    image, dropped = b @ vh[r:, :].conj().T, s[r:]
    if dropped.size:
        if not dropped[0] < 1:
            raise ArgumentError(f"rank cutoff {tol.rank} x {max(a.shape)} drops a unit singular value")
        image[:, : dropped.size] /= np.sqrt(1 - dropped * dropped)
    return np.ascontiguousarray(u[:, :r]), image


def rel_parts(rel: LinearRelation, tol: Tolerances = TOL) -> RelationParts:
    """Domain, range, kernel and multivalued part of a relation.

    One SVD of each block of the graph basis [X; Y] gives dom = ran X with
    ker X, and ran = ran Y with ker Y; the ranks are anchored at unit scale.
    X*X + Y*Y = I and the columns V_d of ker(Y) are right singular
    vectors, so (X V_d)*(X V_d) = I - diag(s_d^2), with s_d the singular
    values the rank decision dropped (0 beyond min(shape)): ker is X V_d
    scaled by diag(1 - s_d^2)^(-1/2), and mul is Y ker(X) likewise, with
    no QR and no further rank decision.  A cutoff that drops a unit
    singular value (tol.rank * max(shape) >= 1) raises ArgumentError.
    """
    x, y = rel.in_block, rel.out_block
    dom, mul = _range_and_kernel_image(x, y, tol)
    ran, ker = _range_and_kernel_image(y, x, tol)
    return RelationParts(
        Subspace._trusted(rel.dim_in, dom),
        Subspace._trusted(rel.dim_out, ran),
        Subspace._trusted(rel.dim_in, ker),
        Subspace._trusted(rel.dim_out, mul),
    )


def rel_inverse(rel: LinearRelation) -> LinearRelation:
    """Swap input and output blocks; a row permutation of the graph basis."""
    basis = np.concatenate([rel.out_block, rel.in_block])
    return LinearRelation(rel.dim_out, rel.dim_in, Subspace._trusted(rel.dim_in + rel.dim_out, basis))


def rel_adjoint(rel: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Adjoint relation {(h,k) : (k,f) = (h,g) for all (f,g) in rel}.

    The defining conditions say exactly that (h,k) is orthogonal to every
    vector (-g, f), so the adjoint graph is the orthogonal complement of the
    sign/swap image of the original graph.
    """
    swapped = np.concatenate([-rel.out_block, rel.in_block])
    comp = _nullspace(swapped.conj().T, tol)
    return LinearRelation(rel.dim_out, rel.dim_in, Subspace._trusted(rel.dim_in + rel.dim_out, comp))


def rel_sum(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Operator-like sum {(f, g+h) : (f,g) in a, (f,h) in b}.

    The coefficients of a common input meet in X_a u = X_b v, and the sum
    is spanned by [X_a u; Y_a u + Y_b v].
    """
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        raise ArgumentError("dimension mismatch in rel_sum")
    u, v = _meet(a.in_block, b.in_block, tol)
    gens = np.concatenate([a.in_block @ u, a.out_block @ u + b.out_block @ v])
    return LinearRelation(a.dim_in, a.dim_out, _span(gens, tol, 1.0))


def rel_comp_sum(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Componentwise sum: the subspace sum of the two graphs."""
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        raise ArgumentError("dimension mismatch in rel_comp_sum")
    return LinearRelation(a.dim_in, a.dim_out, subspace_sum(a.graph, b.graph, tol))


def rel_product(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Composition a o b = {(f,k) : exists g with (f,g) in b, (g,k) in a}.

    Two operators that carry their matrices (``_operator``) compose as the
    matrix product, with no rank decision.  Otherwise the middle components
    meet in Y_b u = X_a v, and the product is spanned by [X_b u; Y_a v].
    Its generators have norm at most one, so an element whose generator
    falls below the unit-anchored cutoff, such as rounding left over from g
    in mul b and ker a, counts as zero.
    """
    if b.dim_out != a.dim_in:
        raise ArgumentError("inner dimensions differ in rel_product")
    if a._matrix is not None and b._matrix is not None:
        # an overflowing product takes the graph route, on unit bases
        with np.errstate(all="ignore"):
            prod = a._matrix @ b._matrix
        if np.isfinite(prod).all():
            return _operator(prod)
    u, v = _meet(b.out_block, a.in_block, tol)
    gens = np.concatenate([b.in_block @ u, a.out_block @ v])
    return LinearRelation(b.dim_in, a.dim_out, _span(gens, tol, 1.0))


def rel_intersect(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        raise ArgumentError("dimension mismatch in rel_intersect")
    return LinearRelation(a.dim_in, a.dim_out, subspace_intersect(a.graph, b.graph, tol))


def rel_image(rel: LinearRelation, space: Subspace, tol: Tolerances = TOL) -> Subspace:
    """Image {g : (f,g) in rel for some f in space}: the span of Y u over
    the meet X u = B v of the input block with the basis of space."""
    if space.ambient_dim != rel.dim_in:
        raise ArgumentError("space must live in the input space")
    u, _ = _meet(rel.in_block, space.basis, tol)
    return _span(rel.out_block @ u, tol, 1.0)


def rel_preimage(rel: LinearRelation, space: Subspace, tol: Tolerances = TOL) -> Subspace:
    return rel_image(rel_inverse(rel), space, tol)


def rel_direct_sum(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    """Direct sum acting on C^(n_a+n_b) -> C^(m_a+m_b)."""
    na, ma, nb, mb = a.dim_in, a.dim_out, b.dim_in, b.dim_out
    ka, kb = a.graph_dim, b.graph_dim
    gens = np.concatenate(
        [
            np.concatenate([a.in_block, np.zeros((na, kb))], axis=1),
            np.concatenate([np.zeros((nb, ka)), b.in_block], axis=1),
            np.concatenate([a.out_block, np.zeros((ma, kb))], axis=1),
            np.concatenate([np.zeros((mb, ka)), b.out_block], axis=1),
        ]
    )
    return LinearRelation(na + nb, ma + mb, Subspace._trusted(na + nb + ma + mb, gens))


def rel_permute(rel: LinearRelation, in_perm: Sequence[int] | None = None, out_perm: Sequence[int] | None = None) -> LinearRelation:
    """Permute input and/or output coordinates."""
    perm = list(in_perm) if in_perm is not None else list(range(rel.dim_in))
    perm += [rel.dim_in + j for j in (out_perm if out_perm is not None else range(rel.dim_out))]
    return LinearRelation(rel.dim_in, rel.dim_out, subspace_permute(rel.graph, perm))


def eigenspace(rel: LinearRelation, lam: complex, tol: Tolerances = TOL) -> tuple[Subspace, LinearRelation]:
    """Eigenspace N = ker(T - lam) and its graph copy {(f, lam*f) in T}.

    With c orthonormal in ker(Y - lam X), G c is an orthonormal basis of the
    graph copy and X c has full column rank, so its Q factor spans N.
    """
    if rel.dim_in != rel.dim_out:
        raise ArgumentError("eigenspace needs dim_in = dim_out")
    lam = _spectral_point(lam)
    coeff = _nullspace(rel.out_block - lam * rel.in_block, tol)
    # Keep the graph copy inside rel exactly; the eigen-residual stays in
    # the output rows instead of pushing the basis off the graph.
    gens = rel.graph.basis @ coeff
    space = Subspace._trusted(rel.dim_in, _q_factor(gens[: rel.dim_in, :]))
    return space, LinearRelation(rel.dim_in, rel.dim_in, Subspace._trusted(2 * rel.dim_in, gens))


@dataclass(frozen=True)
class RelationFlags:
    symmetric: bool
    selfadjoint: bool
    dissipative: bool
    accumulative: bool
    maximal_dissipative: bool


def rel_classify(rel: LinearRelation, tol: Tolerances = TOL) -> RelationFlags:
    """Flags of a square relation from the imaginary Gram form (X*Y - Y*X)/2i
    on its graph basis [X; Y].  The adjoint graph is the complement of
    [-Y; X], of dimension 2n - graph_dim, and the sine of the containment
    gap of rel in it is ||X*Y - Y*X||_2, twice the largest |eigenvalue|."""
    if rel.dim_in != rel.dim_out:
        raise ArgumentError("classification needs dim_in = dim_out")
    gram = rel.in_block.conj().T @ rel.out_block
    imag_form = (gram - gram.conj().T) / 2j
    # a few eigenvalues: Python's min, max and abs on floats cost less than
    # numpy's reductions, and give the same values
    eigs = np.linalg.eigvalsh(imag_form).tolist() if imag_form.size else [0.0]
    symmetric = 2 * max(map(abs, eigs)) <= tol._sin_angle
    dissipative = min(eigs) >= -tol.psd
    return RelationFlags(
        symmetric=symmetric,
        selfadjoint=symmetric and rel.graph_dim == rel.dim_in,
        dissipative=dissipative,
        accumulative=max(eigs) <= tol.psd,
        maximal_dissipative=dissipative and rel.graph_dim == rel.dim_in,
    )


def operator_part(rel: LinearRelation, tol: Tolerances = TOL) -> tuple[LinearRelation, Subspace]:
    """Split R = R_s (+) {0} x mul R with outputs of R_s orthogonal to mul.

    Requires a dissipative or accumulative relation so that the split is a
    componentwise orthogonal decomposition.
    """
    flags = rel_classify(rel, tol)
    if not (flags.dissipative or flags.accumulative):
        raise AssumptionError("operator_part needs a dissipative or accumulative relation")
    mul = rel_parts(rel, tol).mul
    if mul.dim == 0:
        return rel, mul
    coeff = _nullspace(mul.basis.conj().T @ rel.out_block, tol)
    gens = np.concatenate([rel.in_block @ coeff, rel.out_block @ coeff])
    return LinearRelation(rel.dim_in, rel.dim_out, _span(gens, tol)), mul


class _Spectrum(NamedTuple):
    """Operator part of a relation with graph columns [X; Y], compressed to
    dom = ran X: eigenvalues ``eigs`` (ascending), orthonormal eigenvectors
    ``vecs`` spanning dom, graph coordinates ``coords`` with X coords =
    vecs, and ``mul``, an orthonormal basis of dom^perp.  ``smin`` is the
    smallest kept singular value of X."""

    eigs: np.ndarray
    vecs: np.ndarray
    coords: np.ndarray
    mul: np.ndarray
    smin: float


def _operator_spectrum(x: np.ndarray, y: np.ndarray, tol: Tolerances) -> _Spectrum:
    """Eigen-decomposition of the compression of [X; Y] to dom.

    With X = U diag(s) V* (unit-anchored rank r), Z = V diag(1/s) holds
    graph coordinates of U, and C = U* Y Z is the relation compressed to
    dom; C = W diag(t) W* (its Hermitian part), vecs = U W, coords = Z W.
    For a selfadjoint relation the generators span C^n, so U is square and
    its trailing columns span dom^perp = mul; the resolvent of the relation
    is vecs diag(1/(t - lam)) vecs*, zero on mul.
    """
    n, k = x.shape
    if n == 0 or k == 0:
        empty = np.zeros((n, 0), dtype=complex)
        return _Spectrum(np.zeros(0), empty, np.zeros((k, 0), dtype=complex), np.eye(n, dtype=complex), 0.0)
    u, s, vh = _svd(x, full_matrices=False)
    r = _rank(s, x.shape, tol, 1.0)
    coords = vh[:r].conj().T / s[:r]
    comp = u[:, :r].conj().T @ (y @ coords)
    # the anti-Hermitian part of comp is the symmetry defect of the relation
    eigs, w = np.linalg.eigh((comp + comp.conj().T) / 2)
    smin = float(s[r - 1]) if r else 0.0
    return _Spectrum(eigs, u[:, :r] @ w, coords @ w, np.ascontiguousarray(u[:, r:]), smin)


def _off_spectrum(eigs: np.ndarray, lams: np.ndarray, n: int, tol: Tolerances) -> np.ndarray:
    """t - lam for each lam (rows) and eigenvalue t of an n x n relation A
    (columns, ``_operator_spectrum``).  The |t - lam| of a row are the
    singular values of A - lam compressed to dom A; SingularAtLambda is
    raised where the smallest falls under the unit-anchored cutoff.

    The eigenvalues are real, so |Im lam| <= |t - lam| <= max|t| + |lam|:
    where the smallest |Im lam| of the grid clears twice the cutoff at
    max|t| + max|lam| (the factor 2 covering the rounding of that bound),
    no point can fall under it, and no row is scanned."""
    diffs = eigs - lams[:, None]
    if not eigs.size:
        return diffs
    points = lams.tolist()
    reach = max(map(abs, eigs.tolist())) + max(map(abs, points), default=0.0)
    if 2 * _cutoff(reach, (n, n), tol, 1.0) < min((abs(lam.imag) for lam in points), default=math.inf):
        return diffs
    dist = np.abs(diffs)
    singular = dist.min(axis=1) <= _cutoff(dist.max(axis=1), (n, n), tol, 1.0)
    if singular.any():
        raise SingularAtLambda(complex(lams[singular.argmax()]), "lambda is an eigenvalue of A0")
    return diffs


def is_simple(rel: LinearRelation, tol: Tolerances = TOL) -> bool:
    """True when the symmetric relation S has no selfadjoint part: in
    finite dimension, mul S = {0} and no (v, t v) in S with v != 0.  The
    compression C of S to dom S (``_operator_spectrum``) needs X of full
    column rank; each eigenvalue t of C is tested by a unit-anchored rank
    of Y - t X on the graph coordinates of its cluster.  Eigenvectors of C
    are accurate to eps ||C|| / gap, so eigenvalues closer than
    eps / tol.rank / s_min share a cluster, which keeps that error below
    the rank cutoff."""
    if not rel_classify(rel, tol).symmetric:
        raise AssumptionError("simplicity is defined for symmetric relations")
    x, y = rel.in_block, rel.out_block
    n, k = x.shape
    if k == 0:
        return True
    spec = _operator_spectrum(x, y, tol)
    if spec.eigs.size < k:
        return False
    eigs = spec.eigs
    coords = spec.coords / np.linalg.norm(spec.coords, axis=0)
    # ||C|| <= ||S|| < 1 / s_min = sqrt(1 + ||S||^2)
    gap = np.finfo(float).eps / tol.rank / spec.smin
    cuts = [0, *(i for i in range(1, k) if eigs[i] - eigs[i - 1] > gap), k]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        q = coords[:, lo:hi] if hi - lo == 1 else _q_factor(coords[:, lo:hi])
        for t in eigs[lo:hi]:
            resid = y @ q - t * (x @ q)
            sing = np.linalg.norm(resid, axis=0) if hi - lo == 1 else _svd(resid, compute_uv=False)
            if _rank(sing, (n, k), tol, 1.0) < hi - lo:
                return False
    return True


def is_subrelation(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> bool:
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        return False
    return is_subspace(a.graph, b.graph, tol)


def rel_equal(a: LinearRelation, b: LinearRelation, tol: Tolerances = TOL) -> bool:
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        return False
    return subspace_equal(a.graph, b.graph, tol)


def rel_matrix(rel: LinearRelation, tol: Tolerances = TOL) -> np.ndarray:
    """Matrix of an everywhere-defined single-valued relation.

    The graph of such a relation has dimension dim_in with an invertible
    input block, so the matrix is out_block @ in_block^{-1}; a relation
    built as the graph of a matrix returns a copy of it.
    """
    if rel._matrix is not None:
        return rel._matrix.copy()
    if rel.graph_dim != rel.dim_in:
        raise AssumptionError(
            f"graph dimension {rel.graph_dim} != dim_in {rel.dim_in}; not a matrix"
        )
    x = rel.in_block
    if rel.dim_in == 0:
        return np.zeros((rel.dim_out, 0), dtype=complex)
    inv = _checked_inverse(x, tol, AssumptionError, "relation is not single-valued and everywhere defined")
    return rel.out_block @ inv


def resolvent_matrix(rel: LinearRelation, lam: complex, tol: Tolerances = TOL) -> np.ndarray:
    """Matrix of (R - lam)^{-1} = X (Y - lam X)^{-1} for a graph basis
    [X; Y] of R; raises SingularAtLambda when obstructed.

    The columns of [X; Y] are independent, so a kernel vector c of
    Y - lam X gives an element (X c, lam X c) of R with X c != 0.  One
    SVD, anchored at the unit column scale, decides both obstructions.
    """
    if rel.dim_in != rel.dim_out:
        raise ArgumentError("resolvent needs dim_in = dim_out")
    lam = _spectral_point(lam)
    x = rel.in_block
    shifted = rel.out_block - lam * x
    rank = _rank_of(shifted, tol, 1.0)
    if rank < shifted.shape[1]:
        raise SingularAtLambda(lam, "nontrivial kernel of R - lambda")
    if rank < shifted.shape[0]:
        raise SingularAtLambda(lam, "R - lambda is not surjective")
    return x @ np.linalg.inv(shifted)
