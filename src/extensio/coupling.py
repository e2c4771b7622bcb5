"""Orthogonal couplings of boundary triplets.

A selfadjoint relation on the orthogonal sum of two spaces induces a
symmetric restriction in each summand, a parameter family tau, and a
boundary relation chi for the second summand.  Conversely a triplet and
a chi couple back to a selfadjoint relation.  The compressed resolvent
of the coupling is reproduced by the resolvent formula through the Weyl
function and the gamma field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ArgumentError,
    AssumptionError,
    DimMismatch,
    NonUnique,
    NoSolution,
    Omega0Singular,
    RelationSumSingular,
    SingularAtLambda,
    TripletMismatch,
)
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    _nullspace,
    _rank,
    is_simple,
    rel_classify,
    rel_equal,
    relation_from_generators,
    resolvent_matrix,
    subspace_coords,
    subspace_from_columns,
    subspace_intersect,
    subspace_permute,
)
from .boundary import (
    BoundaryRelation,
    OrdinaryTriplet,
    _a0_resolvent,
    _as_boundary,
    _gamma_and_weyl,
    validate_boundary_relation,
    weyl_eval,
)
from .nevanlinna import FamilyEval
from .transforms import SpaceSplit, TransformResult, block_compress

__all__ = [
    "CouplingScene",
    "GeneralizedResolventSample",
    "DoubleWeylResult",
    "coupling_scene",
    "induced_chi",
    "canonical_chi",
    "couple",
    "tau_of_extension",
    "generalized_resolvent",
    "krein_rhs",
    "straus_solve",
    "double_weyl",
    "intermediate_h1",
    "intermediate_h2",
]


@dataclass(frozen=True)
class CouplingScene:
    """Selfadjoint relation on C^{h1+h2} with its corner restrictions and
    compressions; minimal means the second restriction is simple."""

    h1_dim: int
    h2_dim: int
    a_tilde: LinearRelation
    s1: LinearRelation
    s2: LinearRelation
    t1: LinearRelation
    t2: LinearRelation
    minimal: bool


@dataclass(frozen=True)
class GeneralizedResolventSample:
    """Compression of the resolvent of the coupling to the first space."""

    lam: complex
    compressed: np.ndarray


class DoubleWeylResult(NamedTuple):
    boundary: BoundaryRelation
    weyl_fn: Callable[[complex], np.ndarray]


def _row_ranges(h1: int, h2: int) -> tuple[list[int], list[int], list[int], list[int]]:
    n = h1 + h2
    f1 = list(range(h1))
    f2 = list(range(h1, n))
    f1p = list(range(n, n + h1))
    f2p = list(range(n + h1, 2 * n))
    return f1, f2, f1p, f2p


def coupling_scene(a_tilde: LinearRelation, h1_dim: int, h2_dim: int, tol: Tolerances = TOL) -> CouplingScene:
    """Split a selfadjoint relation over the coordinate decomposition."""
    n = h1_dim + h2_dim
    if a_tilde.dim_in != n or a_tilde.dim_out != n:
        raise DimMismatch("relation does not act on the sum space")
    if not rel_classify(a_tilde, tol).selfadjoint:
        raise AssumptionError("coupling scenes need a selfadjoint relation")
    f1, f2, f1p, f2p = _row_ranges(h1_dim, h2_dim)
    graph = a_tilde.graph

    def split(keep: list[int], kill: list[int], dim: int) -> tuple[LinearRelation, LinearRelation]:
        # G ker(G_kill) has orthonormal columns and rounding-level killed
        # rows, so its kept rows are an orthonormal basis of the corner.
        inside = graph.basis @ _nullspace(graph.basis[kill, :], tol, 1.0)
        corner = LinearRelation(dim, dim, Subspace(2 * dim, inside[keep, :]))
        return corner, LinearRelation(dim, dim, subspace_coords(graph, keep, tol))

    s1, t1 = split(f1 + f1p, f2 + f2p, h1_dim)
    s2, t2 = split(f2 + f2p, f1 + f1p, h2_dim)
    return CouplingScene(h1_dim, h2_dim, a_tilde, s1, s2, t1, t2, is_simple(s2, tol=tol))


def _boundary_map(pi: OrdinaryTriplet, tol: Tolerances) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary pairs of state graph elements under the single-valued map;
    Gamma's input block X has full column rank, so it is factored once and
    each batch of elements costs two products and the residual check."""
    x = pi.gamma.in_block
    q, r = np.linalg.qr(x)
    x_pinv = np.linalg.solve(r, q.conj().T)

    def values(columns: np.ndarray) -> np.ndarray:
        coeff = x_pinv @ columns
        if np.linalg.norm(x @ coeff - columns) > tol.angle * (1 + np.linalg.norm(columns)):
            raise TripletMismatch("elements do not lie in the domain of the triplet")
        return pi.gamma.out_block @ coeff

    return values


def induced_chi(scene: CouplingScene, pi: OrdinaryTriplet, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation for the second restriction carrying the twisted
    boundary values of the first components of the coupling."""
    if not rel_equal(pi.s_rel, scene.s1, tol):
        raise TripletMismatch("triplet kernel differs from the first restriction")
    h1, h2 = scene.h1_dim, scene.h2_dim
    m = pi.base.boundary_dim
    f1, f2, f1p, f2p = _row_ranges(h1, h2)
    basis = scene.a_tilde.graph.basis
    fhat1 = np.vstack([basis[f1, :], basis[f1p, :]])
    fhat2 = np.vstack([basis[f2, :], basis[f2p, :]])
    bounds = _boundary_map(pi, tol)(fhat1)
    gens = np.vstack([fhat2, bounds[:m, :], -bounds[m:, :]])
    chi = relation_from_generators(2 * h2, 2 * m, gens, tol)
    return validate_boundary_relation(chi, tol)


def canonical_chi(theta: LinearRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation over the zero-dimensional state space whose
    constant parameter family is the sign-twisted theta."""
    if theta.dim_in != theta.dim_out:
        raise ArgumentError("parameter relation must be square")
    if not rel_classify(theta, tol).selfadjoint:
        raise AssumptionError("canonical couplings need a selfadjoint parameter")
    m = theta.dim_in
    gens = np.vstack(
        [np.zeros((0, theta.graph_dim)), theta.in_block, -theta.out_block]
    )
    chi = relation_from_generators(0, 2 * m, gens, tol)
    return validate_boundary_relation(chi, tol)


def couple(pi: BoundaryRelation | OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Selfadjoint relation on the sum space built from matching boundary
    values: the pair of the first factor equals the twisted pair of chi."""
    base = _as_boundary(pi)
    if base.boundary_dim != chi.boundary_dim:
        raise DimMismatch("boundary spaces of the factors differ")
    n1 = base.state_dim
    n2 = chi.state_dim
    m = base.boundary_dim
    total = 2 * n1 + 2 * n2 + 2 * m
    g1 = base.gamma.graph.basis
    lift1 = np.hstack(
        [
            np.vstack(
                [
                    g1[: 2 * n1, :],
                    np.zeros((2 * n2, g1.shape[1])),
                    g1[2 * n1 :, :],
                ]
            ),
            np.vstack(
                [
                    np.zeros((2 * n1, 2 * n2)),
                    np.eye(2 * n2, dtype=complex),
                    np.zeros((2 * m, 2 * n2)),
                ]
            ),
        ]
    )
    g2 = chi.gamma.graph.basis
    twisted = np.vstack([g2[2 * n2 : 2 * n2 + m, :], -g2[2 * n2 + m :, :]])
    lift2 = np.hstack(
        [
            np.vstack(
                [np.zeros((2 * n1, g2.shape[1])), g2[: 2 * n2, :], twisted]
            ),
            np.vstack(
                [
                    np.eye(2 * n1, dtype=complex),
                    np.zeros((2 * n2 + 2 * m, 2 * n1)),
                ]
            ),
        ]
    )
    meet = subspace_intersect(
        subspace_from_columns(lift1, tol), subspace_from_columns(lift2, tol), tol
    )
    if meet.ambient_dim != total:
        raise AssumptionError("internal shape error in coupling")
    pair_rows = list(range(2 * n1 + 2 * n2))
    projected = subspace_coords(meet, pair_rows, tol)
    # Reorder (f1, f1', f2, f2') into ((f1, f2), (f1', f2')).
    perm = (
        list(range(n1))
        + list(range(2 * n1, 2 * n1 + n2))
        + list(range(n1, 2 * n1))
        + list(range(2 * n1 + n2, 2 * n1 + 2 * n2))
    )
    shuffled = subspace_permute(projected, perm)
    result = LinearRelation(n1 + n2, n1 + n2, shuffled)
    if not rel_classify(result, tol).selfadjoint:
        raise AssumptionError("coupling did not produce a selfadjoint relation")
    return result


def tau_of_extension(scene: CouplingScene, pi: OrdinaryTriplet, tol: Tolerances = TOL) -> FamilyEval:
    """Parameter family of the coupling: twisted boundary values of the
    elements whose second component solves the eigenvalue equation."""
    if not rel_equal(pi.s_rel, scene.s1, tol):
        raise TripletMismatch("triplet kernel differs from the first restriction")
    h1, h2 = scene.h1_dim, scene.h2_dim
    m = pi.base.boundary_dim
    f1, f2, f1p, f2p = _row_ranges(h1, h2)
    basis = scene.a_tilde.graph.basis
    boundary_values = _boundary_map(pi, tol)

    def eval_at(lam: complex) -> LinearRelation:
        cols = basis @ _nullspace(basis[f2p, :] - complex(lam) * basis[f2, :], tol)
        bounds = boundary_values(np.vstack([cols[f1, :], cols[f1p, :]]))
        gens = np.vstack([bounds[:m, :], -bounds[m:, :]])
        return relation_from_generators(m, m, gens, tol)

    return FamilyEval(m, eval_at)


def generalized_resolvent(scene: CouplingScene, lam: complex, tol: Tolerances = TOL) -> GeneralizedResolventSample:
    """Corner of the resolvent of the coupling on the first space."""
    lam = complex(lam)
    full = resolvent_matrix(scene.a_tilde, lam, tol)
    return GeneralizedResolventSample(lam, full[: scene.h1_dim, : scene.h1_dim])


def krein_rhs(pi: OrdinaryTriplet, tau: FamilyEval, lam: complex, tol: Tolerances = TOL) -> np.ndarray:
    """Resolvent formula route: resolvent of the distinguished extension
    corrected through the inverse of the family sum.

    With [phi; psi] a graph basis of tau(lam), the inverse of M + tau is
    phi (psi + M phi)^{-1}; every ingredient is read off Gamma's graph
    basis as a matrix."""
    lam = complex(lam)
    base = _as_boundary(pi)
    m = base.boundary_dim
    g_lam, m_mat = _gamma_and_weyl(base, lam, tol)
    g_bar, _ = _gamma_and_weyl(base, lam.conjugate(), tol)
    r0 = _a0_resolvent(base, lam, tol)
    value = tau.eval(lam)
    if value.dim_in != m or value.dim_out != m:
        raise DimMismatch("family value does not act in the boundary space")
    if value.graph_dim != m:
        raise RelationSumSingular(lam, "family sum has no bounded inverse")
    phi = value.in_block
    omega = _pair_inverse(value.out_block + m_mat @ phi, lam, tol, RelationSumSingular)
    return r0 - g_lam @ phi @ omega @ g_bar.conj().T


def straus_solve(scene: CouplingScene, pi: OrdinaryTriplet, h, lam: complex, tol: Tolerances = TOL) -> np.ndarray:
    """Solve the boundary value problem for the compressed resolvent: an
    adjoint-domain element whose defect mismatch is h and whose twisted
    boundary pair lies in the parameter family at lam."""
    lam = complex(lam)
    h1 = scene.h1_dim
    rhs = np.asarray(h, dtype=complex).reshape(-1)
    if rhs.size != h1:
        raise DimMismatch("right-hand side does not live in the first space")
    tau = tau_of_extension(scene, pi, tol)
    v_graph = tau.eval(lam).graph
    t_basis = pi.t_rel.graph.basis
    k = t_basis.shape[1]
    top = t_basis[:h1, :]
    bot = t_basis[h1:, :]
    bounds = _boundary_map(pi, tol)(t_basis)
    m = pi.base.boundary_dim
    twisted = np.vstack([bounds[:m, :], -bounds[m:, :]])
    proj = v_graph.projector()
    outside = (np.eye(2 * m, dtype=complex) - proj) @ twisted
    system = np.vstack([bot - lam * top, outside])
    target = np.concatenate([rhs, np.zeros(2 * m, dtype=complex)])
    if k == 0:
        if np.linalg.norm(target) > tol.angle:
            raise NoSolution("empty parameter space cannot match the data")
        return np.zeros(h1, dtype=complex)
    coeff, *_ = np.linalg.lstsq(system, target, rcond=None)
    if np.linalg.norm(system @ coeff - target) > 1e-8 * (1 + np.linalg.norm(rhs)):
        raise NoSolution(f"no adjoint-domain solution at lambda={lam}")
    null = _nullspace(system, tol)
    if null.size and np.linalg.norm(top @ null) > tol.angle:
        raise NonUnique(f"solution not unique at lambda={lam}")
    return top @ coeff


def _pair_inverse(omega0: np.ndarray, lam: complex, tol: Tolerances, error: type[SingularAtLambda]) -> np.ndarray:
    """Inverse of the pair combination psi + M phi; raises ``error`` when
    its smallest singular value falls below the unit-anchored cutoff."""
    svals = np.linalg.svd(omega0, compute_uv=False)
    if _rank(svals, omega0.shape, tol, 1.0) < omega0.shape[0]:
        raise error(lam, "pair combination is not invertible")
    return np.linalg.inv(omega0)


def _double_weyl_blocks(m_mat: np.ndarray, phi: np.ndarray, psi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The block family [[-phi omega, I - phi omega M], [psi omega, psi omega M]]
    of the coupling, at one point or for a stack of points."""
    upper = phi @ omega
    lower = psi @ omega
    eye = np.eye(m_mat.shape[-1], dtype=complex)
    return np.block([[-upper, eye - upper @ m_mat], [lower, lower @ m_mat]])


def _coupling_pieces(pi: OrdinaryTriplet, chi: BoundaryRelation, lam: complex, tol: Tolerances):
    m = pi.base.boundary_dim
    m_mat = _gamma_and_weyl(pi.base, lam, tol)[1]
    tau_rel = weyl_eval(chi, lam, tol)
    if tau_rel.graph_dim != m:
        raise Omega0Singular(lam, "parameter family value is not maximal")
    phi = tau_rel.in_block
    psi = tau_rel.out_block
    omega = _pair_inverse(psi + m_mat @ phi, lam, tol, Omega0Singular)
    return m_mat, phi, psi, omega


def double_weyl(pi: OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> DoubleWeylResult:
    """Boundary relation for the direct sum of the adjoint domains whose
    Weyl family is the two-by-two block resolvent family of the coupling."""
    base = pi.base
    if base.boundary_dim != chi.boundary_dim:
        raise DimMismatch("boundary spaces of the factors differ")
    n1 = base.state_dim
    n2 = chi.state_dim
    m = base.boundary_dim
    t_basis = pi.t_rel.graph.basis
    bounds = _boundary_map(pi, tol)(t_basis)
    g0 = bounds[:m, :]
    g1 = bounds[m:, :]
    k1 = t_basis.shape[1]
    cols_first = np.vstack(
        [
            t_basis[:n1, :],
            np.zeros((n2, k1)),
            t_basis[n1:, :],
            np.zeros((n2, k1)),
            g1,
            -g0,
            -g0,
            np.zeros((m, k1)),
        ]
    )
    c_basis = chi.gamma.graph.basis
    k2 = c_basis.shape[1]
    h = c_basis[2 * n2 : 2 * n2 + m, :]
    hp = c_basis[2 * n2 + m :, :]
    cols_second = np.vstack(
        [
            np.zeros((n1, k2)),
            c_basis[:n2, :],
            np.zeros((n1, k2)),
            c_basis[n2 : 2 * n2, :],
            hp,
            h,
            np.zeros((m, k2)),
            hp,
        ]
    )
    gamma = relation_from_generators(
        2 * (n1 + n2), 4 * m, np.hstack([cols_first, cols_second]), tol
    )
    boundary = validate_boundary_relation(gamma, tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        return _double_weyl_blocks(*_coupling_pieces(pi, chi, lam, tol))

    return DoubleWeylResult(boundary, weyl_fn)


def intermediate_h1(pi: OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """First intermediate extension: compression of the double relation to
    the leading boundary block."""
    m = pi.base.boundary_dim
    dw = double_weyl(pi, chi, tol)
    res = block_compress(dw.boundary, SpaceSplit(m, m), 1, tol)
    return TransformResult(res.kernel_rel, res.boundary, lambda lam: dw.weyl_fn(lam)[:m, :m])


def intermediate_h2(pi: OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """Second intermediate extension: compression of the double relation
    to the trailing boundary block."""
    m = pi.base.boundary_dim
    dw = double_weyl(pi, chi, tol)
    res = block_compress(dw.boundary, SpaceSplit(m, m), 2, tol)
    return TransformResult(res.kernel_rel, res.boundary, lambda lam: dw.weyl_fn(lam)[m:, m:])
