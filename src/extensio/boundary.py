"""Boundary relations and triplets for the adjoint of a symmetric relation.

A boundary relation is a unitary relation from the graph space of a
state space C^n to the graph space of a boundary space C^m, both carrying
the standard indefinite metric.  Its kernel is the symmetric relation S,
its domain is T with closure S* (equality is exact in finite dimension),
and the image of the defect elements is the Weyl family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    AssumptionError,
    HypothesisFailed,
    KNotExtending,
    NotB123,
    NotIsometric,
    NotIsometryU,
    NotMaximal,
    RealAxis,
    UnequalDefect,
)
from .kreinspace import FundamentalSymmetry, KreinRelation, _pairing_form
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    _graph_resolvent,
    _nullspace,
    _orthonormal_columns,
    _rank,
    as_complex_matrix,
    eigenspace,
    rel_adjoint,
    rel_classify,
    rel_matrix,
    rel_parts,
    rel_preimage,
    rel_product,
    relation_from_generators,
    relation_from_matrix,
    subspace_from_columns,
)
from .nevanlinna import NevanlinnaPairEval, nev_kernel

__all__ = [
    "BoundaryRelation",
    "OrdinaryTriplet",
    "DefectReport",
    "WeylIdentityReport",
    "B123Report",
    "green_residual",
    "validate_boundary_relation",
    "ordinary_triplet",
    "von_neumann_triplet",
    "weyl_eval",
    "gamma_field",
    "boundary_component",
    "kernel_of_boundary_map",
    "check_weyl_identities",
    "defect_report",
    "mul_via_kernel",
    "intermediate_extension",
    "check_B123",
    "reduce_multivalued",
]


@dataclass(frozen=True)
class BoundaryRelation:
    """A validated unitary relation with its kernel and domain cached."""

    gamma: LinearRelation
    s_rel: LinearRelation
    t_rel: LinearRelation

    @property
    def state_dim(self) -> int:
        return self.gamma.dim_in // 2

    @property
    def boundary_dim(self) -> int:
        return self.gamma.dim_out // 2


@dataclass(frozen=True)
class OrdinaryTriplet:
    """Boundary relation that is surjective and single-valued; its two
    output coordinates act as the classical boundary maps."""

    base: BoundaryRelation

    @property
    def gamma(self) -> LinearRelation:
        return self.base.gamma

    @property
    def s_rel(self) -> LinearRelation:
        return self.base.s_rel

    @property
    def t_rel(self) -> LinearRelation:
        return self.base.t_rel


def _as_boundary(obj: BoundaryRelation | OrdinaryTriplet) -> BoundaryRelation:
    return obj.base if isinstance(obj, OrdinaryTriplet) else obj


def green_residual(gamma: LinearRelation) -> float:
    """Norm of the pairing defect between input and output graph blocks.

    Vanishing residual says the abstract Green identity holds on the
    whole graph, which is exactly isometry for the indefinite metrics.
    """
    if gamma.dim_in % 2 or gamma.dim_out % 2:
        raise ArgumentError("graph spaces must have even dimension")
    j_in, j_out = FundamentalSymmetry(gamma.dim_in // 2), FundamentalSymmetry(gamma.dim_out // 2)
    return float(np.linalg.norm(_pairing_form(KreinRelation(gamma, j_in, j_out))))


def validate_boundary_relation(gamma: LinearRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Check the Green identity and maximality, then cache S and T.  An
    isometric Gamma is unitary iff its graph has half the dimension of the
    graph space: Gamma^[*] has the complementary dimension."""
    if green_residual(gamma) > tol.angle * max(1, gamma.graph_dim):
        raise NotIsometric("Green identity fails on the graph")
    if 2 * gamma.graph_dim != gamma.dim_in + gamma.dim_out:
        raise NotMaximal("isometric relation admits a proper extension")
    n = gamma.dim_in // 2
    parts = rel_parts(gamma, tol)
    s_rel = LinearRelation(n, n, parts.ker)
    t_rel = LinearRelation(n, n, parts.dom)
    return BoundaryRelation(gamma, s_rel, t_rel)


def ordinary_triplet(gamma: LinearRelation | BoundaryRelation, tol: Tolerances = TOL) -> OrdinaryTriplet:
    """Wrap a boundary relation whose graph is a surjective operator.  Gamma
    is unitary, so mul Gamma is the J-orthogonal complement of ran Gamma and
    the rank of the output block (unit anchor, as in rel_parts) decides both."""
    base = gamma if isinstance(gamma, BoundaryRelation) else validate_boundary_relation(gamma, tol)
    out = base.gamma.out_block
    if _rank(np.linalg.svd(out, compute_uv=False), out.shape, tol, 1.0) != base.gamma.dim_out:
        raise AssumptionError("ordinary triplet needs a surjective, single-valued boundary relation")
    return OrdinaryTriplet(base)


def von_neumann_triplet(s: LinearRelation, u=None, tol: Tolerances = TOL) -> OrdinaryTriplet:
    """Boundary maps from the defect decomposition of the adjoint.

    Splits each element of the adjoint graph into its symmetric part and
    the two defect components at +/-i, pairs the defect spaces by the
    isometry u (default: matched orthonormal bases), and emits the sum
    and scaled difference of the coordinates.
    """
    if not rel_classify(s, tol).symmetric:
        raise AssumptionError("von Neumann construction needs a symmetric relation")
    adj = rel_adjoint(s, tol)
    n = s.dim_in
    plus, _ = eigenspace(adj, 1j, tol)
    minus, _ = eigenspace(adj, -1j, tol)
    if plus.dim != minus.dim:
        raise UnequalDefect(f"defect numbers ({plus.dim}, {minus.dim}) differ")
    d = plus.dim
    b_plus = plus.basis
    b_minus = minus.basis
    if u is None:
        coord_u = np.eye(d, dtype=complex)
    else:
        u = as_complex_matrix(u, n, n)
        stray = np.linalg.norm(u @ b_plus - b_minus @ (b_minus.conj().T @ u @ b_plus))
        coord_u = b_minus.conj().T @ u @ b_plus
        if stray > tol.angle * max(1, d) or np.linalg.norm(
            coord_u.conj().T @ coord_u - np.eye(d)
        ) > tol.angle * max(1, d):
            raise NotIsometryU("pairing matrix must map one defect space onto the other")
    gens = adj.graph.basis
    f = gens[:n, :]
    fp = gens[n:, :]
    # Orthogonal projection coefficients onto the normalized defect graphs.
    alpha = (b_plus.conj().T @ f - 1j * b_plus.conj().T @ fp) / 2
    delta = (b_minus.conj().T @ f + 1j * b_minus.conj().T @ fp) / 2
    beta = coord_u.conj().T @ delta
    out0 = alpha + beta
    out1 = 1j * (alpha - beta)
    columns = np.vstack([f, fp, out0, out1])
    gamma = relation_from_generators(2 * n, 2 * d, columns, tol)
    return ordinary_triplet(validate_boundary_relation(gamma, tol), tol)


def _defect_coords(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    """Coordinates c on Gamma's graph basis G whose input part G c is a
    defect element (f, lam f): the kernel of G_f' - lam G_f."""
    n = br.state_dim
    g = br.gamma.graph.basis
    return _nullspace(g[n : 2 * n, :] - lam * g[:n, :], tol)


def _gamma_and_weyl(br: BoundaryRelation, lam: complex, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Gamma field and Weyl function at lam as matrices for a triplet whose
    first boundary map is a bijection of the defect elements onto C^m:
    with G c their graph columns, gamma = G_f c (G_h c)^{-1} and
    M = G_h' c (G_h c)^{-1}."""
    if lam.imag == 0:
        raise RealAxis("gamma fields and Weyl functions live off the real axis")
    n = br.state_dim
    m = br.boundary_dim
    cols = br.gamma.graph.basis @ _defect_coords(br, lam, tol)
    try:
        # a defect space of dimension other than m gives a non-square block
        inv = np.linalg.inv(cols[2 * n : 2 * n + m, :])
    except np.linalg.LinAlgError as exc:
        raise AssumptionError("first boundary map is not a bijection of the defect space onto C^m") from exc
    return cols[:n, :] @ inv, cols[2 * n + m :, :] @ inv


def _kernel_columns(br: BoundaryRelation, index: int, tol: Tolerances) -> np.ndarray:
    """State rows of G ker(G_h) (index 0) or G ker(G_h') (index 1): they
    span the elements of dom Gamma whose boundary coordinate vanishes."""
    n = br.state_dim
    g = br.gamma.graph.basis
    start = 2 * n + index * br.boundary_dim
    return g[: 2 * n, :] @ _nullspace(g[start : start + br.boundary_dim, :], tol, 1.0)


def _kernel_single_valued(br: BoundaryRelation, index: int, tol: Tolerances) -> bool:
    """mul A = {0} for A = ker Gamma_index: the span of the kernel columns
    [X; Y] holds some (0, Y c) with Y c != 0 exactly when its rank exceeds
    the rank of X (both cutoffs anchored at one, as for unit columns)."""
    cols = _kernel_columns(br, index, tol)
    x = cols[: br.state_dim, :]
    return _rank(np.linalg.svd(cols, compute_uv=False), cols.shape, tol, 1.0) == _rank(
        np.linalg.svd(x, compute_uv=False), x.shape, tol, 1.0
    )


def _a0_resolvent(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    """Resolvent of A0 = ker Gamma_0 on the graph columns of its kernel."""
    a0 = _kernel_columns(br, 0, tol)
    return _graph_resolvent(a0[: br.state_dim, :], a0[br.state_dim :, :], lam, tol)


def weyl_eval(obj: BoundaryRelation | OrdinaryTriplet, lam: complex, tol: Tolerances = TOL) -> LinearRelation:
    """Family value: image of the defect elements of dom Gamma."""
    lam = complex(lam)
    if lam.imag == 0:
        raise RealAxis("family values live off the real axis")
    br = _as_boundary(obj)
    m = br.boundary_dim
    image = br.gamma.out_block @ _defect_coords(br, lam, tol)
    # Rows of the unit columns G c: anchor the rank cutoff at scale one.
    return LinearRelation(m, m, Subspace(2 * m, _orthonormal_columns(image, tol, 1.0)))


def gamma_field(obj: BoundaryRelation | OrdinaryTriplet, lam: complex, tol: Tolerances = TOL) -> LinearRelation:
    """Relation sending a first boundary coordinate to its defect vector."""
    lam = complex(lam)
    if lam.imag == 0:
        raise RealAxis("the gamma field lives off the real axis")
    br = _as_boundary(obj)
    n = br.state_dim
    m = br.boundary_dim
    cols = br.gamma.graph.basis @ _defect_coords(br, lam, tol)
    return relation_from_generators(m, n, np.vstack([cols[2 * n : 2 * n + m, :], cols[:n, :]]), tol)


def boundary_component(obj: BoundaryRelation | OrdinaryTriplet, index: int, tol: Tolerances = TOL) -> LinearRelation:
    """The composition of Gamma with one output coordinate projection."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    if index not in (0, 1):
        raise ArgumentError("boundary component index must be 0 or 1")
    eye = np.eye(m, dtype=complex)
    zero = np.zeros((m, m), dtype=complex)
    proj = np.hstack([eye, zero]) if index == 0 else np.hstack([zero, eye])
    return rel_product(relation_from_matrix(proj, tol), br.gamma, tol)


def kernel_of_boundary_map(obj: BoundaryRelation | OrdinaryTriplet, index: int, tol: Tolerances = TOL) -> LinearRelation:
    """Extension determined by a vanishing boundary coordinate."""
    if index not in (0, 1):
        raise ArgumentError("boundary map index must be 0 or 1")
    br = _as_boundary(obj)
    n = br.state_dim
    # Rows of the unit columns G c: anchor the rank cutoff at scale one.
    return LinearRelation(n, n, Subspace(2 * n, _orthonormal_columns(_kernel_columns(br, index, tol), tol, 1.0)))


@dataclass(frozen=True)
class WeylIdentityReport:
    gamma_residual: float
    weyl_residual: float


def check_weyl_identities(trip: OrdinaryTriplet, lam: complex, mu: complex, tol: Tolerances = TOL) -> WeylIdentityReport:
    """Residuals of the gamma-field propagation identity and the two-point
    family difference identity, both through the resolvent of ker of the
    first boundary map."""
    lam = complex(lam)
    mu = complex(mu)
    br = trip.base
    g_lam, m_lam = _gamma_and_weyl(br, lam, tol)
    g_mu, m_mu = _gamma_and_weyl(br, mu, tol)
    res = _a0_resolvent(br, lam, tol)
    prop = (np.eye(br.state_dim, dtype=complex) + (lam - mu) * res) @ g_mu
    gamma_res = float(np.linalg.norm(g_lam - prop))
    rhs = m_mu.conj().T + (lam - np.conj(mu)) * g_mu.conj().T @ prop
    weyl_res = float(np.linalg.norm(m_lam - rhs))
    return WeylIdentityReport(gamma_res, weyl_res)


@dataclass(frozen=True)
class DefectReport:
    n_plus: int
    n_minus: int
    mul_dim: int
    identity_holds: bool


def defect_report(obj: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> DefectReport:
    """Defect numbers of S and the codimension they leave in the boundary
    space, which equals the multivalued part of Gamma."""
    br = _as_boundary(obj)
    m = br.boundary_dim
    n_plus = eigenspace(br.t_rel, 1j, tol)[0].dim
    n_minus = eigenspace(br.t_rel, -1j, tol)[0].dim
    mul_dim = rel_parts(br.gamma, tol).mul.dim
    identity = n_plus == n_minus and m - n_plus == mul_dim
    return DefectReport(n_plus, n_minus, mul_dim, identity)


def mul_via_kernel(obj: BoundaryRelation | OrdinaryTriplet, p: NevanlinnaPairEval, lam: complex, tol: Tolerances = TOL) -> bool:
    """Agreement between dim mul Gamma and the kernel dimension of the
    pair kernel at one point."""
    br = _as_boundary(obj)
    kern = nev_kernel(p, lam, lam)
    dim_ker = p.dim - _rank(np.linalg.svd(kern, compute_uv=False), kern.shape, tol)
    return rel_parts(br.gamma, tol).mul.dim == dim_ker


def intermediate_extension(obj: BoundaryRelation | OrdinaryTriplet, theta: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Extension of S: elements of dom Gamma whose boundary pair lies in
    theta.  Symmetry type of the result follows that of theta."""
    br = _as_boundary(obj)
    n = br.state_dim
    m = br.boundary_dim
    if theta.dim_in != m or theta.dim_out != m:
        raise ArgumentError("parameter relation must act in the boundary space")
    pre = rel_preimage(br.gamma, theta.graph, tol)
    return LinearRelation(n, n, pre)


@dataclass(frozen=True)
class B123Report:
    """Green identity, surjectivity of the first boundary map, and
    selfadjointness of its kernel."""

    b1: bool
    b2: bool
    b3: bool

    @property
    def all_hold(self) -> bool:
        return self.b1 and self.b2 and self.b3


def check_B123(obj: BoundaryRelation | OrdinaryTriplet, tol: Tolerances = TOL) -> B123Report:
    br = _as_boundary(obj)
    m = br.boundary_dim
    b1 = green_residual(br.gamma) <= tol.angle * max(1, br.gamma.graph_dim)
    ran = rel_parts(br.gamma, tol).ran
    first = subspace_from_columns(ran.basis[:m, :], tol)
    b2 = first.dim == m
    a0 = kernel_of_boundary_map(br, 0, tol)
    b3 = rel_classify(a0, tol).selfadjoint
    return B123Report(b1, b2, b3)


def reduce_multivalued(obj: BoundaryRelation | OrdinaryTriplet, k=None, tol: Tolerances = TOL) -> BoundaryRelation:
    """Strip the multivalued part of Gamma by passing to the orthogonal
    complement of its first components.

    The multivalued part is the graph of a bounded symmetric operator;
    k must be a Hermitian matrix extending it (default: extend by zero on
    the complement).  The family value of the original splits into k plus
    the embedded family value of the reduction; this is verified at two
    sample points.
    """
    br = _as_boundary(obj)
    report = check_B123(br, tol)
    if not report.all_hold:
        raise NotB123("reduction needs the Green identity, surjectivity, and a selfadjoint kernel")
    n = br.state_dim
    m = br.boundary_dim
    mul = rel_parts(br.gamma, tol).mul
    h0_first = subspace_from_columns(mul.basis[:m, :], tol) if mul.dim else Subspace(m, np.zeros((m, 0), dtype=complex))
    if h0_first.dim != mul.dim:
        raise NotB123("multivalued part is not an operator graph")
    p_part = mul.basis[:m, :]
    q_part = mul.basis[m:, :]
    if k is None:
        if mul.dim:
            coeff = np.linalg.lstsq(p_part, h0_first.basis, rcond=None)[0]
            k0_cols = q_part @ coeff
            b0 = h0_first.basis
            k = k0_cols @ b0.conj().T + (b0 @ k0_cols.conj().T) @ (np.eye(m) - b0 @ b0.conj().T)
        else:
            k = np.zeros((m, m), dtype=complex)
    k = as_complex_matrix(k, m, m)
    if np.linalg.norm(k - k.conj().T) > tol.angle * (1 + np.linalg.norm(k)):
        raise KNotExtending("parameter matrix must be Hermitian")
    if mul.dim and np.linalg.norm(k @ p_part - q_part) > tol.angle * (1 + np.linalg.norm(k)):
        raise KNotExtending("parameter matrix must extend the multivalued-part operator")
    comp = np.eye(m, dtype=complex) - h0_first.basis @ h0_first.basis.conj().T
    b1_basis = subspace_from_columns(comp, tol).basis
    m1 = b1_basis.shape[1]
    gens = br.gamma.graph.basis
    f_rows = gens[: 2 * n, :]
    h = gens[2 * n : 2 * n + m, :]
    hp = gens[2 * n + m :, :]
    new_out0 = b1_basis.conj().T @ h
    new_out1 = b1_basis.conj().T @ (hp - k @ h)
    reduced = relation_from_generators(2 * n, 2 * m1, np.vstack([f_rows, new_out0, new_out1]), tol)
    result = validate_boundary_relation(reduced, tol)
    for lam in (1j, 2j):
        m_full = rel_matrix(weyl_eval(br, lam, tol), tol)
        m_small = rel_matrix(weyl_eval(result, lam, tol), tol)
        assembled = k + b1_basis @ m_small @ b1_basis.conj().T
        if np.linalg.norm(m_full - assembled) > 1e-9 * (1 + np.linalg.norm(m_full)):
            raise HypothesisFailed("weyl_block_identity", f"block split fails at {lam}")
    return result
