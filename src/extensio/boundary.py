"""Boundary relations and triplets for the adjoint of a symmetric relation.

A boundary relation is a unitary relation from the graph space of a
state space C^n to the graph space of a boundary space C^m, both carrying
the standard indefinite metric.  Its kernel is the symmetric relation S,
its domain is T with closure S* (equality is exact in finite dimension),
and the image of the defect elements is the Weyl family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

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
    TripletMismatch,
    UnequalDefect,
)
from .kreinspace import _pairing_form
from .linrel import (
    TOL,
    LinearRelation,
    RelationParts,
    Subspace,
    Tolerances,
    _checked_inverse,
    _nullspace,
    _off_spectrum,
    _operator,
    _operator_spectrum,
    _orthonormal_columns,
    _polar_factor,
    _rank_of,
    _span,
    _spectral_point,
    as_complex_matrix,
    eigenspace,
    rel_classify,
    rel_matrix,
    rel_parts,
    rel_preimage,
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
    "kernel_of_boundary_map",
    "check_weyl_identities",
    "defect_report",
    "mul_via_kernel",
    "intermediate_extension",
    "check_B123",
    "reduce_multivalued",
]

# Relative residual up to which reduce_multivalued accepts the block split
# M = K + B1 M1 B1* between two Weyl functions it computed itself.
_WEYL_SPLIT_TOL = 1e-9

# The point at which a triplet's gamma field is taken by the nullspace
# route (a von Neumann triplet has it in closed form, gamma(i) = b+);
# every other point is reached from it by propagation.
_MU = 1j


@dataclass(frozen=True)
class BoundaryRelation:
    """A validated unitary relation Gamma and the tolerances it was
    validated under; its kernel S and domain T are read on first use."""

    gamma: LinearRelation
    tol: Tolerances = TOL

    @property
    def state_dim(self) -> int:
        return self.gamma.dim_in // 2

    @property
    def boundary_dim(self) -> int:
        return self.gamma.dim_out // 2

    @cached_property
    def s_rel(self) -> LinearRelation:
        return LinearRelation(self.state_dim, self.state_dim, _triplet_cache(self, self.tol).parts.ker)

    @cached_property
    def t_rel(self) -> LinearRelation:
        return LinearRelation(self.state_dim, self.state_dim, _triplet_cache(self, self.tol).parts.dom)

    @cached_property
    def _derived(self) -> dict[Tolerances, _TripletCache]:
        """The lambda-independent data of this relation, one entry per
        tolerance context, each filled on first use (``_triplet_cache``)."""
        return {}


@dataclass(frozen=True)
class OrdinaryTriplet(BoundaryRelation):
    """Boundary relation that is surjective and single-valued; its two
    output coordinates act as the classical boundary maps."""

    @property
    def base(self) -> OrdinaryTriplet:
        """The triplet itself, for callers that still read ``pi.base``."""
        return self


def green_residual(gamma: LinearRelation) -> float:
    """Frobenius norm of the pairing defect of the graph blocks (``_pairing_form``).

    Vanishing residual says the abstract Green identity holds on the
    whole graph, which is exactly isometry for the indefinite metrics.
    """
    return float(np.linalg.norm(_pairing_form(gamma)))


def validate_boundary_relation(gamma: LinearRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Check the Green identity and maximality.  An isometric Gamma is
    unitary iff its graph has half the dimension of the graph space:
    Gamma^[*] has the complementary dimension."""
    if green_residual(gamma) > tol.angle * max(1, gamma.graph_dim):
        raise NotIsometric("Green identity fails on the graph")
    if 2 * gamma.graph_dim != gamma.dim_in + gamma.dim_out:
        raise NotMaximal("isometric relation admits a proper extension")
    return BoundaryRelation(gamma, tol)


def ordinary_triplet(gamma: LinearRelation | BoundaryRelation, tol: Tolerances = TOL) -> OrdinaryTriplet:
    """The boundary relation as a triplet, when its graph is a surjective
    operator.  Gamma is unitary, so mul Gamma is the J-orthogonal
    complement of ran Gamma and the rank of the output block (unit anchor,
    as in rel_parts) decides both."""
    br = gamma if isinstance(gamma, BoundaryRelation) else validate_boundary_relation(gamma, tol)
    out = br.gamma.out_block
    if _rank_of(out, tol, 1.0) != br.gamma.dim_out:
        raise AssumptionError("ordinary triplet needs a surjective, single-valued boundary relation")
    return OrdinaryTriplet(br.gamma, br.tol)


def von_neumann_triplet(s: LinearRelation, u=None, tol: Tolerances = TOL) -> OrdinaryTriplet:
    """Boundary maps from von Neumann's formula S* = S + N_i + N_{-i}.

    The sum is orthogonal in the graph inner product.  With [X; Y] S's
    graph basis, Y +/- iX has orthonormal columns for symmetric S, and the
    defect spaces N_{+/-i} = ker(S* -/+ i) = ran(S +/- i)^perp have the
    orthonormal bases b+/- = ker((Y +/- iX)*).  An element with defect parts
    b+ c+ and b- c- has Gamma_0 = c+ + U* c- and Gamma_1 = i (c+ - U* c-),
    where U = b-* u b+ holds the isometry u of N_i onto N_{-i}, so Gamma's
    graph has the orthonormal basis [X; Y; 0; 0], [b+; i b+; I; i I] / 2
    and [b-; -i b-; U*; -i U*] / 2, with no adjoint and no span.  The
    default U = -polar(b-* b+) depends on no choice of bases and makes
    A0 = ker Gamma_0 an operator: for S = {0} it is -I, and A0 = 0.  The
    boundary rows [I, U*; iI, -iU*] / 2 of the defect columns have rank
    2d, so Gamma is single-valued and surjective by construction and only
    the Green identity and maximality are checked.  The triplet's cache
    under tol is filled from the construction (``_VonNeumannCache``).
    """
    if not rel_classify(s, tol).symmetric:
        raise AssumptionError("von Neumann construction needs a symmetric relation")
    n = s.dim_in
    x, y = s.in_block, s.out_block
    b_plus = _nullspace((y + 1j * x).conj().T, tol)
    b_minus = _nullspace((y - 1j * x).conj().T, tol)
    d = b_plus.shape[1]
    if b_minus.shape[1] != d:
        raise UnequalDefect(f"defect numbers ({d}, {b_minus.shape[1]}) differ")
    if u is None:
        coord_u = -_polar_factor(b_minus.conj().T @ b_plus) if s.graph_dim else -np.eye(d, dtype=complex)
    else:
        u = as_complex_matrix(u, n, n)
        stray = np.linalg.norm(u @ b_plus - b_minus @ (b_minus.conj().T @ u @ b_plus))
        coord_u = b_minus.conj().T @ u @ b_plus
        if stray > tol.angle * max(1, d) or np.linalg.norm(
            coord_u.conj().T @ coord_u - np.eye(d)
        ) > tol.angle * max(1, d):
            raise NotIsometryU("pairing matrix must map one defect space onto the other")
    eye = np.eye(d, dtype=complex)
    v = coord_u.conj().T
    zeros = np.zeros((2 * d, s.graph_dim), dtype=complex)
    plus = np.concatenate([b_plus, 1j * b_plus, eye, 1j * eye]) / 2
    minus = np.concatenate([b_minus, -1j * b_minus, v, -1j * v]) / 2
    basis = np.concatenate([np.concatenate([x, y, zeros]), plus, minus], axis=1)
    br = validate_boundary_relation(LinearRelation(2 * n, 2 * d, Subspace._trusted(2 * n + 2 * d, basis)), tol)
    trip = OrdinaryTriplet(br.gamma, tol)
    trip._derived[tol] = _VonNeumannCache(trip, tol, b_plus, coord_u)
    return trip


def _defect_coords(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    """Coordinates c on Gamma's graph basis G whose input part G c is a
    defect element (f, lam f): the kernel of G_f' - lam G_f."""
    n = br.state_dim
    g = br.gamma.graph.basis
    return _nullspace(g[n : 2 * n, :] - lam * g[:n, :], tol)


def _nullspace_gamma_and_weyl(br: BoundaryRelation, lam: complex, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Gamma field and Weyl function at lam as matrices for a triplet whose
    first boundary map is a bijection of the defect elements onto C^m:
    with G c their graph columns, gamma = G_f c (G_h c)^{-1} and
    M = G_h' c (G_h c)^{-1}.  One nullspace per point, and one unit-anchored
    rank test of the block G_h c (its columns are unit vectors), which
    raises AssumptionError when the bijection fails."""
    n = br.state_dim
    m = br.boundary_dim
    cols = br.gamma.graph.basis @ _defect_coords(br, lam, tol)
    # a defect space of dimension other than m gives a non-square block
    message = "first boundary map is not a bijection of the defect space onto C^m"
    inv = _checked_inverse(cols[2 * n : 2 * n + m, :], tol, AssumptionError, message)
    return cols[:n, :] @ inv, cols[2 * n + m :, :] @ inv


def _kernel_columns(br: BoundaryRelation, index: int, tol: Tolerances) -> np.ndarray:
    """State rows of G ker(G_h) (index 0) or G ker(G_h') (index 1): they
    span the elements of dom Gamma whose boundary coordinate vanishes."""
    n = br.state_dim
    g = br.gamma.graph.basis
    start = 2 * n + index * br.boundary_dim
    return g[: 2 * n, :] @ _nullspace(g[start : start + br.boundary_dim, :], tol, 1.0)


class _Propagation(NamedTuple):
    """gamma(mu) = mul_part + vecs @ coeffs, split over mul A0 and the
    eigenvectors of A0 (eigenvalues eigs, shifted = eigs - mu), and the
    rows of Gamma_1 acting on the components f and f' of dom Gamma."""

    eigs: np.ndarray
    shifted: np.ndarray
    vecs: np.ndarray
    coeffs: np.ndarray
    mul_part: np.ndarray
    gamma1_f: np.ndarray
    gamma1_fp: np.ndarray


class _TripletCache:
    """The lambda-independent data of a boundary relation under one
    tolerance context, each part built on first use: Gamma's ``parts``
    (``rel_parts``), and for an ordinary triplet the spectral data of
    A0 = ker Gamma_0 (``linrel._operator_spectrum`` on its kernel columns),
    Gamma's input block X with its left inverse X^+ = R^{-1} Q* and the
    orthonormal basis Q of dom Gamma (an element (f, f') of dom Gamma has
    the boundary pair out_block X^+ (f; f')),
    gamma(mu) at ``_MU`` by the nullspace route split over the spectral
    data (which raises AssumptionError unless Gamma_0 maps the defect
    elements onto C^m), and whether ker Gamma_0 and ker Gamma_1 are
    single-valued.  Two slots hold the last parameter pair of the limit tests
    (``pair``) and the last (chi, coupling) of ``coupling.couple``.  A von
    Neumann triplet's cache reads the kernel columns, gamma(mu) and the
    factor of dom Gamma off its construction (``_VonNeumannCache``)."""

    def __init__(self, br: BoundaryRelation, tol: Tolerances):
        self.br = br
        self.tol = tol
        self.pair = None
        self.coupling = None

    @cached_property
    def parts(self) -> RelationParts:
        return rel_parts(self.br.gamma, self.tol)

    def kernel_columns(self, index: int) -> np.ndarray:
        """``_kernel_columns`` of ker Gamma_0 (index 0) or ker Gamma_1."""
        return _kernel_columns(self.br, index, self.tol)

    def gamma_mu(self) -> np.ndarray:
        """gamma(mu) at ``_MU`` by the nullspace route."""
        return _nullspace_gamma_and_weyl(self.br, _MU, self.tol)[0]

    @cached_property
    def spectrum(self):
        n = self.br.state_dim
        cols = self.kernel_columns(0)
        return _operator_spectrum(cols[:n], cols[n:], self.tol)

    @cached_property
    def boundary_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.br.gamma.in_block
        q, r = np.linalg.qr(x)
        return x, np.linalg.solve(r, q.conj().T), q

    @cached_property
    def propagation(self) -> _Propagation:
        br = self.br
        n, m = br.state_dim, br.boundary_dim
        # first, so a triplet it does not apply to builds nothing else
        gamma_mu = self.gamma_mu()
        spec = self.spectrum
        gamma1 = br.gamma.out_block[m:, :] @ self.boundary_factor[1]
        return _Propagation(
            spec.eigs,
            spec.eigs - _MU,
            spec.vecs,
            spec.vecs.conj().T @ gamma_mu,
            spec.mul @ (spec.mul.conj().T @ gamma_mu),
            gamma1[:, :n],
            gamma1[:, n:],
        )

    @cached_property
    def single_valued(self) -> tuple[bool, bool]:
        """mul A = {0} for A = ker Gamma_0 and ker Gamma_1.  The kernel
        columns [X; Y] are the state rows of orthonormal columns G c of
        Gamma's graph, and [X; Y] c = 0 would leave the nonzero boundary
        rows of G c in mul Gamma; so for a single-valued Gamma they have
        full column rank, and mul A = {0} exactly when X does.  For A0
        that is the rank ``spectrum`` already took; for A1 it is one
        unit-anchored rank."""
        spec = self.spectrum
        a1 = self.kernel_columns(1)[: self.br.state_dim]
        return spec.eigs.size == spec.coords.shape[0], _rank_of(a1, self.tol, 1.0) == a1.shape[1]


class _VonNeumannCache(_TripletCache):
    """The cache of a von Neumann triplet under the tolerances it was built
    with, read off the construction where the general route takes rank
    decisions: on Gamma's graph basis [X; Y; 0; 0], [b+; i b+; I; i I] / 2,
    [b-; -i b-; U*; -i U*] / 2 (k, d and d columns),
    - gamma(i) = b+ (and M(i) = iI), for the nullspace, the checked inverse
      and the inverse at ``_MU``;
    - ker Gamma_0 and ker Gamma_1 have the orthonormal coefficients
      blockdiag(I_k, [I; -/+U] / sqrt 2), for two nullspaces of Gamma's
      boundary rows;
    - the columns of Gamma's input block are orthogonal, X = Q D with
      D = diag(1_k, 2^(-1/2) 1_2d), so X^+ = D^-2 X* and Q = X D^-1, for
      the QR and the solve.
    Only ``_operator_spectrum`` of A0 and the rank test of A1 remain."""

    def __init__(self, br: BoundaryRelation, tol: Tolerances, b_plus: np.ndarray, coord_u: np.ndarray):
        super().__init__(br, tol)
        self.b_plus = b_plus
        self.coord_u = coord_u

    def kernel_columns(self, index: int) -> np.ndarray:
        state = self.br.gamma.in_block
        d = self.coord_u.shape[0]
        k = state.shape[1] - 2 * d
        sign = 1 if index else -1
        defect = (state[:, k : k + d] + sign * (state[:, k + d :] @ self.coord_u)) / np.sqrt(2)
        return np.concatenate([state[:, :k], defect], axis=1)

    def gamma_mu(self) -> np.ndarray:
        return self.b_plus

    @cached_property
    def boundary_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.br.gamma.in_block
        d = self.coord_u.shape[0]
        inv_square = np.concatenate([np.ones(x.shape[1] - 2 * d), np.full(2 * d, 2.0)])
        return x, inv_square[:, None] * x.conj().T, x * np.sqrt(inv_square)


def _triplet_cache(br: BoundaryRelation, tol: Tolerances) -> _TripletCache:
    cache = br._derived.get(tol)
    if cache is None:
        cache = br._derived[tol] = _TripletCache(br, tol)
    return cache


def _boundary_map(pi: OrdinaryTriplet, tol: Tolerances) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary pairs of state graph elements under the single-valued map;
    Gamma's input block X has full column rank, so it is factored once per
    triplet (``_TripletCache.boundary_factor``) and each batch of elements
    costs two products and the residual check."""
    x, x_pinv, _ = _triplet_cache(pi, tol).boundary_factor

    def values(columns: np.ndarray) -> np.ndarray:
        coeff = x_pinv @ columns
        if np.linalg.norm(x @ coeff - columns) > tol.angle * (1 + np.linalg.norm(columns)):
            raise TripletMismatch("elements do not lie in the domain of the triplet")
        return pi.gamma.out_block @ coeff

    return values


def _gamma_and_weyl_grid(br: BoundaryRelation, lams, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma field and Weyl function of an ordinary triplet at each point of
    lams, stacked (k, n, m) and (k, m, m), from its cached data:
    gamma(lam) = Q Q* gamma(mu) + E diag((t - mu)/(t - lam)) E* gamma(mu)
    and M(lam) = Gamma_1 (gamma(lam), lam gamma(lam)), with their rows t - lam
    of ``_off_spectrum``.  The mul term is built from Q, so it is exactly
    zero when mul A0 = {0}; the forms (I - E E*) gamma(mu) and
    gamma(mu) + (lam - mu)(A0 - lam)^{-1} gamma(mu) leave a rounding-level
    residue that lam scales up in M."""
    lams = np.array([_spectral_point(lam, "nonreal") for lam in lams])
    prop = _triplet_cache(br, tol).propagation
    diffs = _off_spectrum(prop.eigs, lams, br.state_dim, tol)
    gam = prop.mul_part + prop.vecs @ ((prop.shifted / diffs)[:, :, None] * prop.coeffs)
    weyl = prop.gamma1_f @ gam + lams[:, None, None] * (prop.gamma1_fp @ gam)
    return gam, weyl, diffs


def _a0_resolvent(br: BoundaryRelation, lam: complex, tol: Tolerances) -> np.ndarray:
    """Resolvent of A0 = ker Gamma_0 from its cached spectral data:
    E diag(1/(t - lam)) E*, zero on mul A0."""
    spec = _triplet_cache(br, tol).spectrum
    diffs = _off_spectrum(spec.eigs, np.array([lam], dtype=complex), br.state_dim, tol)[0]
    return (spec.vecs / diffs) @ spec.vecs.conj().T


def weyl_eval(br: BoundaryRelation, lam: complex, tol: Tolerances = TOL) -> LinearRelation:
    """Family value: image of the defect elements of dom Gamma; for an
    ordinary triplet the graph of M(lam) (``_gamma_and_weyl_grid``)."""
    lam = _spectral_point(lam, "nonreal")
    m = br.boundary_dim
    if isinstance(br, OrdinaryTriplet):
        return _operator(_gamma_and_weyl_grid(br, [lam], tol)[1][0])
    image = br.gamma.out_block @ _defect_coords(br, lam, tol)
    # Rows of the unit columns G c: anchor the rank cutoff at scale one.
    return LinearRelation(m, m, _span(image, tol, 1.0))


def gamma_field(br: BoundaryRelation, lam: complex, tol: Tolerances = TOL) -> LinearRelation:
    """Relation sending a first boundary coordinate to its defect vector."""
    lam = _spectral_point(lam, "nonreal")
    n = br.state_dim
    m = br.boundary_dim
    if isinstance(br, OrdinaryTriplet):
        return _operator(_gamma_and_weyl_grid(br, [lam], tol)[0][0])
    cols = br.gamma.graph.basis @ _defect_coords(br, lam, tol)
    return LinearRelation(m, n, _span(np.concatenate([cols[2 * n : 2 * n + m, :], cols[:n, :]]), tol))


def kernel_of_boundary_map(br: BoundaryRelation, index: int, tol: Tolerances = TOL) -> LinearRelation:
    """Extension determined by a vanishing boundary coordinate."""
    if index not in (0, 1):
        raise ArgumentError("boundary map index must be 0 or 1")
    n = br.state_dim
    # Rows of the unit columns G c: anchor the rank cutoff at scale one.
    return LinearRelation(n, n, _span(_kernel_columns(br, index, tol), tol, 1.0))


@dataclass(frozen=True)
class WeylIdentityReport:
    gamma_residual: float
    weyl_residual: float


def check_weyl_identities(trip: OrdinaryTriplet, lam: complex, mu: complex, tol: Tolerances = TOL) -> WeylIdentityReport:
    """Residuals of the gamma-field propagation identity and the two-point
    family difference identity, both through the resolvent of ker of the
    first boundary map.  Two routes meet: gamma and M at lam and at mu come
    from one nullspace at each point, and the propagated right-hand sides
    from the spectral decomposition of A0."""
    lam = _spectral_point(lam, "nonreal")
    mu = _spectral_point(mu, "nonreal")
    g_lam, m_lam = _nullspace_gamma_and_weyl(trip, lam, tol)
    g_mu, m_mu = _nullspace_gamma_and_weyl(trip, mu, tol)
    res = _a0_resolvent(trip, lam, tol)
    prop = (np.eye(trip.state_dim, dtype=complex) + (lam - mu) * res) @ g_mu
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


def defect_report(br: BoundaryRelation, tol: Tolerances = TOL) -> DefectReport:
    """Defect numbers of S and the codimension they leave in the boundary
    space, which equals the multivalued part of Gamma."""
    m = br.boundary_dim
    n_plus = eigenspace(br.t_rel, 1j, tol)[0].dim
    n_minus = eigenspace(br.t_rel, -1j, tol)[0].dim
    mul_dim = _triplet_cache(br, tol).parts.mul.dim
    identity = n_plus == n_minus and m - n_plus == mul_dim
    return DefectReport(n_plus, n_minus, mul_dim, identity)


def mul_via_kernel(br: BoundaryRelation, p: NevanlinnaPairEval, lam: complex, tol: Tolerances = TOL) -> bool:
    """Agreement between dim mul Gamma and the kernel dimension of the
    pair kernel at one point."""
    kern = nev_kernel(p, lam, lam)
    dim_ker = p.dim - _rank_of(kern, tol)
    return _triplet_cache(br, tol).parts.mul.dim == dim_ker


def intermediate_extension(br: BoundaryRelation, theta: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Extension of S: elements of dom Gamma whose boundary pair lies in
    theta.  Symmetry type of the result follows that of theta."""
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


def check_B123(br: BoundaryRelation, tol: Tolerances = TOL) -> B123Report:
    """(B1) the Green residual; one SVD of the first boundary rows H0 of
    Gamma's graph basis [F; H0; H1] gives ker H0 (``_kernel_columns``), so
    (B2) rank H0 = graph_dim - dim ker H0 = m, and (B3) is A0 = ker Gamma_0
    = span F ker(H0) selfadjoint.  H0 is a block of unit columns, so its
    rank is anchored at unit scale: rounding-level first boundary values
    are none, not a surjective block."""
    n, m = br.state_dim, br.boundary_dim
    b1 = green_residual(br.gamma) <= tol.angle * max(1, br.gamma.graph_dim)
    cols = _kernel_columns(br, 0, tol)
    a0 = LinearRelation(n, n, _span(cols, tol, 1.0))
    return B123Report(b1, br.gamma.graph_dim - cols.shape[1] == m, rel_classify(a0, tol).selfadjoint)


def reduce_multivalued(br: BoundaryRelation, k=None, tol: Tolerances = TOL) -> BoundaryRelation:
    """Strip the multivalued part of Gamma by passing to the orthogonal
    complement of its first components.

    The multivalued part is the graph of a bounded symmetric operator;
    k must be a Hermitian matrix extending it (default: extend by zero on
    the complement).  The family value of the original splits into k plus
    the embedded family value of the reduction; this is verified at two
    sample points.
    """
    if not check_B123(br, tol).all_hold:
        raise NotB123("reduction needs the Green identity, surjectivity, and a selfadjoint kernel")
    n, m = br.state_dim, br.boundary_dim
    mul = _triplet_cache(br, tol).parts.mul
    p_part, q_part = mul.basis[:m, :], mul.basis[m:, :]
    b0 = _orthonormal_columns(p_part, tol)
    if b0.shape[1] != mul.dim:
        raise NotB123("multivalued part is not an operator graph")
    if k is None:
        # with mul Gamma = {0} every block below is empty and k is zero
        k0_cols = q_part @ np.linalg.lstsq(p_part, b0, rcond=None)[0]
        k = k0_cols @ b0.conj().T + (b0 @ k0_cols.conj().T) @ (np.eye(m) - b0 @ b0.conj().T)
    k = as_complex_matrix(k, m, m)
    if np.linalg.norm(k - k.conj().T) > tol.angle * (1 + np.linalg.norm(k)):
        raise KNotExtending("parameter matrix must be Hermitian")
    if mul.dim and np.linalg.norm(k @ p_part - q_part) > tol.angle * (1 + np.linalg.norm(k)):
        raise KNotExtending("parameter matrix must extend the multivalued-part operator")
    b1_basis = _orthonormal_columns(np.eye(m, dtype=complex) - b0 @ b0.conj().T, tol)
    g = br.gamma.graph.basis
    h, hp = g[2 * n : 2 * n + m, :], g[2 * n + m :, :]
    new_out = np.concatenate([b1_basis.conj().T @ h, b1_basis.conj().T @ (hp - k @ h)])
    reduced = LinearRelation(2 * n, 2 * b1_basis.shape[1], _span(np.concatenate([g[: 2 * n, :], new_out]), tol))
    result = validate_boundary_relation(reduced, tol)
    for lam in (1j, 2j):
        m_full = rel_matrix(weyl_eval(br, lam, tol), tol)
        m_small = rel_matrix(weyl_eval(result, lam, tol), tol)
        assembled = k + b1_basis @ m_small @ b1_basis.conj().T
        if np.linalg.norm(m_full - assembled) > _WEYL_SPLIT_TOL * (1 + np.linalg.norm(m_full)):
            raise HypothesisFailed("weyl_block_identity", f"block split fails at {lam}")
    return result
