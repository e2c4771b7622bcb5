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
from functools import cached_property

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
    _checked_inverse,
    _meet,
    _nullspace,
    _off_spectrum,
    _operator_spectrum,
    _q_factor,
    _span,
    _Spectrum,
    _spectral_point,
    as_complex_matrix,
    is_simple,
    rel_classify,
    subspace_coords,
)
from .boundary import (
    BoundaryRelation,
    OrdinaryTriplet,
    _boundary_map,
    _gamma_and_weyl_grid,
    _triplet_cache,
    ordinary_triplet,
    weyl_eval,
)
from .nevanlinna import FamilyEval
from .transforms import SpaceSplit, TransformResult, block_compress

__all__ = [
    "CouplingScene",
    "GeneralizedResolventSample",
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

# Least-squares residual, relative to the data, above which straus_solve
# finds no solution of the boundary value problem.
_STRAUS_RESIDUAL_TOL = 1e-8

# Largest bound on cond W(lam) at which tau_of_extension takes its kernel by
# an LU solve of the pencil W: the span of W^{-1} [I; 0] stays within about
# 1e-16 times the bound of the nullspace's (1e-13 at the limit); beyond it
# the kernel is a nullspace.
_PENCIL_COND_LIMIT = 1e3


@dataclass(frozen=True)
class CouplingScene:
    """Selfadjoint relation on C^{h1+h2} with its first restriction S1 and
    the tolerances it was split under; S2, the compressions T1 and T2 and
    minimality (S2 is simple) are read on first use under them, and the
    spectral decomposition of A~ on first use under each tolerance."""

    h1_dim: int
    h2_dim: int
    a_tilde: LinearRelation
    s1: LinearRelation
    tol: Tolerances = TOL

    @cached_property
    def s2(self) -> LinearRelation:
        f1, f2, f1p, f2p = _row_ranges(self.h1_dim, self.h2_dim)
        return _restriction(self.a_tilde, f2 + f2p, f1 + f1p, self.tol)

    @cached_property
    def t1(self) -> LinearRelation:
        f1, _, f1p, _ = _row_ranges(self.h1_dim, self.h2_dim)
        return LinearRelation(self.h1_dim, self.h1_dim, subspace_coords(self.a_tilde.graph, f1 + f1p, self.tol))

    @cached_property
    def t2(self) -> LinearRelation:
        _, f2, _, f2p = _row_ranges(self.h1_dim, self.h2_dim)
        return LinearRelation(self.h2_dim, self.h2_dim, subspace_coords(self.a_tilde.graph, f2 + f2p, self.tol))

    @cached_property
    def minimal(self) -> bool:
        return is_simple(self.s2, tol=self.tol)

    @cached_property
    def _spectra(self) -> dict[Tolerances, _Spectrum]:
        """The spectral decomposition of A~, one entry per tolerance
        context, each taken on first use (``generalized_resolvent``)."""
        return {}


@dataclass(frozen=True)
class GeneralizedResolventSample:
    """Compression of the resolvent of the coupling to the first space."""

    lam: complex
    compressed: np.ndarray


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
    return CouplingScene(h1_dim, h2_dim, a_tilde, _restriction(a_tilde, f1 + f1p, f2 + f2p, tol), tol)


def _restriction(a_tilde: LinearRelation, keep: list[int], kill: list[int], tol: Tolerances) -> LinearRelation:
    """Corner of a_tilde on the rows keep: G ker(G_kill) has orthonormal columns
    and rounding-level rows kill, so its rows keep are an orthonormal basis."""
    graph = a_tilde.graph
    inside = graph.basis @ _nullspace(graph.basis[kill, :], tol, 1.0)
    dim = len(keep) // 2
    return LinearRelation(dim, dim, Subspace._trusted(2 * dim, inside[keep, :]))


def _scene_boundary_values(scene: CouplingScene, pi: OrdinaryTriplet, tol: Tolerances) -> np.ndarray:
    """Twisted boundary values (h, -h') of the rows (f1, f1') of the
    coupling's graph basis under the triplet's boundary map, whose residual
    check says that they lie in dom Gamma = S*.  These rows span P1 A~,
    which is S1* for the selfadjoint A~, so the check says S1* is in S*,
    that is S in S1; with the dimension n - m of S checked first, S = S1,
    with no SVD.  Raises TripletMismatch."""
    n, m = pi.state_dim, pi.boundary_dim
    if scene.s1.dim_in != n or scene.s1.graph_dim != n - m:
        raise TripletMismatch("triplet kernel differs from the first restriction")
    f1, _, f1p, _ = _row_ranges(scene.h1_dim, scene.h2_dim)
    graph = scene.a_tilde.graph.basis
    bounds = _boundary_map(pi, tol)(np.concatenate([graph[f1, :], graph[f1p, :]]))
    return np.concatenate([bounds[:m, :], -bounds[m:, :]])


def induced_chi(scene: CouplingScene, pi: OrdinaryTriplet, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation for the second restriction carrying the twisted
    boundary values of the first components of the coupling (unitary by
    the coupling method: ``_trusted``)."""
    twisted = _scene_boundary_values(scene, pi, tol)
    _, f2, _, f2p = _row_ranges(scene.h1_dim, scene.h2_dim)
    basis = scene.a_tilde.graph.basis
    gens = np.concatenate([basis[f2, :], basis[f2p, :], twisted])
    chi = LinearRelation(2 * scene.h2_dim, 2 * pi.boundary_dim, _span(gens, tol))
    return BoundaryRelation._trusted(chi, tol)


def canonical_chi(theta: LinearRelation, tol: Tolerances = TOL) -> BoundaryRelation:
    """Boundary relation over the zero-dimensional state space whose
    constant parameter family is the sign-twisted theta.  Its pairing form
    is twice the imaginary Gram form of theta that ``rel_classify`` has
    just bounded, so the Green identity holds by that check (``_trusted``)."""
    if theta.dim_in != theta.dim_out:
        raise ArgumentError("parameter relation must be square")
    if not rel_classify(theta, tol).selfadjoint:
        raise AssumptionError("canonical couplings need a selfadjoint parameter")
    basis = np.concatenate([theta.in_block, -theta.out_block])
    return BoundaryRelation._trusted(LinearRelation(0, len(basis), Subspace._trusted(len(basis), basis)), tol)


def couple(pi: BoundaryRelation, chi: BoundaryRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Selfadjoint relation on the sum space built from matching boundary
    values: the pair of the first factor equals the twisted pair of chi.

    The boundary rows of Gamma's graph basis meet the twisted boundary
    rows (h, -h') of chi's in G1 u = G2 v, and the coupling is spanned by
    the state rows of [G1 u; G2 v], reordered from (f1, f1', f2, f2') to
    ((f1, f2), (f1', f2')).  The Green identities of pi and chi make it
    symmetric, so it is selfadjoint iff its graph dimension is n1 + n2:
    that count, not a classification, is checked (``AssumptionError``).
    pi's cache under tol keeps the last coupling,
    read-only, with its chi (matched by identity); a raising call stores none.
    """
    if pi.boundary_dim != chi.boundary_dim:
        raise DimMismatch("boundary spaces of the factors differ")
    cache = _triplet_cache(pi, tol)
    if cache.coupling is not None and cache.coupling[0] is chi:
        return cache.coupling[1]
    n1, n2, m = pi.state_dim, chi.state_dim, pi.boundary_dim
    g1, g2 = pi.gamma.graph.basis, chi.gamma.graph.basis
    twisted = np.concatenate([g2[2 * n2 : 2 * n2 + m, :], -g2[2 * n2 + m :, :]])
    u, v = _meet(g1[2 * n1 :, :], twisted, tol)
    gens = np.concatenate([g1[:n1, :] @ u, g2[:n2, :] @ v, g1[n1 : 2 * n1, :] @ u, g2[n2 : 2 * n2, :] @ v])
    result = LinearRelation(n1 + n2, n1 + n2, _span(gens, tol, 1.0))
    if result.graph_dim != n1 + n2:
        raise AssumptionError("coupling did not produce a selfadjoint relation")
    result.graph.basis.flags.writeable = False
    cache.coupling = (chi, result)
    return result


def tau_of_extension(scene: CouplingScene, pi: OrdinaryTriplet, tol: Tolerances = TOL) -> FamilyEval:
    """Parameter family of the coupling: twisted boundary values of the
    elements G c whose second component solves the eigenvalue equation,
    c in ker(G_f2' - lam G_f2).  They are those of the whole graph basis G
    times c, so the boundary map and its checks run once, here.

    Off the real axis that kernel needs no rank decision.  A~ is
    selfadjoint, so V+/- = G_f' +/- i G_f are unitary, the pencil
    W(lam) = G_f' - lam G_f = ((1 + i lam) V+ + (1 - i lam) V-) / 2 has
    norm at most s / 2 and sigma_min(W) >= 2 |Im lam| / s, with
    s = |1 + i lam| + |1 - i lam|, and the h1 columns c = W^{-1} [I; 0]
    span the kernel: one LU solve.  Their span is as accurate as W is well
    conditioned, so the LU solve is taken only where the bound
    cond(W) <= s^2 / (4 |Im lam|) is at most ``_PENCIL_COND_LIMIT``.  Near
    the real axis, where lam may be close to an eigenvalue of A~ while tau
    itself stays smooth, and on it, where straus_solve evaluates tau, the
    kernel is a nullspace and the value's one rank decision its span.  The
    LU branch takes none: elements with f1' - lam f1 in ran(S1 - lam) lie in
    S1 = ker Gamma, so it solves for [Q_c; 0], Q_c completing ran(S1 - lam)
    in C^{h1}, and one QR spans the m independent twisted values."""
    twisted = _scene_boundary_values(scene, pi, tol)
    m = pi.boundary_dim
    h1, n = scene.h1_dim, scene.h1_dim + scene.h2_dim
    basis = scene.a_tilde.graph.basis
    g_f, g_fp = basis[:n, :], basis[n:, :]
    x1, y1 = scene.s1.in_block, scene.s1.out_block
    first = np.eye(n, h1, dtype=complex)

    def eval_at(lam: complex) -> LinearRelation:
        lam = _spectral_point(lam)
        spread = abs(1 + 1j * lam) + abs(1 - 1j * lam)
        if spread * spread > 4 * _PENCIL_COND_LIMIT * abs(lam.imag):
            coeff = _nullspace(g_fp[h1:, :] - lam * g_f[h1:, :], tol)
            return LinearRelation(m, m, _span(twisted @ coeff, tol))
        rhs = first @ _q_factor(y1 - lam * x1, complete=True)[:, x1.shape[1] :] if x1.shape[1] else first
        try:
            coeff = np.linalg.solve(g_fp - lam * g_f, rhs)
        except np.linalg.LinAlgError:
            # exactly singular: lam is an eigenvalue, so A~ is not selfadjoint
            raise SingularAtLambda(lam, "graph pencil of the coupling is singular") from None
        return LinearRelation(m, m, Subspace._trusted(2 * m, _q_factor(twisted @ coeff)))

    return FamilyEval(m, eval_at)


def generalized_resolvent(scene: CouplingScene, lam: complex, tol: Tolerances = TOL) -> GeneralizedResolventSample:
    """Corner of the resolvent of the coupling on the first space,
    E1 diag(1/(t - lam)) E1*, with E1 the first-space rows of the
    eigenvectors of A~'s operator part: the scene keeps one spectral
    decomposition of A~ per tolerance context (``linrel._operator_spectrum``),
    and the resolvent vanishes on mul A~.  Any finite lam off the spectrum;
    ``_off_spectrum`` raises SingularAtLambda on it."""
    lam = _spectral_point(lam)
    spec = scene._spectra.get(tol)
    if spec is None:
        spec = scene._spectra[tol] = _operator_spectrum(scene.a_tilde.in_block, scene.a_tilde.out_block, tol)
    diffs = _off_spectrum(spec.eigs, np.array([lam]), scene.a_tilde.dim_in, tol)[0]
    e1 = spec.vecs[: scene.h1_dim]
    return GeneralizedResolventSample(lam, (e1 / diffs) @ e1.conj().T)


def _family_inverse(
    value: LinearRelation, m_mat: np.ndarray, lam: complex, tol: Tolerances, error: type[SingularAtLambda]
) -> tuple[np.ndarray, np.ndarray]:
    """phi omega and psi omega, omega = (psi + M phi)^{-1}, of a family value
    with graph basis [phi; psi] at lam.  The value must have graph
    dimension m and psi + M phi full rank under the unit-anchored cutoff
    (``linrel._checked_inverse``); either failure raises error at lam."""
    if value.graph_dim != m_mat.shape[0]:
        raise error(lam, "family value is not maximal")
    phi, psi = value.in_block, value.out_block
    omega = _checked_inverse(psi + m_mat @ phi, tol, error, lam, "pair combination is not invertible")
    return phi @ omega, psi @ omega


def krein_rhs(pi: BoundaryRelation, tau: FamilyEval, lam: complex, tol: Tolerances = TOL) -> np.ndarray:
    """Resolvent formula route: resolvent of the distinguished extension
    corrected through the inverse of the family sum.

    With [phi; psi] a graph basis of tau(lam), the inverse of M + tau is
    phi (psi + M phi)^{-1}; every ingredient is read off Gamma's graph
    basis as a matrix: gamma and M come from the triplet's one spectral
    decomposition of A0, in one pass at [lam, conj lam] with no SVD
    (``boundary._gamma_and_weyl_grid``), whose rows t - lam at lam give
    A0's resolvent E diag(1/(t - lam)) E*.  A bare boundary relation must
    pass ``ordinary_triplet``; its own cache serves every call."""
    lam = complex(lam)
    if not isinstance(pi, OrdinaryTriplet):
        ordinary_triplet(pi, tol)
    m = pi.boundary_dim
    gam, weyl, diffs = _gamma_and_weyl_grid(pi, [lam, lam.conjugate()], tol)
    vecs = _triplet_cache(pi, tol).spectrum.vecs
    value = tau.eval(lam)
    if value.dim_in != m or value.dim_out != m:
        raise DimMismatch("family value does not act in the boundary space")
    upper = _family_inverse(value, weyl[0], lam, tol, RelationSumSingular)[0]
    return (vecs / diffs[0]) @ vecs.conj().T - gam[0] @ upper @ gam[1].conj().T


def straus_solve(scene: CouplingScene, pi: OrdinaryTriplet, h, lam: complex, tol: Tolerances = TOL) -> np.ndarray:
    """Solve the boundary value problem for the compressed resolvent: an
    adjoint-domain element whose defect mismatch is h and whose twisted
    boundary pair lies in the parameter family at lam.

    pi is single-valued, so the state rows F of its graph basis have full
    column rank and span dom Gamma: the triplet's cached factor F = Q R
    (``_TripletCache.boundary_factor``) gives the orthonormal basis Q of
    dom Gamma, whose boundary values the triplet's boundary map gives."""
    lam = _spectral_point(lam)
    h1 = scene.h1_dim
    rhs = as_complex_matrix(np.reshape(h, (1, -1)))[0]
    if rhs.size != h1:
        raise DimMismatch("right-hand side does not live in the first space")
    tau = tau_of_extension(scene, pi, tol)
    v_graph = tau.eval(lam).graph
    t_basis = _triplet_cache(pi, tol).boundary_factor[2]
    k = t_basis.shape[1]
    top = t_basis[:h1, :]
    bot = t_basis[h1:, :]
    bounds = _boundary_map(pi, tol)(t_basis)
    m = pi.boundary_dim
    twisted = np.concatenate([bounds[:m, :], -bounds[m:, :]])
    proj = v_graph.projector()
    outside = (np.eye(2 * m, dtype=complex) - proj) @ twisted
    system = np.concatenate([bot - lam * top, outside])
    target = np.concatenate([rhs, np.zeros(2 * m, dtype=complex)])
    if k == 0:
        if np.linalg.norm(target) > tol.angle:
            raise NoSolution("empty parameter space cannot match the data")
        return np.zeros(h1, dtype=complex)
    coeff, *_ = np.linalg.lstsq(system, target, rcond=None)
    if np.linalg.norm(system @ coeff - target) > _STRAUS_RESIDUAL_TOL * (1 + np.linalg.norm(rhs)):
        raise NoSolution(f"no adjoint-domain solution at lambda={lam}")
    null = _nullspace(system, tol)
    if null.size and np.linalg.norm(top @ null) > tol.angle:
        raise NonUnique(f"solution not unique at lambda={lam}")
    return top @ coeff


def _double_weyl_blocks(m_mat: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The block family [[-phi omega, I - phi omega M], [psi omega, psi omega M]]
    of the coupling from M, upper = phi omega and lower = psi omega, at one
    point or for a stack of points."""
    eye = np.eye(m_mat.shape[-1], dtype=complex)
    top = np.concatenate([-upper, eye - upper @ m_mat], axis=-1)
    bottom = np.concatenate([lower, lower @ m_mat], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def double_weyl(pi: BoundaryRelation, chi: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """Boundary relation for the direct sum of the adjoint domains whose
    Weyl family is the two-by-two block resolvent family of the coupling.

    pi is single-valued, so the state rows F of its graph basis span
    dom Gamma and the boundary rows (G0; G1) are their boundary values:
    the first summand's columns are read off that basis with no parts or
    boundary map.  A bare boundary relation must pass ``ordinary_triplet``;
    its own cache serves the Weyl function.  Unitary by the coupling
    method (``_trusted``).  On coefficients (a, b) of the orthonormal bases
    of pi and chi (boundary rows G0, G1 and H, H') the double relation's
    boundary rows are x + y and y for (x, y) = (G1 a, H' b) and (H b, -G0 a),
    and |x + y|^2 + |y|^2 >= (3 - sqrt 5)/2 (|x|^2 + |y|^2), so its columns
    have sigma_min >= ((3 - sqrt 5)/2)^(1/2) ~ 0.618: one QR spans them."""
    if pi.boundary_dim != chi.boundary_dim:
        raise DimMismatch("boundary spaces of the factors differ")
    if not isinstance(pi, OrdinaryTriplet):
        ordinary_triplet(pi, tol)
    n1 = pi.state_dim
    n2 = chi.state_dim
    m = pi.boundary_dim
    g_basis = pi.gamma.graph.basis
    g0 = g_basis[2 * n1 : 2 * n1 + m, :]
    g1 = g_basis[2 * n1 + m :, :]
    c_basis = chi.gamma.graph.basis
    h = c_basis[2 * n2 : 2 * n2 + m, :]
    hp = c_basis[2 * n2 + m :, :]
    # the summands' columns on the rows (f1, f2, f1', f2') and the 4m boundary rows
    z1, z2 = np.zeros((n2, g_basis.shape[1])), np.zeros((n1, c_basis.shape[1]))
    cols_first = np.concatenate([g_basis[:n1, :], z1, g_basis[n1 : 2 * n1, :], z1, g1, -g0, -g0, np.zeros_like(g0)])
    cols_second = np.concatenate([z2, c_basis[:n2, :], z2, c_basis[n2 : 2 * n2, :], hp, h, np.zeros_like(h), hp])
    basis = _q_factor(np.concatenate([cols_first, cols_second], axis=1))
    gamma = LinearRelation(2 * (n1 + n2), 4 * m, Subspace._trusted(len(basis), basis))
    boundary = BoundaryRelation._trusted(gamma, tol)

    def weyl_fn(lam: complex) -> np.ndarray:
        m_mat = _gamma_and_weyl_grid(pi, [lam], tol)[1][0]
        return _double_weyl_blocks(m_mat, *_family_inverse(weyl_eval(chi, lam, tol), m_mat, lam, tol, Omega0Singular))

    return TransformResult(boundary, weyl_fn)


def intermediate_h1(pi: OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """First intermediate extension: compression of the double relation to
    the leading boundary block."""
    m = pi.boundary_dim
    dw = double_weyl(pi, chi, tol)
    res = block_compress(dw.boundary, SpaceSplit(m, m), 1, tol)
    return TransformResult(res.boundary, lambda lam: dw.weyl_fn(lam)[:m, :m])


def intermediate_h2(pi: OrdinaryTriplet, chi: BoundaryRelation, tol: Tolerances = TOL) -> TransformResult:
    """Second intermediate extension: compression of the double relation
    to the trailing boundary block."""
    m = pi.boundary_dim
    dw = double_weyl(pi, chi, tol)
    res = block_compress(dw.boundary, SpaceSplit(m, m), 2, tol)
    return TransformResult(res.boundary, lambda lam: dw.weyl_fn(lam)[m:, m:])
