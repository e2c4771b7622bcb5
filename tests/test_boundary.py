"""Boundary relations, triplets and Weyl families."""

import dataclasses
import itertools

import numpy as np
import pytest

import extensio as ex
from extensio import boundary, linrel
from extensio.admissibility import DEFAULT_GRID
from extensio.boundary import _defect_coords, _kernel_columns, _nullspace_gamma_and_weyl, _triplet_cache
from extensio.linrel import _rank

RESID = 1e-9


def test_identity_triplet_values():
    pi = ex.fix_b_triplet()
    assert pi.state_dim == 1 and pi.boundary_dim == 1
    assert ex.green_residual(pi.gamma) < 1e-12
    for lam in (1j, 2j, 1 + 1j, -1j):
        m = ex.rel_matrix(ex.weyl_eval(pi, lam))
        assert abs(m[0, 0] - lam) < RESID
    with pytest.raises(ex.RealAxis):
        ex.weyl_eval(pi, 0.5)


def test_validate_rejects_scaled_graph():
    scaled = ex.relation_from_generators(
        2, 2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 2.0]], dtype=complex)
    )
    with pytest.raises(ex.AssumptionError):
        ex.validate_boundary_relation(scaled)


def test_validate_rejects_isometric_graph_that_is_not_maximal():
    gamma = ex.von_neumann_triplet(ex.fix_a_relation()).gamma
    # a proper subrelation of a unitary relation is isometric, not unitary
    part = ex.LinearRelation(gamma.dim_in, gamma.dim_out, ex.Subspace(gamma.graph.ambient_dim, gamma.graph.basis[:, 1:]))
    assert ex.green_residual(part) < 1e-12
    with pytest.raises(ex.NotMaximal):
        ex.validate_boundary_relation(part)


def test_von_neumann_triplet_properties():
    rng = np.random.default_rng(11)
    for n, defect in ((3, 1), (4, 2), (6, 3)):
        s = ex.random_symmetric_restriction(rng, n, defect)
        pi = ex.von_neumann_triplet(s)
        assert pi.boundary_dim == defect
        assert ex.green_residual(pi.gamma) < RESID
        m_i = ex.rel_matrix(ex.weyl_eval(pi, 1j))
        assert np.linalg.norm(m_i - 1j * np.eye(defect)) < RESID
        m = ex.rel_matrix(ex.weyl_eval(pi, 1 + 2j))
        mc = ex.rel_matrix(ex.weyl_eval(pi, 1 - 2j))
        assert np.linalg.norm(mc - m.conj().T) < RESID
        imag = (m - m.conj().T) / 2j
        assert np.linalg.eigvalsh(imag).min() > -RESID


def test_von_neumann_triplet_rejects_nonsymmetric():
    rng = np.random.default_rng(12)
    generic = ex.relation_from_matrix(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    )
    with pytest.raises(ex.AssumptionError):
        ex.von_neumann_triplet(generic)


def test_gamma_field_reproduces_weyl():
    rng = np.random.default_rng(13)
    s = ex.random_symmetric_restriction(rng, 4, 2)
    pi = ex.von_neumann_triplet(s)
    lam = 2j
    gam = ex.rel_matrix(ex.gamma_field(pi, lam))
    # first boundary value of the field section is the identity
    m = ex.rel_matrix(ex.weyl_eval(pi, lam))
    section = np.vstack([gam, lam * gam, np.eye(2), m])
    assert ex.is_subspace(ex.subspace_from_columns(section), pi.gamma.graph)
    assert gam.shape == (4, 2)


def test_weyl_identities_and_defects():
    rng = np.random.default_rng(14)
    s = ex.random_symmetric_restriction(rng, 5, 2)
    pi = ex.von_neumann_triplet(s)
    rep = ex.check_weyl_identities(pi, 1 + 2j, 2j)
    assert rep.gamma_residual < RESID
    assert rep.weyl_residual < 1e-8
    # A0 of fix_b is {0} x C, purely multivalued; at 1e8 i the right-hand
    # side (lam - conj(mu)) gamma(mu)* gamma(lam) carries rounding of eps |lam|
    for trip in (pi, ex.fix_b_triplet()):
        for lam in (1 + 2j, 1e8j):
            rep = ex.check_weyl_identities(trip, lam, 2j)
            assert rep.gamma_residual < RESID
            assert rep.weyl_residual < 1e-8 + 1e-14 * abs(lam + 2j)
    dr = ex.defect_report(pi)
    assert dr.n_plus == dr.n_minus == 2
    assert dr.identity_holds


def test_kernels_are_canonical_extensions():
    pi = ex.fix_b_triplet()
    a0 = ex.kernel_of_boundary_map(pi, 0)
    a1 = ex.kernel_of_boundary_map(pi, 1)
    # ker of the first map is the purely multivalued relation, ker of the
    # second is the zero operator
    assert ex.rel_parts(a0).mul.dim == 1 and ex.rel_parts(a0).dom.dim == 0
    assert ex.rel_parts(a1).mul.dim == 0 and ex.rel_parts(a1).ker.dim == 1
    assert ex.rel_classify(a0).selfadjoint
    assert ex.rel_classify(a1).selfadjoint
    # the Weyl pair of the triplet has a nondegenerate kernel at i, which
    # matches the single-valuedness of this gamma
    pair = ex.pair_from_matrix_function(1, lambda lam: np.array([[lam]]))
    assert ex.mul_via_kernel(pi, pair, 2j)


def test_intermediate_extension_sandwich():
    rng = np.random.default_rng(15)
    s = ex.random_symmetric_restriction(rng, 4, 2)
    pi = ex.von_neumann_triplet(s)
    theta = ex.random_selfadjoint_relation(rng, 2)
    ext = ex.intermediate_extension(pi, theta)
    assert ex.rel_classify(ext).selfadjoint
    assert ex.is_subrelation(pi.s_rel, ext)
    assert ex.is_subrelation(ext, ex.rel_adjoint(pi.s_rel))


def test_check_b123_identity_triplet():
    rep = ex.check_B123(ex.fix_b_triplet())
    assert rep.b1 and rep.b2 and rep.b3


def test_reduce_multivalued():
    # a triplet over a relation with a multivalued part reduces to an
    # operator part triplet on the orthogonal complement
    rng = np.random.default_rng(16)
    s = ex.random_symmetric_restriction(rng, 3, 1)
    pi = ex.von_neumann_triplet(s)
    reduced = ex.reduce_multivalued(pi)
    assert ex.green_residual(reduced.gamma) < RESID


def _reference_b123(br, tol=ex.TOL):
    # former route: B2 from a max-anchored rank of the first rows of an
    # orthonormal basis of ran Gamma, B3 from the relation ker Gamma_0
    m = br.boundary_dim
    b1 = ex.green_residual(br.gamma) <= tol.angle * max(1, br.gamma.graph_dim)
    ran = ex.rel_parts(br.gamma, tol).ran
    b2 = linrel._orthonormal_columns(ran.basis[:m, :], tol).shape[1] == m
    b3 = ex.rel_classify(ex.kernel_of_boundary_map(br, 0, tol), tol).selfadjoint
    return b1, b2, b3


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))[0]


def _b2_case(seed, cos_sin=(0.0, 1.0), scale=1.0):
    # Gamma is the inverse main transform of the selfadjoint relation
    # {(x, Hx + v) : x perp V, v in V} on C^(n+m), V spanned by
    # cos(theta) a_j + sin(theta) b_j with orthonormal a_j in the state and
    # b_j in the h-coordinates.  Gamma_0 takes the values x_h over x perp V:
    # onto C^m when cos(theta) != 0, never onto V's h-part when it is 0
    c, s = cos_sin
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    k = int(rng.integers(1, min(n, m) + 1))
    h = scale * ex.random_hermitian(rng, n + m)
    v = np.vstack([c * _orthonormal(rng, n, k), s * _orthonormal(rng, m, k)])
    q = np.linalg.svd(v)[0][:, k:]
    gens = np.vstack([np.hstack([q, np.zeros((n + m, k))]), np.hstack([h @ q, v])])
    a_tilde = ex.relation_from_generators(n + m, n + m, gens)
    assert ex.rel_classify(a_tilde).selfadjoint
    return ex.validate_boundary_relation(ex.inverse_main_transform(a_tilde, (n, m))), rng


def test_b2_fails_when_first_boundary_values_are_rounding_noise():
    # with V in the h-coordinates B2 fails by construction; where V holds
    # all of them, Gamma_0's rows are rounding noise, which the former
    # max-anchored rank counted as surjective
    former_passes = 0
    for seed in range(400):
        br, rng = _b2_case(seed)
        assert not ex.check_B123(br).b2
        former_passes += _reference_b123(br)[1]
        with pytest.raises(ex.NotB123):
            ex.reduce_multivalued(br)
        d1 = int(rng.integers(0, br.boundary_dim + 1))
        with pytest.raises(ex.HypothesisFailed) as info:
            ex.schur_complement(br, ex.SpaceSplit(d1, br.boundary_dim - d1))
        assert info.value.which == "base_boundary_conditions"
    assert former_passes > 100


@pytest.mark.parametrize("theta", [np.pi / 2, 1.0, 1e-2, 1e-5, 1e-7, 1e-9, 1e-11, 0.0])
def test_b2_follows_the_angle_of_the_multivalued_part(theta):
    # theta is the angle of V from the state coordinates; pi/2 puts V in
    # the h-coordinates exactly (cos(pi/2) rounds to 6e-17)
    cos_sin = (0.0, 1.0) if theta == np.pi / 2 else (np.cos(theta), np.sin(theta))
    for scale in (1e-4, 1.0, 1e4):
        for seed in range(40):
            br, _ = _b2_case(1000 + seed, cos_sin, scale)
            assert ex.check_B123(br).b2 == (cos_sin[0] != 0.0)


def _well_posed_boundary_relations():
    # von Neumann triplets with n = 1..8 and every defect, their transposes
    # and block compressions; induced chi and double Weyl boundaries of
    # random scenes; canonical chi of random selfadjoint relations
    for n, defect, rep in itertools.product(range(1, 9), range(1, 9), range(3)):
        if defect <= n:
            pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(100 * n + 10 * defect + rep), n, defect))
            yield pi
            yield ex.transpose_boundary(pi)
            for d1 in range(defect + 1):
                for which in (1, 2):
                    yield ex.block_compress(pi, ex.SpaceSplit(d1, defect - d1), which).boundary
    shapes = [(1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 2), (2, 3), (4, 2)]
    for seed in range(48):
        scene = ex.random_scene(seed, *shapes[seed % len(shapes)])
        pi = ex.scene_triplet(scene)
        chi = ex.induced_chi(scene, pi)
        yield chi
        yield ex.double_weyl(pi, chi).boundary
        yield ex.canonical_chi(ex.random_selfadjoint_relation(np.random.default_rng(seed), 1 + seed % 4))


def test_check_b123_matches_the_former_route():
    count = 0
    for br in _well_posed_boundary_relations():
        rep = ex.check_B123(br)
        assert (rep.b1, rep.b2, rep.b3) == _reference_b123(br)
        count += 1
    assert count == 1296


def test_gamma_parts_are_computed_once_per_relation(monkeypatch):
    calls = []
    parts = linrel.rel_parts

    def counted(rel, tol=ex.TOL):
        calls.append(tol)
        return parts(rel, tol)

    monkeypatch.setattr(boundary, "rel_parts", counted)
    pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(16), 3, 1))
    pair = ex.pair_from_matrix_function(2, lambda lam: lam * np.eye(2))
    pi.s_rel, pi.t_rel
    assert ex.defect_report(pi).identity_holds and ex.mul_via_kernel(pi, pair, 2j)
    ex.reduce_multivalued(pi)
    assert calls == [ex.TOL]
    # a second tolerance context keeps its own parts
    ex.defect_report(pi, ex.Tolerances(rank=1e-9))
    assert len(calls) == 2


def test_ordinary_triplet_requires_operator_s():
    pi = ex.fix_b_triplet()
    assert isinstance(pi, ex.OrdinaryTriplet)
    assert pi.base is pi


TRIPLET_CONSTRUCTORS = {
    "ordinary-relation": lambda: ex.ordinary_triplet(ex.identity_relation(2)),
    "ordinary-boundary": lambda: ex.ordinary_triplet(ex.validate_boundary_relation(ex.identity_relation(2))),
    "von-neumann": lambda: ex.von_neumann_triplet(ex.fix_a_relation()),
    "scene": lambda: ex.scene_triplet(ex.random_scene(3, 2, 2)),
    "fix-b": ex.fix_b_triplet,
    "fix-infty": lambda: ex.fix_infty_steering()[0],
}


@pytest.mark.parametrize("case", sorted(TRIPLET_CONSTRUCTORS))
def test_every_triplet_is_a_boundary_relation(case):
    pi = TRIPLET_CONSTRUCTORS[case]()
    assert isinstance(pi, ex.OrdinaryTriplet) and isinstance(pi, ex.BoundaryRelation)
    assert [f.name for f in dataclasses.fields(pi)] == ["gamma", "tol"]
    assert [f.name for f in dataclasses.fields(ex.BoundaryRelation)] == ["gamma", "tol"]


def test_kernel_and_domain_are_read_on_first_use(monkeypatch):
    gamma = ex.von_neumann_triplet(ex.fix_a_relation()).gamma
    text = ex.triplet_to_json(ex.BoundaryRelation(gamma))
    calls = []
    parts = linrel.rel_parts

    def counted(rel, tol=ex.TOL):
        calls.append(tol)
        return parts(rel, tol)

    monkeypatch.setattr(linrel, "rel_parts", counted)
    monkeypatch.setattr(boundary, "rel_parts", counted)
    br = ex.validate_boundary_relation(gamma)
    pi = ex.ordinary_triplet(br)
    loaded = ex.json_to_triplet(text)
    assert calls == []
    s_rel, t_rel = pi.s_rel, pi.t_rel
    assert pi.s_rel is s_rel and pi.t_rel is t_rel and len(calls) == 1
    assert loaded.t_rel.graph_dim == t_rel.graph_dim and len(calls) == 2
    assert ex.rel_equal(s_rel, ex.fix_a_relation())
    assert ex.rel_equal(t_rel, ex.rel_adjoint(ex.fix_a_relation()))


def test_lazy_kernel_and_domain_follow_the_tolerances():
    # large boundary values leave singular values near 1e-4 in Gamma's
    # input block, which a loose rank cutoff drops
    pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(3), 4, 2))
    gamma = ex.affine_transform(pi, np.zeros((2, 2)), 1e-4 * np.eye(2)).gamma
    loose = ex.Tolerances(rank=1e-3)
    br = ex.validate_boundary_relation(gamma, loose)
    assert br.tol == loose
    parts = ex.rel_parts(gamma, loose)
    assert parts.dom.dim != ex.rel_parts(gamma).dom.dim
    assert ex.subspace_equal(br.s_rel.graph, parts.ker) and br.s_rel.graph_dim == parts.ker.dim
    assert ex.subspace_equal(br.t_rel.graph, parts.dom) and br.t_rel.graph_dim == parts.dom.dim
    loaded = ex.json_to_triplet(ex.triplet_to_json(br), loose)
    assert loaded.tol == loose and loaded.t_rel.graph_dim == parts.dom.dim


def test_ordinary_triplet_rejects_multivalued_boundary_relation():
    br = ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))
    parts = ex.rel_parts(br.gamma)
    # multivalued and not surjective: either defect disqualifies it
    assert parts.mul.dim == 1 and parts.ran.dim == 1 < br.gamma.dim_out
    with pytest.raises(ex.AssumptionError):
        ex.ordinary_triplet(br)
    with pytest.raises(ex.AssumptionError):
        ex.ordinary_triplet(br.gamma)


@pytest.mark.parametrize("case", ["von-neumann", "fix-b", "induced-chi", "canonical-mul"])
def test_kernel_of_boundary_map_matches_preimage_route(case):
    if case == "von-neumann":
        br = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(18), 5, 2))
    elif case == "fix-b":
        br = ex.fix_b_triplet()
    elif case == "induced-chi":
        br = ex.induced_chi(ex.fix_b_scene(), ex.fix_b_triplet())
    else:
        br = ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))
    n, m = br.state_dim, br.boundary_dim
    for index in (0, 1):
        # reference route: preimage of {0} x C^m (index 0) or C^m x {0}
        coords = np.eye(2 * m, dtype=complex)[:, m:] if index == 0 else np.eye(2 * m, dtype=complex)[:, :m]
        ref = ex.rel_preimage(br.gamma, ex.Subspace(2 * m, coords))
        assert ex.rel_equal(ex.kernel_of_boundary_map(br, index), ex.LinearRelation(n, n, ref))


def _two_rank_rule(br, index):
    # the former decision: mul A = {0} iff the kernel columns [X; Y] and
    # their state rows X have the same unit-anchored rank
    cols = _kernel_columns(br, index, ex.TOL)

    def rank(mat):
        return _rank(np.linalg.svd(mat, compute_uv=False), mat.shape, ex.TOL, 1.0)

    return rank(cols) == rank(cols[: br.state_dim])


def _random_von_neumann(rng, multivalued):
    # a random restriction, optionally with a mul direction orthogonal to its domain
    n = int(rng.integers(2, 6))
    s = ex.random_symmetric_restriction(rng, n, int(rng.integers(1, n + 1)))
    if multivalued:
        v = ex.random_hermitian(rng, n)[:, :1]
        v = v - s.in_block @ np.linalg.lstsq(s.in_block, v, rcond=None)[0]
        extra = np.vstack([np.zeros((n, 1)), v])
        s = ex.relation_from_generators(n, n, np.hstack([s.graph.basis, extra]))
    return ex.von_neumann_triplet(s)


@pytest.mark.parametrize("case", ["fix-b", "fix-infty", "von-neumann"])
def test_kernel_single_valued_matches_relation_route(case):
    # mul A_k = {0} from the rank of the state rows of the kernel columns,
    # against the parts of the relation that kernel_of_boundary_map builds
    # and against the former two-rank rule
    rng = np.random.default_rng(23)
    if case == "fix-b":
        bases = [ex.fix_b_triplet()]
    elif case == "fix-infty":
        bases = [ex.fix_infty_steering()[0]]
    else:
        bases = [_random_von_neumann(rng, i % 2 == 1) for i in range(40)]
    decisions = []
    for br in bases:
        for index in (0, 1):
            fast = _triplet_cache(br, ex.TOL).single_valued[index]
            assert fast == (ex.rel_parts(ex.kernel_of_boundary_map(br, index)).mul.dim == 0)
            assert fast == _two_rank_rule(br, index)
            decisions.append(fast)
    if case == "fix-b":
        # A0 = {0} x C is multivalued, A1 = C x {0} is not
        assert decisions == [False, True]
    elif case == "von-neumann":
        assert any(decisions) and not all(decisions)


def _two_step_weyl(br, lam):
    # reference route: defect elements of T, then their image under Gamma
    _, nhat = ex.eigenspace(br.t_rel, lam)
    m = br.boundary_dim
    return ex.LinearRelation(m, m, ex.rel_image(br.gamma, nhat.graph))


def _two_step_gamma(br, lam):
    # reference route: Gamma's graph cut down to defect elements in the input
    _, nhat = ex.eigenspace(br.t_rel, lam)
    n, m = br.state_dim, br.boundary_dim
    lift = ex.subspace_direct_sum(nhat.graph, ex.full_subspace(2 * m))
    meet = ex.subspace_intersect(lift, br.gamma.graph)
    gens = np.vstack([meet.basis[2 * n : 2 * n + m, :], meet.basis[:n, :]])
    return ex.relation_from_generators(m, n, gens)


@pytest.mark.parametrize("case", ["von-neumann", "induced-chi", "canonical-mul"])
def test_weyl_and_gamma_match_two_step_route(case):
    if case == "von-neumann":
        s = ex.random_symmetric_restriction(np.random.default_rng(17), 5, 2)
        br = ex.von_neumann_triplet(s)
    elif case == "induced-chi":
        br = ex.induced_chi(ex.fix_b_scene(), ex.fix_b_triplet())
    else:
        br = ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))
        assert br.state_dim == 0 and ex.rel_parts(br.gamma).mul.dim == 1
    for lam in (1j, 2j, 1 + 1j, 1e8j):
        value = ex.weyl_eval(br, lam)
        assert ex.rel_equal(value, _two_step_weyl(br, lam))
        if case == "canonical-mul":
            assert ex.rel_parts(value).mul.dim == 1
        else:
            assert ex.rel_equal(ex.gamma_field(br, lam), _two_step_gamma(br, lam))


@pytest.mark.parametrize("eps", [1e-12, 1e-6])
def test_near_singular_gamma0_block_is_decided_by_the_rank_rule(eps):
    # at lam = t + i eps next to an eigenvalue t of A0, Gamma_0 maps the
    # defect space onto C^m with a smallest singular value of order eps
    pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(5), 5, 2))
    n, m = pi.state_dim, pi.boundary_dim
    lam = _triplet_cache(pi, ex.TOL).spectrum.eigs[1] + 1j * eps
    block = (pi.gamma.graph.basis @ _defect_coords(pi, lam, ex.TOL))[2 * n : 2 * n + m]
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    cutoff = ex.TOL.rank * m  # unit-anchored: the block's columns are unit vectors
    if eps < 1e-10:
        # LAPACK inverts the block without complaint; the rank rule refuses it
        assert 0 < smallest < cutoff / 100
        with pytest.raises(ex.AssumptionError, match="not a bijection"):
            _nullspace_gamma_and_weyl(pi, lam, ex.TOL)
    else:
        assert smallest > 100 * cutoff
        weyl = _nullspace_gamma_and_weyl(pi, lam, ex.TOL)[1]
        spectral = boundary._gamma_and_weyl_grid(pi, [lam], ex.TOL)[1][0]
        assert np.linalg.norm(weyl - spectral) <= 1e-8 * np.linalg.norm(spectral)


def _former_von_neumann(s, u, tol=ex.TOL):
    # reference route: the adjoint, its eigenspaces at +/-i, and one span of
    # each adjoint element with its projected defect coordinates
    adj = ex.rel_adjoint(s, tol)
    n = s.dim_in
    b_plus = ex.eigenspace(adj, 1j, tol)[0].basis
    b_minus = ex.eigenspace(adj, -1j, tol)[0].basis
    coord_u = b_minus.conj().T @ u @ b_plus
    f, fp = adj.in_block, adj.out_block
    alpha = (b_plus.conj().T @ f - 1j * b_plus.conj().T @ fp) / 2
    beta = coord_u.conj().T @ (b_minus.conj().T @ f + 1j * b_minus.conj().T @ fp) / 2
    gens = np.concatenate([f, fp, alpha + beta, 1j * (alpha - beta)])
    return ex.ordinary_triplet(ex.relation_from_generators(2 * n, 2 * b_plus.shape[1], gens, tol), tol)


VN_SHAPES = ((1, 1), (2, 1), (3, 2), (5, 1), (6, 3), (8, 2), (8, 8), (13, 5))


def _vn_restrictions(seed):
    rng = np.random.default_rng(seed)
    return [ex.random_symmetric_restriction(rng, n, d) for n, d in VN_SHAPES]


def test_von_neumann_basis_is_orthonormal_and_isometric():
    # Gamma's graph basis is written down, not computed: its Gram matrix is
    # the identity and the Green identity holds, both to rounding
    for s in _vn_restrictions(41):
        pi = ex.von_neumann_triplet(s)
        g = pi.gamma.graph.basis
        assert g.shape == (2 * s.dim_in + 2 * pi.boundary_dim, 2 * s.dim_in - s.graph_dim)
        assert np.linalg.norm(g.conj().T @ g - np.eye(g.shape[1])) <= 1e-14
        assert ex.green_residual(pi.gamma) <= 1e-14


def test_von_neumann_domain_is_the_adjoint_and_kernel_is_s():
    for s in _vn_restrictions(42):
        pi = ex.von_neumann_triplet(s)
        assert ex.rel_equal(pi.t_rel, ex.rel_adjoint(s))
        assert ex.rel_equal(pi.s_rel, s)
        assert ex.defect_report(pi).identity_holds


def test_explicit_pairing_keeps_a0_and_moves_m_by_a_unitary():
    # the same isometry u on both routes gives the same A0; Gamma's
    # coordinates differ by the change of basis P of N_i, read off
    # gamma(i) = b+, so M changes only to P* M P
    rng = np.random.default_rng(43)
    for s in _vn_restrictions(43):
        adj = ex.rel_adjoint(s)
        b_plus = ex.eigenspace(adj, 1j)[0].basis
        b_minus = ex.eigenspace(adj, -1j)[0].basis
        d = b_plus.shape[1]
        w = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        u = b_minus @ w @ b_plus.conj().T
        new, old = ex.von_neumann_triplet(s, u=u), _former_von_neumann(s, u=u)
        a0_new, a0_old = ex.kernel_of_boundary_map(new, 0), ex.kernel_of_boundary_map(old, 0)
        assert ex.largest_principal_angle(a0_new.graph, a0_old.graph) <= 1e-12
        p = ex.rel_matrix(ex.gamma_field(old, 1j)).conj().T @ ex.rel_matrix(ex.gamma_field(new, 1j))
        assert np.linalg.norm(p.conj().T @ p - np.eye(d)) <= 1e-12
        for lam in (1j, 2j, 1 + 1j, -0.5 + 3j):
            m_new = ex.rel_matrix(ex.weyl_eval(new, lam))
            m_old = ex.rel_matrix(ex.weyl_eval(old, lam))
            assert np.linalg.norm(m_new - p.conj().T @ m_old @ p) <= 1e-12 * max(np.linalg.norm(m_old), 1.0)


def test_default_a0_does_not_depend_on_the_graph_basis_of_s():
    # U = -polar(b-* b+) is the same operator of N_i onto N_{-i} for any
    # orthonormal bases b+/-, so a unitary rotation of S's graph basis
    # leaves A0 where it was
    rng = np.random.default_rng(44)
    for s in _vn_restrictions(44):
        k = s.graph_dim
        q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        rotated = ex.LinearRelation(s.dim_in, s.dim_out, ex.Subspace(2 * s.dim_in, s.graph.basis @ q))
        a0 = ex.kernel_of_boundary_map(ex.von_neumann_triplet(s), 0)
        a0_rot = ex.kernel_of_boundary_map(ex.von_neumann_triplet(rotated), 0)
        assert ex.largest_principal_angle(a0.graph, a0_rot.graph) <= 1e-12
        # and A0 is an operator, unlike U = I on bases that happen to match
        assert ex.rel_parts(a0).mul.dim == 0


def test_default_pairing_of_the_zero_relation_gives_a0_zero(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    for n in (1, 2, 4, 16):
        calls.clear()
        pi = ex.von_neumann_triplet(ex.LinearRelation(n, n, ex.zero_subspace(2 * n)))
        # b+ = b- = I, so U = -I is written down with no SVD, byte for byte
        # the former -polar(b-* b+)
        assert calls == []
        polar = -linrel._polar_factor(np.eye(n, dtype=complex))
        assert _triplet_cache(pi, ex.TOL).coord_u.tobytes() == polar.tobytes()
        assert pi.boundary_dim == n
        assert ex.rel_equal(ex.kernel_of_boundary_map(pi, 0), ex.zero_relation(n, n))
        assert np.array_equal(_triplet_cache(pi, ex.TOL).spectrum.eigs, np.zeros(n))
        # U = -I: S has no graph columns, and the block of N_{-i} in Gamma's
        # graph basis is [I; -iI; -I; iI] / 2
        minus = pi.gamma.graph.basis[:, n:]
        eye = np.eye(n)
        assert np.allclose(minus, np.concatenate([eye, -1j * eye, -eye, 1j * eye]) / 2, rtol=0, atol=1e-15)


def _closed_form_cases():
    # default pairings up to n = 16, a multivalued S, explicit pairings,
    # and S = {0} with U = I (A0 = {0} x C^n) and U = -I (A1 = {0} x C^n)
    rng = np.random.default_rng(45)
    shapes = VN_SHAPES + ((16, 4), (16, 16))
    restrictions = [ex.random_symmetric_restriction(rng, n, d) for n, d in shapes]
    restrictions.append(_random_von_neumann(np.random.default_rng(46), True).s_rel)
    for s in restrictions:
        yield s, None
        adj = ex.rel_adjoint(s)
        b_plus, b_minus = ex.eigenspace(adj, 1j)[0].basis, ex.eigenspace(adj, -1j)[0].basis
        d = b_plus.shape[1]
        w = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        yield s, b_minus @ w @ b_plus.conj().T
    for n in (1, 3, 16):
        zero = ex.LinearRelation(n, n, ex.zero_subspace(2 * n))
        yield zero, np.eye(n)
        yield zero, -np.eye(n)


def _projector(cols):
    return cols @ cols.conj().T


def test_closed_form_cache_matches_the_general_route():
    # a von Neumann triplet's cache is read off the construction; the same
    # Gamma as a plain ordinary triplet takes the general route
    lams = [1j * y for y in DEFAULT_GRID]
    singles = set()
    for s, u in _closed_form_cases():
        pi = ex.von_neumann_triplet(s, u=u)
        general = ex.ordinary_triplet(pi.gamma)
        new, ref = _triplet_cache(pi, ex.TOL), _triplet_cache(general, ex.TOL)
        assert isinstance(new, boundary._VonNeumannCache) and type(ref) is boundary._TripletCache
        scale = max(1.0, np.abs(ref.spectrum.eigs).max(initial=0.0))
        assert np.abs(new.spectrum.eigs - ref.spectrum.eigs).max(initial=0.0) <= 1e-12 * scale
        for part in (lambda sp: (sp.vecs * sp.eigs) @ sp.vecs.conj().T, lambda sp: _projector(sp.vecs), lambda sp: _projector(sp.mul)):
            assert np.linalg.norm(part(new.spectrum) - part(ref.spectrum)) <= 1e-12 * scale
        assert abs(new.spectrum.smin - ref.spectrum.smin) <= 1e-12
        assert new.single_valued == ref.single_valued
        singles.add(new.single_valued)
        for got, want in zip(boundary._gamma_and_weyl_grid(pi, lams, ex.TOL), boundary._gamma_and_weyl_grid(general, lams, ex.TOL)):
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)
        (x, x_pinv, q), (x_ref, x_pinv_ref, q_ref) = new.boundary_factor, ref.boundary_factor
        assert np.array_equal(x, x_ref)
        assert np.linalg.norm(x_pinv - x_pinv_ref) <= 1e-12 * np.linalg.norm(x_pinv_ref)
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
        assert np.linalg.norm(_projector(q) - _projector(q_ref)) <= 1e-12
    assert singles == {(True, True), (True, False), (False, True), (False, False)}


def test_closed_form_cache_takes_two_rank_decisions(monkeypatch):
    # A0's spectral decomposition and the rank test of A1; gamma(i), the
    # kernels of Gamma_0 and Gamma_1 and the factor of dom Gamma are read
    # off the construction.  Other tolerances take the general route.
    pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(47), 6, 3))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    cache = _triplet_cache(pi, ex.TOL)
    cache.propagation, cache.single_valued, cache.boundary_factor
    assert len(calls) == 2
    loose = ex.Tolerances(rank=1e-11)
    assert type(_triplet_cache(pi, loose)) is boundary._TripletCache


def _former_weyl(br, lam):
    # the one-point route as it stood: a nullspace of the pencil
    # G_f' - lam G_f, then the unit-anchored span of its image
    n, m = br.state_dim, br.boundary_dim
    g = br.gamma.graph.basis
    coords = linrel._nullspace(g[n : 2 * n] - lam * g[:n], ex.TOL)
    return ex.LinearRelation(m, m, linrel._span(br.gamma.out_block @ coords, ex.TOL, 1.0))


def _with_mul_part(trip):
    # Gamma and {((0, 0), (0, e))}: one more boundary dimension, spanning mul Gamma
    g = trip.gamma.graph.basis
    n2, m, k = trip.gamma.dim_in, trip.boundary_dim, g.shape[1]
    basis = np.zeros((n2 + 2 * m + 2, k + 1), dtype=complex)
    basis[: n2 + m, :k] = g[: n2 + m]
    basis[n2 + m + 1 : -1, :k] = g[n2 + m :]
    basis[-1, k] = 1
    return ex.validate_boundary_relation(ex.LinearRelation(n2, 2 * m + 2, ex.Subspace(len(basis), basis)))


def _grid_relations():
    # induced chi of the scaling study's 40 scenes at s = 1, Gammas with
    # mul Gamma != {0}, and ordinary triplets
    for seed in range(40):
        scene = ex.random_scene(seed, 1 + seed % 3, 1 + (seed // 3) % 3)
        yield ex.induced_chi(scene, ex.scene_triplet(scene))
    for seed in range(3):
        trip = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(seed), 4, 2))
        with_mul = _with_mul_part(trip)
        assert ex.rel_parts(with_mul.gamma).mul.dim == 1
        yield with_mul
        yield trip


def test_a_grid_of_weyl_values_is_its_one_point_values_bit_for_bit(monkeypatch):
    """``_weyl_values`` on a grid gives each point the value weyl_eval
    gives it alone, and, off the ordinary triplets, the value of the former
    one-point route, bit for bit; a grid takes two SVDs, one per stack."""
    lams = [1j, 2j, 1 + 1j, -1j, 3 - 0.5j, 1e8j, *(1j * y for y in DEFAULT_GRID)]
    for br in _grid_relations():
        ordinary = isinstance(br, ex.OrdinaryTriplet)
        ex.weyl_eval(br, 2j)  # an ordinary triplet fills its cache here
        calls = []
        svd = linrel._svd
        monkeypatch.setattr(linrel, "_svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        values = boundary._weyl_values(br, lams, ex.TOL)
        monkeypatch.setattr(linrel, "_svd", svd)
        assert len(values) == len(lams) and len(calls) == (0 if ordinary else 2)
        for lam, value in zip(lams, values):
            alone = ex.weyl_eval(br, lam)
            assert value.graph.basis.tobytes() == alone.graph.basis.tobytes()
            if not ordinary:
                assert alone.graph.basis.tobytes() == _former_weyl(br, lam).graph.basis.tobytes()
    with pytest.raises(ex.RealAxis):
        boundary._weyl_values(br, [1j, 2.0], ex.TOL)


def test_a_grid_across_the_rank_edge_takes_each_point_alone():
    # S has the eigenvalue t, so the pencil at t + i eps falls short of full
    # row rank under the cutoff for small eps and its kernel widens: kernels
    # of different widths are spanned one by one, each as at its point alone
    t = 0.7
    s = ex.rel_direct_sum(ex.relation_from_matrix([[t]]), ex.random_symmetric_restriction(np.random.default_rng(5), 3, 1))
    br = ex.validate_boundary_relation(ex.von_neumann_triplet(s).gamma)
    lams = [t + 1j * 10.0**-e for e in range(2, 15)]
    widths = [c.shape[1] for c in _defect_coords(br, np.array(lams), ex.TOL)]
    assert widths[0] == br.boundary_dim < widths[-1]
    for lam, value in zip(lams, boundary._weyl_values(br, lams, ex.TOL)):
        assert value.graph.basis.tobytes() == _former_weyl(br, lam).graph.basis.tobytes()


def test_von_neumann_defect_bases_are_the_nullspaces_of_each_side():
    # b+ and b- from one SVD of the stacked pair are the bases each takes
    # alone; S = {0} keeps b+- = I with no SVD
    for seed in range(6):
        s = ex.random_symmetric_restriction(np.random.default_rng(seed), 3 + seed % 3, 1 + seed % 2)
        trip = ex.von_neumann_triplet(s)
        x, y = s.in_block, s.out_block
        b_plus = linrel._nullspace((y + 1j * x).conj().T, ex.TOL)
        b_minus = linrel._nullspace((y - 1j * x).conj().T, ex.TOL)
        d = b_plus.shape[1]
        assert _triplet_cache(trip, ex.TOL).b_plus.tobytes() == b_plus.tobytes()
        assert trip.gamma.graph.basis[: s.dim_in, -d:].tobytes() == (b_minus / 2).tobytes()
    zero = ex.von_neumann_triplet(ex.LinearRelation(2, 2, ex.Subspace(4, np.zeros((4, 0), dtype=complex))))
    assert _triplet_cache(zero, ex.TOL).b_plus.tobytes() == np.eye(2, dtype=complex).tobytes()


def test_library_built_boundary_relations_keep_the_green_identity():
    """Von Neumann triplets, induced chi, the double relation and its
    T-transform enter by proof, with no Green check at run time; on the
    scaling study's scenes (seeds 0-39, A~ scaled by 1e-8 to 1e9) each keeps
    the identity a thousand times inside the bound it would be checked to
    (2.7e-6 of it at worst, measured)."""
    for s in (1e-8, 1e-4, 1.0, 1e4, 1e6, 1e8, 1e9):
        for seed in range(40):
            n1, n2 = 1 + seed % 3, 1 + (seed // 3) % 3
            a = s * ex.random_hermitian(np.random.default_rng(seed), n1 + n2)
            scene = ex.random_scene(seed, n1, n2, ex.relation_from_matrix(a))
            pi = ex.von_neumann_triplet(scene.s1)
            chi = ex.induced_chi(scene, pi)
            dw = ex.double_weyl(pi, chi)
            m = pi.boundary_dim
            t = ex.random_hermitian(np.random.default_rng(seed), m)
            tt = ex.t_transform(dw.boundary, ex.SpaceSplit(m, m), t)
            for br in (pi, chi, dw.boundary, tt.boundary):
                bound = ex.TOL.angle * max(1, br.gamma.graph_dim)
                assert ex.green_residual(br.gamma) <= 1e-3 * bound, (s, seed)
