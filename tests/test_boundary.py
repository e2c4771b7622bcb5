"""Boundary relations, triplets and Weyl families."""

import numpy as np
import pytest

import extensio as ex
from extensio.boundary import _kernel_single_valued

RESID = 1e-9


def test_identity_triplet_values():
    pi = ex.fix_b_triplet()
    assert pi.base.state_dim == 1 and pi.base.boundary_dim == 1
    assert ex.green_residual(pi.base.gamma) < 1e-12
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
        assert pi.base.boundary_dim == defect
        assert ex.green_residual(pi.base.gamma) < RESID
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
    assert ex.is_subspace(ex.subspace_from_columns(section), pi.base.gamma.graph)
    assert gam.shape == (4, 2)


def test_weyl_identities_and_defects():
    rng = np.random.default_rng(14)
    s = ex.random_symmetric_restriction(rng, 5, 2)
    pi = ex.von_neumann_triplet(s)
    rep = ex.check_weyl_identities(pi, 1 + 2j, 2j)
    assert rep.gamma_residual < RESID
    assert rep.weyl_residual < 1e-8
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
    assert ex.is_subrelation(pi.base.s_rel, ext)
    assert ex.is_subrelation(ext, ex.rel_adjoint(pi.base.s_rel))


def test_boundary_component_shapes():
    pi = ex.fix_b_triplet()
    comp0 = ex.boundary_component(pi, 0)
    assert comp0.dim_in == 2 and comp0.dim_out == 1
    with pytest.raises(ex.ArgumentError):
        ex.boundary_component(pi, 2)


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


def test_ordinary_triplet_requires_operator_s():
    pi = ex.fix_b_triplet()
    assert isinstance(pi, ex.OrdinaryTriplet)
    assert pi.gamma is pi.base.gamma


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
        br = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(18), 5, 2)).base
    elif case == "fix-b":
        br = ex.fix_b_triplet().base
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


def _random_von_neumann(rng, multivalued):
    # a random restriction, optionally with a mul direction orthogonal to its domain
    n = int(rng.integers(2, 6))
    s = ex.random_symmetric_restriction(rng, n, int(rng.integers(1, n + 1)))
    if multivalued:
        v = ex.random_hermitian(rng, n)[:, :1]
        v = v - s.in_block @ np.linalg.lstsq(s.in_block, v, rcond=None)[0]
        extra = np.vstack([np.zeros((n, 1)), v])
        s = ex.relation_from_generators(n, n, np.hstack([s.graph.basis, extra]))
    return ex.von_neumann_triplet(s).base


@pytest.mark.parametrize("case", ["fix-b", "fix-infty", "von-neumann"])
def test_kernel_single_valued_matches_relation_route(case):
    # mul A_k = {0} from two ranks of the kernel columns, against the parts
    # of the relation that kernel_of_boundary_map builds
    rng = np.random.default_rng(23)
    if case == "fix-b":
        bases = [ex.fix_b_triplet().base]
    elif case == "fix-infty":
        bases = [ex.fix_infty_steering()[0].base]
    else:
        bases = [_random_von_neumann(rng, i % 2 == 1) for i in range(40)]
    decisions = []
    for br in bases:
        for index in (0, 1):
            fast = _kernel_single_valued(br, index, ex.TOL)
            assert fast == (ex.rel_parts(ex.kernel_of_boundary_map(br, index)).mul.dim == 0)
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
        br = ex.von_neumann_triplet(s).base
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
