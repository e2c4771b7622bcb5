"""Coupling scenes, induced parameter families and resolvent formulas."""

import itertools

import numpy as np
import pytest

import extensio as ex
from extensio import boundary, coupling, linrel, transforms
from extensio.linrel import _nullspace

RESID = 1e-9


def random_case(seed=7, n1=2, n2=3):
    rng = np.random.default_rng(seed)
    scene = ex.random_scene(rng, n1, n2)
    pi = ex.scene_triplet(scene)
    return scene, pi


def test_fix_b_scene_corners():
    scene = ex.fix_b_scene()
    assert (scene.h1_dim, scene.h2_dim) == (1, 1)
    # the off-diagonal coupling leaves only the zero vector in each corner
    assert scene.s1.graph_dim == 0
    assert scene.s2.graph_dim == 0
    # and projects onto everything, so the compressions are full relations
    assert scene.t1.graph_dim == 2
    assert scene.t2.graph_dim == 2
    assert scene.minimal


def test_coupling_scene_validation():
    with pytest.raises(ex.DimMismatch):
        ex.coupling_scene(ex.fix_b_relation(), 2, 1)
    nonsa = ex.relation_from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ex.AssumptionError):
        ex.coupling_scene(nonsa, 1, 1)


def test_induced_chi_mismatch():
    scene, _ = random_case()
    other = ex.fix_b_triplet()
    with pytest.raises(ex.TripletMismatch):
        ex.induced_chi(scene, other)


def test_tau_of_extension_mismatch():
    """Twin of test_induced_chi_mismatch.  The family takes the triplet's
    boundary values once, when it is built, so a triplet whose kernel is
    not the first restriction is refused at construction, before any
    value is read: on dimensions, or, at equal dimensions (seed 12), on
    the residual of the boundary map on the coupling's (f1, f1') rows."""
    scene, _ = random_case()
    with pytest.raises(ex.TripletMismatch):
        ex.tau_of_extension(scene, ex.fix_b_triplet())
    scene, _ = random_case(seed=11, n1=3, n2=2)
    _, other = random_case(seed=12, n1=3, n2=2)
    assert scene.s1.graph_dim == other.s_rel.graph_dim == 1
    with pytest.raises(ex.TripletMismatch):
        ex.tau_of_extension(scene, other)


def _reference_tau_eval(scene, pi, lam):
    """Former per-point route: the boundary map, with its residual check,
    applied to the (f1, f1') rows of each value's own elements G c."""
    h1, n, m = scene.h1_dim, scene.h1_dim + scene.h2_dim, pi.boundary_dim
    basis = scene.a_tilde.graph.basis
    cols = basis @ _nullspace(basis[2 * n - scene.h2_dim :] - lam * basis[h1:n], ex.TOL)
    bounds = boundary._boundary_map(pi, ex.TOL)(np.vstack([cols[:h1], cols[n : n + h1]]))
    return ex.LinearRelation(m, m, linrel._span(np.vstack([bounds[:m], -bounds[m:]]), ex.TOL))


def _nullspace_tau_eval(scene, pi, lam):
    """Former evaluator of tau_of_extension at every point: c spans
    ker(G_f2' - lam G_f2) by a nullspace, then the span of the twisted
    boundary values times c."""
    h1, n, m = scene.h1_dim, scene.h1_dim + scene.h2_dim, pi.boundary_dim
    basis = scene.a_tilde.graph.basis
    twisted = coupling._scene_boundary_values(scene, pi, ex.TOL)
    coeff = _nullspace(basis[n + h1 :] - lam * basis[h1:n], ex.TOL)
    return ex.LinearRelation(m, m, linrel._span(twisted @ coeff, ex.TOL))


def _lu_span_tau_eval(scene, pi, lam):
    """Former LU branch of tau_of_extension: c = W(lam)^{-1} [I; 0] on all
    h1 columns of the first space, then the span of the twisted boundary
    values times c, whose rank the SVD decided."""
    h1, n, m = scene.h1_dim, scene.h1_dim + scene.h2_dim, pi.boundary_dim
    basis = scene.a_tilde.graph.basis
    twisted = coupling._scene_boundary_values(scene, pi, ex.TOL)
    coeff = np.linalg.solve(basis[n:] - lam * basis[:n], np.eye(n, h1))
    return ex.LinearRelation(m, m, linrel._span(twisted @ coeff, ex.TOL))


def _lu_branch(lam):
    spread = abs(1 + 1j * lam) + abs(1 - 1j * lam)
    return spread * spread <= 4 * coupling._PENCIL_COND_LIMIT * abs(lam.imag)


def _multivalued_scene(seed=5, n1=3, n2=2):
    # P H P (+) {0} x span(v), with P = I - v v* and v meeting both spaces
    rng = np.random.default_rng(seed)
    n = n1 + n2
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    p = np.eye(n) - np.outer(v, v.conj())
    h = ex.random_hermitian(rng, n)
    mul = np.concatenate([np.zeros(n), v])[:, None]
    a_tilde = ex.relation_from_generators(n, n, np.hstack([np.vstack([p, p @ h @ p]), mul]))
    return ex.coupling_scene(a_tilde, n1, n2)


# every shape with n1, n2 <= 4, 60 scenes with n1 = n2 in 2..16 at 7 points
# each, scenes with S1 != {0}, and points within 1e-9 of the real axis or
# far out on the imaginary one; 3 + 0.05i and 0.5 - 2e-3i take the LU
# solve at bounds on cond W of 200 and 625, the other near points and 1e6i
# (bounds of 1e6 and more) take the nullspace
TAU_POINTS = (1j, -1j, 2j, 1 + 1j, 1 - 2j, 1e6j, -0.5 + 3j)
TAU_NEAR_POINTS = (3 + 1e-9j, 0.5 - 1e-9j, -1.2 + 1e-9j, 3 + 1e-6j, 1e8j, 3 + 0.05j, 0.5 - 2e-3j)


def _tau_parity_cases():
    for seed, (n1, n2) in enumerate(itertools.product(range(1, 5), repeat=2)):
        yield random_case(seed=seed, n1=n1, n2=n2), TAU_POINTS
    for seed in range(60):
        n = 2 + seed % 15
        yield random_case(seed, n, n), TAU_POINTS + (TAU_NEAR_POINTS if seed % 5 == 0 else ())
    shapes = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (8, 4), (3, 2), (7, 1)]
    for seed in range(24):
        case = random_case(100 + seed, *shapes[seed % len(shapes)])
        assert case[0].s1.graph_dim > 0
        yield case, TAU_POINTS + TAU_NEAR_POINTS


def test_tau_of_extension_matches_the_per_point_boundary_map():
    # where cond W(lam) is bounded by 1e3, tau's kernel is one LU solve of
    # the coupling's pencil; it spans what the nullspace did, to 1e-12 on
    # the parity set, and the resolvent formula still reproduces the
    # compressed resolvent.  There the value is one QR of m twisted columns,
    # which meets the former SVD span of all h1 columns to 1e-12 as well,
    # S1 = {0} or not.  With mul A~ != {0} the nullspace loses digits far
    # out on the imaginary axis, 7.5e-12 off a 50-digit value at 1e6i, so
    # that scene and fix-b keep rel_equal only.
    values = lu_values = 0
    for (scene, pi), lams in _tau_parity_cases():
        tau = ex.tau_of_extension(scene, pi)
        for lam in lams:
            value = tau.eval(lam)
            assert ex.rel_equal(value, _reference_tau_eval(scene, pi, lam)), (scene.h1_dim, scene.h2_dim, lam)
            new, ref = value.graph, _nullspace_tau_eval(scene, pi, lam).graph
            assert new.dim == ref.dim == pi.boundary_dim
            assert max(ex.containment_gap(new, ref), ex.containment_gap(ref, new)) <= 1e-12, (scene.h1_dim, lam)
            if _lu_branch(lam):
                ref = _lu_span_tau_eval(scene, pi, lam).graph
                assert ref.dim == pi.boundary_dim
                assert max(ex.containment_gap(new, ref), ex.containment_gap(ref, new)) <= 1e-12, (scene.h1_dim, lam)
                lu_values += scene.s1.graph_dim > 0
            lhs = ex.generalized_resolvent(scene, lam).compressed
            rhs = ex.krein_rhs(pi, tau, lam)
            assert np.linalg.norm(rhs - lhs) <= 1e-12 * np.linalg.norm(lhs), (scene.h1_dim, lam)
            values += 1
    assert values >= 420 and lu_values >= 200
    multivalued = _multivalued_scene()
    assert ex.rel_parts(multivalued.a_tilde).mul.dim == 1
    for scene, pi in ((ex.fix_b_scene(), ex.fix_b_triplet()), (multivalued, ex.scene_triplet(multivalued))):
        tau = ex.tau_of_extension(scene, pi)
        for lam in TAU_POINTS:
            assert ex.rel_equal(tau.eval(lam), _reference_tau_eval(scene, pi, lam)), (scene.h1_dim, scene.h2_dim, lam)


def test_tau_takes_no_rank_decision_off_the_real_axis(monkeypatch):
    # where cond W(lam) <= s^2 / (4 |Im lam|) <= 1e3 the kernel is one LU
    # solve and the value one QR, with no SVD (S1 != {0} here, so the
    # right-hand side is a complete QR too); nearer the real axis, and on
    # it, the kernel is a nullspace and the value's span a second SVD.
    # 1 + 2.1e-3i has the bound 952, 1 - 1.9e-3i 1053.
    scene, pi = random_case(seed=3, n1=3, n2=2)
    assert scene.s1.graph_dim == 1
    tau = ex.tau_of_extension(scene, pi)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    points = ((1j, 0), (-2j, 0), (1 + 2.1e-3j, 0), (1 - 1.9e-3j, 2), (1 + 1e-9j, 2), (1e6j, 2), (0.5, 2), (0.0, 2))
    for lam, svds in points:
        calls.clear()
        value = tau.eval(lam)
        assert len(calls) == svds, lam
        assert ex.rel_equal(value, _nullspace_tau_eval(scene, pi, lam))


def _former_tau(scene, pi):
    return ex.FamilyEval(pi.boundary_dim, lambda lam: _nullspace_tau_eval(scene, pi, complex(lam)))


def _outcome(route, *args):
    try:
        return route(*args)
    except ex.ExtensioError as err:
        return type(err)


def test_tau_near_an_eigenvalue_of_the_coupling_keeps_the_nullspace_accuracy():
    # tau is smooth at the eigenvalues t of A~ while W(t + i eps) is nearly
    # singular, so close to them the LU columns would be nearly parallel:
    # the bound on cond W sends those points to the nullspace.  tau stays
    # within 1e-12 of the former evaluator, krein_rhs gives the former
    # route's value or error, and it meets generalized_resolvent as far as
    # the formula's conditioning, about 1/eps, lets it.
    for seed, (n1, n2) in enumerate(((2, 2), (3, 2), (4, 3), (2, 5), (6, 6))):
        scene, pi = random_case(seed, n1, n2)
        tau, former = ex.tau_of_extension(scene, pi), _former_tau(scene, pi)
        spec = coupling._operator_spectrum(scene.a_tilde.in_block, scene.a_tilde.out_block, ex.TOL)
        e1 = spec.vecs[:n1]
        for t in spec.eigs[:3]:
            for eps in (1e-1, 1e-2, 1e-4, 1e-6, 1e-10, 1e-12, -1e-12):
                lam = complex(t, eps)
                new, ref = tau.eval(lam).graph, former.eval(lam).graph
                assert new.dim == ref.dim == pi.boundary_dim, (seed, lam)
                assert max(ex.containment_gap(new, ref), ex.containment_gap(ref, new)) <= 1e-12, (seed, lam)
                rhs, ref_rhs = _outcome(ex.krein_rhs, pi, tau, lam), _outcome(ex.krein_rhs, pi, former, lam)
                if isinstance(ref_rhs, type):
                    assert rhs is ref_rhs, (seed, lam)
                    continue
                assert np.linalg.norm(rhs - ref_rhs) <= 1e-12 * np.linalg.norm(ref_rhs), (seed, lam)
                exact = (e1 / (spec.eigs - lam)) @ e1.conj().T
                assert np.linalg.norm(rhs - exact) <= 1e-13 / abs(eps) * np.linalg.norm(exact), (seed, lam)
                lhs = _outcome(ex.generalized_resolvent, scene, lam)
                assert lhs is ex.SingularAtLambda or np.allclose(lhs.compressed, exact, rtol=0, atol=1e-12 * np.linalg.norm(exact))


def test_tau_on_a_singular_pencil_raises_a_typed_error():
    # a scene built around coupling_scene's check: the first column of
    # G_f' - 2i G_f vanishes exactly, so 2i is an eigenvalue of A~
    a, b = 1 / np.sqrt(5), 1 / np.sqrt(2)
    basis = np.array([[a, 0], [0, b], [2j * a, 0], [0, b]], dtype=complex)
    a_tilde = ex.LinearRelation(2, 2, ex.Subspace._trusted(4, basis))
    scene = coupling.CouplingScene(1, 1, a_tilde, ex.LinearRelation(1, 1, ex.zero_subspace(2)))
    pi = ex.von_neumann_triplet(scene.s1)
    tau = ex.tau_of_extension(scene, pi)
    with pytest.raises(ex.SingularAtLambda):
        tau.eval(2j)
    assert tau.eval(1j).graph_dim == 1


def test_tau_identity_triplet_is_negative_reciprocal():
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    tau = ex.tau_of_extension(scene, pi)
    for lam in (1j, 2j, 1 + 1j):
        val = ex.rel_matrix(tau.eval(lam))
        assert abs(val[0, 0] + 1.0 / lam) < RESID


def test_generalized_resolvent_fix_b_value():
    scene = ex.fix_b_scene()
    sample = ex.generalized_resolvent(scene, 1j)
    assert abs(sample.compressed[0, 0] - 0.5j) < 1e-12


def test_krein_formula_matches_compression():
    scene, pi = random_case()
    tau = ex.tau_of_extension(scene, pi)
    for lam in (1j, 2j, 1 + 1j):
        lhs = ex.generalized_resolvent(scene, lam).compressed
        rhs = ex.krein_rhs(pi, tau, lam)
        assert np.linalg.norm(lhs - rhs) < RESID


def test_tau_of_extension_matches_least_squares_route():
    scene, pi = random_case(seed=11, n1=3, n2=2)
    tau = ex.tau_of_extension(scene, pi)
    basis = scene.a_tilde.graph.basis
    x, y = pi.gamma.in_block, pi.gamma.out_block
    m = pi.boundary_dim
    # graph rows of C^3 + C^2: f1, f2, then f1', f2'
    f1, f2, f1p, f2p = slice(0, 3), slice(3, 5), slice(5, 8), slice(8, 10)
    for lam in (1j, -2j, 1 + 1j, 1e6j):
        # reference route: least squares against Gamma's input block per value
        cols = basis @ _nullspace(basis[f2p, :] - lam * basis[f2, :], ex.TOL)
        coeff = np.linalg.lstsq(x, np.vstack([cols[f1, :], cols[f1p, :]]), rcond=None)[0]
        bounds = y @ coeff
        ref = ex.relation_from_generators(m, m, np.vstack([bounds[:m, :], -bounds[m:, :]]))
        assert ex.rel_equal(tau.eval(lam), ref)


def test_resolvent_route_takes_no_svd_once_warm(monkeypatch):
    # M(lam) carries its matrix, and the inverse of psi + M phi certifies
    # its own rank: counted at linrel._svd, neither takes an SVD
    scene, pi = random_case(seed=11, n1=3, n2=3)
    tau = ex.tau_of_extension(scene, pi)
    lams = (1j, -2j, 1 + 1j)
    for lam in lams:
        ex.krein_rhs(pi, tau, lam)
    calls = []
    entry = linrel._svd
    monkeypatch.setattr(linrel, "_svd", lambda *args, **kwargs: calls.append(1) or entry(*args, **kwargs))
    for lam in lams:
        assert ex.rel_matrix(ex.weyl_eval(pi, lam)).shape == (pi.boundary_dim,) * 2
        ex.krein_rhs(pi, tau, lam)
        ex.krein_rhs(pi, tau, 3 * lam)
    assert not calls


def test_krein_rhs_singular_sum():
    pi = ex.fix_b_triplet()
    # family value -M(lam) makes the sum the zero relation
    tau = ex.FamilyEval(1, lambda lam: ex.relation_from_matrix(np.array([[-lam]])))
    with pytest.raises(ex.RelationSumSingular):
        ex.krein_rhs(pi, tau, 1j)
    # a family value of graph dimension 0, not m = 1
    tau = ex.FamilyEval(1, lambda lam: ex.mul_relation(ex.zero_subspace(1)))
    with pytest.raises(ex.RelationSumSingular):
        ex.krein_rhs(pi, tau, 1j)


def _reference_krein_rhs(pi, tau, lam):
    """The formula route through subspace relations: A0 as the kernel of
    the first boundary map and M + tau as a relation sum, with gamma and M
    by one nullspace at each point, not from the spectral data that
    krein_rhs, weyl_eval and gamma_field share."""
    r0 = ex.resolvent_matrix(ex.kernel_of_boundary_map(pi, 0), lam)
    g_lam, m_lam = boundary._nullspace_gamma_and_weyl(pi, lam, ex.TOL)
    g_bar = boundary._nullspace_gamma_and_weyl(pi, np.conj(lam), ex.TOL)[0]
    inv = ex.rel_matrix(ex.rel_inverse(ex.rel_sum(ex.relation_from_matrix(m_lam), tau.eval(lam))))
    return r0 - g_lam @ inv @ g_bar.conj().T


def _reference_triplet(kind):
    if kind == "von-neumann":
        s = ex.random_symmetric_restriction(np.random.default_rng(19), 5, 2)
        return ex.von_neumann_triplet(s)
    # ker of the first boundary map of this triplet is purely multivalued
    return ex.fix_b_triplet()


def _reference_family(kind, m):
    if kind == "hermitian":
        h = ex.random_hermitian(np.random.default_rng(23), m)
        value = ex.relation_from_matrix(h)
    else:
        # tau = {0} x C^m makes (M + tau)^{-1} = 0
        value = ex.mul_relation(ex.full_subspace(m))
    return ex.FamilyEval(m, lambda lam: value)


@pytest.mark.parametrize("family", ["hermitian", "mul"])
@pytest.mark.parametrize("triplet", ["von-neumann", "fix-b"])
def test_krein_rhs_matches_relation_route(triplet, family):
    pi = _reference_triplet(triplet)
    tau = _reference_family(family, pi.boundary_dim)
    for lam in (1j, -2j, 1 + 1j, 1e6j):
        ref = _reference_krein_rhs(pi, tau, lam)
        # both routes are resolvents, bounded by 1/|Im lam|
        assert np.linalg.norm(ex.krein_rhs(pi, tau, lam) - ref) < RESID / abs(lam.imag)


def test_krein_rhs_needs_a_bijective_first_boundary_map():
    # the first boundary map of this boundary relation vanishes identically
    chi = ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))
    tau = ex.FamilyEval(1, lambda lam: ex.relation_from_matrix(np.eye(1)))
    with pytest.raises(ex.AssumptionError):
        ex.krein_rhs(chi, tau, 1j)


def test_straus_solve_matches_resolvent():
    scene, pi = random_case(seed=9)
    rng = np.random.default_rng(10)
    h = rng.standard_normal(scene.h1_dim) + 1j * rng.standard_normal(scene.h1_dim)
    for lam in (1j, 1 + 1j):
        direct = ex.generalized_resolvent(scene, lam).compressed @ h
        solved = ex.straus_solve(scene, pi, h, lam)
        assert np.linalg.norm(direct - solved) < RESID


def test_couple_round_trip():
    for seed, n1, n2 in ((3, 1, 1), (4, 2, 2), (5, 2, 3)):
        scene, pi = random_case(seed=seed, n1=n1, n2=n2)
        chi = ex.induced_chi(scene, pi)
        rebuilt = ex.couple(pi, chi)
        assert ex.rel_equal(rebuilt, scene.a_tilde)


def test_couple_canonical_parameter():
    # zero-dimensional second space: coupling equals the extension with
    # boundary values in the parameter relation
    pi = ex.fix_b_triplet()
    theta = ex.relation_from_matrix(np.array([[2.0]], dtype=complex))
    chi = ex.canonical_chi(theta)
    coupled = ex.couple(pi, chi)
    direct = ex.intermediate_extension(pi, theta)
    assert ex.rel_equal(coupled, direct)
    with pytest.raises(ex.AssumptionError):
        ex.canonical_chi(ex.relation_from_matrix(np.array([[1j]])))


def test_couple_keeps_one_coupling_per_triplet_and_tolerance(monkeypatch):
    scene, pi = random_case(seed=17)
    chi = ex.induced_chi(scene, pi)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    coupled = ex.couple(pi, chi)
    assert calls and ex.rel_equal(coupled, scene.a_tilde)
    # the slot holds (chi, coupling): a second call returns the same
    # relation and takes no SVD
    slot = boundary._triplet_cache(pi, ex.TOL).coupling
    assert slot[0] is chi and slot[1] is coupled
    calls.clear()
    assert ex.couple(pi, chi) is coupled and not calls
    # its basis is read-only
    with pytest.raises(ValueError):
        coupled.graph.basis[0, 0] = 1.0
    # chi is matched by identity: the same relation built again is coupled
    # again, and replaces the slot
    again = ex.induced_chi(scene, pi)
    assert again is not chi and ex.rel_equal(again.gamma, chi.gamma)
    rebuilt = ex.couple(pi, again)
    assert calls and rebuilt is not coupled and ex.rel_equal(rebuilt, coupled)
    assert ex.couple(pi, again) is rebuilt
    # another tolerance context keeps its own slot
    calls.clear()
    loose = ex.Tolerances(rank=2 * ex.TOL.rank)
    other = ex.couple(pi, again, loose)
    assert calls and other is not rebuilt and ex.couple(pi, again, loose) is other
    assert ex.couple(pi, again) is rebuilt


def test_a_coupling_that_raises_is_not_stored(monkeypatch):
    pi = ex.fix_b_triplet()
    chi = ex.canonical_chi(ex.relation_from_matrix(np.array([[2.0]], dtype=complex)))
    cache = boundary._triplet_cache(pi, ex.TOL)
    with pytest.raises(ex.DimMismatch):
        ex.couple(pi, ex.canonical_chi(ex.relation_from_matrix(np.eye(2))))
    assert cache.coupling is None
    flags = ex.rel_classify(ex.fix_a_relation())
    monkeypatch.setattr(coupling, "rel_classify", lambda rel, tol: flags)
    for _ in range(2):
        with pytest.raises(ex.AssumptionError):
            ex.couple(pi, chi)
        assert cache.coupling is None
    monkeypatch.undo()
    assert cache.coupling is None
    coupled = ex.couple(pi, chi)
    assert cache.coupling[0] is chi and cache.coupling[1] is coupled


def test_admissible_reuses_the_coupling_of_exact_mul(monkeypatch):
    # the catalog takes exact_mul(couple(pi, chi)) and then the reports,
    # whose exact dimension couples the same pair again
    scene, pi = random_case(seed=19)
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    pi_infty, pair_infty = ex.fix_infty_steering()
    dims = [ex.exact_mul(ex.couple(p, tau.realization)).dim for p, tau in ((pi, pair), (pi_infty, pair_infty))]
    assert dims == [0, 1]

    def no_coupling_svd(*args, **kwargs):
        raise AssertionError("the coupling was built again")

    monkeypatch.setattr(coupling, "_meet", no_coupling_svd)
    monkeypatch.setattr(coupling, "_span", no_coupling_svd)
    for p, tau, dim in ((pi, pair, 0), (pi_infty, pair_infty, 1)):
        rep = ex.admissible(p, tau)
        assert rep.exact_mul_dim == dim and rep.agreement


def test_double_weyl_two_routes():
    scene, pi = random_case(seed=11)
    chi = ex.induced_chi(scene, pi)
    dw = ex.double_weyl(pi, chi)
    assert ex.check_B123(dw.boundary).all_hold
    for lam in (1j, 2j, 1 + 1j):
        direct = ex.rel_matrix(ex.weyl_eval(dw.boundary, lam))
        assert np.linalg.norm(direct - dw.weyl_fn(lam)) < RESID


def test_double_weyl_corner_is_resolvent_family():
    # upper-left block reproduces the compressed resolvent after the
    # gamma-field dressing is stripped
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    chi = ex.induced_chi(scene, pi)
    dw = ex.double_weyl(pi, chi)
    val = dw.weyl_fn(1j)
    assert abs(val[0, 0] - 0.5j) < 1e-12
    val2 = dw.weyl_fn(2j)
    assert abs(val2[0, 0] - 0.4j) < 1e-12


def test_intermediate_extensions_two_routes():
    scene, pi = random_case(seed=13)
    chi = ex.induced_chi(scene, pi)
    for res in (ex.intermediate_h1(pi, chi), ex.intermediate_h2(pi, chi)):
        for lam in (1j, 2j):
            direct = ex.rel_matrix(ex.weyl_eval(res.boundary, lam))
            assert np.linalg.norm(direct - res.weyl_fn(lam)) < RESID


def test_fix_infty_coupling_is_multivalued():
    # the steering triplet itself has operator kernels; the multivalued
    # part appears only in the coupling with the realized parameter
    pi, pair = ex.fix_infty_steering()
    for idx in (0, 1):
        assert ex.rel_parts(ex.kernel_of_boundary_map(pi, idx)).mul.dim == 0
    coupled = ex.couple(pi, pair.realization)
    assert ex.rel_parts(coupled).mul.dim == 1
    assert ex.rel_classify(coupled).selfadjoint


def test_krein_rhs_on_a_bare_boundary_relation_keeps_its_cache(monkeypatch):
    scene = ex.random_scene(3, 2, 2)
    pi = ex.scene_triplet(scene)
    tau = ex.tau_of_extension(scene, pi)
    bare = ex.validate_boundary_relation(pi.gamma)
    assert not isinstance(bare, ex.OrdinaryTriplet)
    builds = []
    decompose = boundary._operator_spectrum
    monkeypatch.setattr(boundary, "_operator_spectrum", lambda *args: builds.append(1) or decompose(*args))
    for lam in (1j, 2j, 1 + 1j):
        lhs = ex.generalized_resolvent(scene, lam).compressed
        assert np.linalg.norm(ex.krein_rhs(bare, tau, lam) - lhs) <= RESID * (1 + np.linalg.norm(lhs))
    assert len(builds) == 1 and len(bare._derived) == 1
    # a bare relation that is not an ordinary triplet is refused
    with pytest.raises(ex.AssumptionError):
        ex.krein_rhs(ex.canonical_chi(ex.mul_relation(ex.full_subspace(1))), tau, 1j)


def _kernel_check_passes(scene, pi):
    try:
        coupling._scene_boundary_values(scene, pi, ex.TOL)
    except ex.TripletMismatch:
        return False
    return True


def _perturbed_scene(scene, seed, eps):
    a = ex.rel_matrix(scene.a_tilde)
    e = ex.random_hermitian(np.random.default_rng(seed), a.shape[0])
    return ex.coupling_scene(ex.relation_from_matrix(a + eps * e), scene.h1_dim, scene.h2_dim)


def test_triplet_check_matches_the_relation_route():
    # the boundary-value check of a scene's triplet gives the verdict of
    # comparing the triplet's kernel S with the first restriction S1
    shapes = [(1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 2), (2, 3), (4, 2)]
    for seed in range(40):
        n1, n2 = shapes[seed % len(shapes)]
        scene = ex.random_scene(seed, n1, n2)
        pi = ex.scene_triplet(scene)
        assert ex.rel_equal(pi.s_rel, scene.s1)
        assert _kernel_check_passes(scene, pi)
        # a triplet of another shape fails on dimensions first
        other = ex.scene_triplet(ex.random_scene(seed + 100, n1 + 1, n2))
        assert not ex.rel_equal(other.s_rel, scene.s1)
        assert not _kernel_check_passes(scene, other)
        if n1 <= n2:
            continue  # S1 = {0} for a generic matrix: nothing to perturb
        for eps in (1e-12, 1e-5, 1e-2):
            moved = _perturbed_scene(scene, seed + 200, eps)
            verdict = ex.rel_equal(pi.s_rel, moved.s1)
            assert verdict is (eps < 1e-8)
            assert _kernel_check_passes(moved, pi) is verdict


def _reference_double_weyl_graph(pi, chi):
    # former route: an orthonormal basis of dom Gamma from rel_parts (the
    # triplet's T) and its boundary values through the boundary map
    n1, n2, m = pi.state_dim, chi.state_dim, pi.boundary_dim
    t_basis = ex.rel_parts(pi.gamma).dom.basis
    bounds = boundary._boundary_map(pi, ex.TOL)(t_basis)
    g0, g1 = bounds[:m], bounds[m:]
    k1 = t_basis.shape[1]
    c = chi.gamma.graph.basis
    k2 = c.shape[1]
    h, hp = c[2 * n2 : 2 * n2 + m], c[2 * n2 + m :]
    first = np.vstack([t_basis[:n1], np.zeros((n2, k1)), t_basis[n1:], np.zeros((n2, k1)), g1, -g0, -g0, np.zeros((m, k1))])
    second = np.vstack([np.zeros((n1, k2)), c[:n2], np.zeros((n1, k2)), c[n2 : 2 * n2], hp, h, np.zeros((m, k2)), hp])
    return ex.relation_from_generators(2 * (n1 + n2), 4 * m, np.hstack([first, second]))


def _double_weyl_scenes():
    shapes = [(1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 2), (2, 3), (4, 2)]
    for seed in range(40):
        n1, n2 = shapes[seed % len(shapes)]
        scene = ex.random_scene(seed, n1, n2)
        pi = ex.scene_triplet(scene)
        yield pi, ex.induced_chi(scene, pi)
    yield ex.fix_b_triplet(), ex.induced_chi(ex.fix_b_scene(), ex.fix_b_triplet())
    pi, pair = ex.fix_infty_steering()
    yield pi, pair.realization


def test_double_weyl_graph_matches_the_parts_route():
    # the first summand's columns are read off Gamma's graph basis: the
    # same boundary relation as from an orthonormal basis of dom Gamma
    for pi, chi in _double_weyl_scenes():
        dw = ex.double_weyl(pi, chi)
        ref = _reference_double_weyl_graph(pi, chi)
        assert dw.boundary.gamma.graph_dim == ref.graph_dim
        assert np.linalg.norm(dw.boundary.gamma.graph.projector() - ref.graph.projector()) < 1e-12
        # a bare boundary relation passes ordinary_triplet first, and then
        # takes the general cache route of a triplet built from its graph
        bare = ex.double_weyl(ex.validate_boundary_relation(pi.gamma), chi)
        general = ex.double_weyl(ex.ordinary_triplet(pi.gamma), chi)
        assert np.array_equal(bare.boundary.gamma.graph.basis, dw.boundary.gamma.graph.basis)
        assert np.array_equal(bare.weyl_fn(2j), general.weyl_fn(2j))
        # a von Neumann triplet's closed-form cache gives the same family
        weyl = general.weyl_fn(2j)
        assert np.linalg.norm(dw.weyl_fn(2j) - weyl) <= 1e-12 * max(np.linalg.norm(weyl), 1.0)
    multivalued = ex.canonical_chi(ex.mul_relation(ex.full_subspace(1)))
    with pytest.raises(ex.AssumptionError):
        ex.double_weyl(multivalued, multivalued)


def test_double_weyl_and_t_transform_take_no_parts_or_product(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("no relation parts or product on this route")

    for module in (linrel, boundary, coupling, transforms):
        for name in ("rel_parts", "rel_product", "kernel_of_boundary_map"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    rng = np.random.default_rng(7)
    for pi, chi in _double_weyl_scenes():
        m = pi.boundary_dim
        dw = ex.double_weyl(pi, chi)
        # (B1)-(B3) are read off Gamma's graph basis
        for br in (pi, chi, dw.boundary):
            assert ex.check_B123(br).all_hold
        for t in (np.zeros((m, m)), np.eye(m)):
            ex.t_transform(dw.boundary, ex.SpaceSplit(m, m), t)
        # a J-unitary matrix moves Gamma's boundary rows, with no product
        ex.transpose_boundary(pi)
        ex.compose_boundary(ex.random_standard_j_unitary(rng, m), pi)
        ex.affine_transform(pi, np.eye(m), 2 * np.eye(m))


def _reference_straus_solve(scene, pi, h, lam):
    # former route: an orthonormal basis of dom Gamma from rel_parts (the
    # triplet's T) and its boundary values through the boundary map
    h1, m = scene.h1_dim, pi.boundary_dim
    proj = ex.tau_of_extension(scene, pi).eval(lam).graph.projector()
    t_basis = ex.rel_parts(pi.gamma).dom.basis
    bounds = boundary._boundary_map(pi, ex.TOL)(t_basis)
    twisted = np.vstack([bounds[:m], -bounds[m:]])
    system = np.vstack([t_basis[h1:] - lam * t_basis[:h1], (np.eye(2 * m) - proj) @ twisted])
    target = np.concatenate([h, np.zeros(2 * m)])
    coeff = np.linalg.lstsq(system, target, rcond=None)[0]
    if np.linalg.norm(system @ coeff - target) > coupling._STRAUS_RESIDUAL_TOL * (1 + np.linalg.norm(h)):
        raise ex.NoSolution("reference")
    null = _nullspace(system, ex.TOL)
    if null.size and np.linalg.norm(t_basis[:h1] @ null) > ex.TOL.angle:
        raise ex.NonUnique("reference")
    return t_basis[:h1] @ coeff


def _straus_outcome(solve, *args):
    try:
        return "solved", solve(*args)
    except (ex.NoSolution, ex.NonUnique) as exc:
        return type(exc).__name__, None


def test_straus_solve_decisions_match_the_parts_route():
    # dom Gamma is read off Gamma's graph basis by one QR; the NoSolution
    # and NonUnique decisions are those of the rel_parts route, at real
    # points (eigenvalues of the coupling and of its first corner) as well
    outcomes = set()
    cases = [(ex.fix_b_scene(), ex.fix_b_triplet())]
    shapes = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3)]
    for seed in range(18):
        scene = ex.random_scene(seed, *shapes[seed % len(shapes)])
        cases.append((scene, ex.scene_triplet(scene)))
    rng = np.random.default_rng(12)
    for scene, pi in cases:
        a = ex.rel_matrix(scene.a_tilde)
        h1 = scene.h1_dim
        lams = [1j, 1 + 1j, 0.0, 0.5, 1.0, *np.linalg.eigvalsh(a)[:2], np.linalg.eigvalsh(a[:h1, :h1])[0]]
        for lam in lams:
            for h in (np.zeros(h1, dtype=complex), rng.standard_normal(h1) + 1j * rng.standard_normal(h1)):
                new = _straus_outcome(ex.straus_solve, scene, pi, h, lam)
                ref = _straus_outcome(_reference_straus_solve, scene, pi, h, complex(lam))
                assert new[0] == ref[0]
                if new[0] == "solved":
                    assert np.linalg.norm(new[1] - ref[1]) <= 1e-10 * (1 + np.linalg.norm(ref[1]))
                outcomes.add(new[0])
    assert outcomes == {"solved", "NoSolution", "NonUnique"}


def _eager_scene_parts(a_tilde, h1, h2, tol=ex.TOL):
    """Former eager construction of a scene: each restriction is the kept
    rows of G ker(G_kill), each compression the span of the kept rows, and
    minimality is the simplicity of S2."""
    n = h1 + h2
    graph = a_tilde.graph
    first = list(range(h1)) + list(range(n, n + h1))
    second = list(range(h1, n)) + list(range(n + h1, 2 * n))

    def split(keep, kill, dim):
        inside = graph.basis @ _nullspace(graph.basis[kill, :], tol, 1.0)
        corner = ex.LinearRelation(dim, dim, ex.Subspace(2 * dim, inside[keep, :]))
        return corner, ex.LinearRelation(dim, dim, ex.subspace_coords(graph, keep, tol))

    s1, t1 = split(first, second, h1)
    s2, t2 = split(second, first, h2)
    return s1, s2, t1, t2, ex.is_simple(s2, tol=tol)


def _reducing_hermitian(coupling_eps=0.0):
    # the matrix of test_coupling_scene_with_reducing_eigenvector_is_not_minimal:
    # e_5 is an eigenvector of the second corner, coupled to e_1 at coupling_eps
    h = ex.random_hermitian(np.random.default_rng(10), 5)
    h[4, :] = 0.0
    h[:, 4] = 0.0
    h[4, 4] = 2.0
    h[0, 4] = h[4, 0] = coupling_eps
    return h


def _lazy_scene_cases():
    shapes = [(1, 1), (2, 1), (1, 3), (3, 2), (2, 2), (4, 4)]
    for seed in range(12):
        n1, n2 = shapes[seed % len(shapes)]
        rng = np.random.default_rng(300 + seed)
        yield ex.relation_from_matrix(ex.random_hermitian(rng, n1 + n2)), n1, n2
    yield ex.relation_from_matrix(_reducing_hermitian()), 2, 3
    yield ex.fix_b_relation(), 1, 1
    yield _multivalued_scene().a_tilde, 3, 2


def test_coupling_scene_takes_one_svd(monkeypatch):
    a_tilde = ex.relation_from_matrix(ex.random_hermitian(np.random.default_rng(41), 8))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    scene = ex.coupling_scene(a_tilde, 4, 4)
    assert len(calls) == 1
    # the other corners cost nothing until they are read, and once
    scene.s2, scene.t1, scene.t2, scene.minimal
    read = len(calls)
    scene.s2, scene.t1, scene.t2, scene.minimal
    assert read > 1 and len(calls) == read


def test_lazy_scene_parts_match_the_eager_construction():
    minimal = set()
    for a_tilde, h1, h2 in _lazy_scene_cases():
        scene = ex.coupling_scene(a_tilde, h1, h2)
        ref = _eager_scene_parts(a_tilde, h1, h2)
        for new, old in zip((scene.s1, scene.s2, scene.t1, scene.t2), ref[:4]):
            assert ex.rel_equal(new, old)
        assert scene.minimal is ref[4]
        minimal.add(scene.minimal)
    assert minimal == {True, False}


def test_lazy_scene_parts_use_the_scene_tolerances(monkeypatch):
    loose = ex.Tolerances(rank=1e-4, angle=1e-4, psd=1e-4)
    a_tilde = ex.relation_from_matrix(_reducing_hermitian(1e-6))
    # a reducing eigenvector coupled at 1e-6 decouples only under the loose cutoff
    assert ex.coupling_scene(a_tilde, 2, 3).minimal
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.extend(x for x in (*args, *kwargs.values()) if isinstance(x, ex.Tolerances))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("_nullspace", "subspace_coords", "is_simple"):
        monkeypatch.setattr(coupling, name, spy(getattr(coupling, name)))
    scene = ex.coupling_scene(a_tilde, 2, 3, loose)
    assert scene.tol == loose
    ref = _eager_scene_parts(a_tilde, 2, 3, loose)
    for new, old in zip((scene.s2, scene.t1, scene.t2), ref[1:4]):
        assert ex.rel_equal(new, old, loose)
    assert scene.minimal is ref[4] is False
    assert len(seen) == 5 and set(seen) == {loose}


def _cayley_scene_with_mul(seed):
    # a Cayley image of a Haar unitary plus one multivalued direction,
    # rotated by a seeded unitary so that mul A~ lies in neither summand
    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    a = ex.rel_direct_sum(ex.random_selfadjoint_relation(rng, n - 1), ex.mul_relation(ex.full_subspace(1)))
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    g = a.graph.basis
    a = ex.relation_from_generators(n, n, np.concatenate([q @ g[:n], q @ g[n:]]))
    h1 = 1 + seed % (n - 1)
    return ex.coupling_scene(a, h1, n - h1)


@pytest.mark.parametrize("kind", ["multivalued", "matrix"])
def test_generalized_resolvent_matches_resolvent_matrix(kind):
    # the scene's spectral decomposition against X (Y - lam X)^{-1} on A~'s
    # graph basis, off and near the real axis, with mul A~ != {0} or a matrix
    for seed in range(20):
        if kind == "multivalued":
            scene = _cayley_scene_with_mul(seed)
            assert ex.rel_parts(scene.a_tilde).mul.dim == 1
        else:
            scene = ex.random_scene(seed, 1 + seed % 3, 1 + seed % 4)
        h1 = scene.h1_dim
        for lam in (1j, -2j, 1 + 1j, 1e8j, 0.3 + 1e-6j, -1.7 + 1e-9j, 0.5 + 1e-12j):
            ref = ex.resolvent_matrix(scene.a_tilde, lam)[:h1, :h1]
            new = ex.generalized_resolvent(scene, lam).compressed
            assert np.linalg.norm(new - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0), (seed, lam)
        eig = coupling._operator_spectrum(scene.a_tilde.in_block, scene.a_tilde.out_block, ex.TOL).eigs[0]
        for route in (lambda lam: ex.resolvent_matrix(scene.a_tilde, lam), lambda lam: ex.generalized_resolvent(scene, lam)):
            with pytest.raises(ex.SingularAtLambda):
                route(eig)


def test_one_spectral_decomposition_per_scene(monkeypatch):
    builds = []
    decompose = coupling._operator_spectrum
    monkeypatch.setattr(coupling, "_operator_spectrum", lambda *args: builds.append(1) or decompose(*args))
    scenes = [ex.random_scene(seed, 2, 3) for seed in (1, 2)]
    for scene in scenes:
        for lam in (1j, -1j, 2j, -2j, 1 + 1j, 1 - 1j):
            ex.generalized_resolvent(scene, lam)
    assert len(builds) == 2
    # one decomposition per tolerance context, as for a triplet's cache
    ex.generalized_resolvent(scenes[0], 1j, ex.Tolerances(rank=1e-11))
    ex.generalized_resolvent(scenes[0], 2j, ex.Tolerances(rank=1e-11))
    assert len(builds) == 3
