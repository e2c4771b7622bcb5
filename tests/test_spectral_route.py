"""Gamma fields, Weyl functions and the resolvent of A0 = ker Gamma_0 from
one spectral decomposition of A0 per triplet, against the per-point
nullspace route and a 60-digit evaluation of the nullspace formula."""

import mpmath
import numpy as np
import pytest

import extensio as ex
from extensio import boundary
from extensio.admissibility import DEFAULT_GRID
from extensio.boundary import _a0_resolvent, _gamma_and_weyl_grid, _nullspace_gamma_and_weyl, _triplet_cache

AGREE = 1e-12
FUSED = 1e-14
REFERENCE = 1e-13
POINTS = [1j * y for y in DEFAULT_GRID] + [1j, -1j, 1 + 1j, 1 - 1j] + [x + 1e-6j for x in (-2.5, -0.3, 0.7, 3.1)]


def _rel(new, ref):
    return np.linalg.norm(new - ref) / np.linalg.norm(ref)


def _one_point(br, lam):
    """gamma(lam) and M(lam) from a one-point grid."""
    gam, weyl, _ = _gamma_and_weyl_grid(br, [lam], ex.TOL)
    return gam[0], weyl[0]


def _triplets(case):
    if case == "fix-b":
        return [ex.fix_b_triplet()]
    if case == "fix-infty":
        return [ex.fix_infty_steering()[0]]
    rng = np.random.default_rng(31)
    shapes = ((2, 1), (3, 2), (5, 1), (8, 3), (13, 2), (24, 1), (24, 5))
    return [ex.von_neumann_triplet(ex.random_symmetric_restriction(rng, n, d)) for n, d in shapes]


@pytest.mark.parametrize("case", ["fix-b", "fix-infty", "random"])
def test_spectral_route_matches_nullspace_route(case):
    for br in _triplets(case):
        a0 = ex.kernel_of_boundary_map(br, 0)
        for lam in POINTS:
            g_new, m_new = _one_point(br, lam)
            g_old, m_old = _nullspace_gamma_and_weyl(br, lam, ex.TOL)
            assert _rel(m_new, m_old) <= AGREE, lam
            # the nullspace route reads gamma off unit graph columns, so its
            # own rounding sits at unit scale, however small gamma is
            assert np.linalg.norm(g_new - g_old) <= AGREE * max(np.linalg.norm(g_old), 1.0), lam
            r_new = _a0_resolvent(br, lam, ex.TOL)
            r_old = ex.resolvent_matrix(a0, lam)
            assert np.linalg.norm(r_new - r_old) <= AGREE * max(np.linalg.norm(r_old), 1.0), lam


def _graph_gap(rel, mat):
    ref = ex.relation_from_matrix(mat).graph
    return max(ex.containment_gap(rel.graph, ref), ex.containment_gap(ref, rel.graph))


@pytest.mark.parametrize("case", ["fix-b", "fix-infty", "random"])
def test_weyl_values_and_gamma_fields_match_the_nullspace_route(case):
    # on an ordinary triplet the public values are the graphs of the
    # spectral route's M and gamma, spanned by one QR
    for br in _triplets(case):
        assert isinstance(br, ex.OrdinaryTriplet)
        for lam in POINTS:
            g_old, m_old = _nullspace_gamma_and_weyl(br, lam, ex.TOL)
            assert _graph_gap(ex.weyl_eval(br, lam), m_old) <= AGREE, (case, lam)
            assert _graph_gap(ex.gamma_field(br, lam), g_old) <= AGREE, (case, lam)


def test_warm_ordinary_triplet_values_take_no_svd(monkeypatch):
    # once the triplet's spectral data is cached, weyl_eval, gamma_field and
    # tau's LU branch (here with S1 != {0}) take QRs and solves only
    scene = ex.random_scene(41, 4, 2)
    pi = ex.scene_triplet(scene)
    assert isinstance(pi, ex.OrdinaryTriplet) and scene.s1.graph_dim == 2
    tau = ex.tau_of_extension(scene, pi)
    ex.weyl_eval(pi, 1j)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    for lam in (1j, -2j, 1 + 1j, 0.5 - 3j):
        ex.weyl_eval(pi, lam)
        ex.gamma_field(pi, lam)
        tau.eval(lam)
    assert calls == []


def test_spectral_route_off_the_spectrum_only():
    br = _triplets("random")[1]
    eigs = _triplet_cache(br, ex.TOL).spectrum.eigs
    with pytest.raises(ex.SingularAtLambda):
        _a0_resolvent(br, eigs[0], ex.TOL)
    with pytest.raises(ex.RealAxis):
        _one_point(br, 0.5)
    # the public values of an ordinary triplet read the same spectral data
    for value in (ex.weyl_eval, ex.gamma_field):
        with pytest.raises(ex.SingularAtLambda):
            value(br, eigs[0] + 1e-13j)
    # a real point off the spectrum of A0 has a resolvent
    real = (eigs[0] + eigs[1]) / 2
    ref = ex.resolvent_matrix(ex.kernel_of_boundary_map(br, 0), real)
    assert np.linalg.norm(_a0_resolvent(br, real, ex.TOL) - ref) <= AGREE * np.linalg.norm(ref)


def test_krein_pass_matches_the_composition():
    # krein_rhs takes gamma(lam), gamma(conj lam), M(lam) and A0's resolvent
    # from one grid pass at [lam, conj lam]; each piece is the one the
    # one-point calls and _a0_resolvent give
    for case in ("fix-b", "fix-infty", "random"):
        for br in _triplets(case):
            m = br.boundary_dim
            tau = ex.FamilyEval(m, lambda lam: ex.relation_from_matrix(np.eye(m)))
            vecs = _triplet_cache(br, ex.TOL).spectrum.vecs
            for lam in POINTS:
                g_lam, m_lam = _one_point(br, lam)
                g_bar, _ = _one_point(br, lam.conjugate())
                r0 = _a0_resolvent(br, lam, ex.TOL)
                gam, weyl, diffs = _gamma_and_weyl_grid(br, [lam, lam.conjugate()], ex.TOL)
                fused = (gam[0], gam[1], weyl[0], (vecs / diffs[0]) @ vecs.conj().T)
                for new, ref in zip(fused, (g_lam, g_bar, m_lam, r0)):
                    assert np.linalg.norm(new - ref) <= FUSED * np.linalg.norm(ref), (case, lam)
                # tau = I: (M + tau)^{-1} = (I + M)^{-1}, which krein_rhs takes
                # through a graph basis of tau(lam), so only to AGREE
                composed = r0 - g_lam @ np.linalg.inv(np.eye(m) + m_lam) @ g_bar.conj().T
                rhs = ex.krein_rhs(br, tau, lam)
                assert np.linalg.norm(rhs - composed) <= AGREE * max(np.linalg.norm(composed), 1.0), (case, lam)


def test_krein_rhs_off_the_real_axis_and_the_spectrum_only(monkeypatch):
    br = _triplets("random")[1]
    tau = ex.FamilyEval(br.boundary_dim, lambda lam: ex.relation_from_matrix(np.eye(br.boundary_dim)))
    eigs = _triplet_cache(br, ex.TOL).spectrum.eigs
    # within the rank cutoff of an eigenvalue of A0
    with pytest.raises(ex.SingularAtLambda):
        ex.krein_rhs(br, tau, eigs[0] + 1e-13j)

    def refused(*args):
        raise AssertionError("a real point reached the grid")

    # a real point is refused before any cache or grid work
    monkeypatch.setattr(boundary, "_triplet_cache", refused)
    monkeypatch.setattr(boundary, "_off_spectrum", refused)
    with pytest.raises(ex.RealAxis):
        ex.krein_rhs(br, tau, (eigs[0] + eigs[1]) / 2)


def _mp_nullspace_route(br, lam):
    """gamma = G_f c (G_h c)^{-1} and M = G_h' c (G_h c)^{-1} to 60 digits,
    with c spanning ker(G_f' - lam G_f), on the double-precision graph
    basis G of the triplet."""
    n, m = br.state_dim, br.boundary_dim
    with mpmath.workdps(60):
        g = mpmath.matrix(br.gamma.graph.basis.tolist())
        shifted = g[n : 2 * n, :] - mpmath.mpc(lam.real, lam.imag) * g[:n, :]
        q, _ = mpmath.qr(shifted.H, mode="full")
        cols = g * q[:, n:]
        inv = mpmath.inverse(cols[2 * n : 2 * n + m, :])
        gam, weyl = cols[:n, :] * inv, cols[2 * n + m :, :] * inv
        return (np.array(mat.tolist(), dtype=complex) for mat in (gam, weyl))


def test_spectral_route_matches_extended_precision_reference():
    rng = np.random.default_rng(37)
    for n, d in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        br = ex.von_neumann_triplet(ex.random_symmetric_restriction(rng, n, d))
        for lam in (1j, 1 + 1j, 1e4j, 1e8j, 2 + 1e-7j):
            g_ref, m_ref = _mp_nullspace_route(br, lam)
            g_new, m_new = _one_point(br, lam)
            assert _rel(g_new, g_ref) <= REFERENCE, (n, d, lam)
            assert _rel(m_new, m_ref) <= REFERENCE, (n, d, lam)
            # and so do the public values, through their QR graph bases
            assert _rel(ex.rel_matrix(ex.gamma_field(br, lam)), g_ref) <= REFERENCE, (n, d, lam)
            assert _rel(ex.rel_matrix(ex.weyl_eval(br, lam)), m_ref) <= REFERENCE, (n, d, lam)


def test_one_spectral_decomposition_per_triplet(monkeypatch):
    builds = []
    decompose = boundary._operator_spectrum
    monkeypatch.setattr(boundary, "_operator_spectrum", lambda *args: builds.append(1) or decompose(*args))
    pi, pair = ex.fix_infty_steering()
    for z0 in (1j, 2j, 1 + 1j):
        ex.admissible(pi, pair, z0=z0)
    ex.mt_admissibility(pi, pair, np.zeros((1, 1)))
    assert len(builds) == 1
    # the cache belongs to the object: a fresh triplet with the same
    # content builds its own
    ex.admissible(*ex.fix_infty_steering())
    assert len(builds) == 2


def test_weyl_identity_check_reads_both_points_by_nullspace(monkeypatch):
    # check_weyl_identities tests the propagation against gamma and M taken
    # by one nullspace at each point, never against the cache it checks
    pi = _triplets("random")[0]
    ex.check_weyl_identities(pi, 1 + 2j, 2j)
    points = []
    defect_coords = boundary._defect_coords
    monkeypatch.setattr(boundary, "_defect_coords", lambda br, lam, tol: points.append(lam) or defect_coords(br, lam, tol))
    ex.check_weyl_identities(pi, 1 + 2j, 2j)
    assert points == [1 + 2j, 2j]
