"""Limit-based admissibility detectors against exactly computable cases."""

import numpy as np
import pytest

import extensio as ex


def lam_family(fn, dim=1):
    return ex.FamilyEval(dim, lambda lam: ex.relation_from_matrix(np.asarray(fn(lam))))


def test_limit_probe_validation():
    with pytest.raises(ex.ArgumentError):
        ex.LimitProbe(y_grid=(1e2, 1e3, 1e4))
    with pytest.raises(ex.ArgumentError):
        ex.LimitProbe(y_grid=(1e2, 1e3, 1e3, 1e4))
    probe = ex.LimitProbe(extra_probes=2, seed=5)
    vecs = ex.probe_vectors(3, probe)
    assert vecs.shape == (3, 5)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0)
    again = ex.probe_vectors(3, probe)
    assert np.array_equal(vecs, again)


def test_mul_a0_limit_discriminates_growth():
    # linear growth keeps a constant quadratic quotient
    assert not ex.mul_a0_limit(lam_family(lambda lam: [[lam]]))
    # decay and boundedness both pass the flat-slope gate
    assert ex.mul_a0_limit(lam_family(lambda lam: [[-1.0 / lam]]))
    assert ex.mul_a0_limit(lam_family(lambda lam: [[1j]]))
    model = ex.SLModel(1.0)
    assert ex.mul_a0_limit(ex.FamilyEval(2, lambda lam: ex.relation_from_matrix(ex.sl_weyl(model, lam))))


def test_mul_t_limit_behaviors():
    with pytest.raises(ex.AssumptionError):
        ex.mul_t_limit(lam_family(lambda lam: [[lam]]))
    # y * Im(-1/iy) = 1 stays bounded: the domain relation keeps a mul part
    assert not ex.mul_t_limit(lam_family(lambda lam: [[-1.0 / lam]]))
    # y * Im(i) = y diverges: no mul part anywhere
    assert ex.mul_t_limit(lam_family(lambda lam: [[1j]]))
    # excluding the whole space passes vacuously
    assert ex.mul_t_limit(
        lam_family(lambda lam: [[-1.0 / lam]]), h0=ex.full_subspace(1)
    )
    with pytest.raises(ex.ArgumentError):
        ex.mul_t_limit(lam_family(lambda lam: [[1j]]), h0=ex.full_subspace(2))


def test_fix_b_report_admissible():
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    rep = ex.admissible(pi, pair)
    assert rep.admissible
    assert rep.adm1_pass and rep.adm2_pass and rep.qlt_pass
    assert rep.exact_mul_dim == 0
    assert rep.agreement is True
    assert abs(rep.adm1_slope + 2.0) < 0.1
    assert abs(rep.adm2_slope + 2.0) < 0.1


def test_fix_infty_report_inadmissible():
    pi, pair = ex.fix_infty_steering()
    rep = ex.admissible(pi, pair)
    assert not rep.admissible
    assert rep.exact_mul_dim == 1
    assert rep.agreement is True
    # the failing condition flattens out instead of decaying
    assert abs(rep.adm2_slope) < 0.1
    # verdict is stable under moving the reference point
    for z0 in (1j, 2j, 1 + 1j):
        assert not ex.langer_textorius(pi, pair, z0)


def test_realization_free_pair_reports_none():
    pi = ex.fix_b_triplet()
    pair = ex.pair_from_matrix_function(1, lambda lam: np.array([[-1.0 / lam]]))
    rep = ex.admissible(pi, pair)
    assert rep.exact_mul_dim is None
    assert rep.agreement is None
    assert rep.admissible


def test_pure_mul_parameter_inadmissible():
    # the parameter relation 0 x C: the coupling is the multivalued
    # extension, and the second limit condition detects it
    pi = ex.fix_b_triplet()
    pair = ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1)))
    rep = ex.admissible(pi, pair)
    assert not rep.admissible
    assert not rep.adm2_pass
    assert rep.exact_mul_dim == 1
    assert rep.agreement is True


def test_mt_admissibility_zero_condition():
    pi = ex.fix_b_triplet()
    pair = ex.pair_from_matrix_function(1, lambda lam: np.array([[-1.0 / lam]]))
    assert ex.mt_admissibility(pi, pair, np.zeros((1, 1)))


def test_langer_textorius_reference_independence():
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    infty_pi, infty_pair = ex.fix_infty_steering()
    for trip, tau, expected in ((pi, pair, True), (infty_pi, infty_pair, False)):
        for z0 in (1j, 2j, 1 + 1j):
            verdict = ex.langer_textorius(trip, tau, z0)
            assert verdict is expected
            # admissible shares its grid pass with the standalone test
            assert ex.admissible(trip, tau, z0=z0).qlt_pass == verdict
    with pytest.raises(ex.ArgumentError):
        ex.langer_textorius(pi, pair, -1j)
    with pytest.raises(ex.ArgumentError):
        ex.langer_textorius(pi, pair, 2.0)


def test_singular_pair_combination_raises():
    # psi + M phi vanishes identically: no inverse, and no silent fallback
    pi = ex.fix_b_triplet()
    zero = np.zeros((1, 1), dtype=complex)
    pair = ex.NevanlinnaPairEval(1, lambda lam: (zero, zero))
    with pytest.raises(ex.Omega0Singular):
        ex.admissible(pi, pair)


def test_exact_mul_helper():
    assert ex.exact_mul(ex.fix_infty_relation()).dim == 1
    assert ex.exact_mul(ex.fix_b_relation()).dim == 0
    with pytest.raises(ex.RealizationUnavailable):
        ex.realize_tau(
            ex.pair_from_matrix_function(1, lambda lam: np.array([[lam]]))
        )
