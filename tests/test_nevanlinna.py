"""Herglotz evaluation, parameter pairs and family classification."""

import numpy as np
import pytest

import extensio as ex

RESID = 1e-10


def herglotz_fixture():
    const = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    linear = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    mass = (0.5, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    return ex.HerglotzModel(const, linear, (mass,))


def test_herglotz_eval_oracle():
    model = herglotz_fixture()
    lam = 1 + 2j
    t, sigma = model.masses[0]
    weight = 1.0 / (t - lam) - t / (t * t + 1.0)
    oracle = model.coeff_const + lam * model.coeff_linear + weight * sigma
    assert np.linalg.norm(ex.herglotz_eval(model, lam) - oracle) < RESID
    imag = (ex.herglotz_eval(model, 2j) - ex.herglotz_eval(model, 2j).conj().T) / 2j
    assert np.linalg.eigvalsh(imag).min() > -1e-12


def test_herglotz_guards():
    model = herglotz_fixture()
    with pytest.raises(ex.PoleHit):
        ex.herglotz_eval(model, 0.5)
    with pytest.raises(ex.RealAxis):
        ex.herglotz_eval(model, 2.0)
    with pytest.raises(ex.ArgumentError):
        ex.HerglotzModel(np.array([[1j]]), np.eye(1, dtype=complex), ())
    with pytest.raises(ex.ArgumentError):
        ex.HerglotzModel(np.eye(1, dtype=complex), -np.eye(1, dtype=complex), ())


def test_pair_from_herglotz_is_valid():
    pair = ex.pair_from_herglotz(herglotz_fixture())
    ex.check_pair(pair)
    kernel = ex.nev_kernel(pair, 2j, 2j)
    assert np.linalg.eigvalsh((kernel + kernel.conj().T) / 2).min() > -1e-9


def test_invalid_pair_detected():
    # psi = -lam violates dissipativity in the upper half plane
    bad = ex.NevanlinnaPairEval(
        1, lambda lam: (np.eye(1, dtype=complex), np.array([[-lam]], dtype=complex))
    )
    with pytest.raises(ex.HypothesisFailed) as err:
        ex.check_pair(bad)
    assert err.value.which == "dissipativity"


def test_family_checks():
    pair = ex.pair_from_herglotz(herglotz_fixture())
    fam = ex.family_eval_from_pair(pair)
    ex.check_family(fam)
    flags = ex.classify_family(fam, 1j)
    assert flags.operator_valued
    assert flags.strict and flags.uniformly_strict
    assert not flags.constant


def test_constant_family_flags():
    value = ex.relation_from_matrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    pair = ex.realized_constant_pair(value)
    fam = ex.family_eval_from_pair(pair)
    flags = ex.classify_family(fam, 1j)
    assert flags.constant
    assert not flags.strict and not flags.uniformly_strict
    assert flags.everywhere_defined and not flags.strict_everywhere_defined


def test_multivalued_constant_family_decomposition():
    value = ex.rel_direct_sum(
        ex.relation_from_matrix(np.array([[2.0]], dtype=complex)),
        ex.mul_relation(ex.full_subspace(1)),
    )
    pair = ex.realized_constant_pair(value)
    fam = ex.family_eval_from_pair(pair)
    part, mul = ex.decompose_family(fam, 1j)
    assert mul.dim == 1
    assert ex.rel_parts(part).mul.dim == 0
    flags = ex.classify_family(fam, 1j)
    assert not flags.operator_valued and not flags.everywhere_defined


def test_weyl_family_symmetry():
    # M(conj lam) = M(lam)^H for the family of a boundary triplet
    rng = np.random.default_rng(7)
    s = ex.random_symmetric_restriction(rng, 4, 2)
    pi = ex.von_neumann_triplet(s)
    fam = ex.FamilyEval(2, lambda lam: ex.weyl_eval(pi, lam))
    ex.check_family(fam)


def test_pair_at_guards():
    pair = ex.pair_from_herglotz(herglotz_fixture())
    with pytest.raises(ex.RealAxis):
        ex.pair_at(pair, 3.0)
    with pytest.raises(ex.ConjugateCoincidence):
        ex.nev_kernel(pair, 1j, -1j)


def test_pair_from_relation_requires_maximal():
    with pytest.raises(ex.ArgumentError):
        ex.pair_from_relation(ex.zero_relation(2, 1))
    thin = ex.relation_from_generators(
        2, 2, np.array([[1.0], [0.0], [0.0], [0.0]], dtype=complex)
    )
    with pytest.raises(ex.ArgumentError):
        ex.pair_from_relation(thin)


def test_pair_from_matrix_function():
    pair = ex.pair_from_matrix_function(1, lambda lam: np.array([[lam]]))
    phi, psi = ex.pair_at(pair, 2j)
    assert phi[0, 0] == 1.0 and psi[0, 0] == 2j
    ex.check_pair(pair)
    # its family value at 2i is the graph of 2i
    assert ex.rel_equal(ex.family_from_pair(pair, 2j), ex.relation_from_matrix([[2j]]))


def test_a_pair_without_a_grid_is_evaluated_point_by_point():
    model = ex.HerglotzModel(np.zeros((1, 1)), np.eye(1), ((0.5, np.eye(1)), (2.0, np.eye(1))))
    pair = ex.pair_from_herglotz(model)
    lams = [1j, 2 + 1j, -1j]
    for lam, (phi, psi) in zip(lams, pair.eval_grid(lams)):
        assert np.array_equal(phi, np.eye(1)) and np.array_equal(psi, ex.herglotz_eval(model, lam))
    # the loop stops at the first failing point, and its error names that point
    with pytest.raises(ex.PoleHit, match="mass point 2.0"):
        pair.eval_grid([1j, 2.0, 0.5])
