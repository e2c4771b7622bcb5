"""Validation where data enters: public constructors and serialize.

Bases the library computes itself skip these checks; the session guard in
conftest.py verifies them instead.  Each typed hypothesis error is raised
here by one input that reaches its raise site.
"""

import numpy as np
import pytest

import extensio as ex

BAD_BASES = {
    "non-orthonormal": (2, [[1.0, 1.0], [0.0, 1.0]]),
    "nan entry": (2, [[np.nan], [0.0]]),
    "inf entry": (2, [[1.0], [np.inf]]),
    "more columns than rows": (1, [[1.0, 0.0]]),
    "wrong row count": (3, np.eye(2)),
}


@pytest.mark.parametrize("ambient_dim, basis", BAD_BASES.values(), ids=BAD_BASES.keys())
def test_public_subspace_rejects_bad_bases(ambient_dim, basis):
    with pytest.raises(ex.ArgumentError):
        ex.Subspace(ambient_dim, np.asarray(basis, dtype=complex))


def test_public_relation_constructors_reject_nan():
    with pytest.raises(ex.ArgumentError):
        ex.relation_from_generators(1, 1, [[np.nan], [1.0]])
    with pytest.raises(ex.ArgumentError):
        ex.relation_from_matrix([[1.0, np.nan], [0.0, 1.0]])


def test_json_to_relation_rejects_nan_generator():
    obj = {"dim_in": 1, "dim_out": 1, "generators": {"rows": 2, "cols": 1, "data": [[np.nan, 0.0], [1.0, 0.0]]}}
    with pytest.raises(ex.ArgumentError):
        ex.json_to_relation(obj)


def test_subspace_permute_rejects_non_permutations():
    space = ex.full_subspace(3)
    for perm in ([0, 0, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(ex.ArgumentError):
            ex.subspace_permute(space, perm)


def test_session_guard_checks_the_trusted_path():
    with pytest.raises(AssertionError):
        ex.Subspace._trusted(2, np.array([[1.0], [1.0]], dtype=complex))
    with pytest.raises(AssertionError):
        ex.Subspace._trusted(2, np.array([[1.0], [np.nan]], dtype=complex))


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_extreme_magnitudes_give_finite_orthonormal_bases(scale):
    """Every basis built from a Hermitian graph this large passes the
    session guard, and the scale-free facts hold: the relation is
    selfadjoint, equals its adjoint, and its square has full graph."""
    n = 3
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rel = ex.relation_from_matrix((a + a.conj().T) / 2 * scale)
        square = ex.rel_product(rel, rel)
        adj = ex.rel_adjoint(rel)
        assert rel.graph_dim == square.graph_dim == adj.graph_dim == n
        assert ex.rel_equal(adj, rel)
        assert ex.rel_classify(rel).selfadjoint
        for r in (rel, square):
            dom, ran, ker, mul = ex.rel_parts(r)
            assert dom.dim + mul.dim == ran.dim + ker.dim == n


def _lagrangian_square():
    # L x L with L = {(0, h')} the J-neutral line of C^2: a unitary relation
    # whose kernel is L, so composing a triplet with it enlarges the kernel
    # from S to A1 and leaves no first boundary value.
    return ex.relation_from_generators(2, 2, [[0, 0], [1, 0], [0, 0], [0, 1]])


TYPED_ERRORS = {
    "NotIsometric": (ex.NotIsometric, lambda: ex.validate_boundary_relation(ex.relation_from_matrix(2 * np.eye(2)))),
    "NotIsometryU": (ex.NotIsometryU, lambda: ex.von_neumann_triplet(ex.fix_a_relation(), u=2 * np.eye(2))),
    "KernelNontrivial": (ex.KernelNontrivial, lambda: ex.compose_boundary(_lagrangian_square(), ex.fix_b_triplet())),
    "NotB123": (
        ex.NotB123,
        lambda: ex.reduce_multivalued(
            ex.validate_boundary_relation(ex.rel_product(_lagrangian_square(), ex.fix_b_triplet().gamma))
        ),
    ),
    "KNotExtending": (ex.KNotExtending, lambda: ex.reduce_multivalued(ex.fix_b_triplet(), k=[[1j]])),
    # the NotB123 composite: its first boundary values do not fill C^1, so
    # B2 fails and schur_complement refuses its base relation
    "HypothesisFailed": (
        ex.HypothesisFailed,
        lambda: ex.schur_complement(
            ex.validate_boundary_relation(ex.rel_product(_lagrangian_square(), ex.fix_b_triplet().gamma)),
            ex.SpaceSplit(1, 0),
        ),
    ),
    # the flip coupling at its eigenvalue 1: (A - 1) x = (h, 0) has no
    # solution for h = 1, and the eigenvector (1, 1) solves it for h = 0
    "NoSolution": (ex.NoSolution, lambda: ex.straus_solve(ex.fix_b_scene(), ex.fix_b_triplet(), [1.0], 1.0)),
    "NonUnique": (ex.NonUnique, lambda: ex.straus_solve(ex.fix_b_scene(), ex.fix_b_triplet(), [0.0], 1.0)),
}


@pytest.mark.parametrize("error, call", TYPED_ERRORS.values(), ids=TYPED_ERRORS.keys())
def test_typed_errors_reach_their_raise_sites(error, call):
    with pytest.raises(error):
        call()
