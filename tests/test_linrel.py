"""Subspace and linear relation calculus tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extensio as ex
from extensio.admissibility import DEFAULT_GRID
from extensio.boundary import _a0_resolvent, _triplet_cache
from extensio import linrel
from extensio.linrel import _nullspace, _q_factor, _svd

RESID = 1e-10


def random_rel(rng, dim_in, dim_out, graph_dim):
    gens = rng.standard_normal((dim_in + dim_out, graph_dim)) + 1j * rng.standard_normal(
        (dim_in + dim_out, graph_dim)
    )
    return ex.relation_from_generators(dim_in, dim_out, gens)


def test_as_complex_matrix_validation():
    with pytest.raises(ex.ArgumentError):
        ex.as_complex_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ex.ArgumentError):
        ex.as_complex_matrix(np.eye(2), 3, 2)
    # non-contiguous views must pass the finiteness check
    picked = np.eye(4, dtype=complex)[:, [0, 2]]
    out = ex.as_complex_matrix(picked)
    assert out.shape == (4, 2)


def test_subspace_rank_collapse():
    cols = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    sub = ex.subspace_from_columns(cols)
    assert sub.dim == 1
    proj = sub.projector()
    assert np.linalg.norm(proj @ proj - proj) < RESID


def test_subspace_equality_and_gap():
    a = ex.subspace_from_columns(np.array([[1.0], [0.0]], dtype=complex))
    b = ex.subspace_from_columns(np.array([[2.0], [0.0]], dtype=complex))
    c = ex.subspace_from_columns(np.array([[1.0], [1.0]], dtype=complex))
    assert ex.subspace_equal(a, b)
    assert not ex.subspace_equal(a, c)
    # angle between span{e1} and the diagonal is pi/4
    assert abs(ex.containment_gap(a, c) - np.pi / 4) < 1e-12


def test_subspace_lattice_dims():
    rng = np.random.default_rng(0)
    a = ex.subspace_from_columns(rng.standard_normal((6, 2)) + 0j)
    b = ex.subspace_from_columns(rng.standard_normal((6, 3)) + 0j)
    inter = ex.subspace_intersect(a, b)
    total = ex.subspace_sum(a, b)
    assert total.dim + inter.dim == a.dim + b.dim
    comp = ex.subspace_complement(a)
    assert comp.dim == 6 - a.dim
    assert ex.largest_principal_angle(a, comp) > 1.0


def test_relation_from_matrix_parts():
    mat = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
    rel = ex.relation_from_matrix(mat)
    parts = ex.rel_parts(rel)
    assert parts.dom.dim == 2
    assert parts.ran.dim == 1
    assert parts.ker.dim == 1
    assert parts.mul.dim == 0
    assert np.linalg.norm(ex.rel_matrix(rel) - mat) < RESID


def test_adjoint_matches_conjugate_transpose():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    adj = ex.rel_adjoint(ex.relation_from_matrix(mat))
    assert np.linalg.norm(ex.rel_matrix(adj) - mat.conj().T) < RESID


def test_operator_sum_vs_componentwise():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op_sum = ex.rel_sum(ex.relation_from_matrix(a), ex.relation_from_matrix(b))
    assert np.linalg.norm(ex.rel_matrix(op_sum) - (a + b)) < RESID
    # componentwise sum of a graph with itself is the graph again
    rel = ex.relation_from_matrix(a)
    comp = ex.rel_comp_sum(rel, rel)
    assert ex.rel_equal(comp, rel)


def test_product_matches_matrix_product():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    prod = ex.rel_product(ex.relation_from_matrix(a), ex.relation_from_matrix(b))
    assert np.linalg.norm(ex.rel_matrix(prod) - a @ b) < RESID


def test_inverse_and_shift():
    mat = np.array([[2.0, 0.0], [0.0, 4.0]], dtype=complex)
    rel = ex.relation_from_matrix(mat)
    inv = ex.rel_inverse(rel)
    assert np.linalg.norm(ex.rel_matrix(inv) - np.linalg.inv(mat)) < RESID


def _former_rank(singular, shape, tol, scale):
    # the count as numpy array arithmetic, before it moved to Python floats
    if singular.size == 0:
        return 0
    anchor = singular[0] if scale is None else np.maximum(singular[0], scale)
    return int(np.count_nonzero(singular > tol.rank * anchor * max(shape)))


def _rank_table():
    tol = ex.TOL
    at = tol.rank * 2.0 * 3  # the cutoff of [2.0, ...] on a 3 x 2 matrix, unanchored
    table = [
        (np.zeros(0), (3, 0)),
        (np.zeros(0), (0, 0)),
        (np.array([0.0]), (1, 1)),
        (np.array([1e-11]), (1, 1)),
        (np.array([5.0]), (4, 1)),
        (np.array([2.0, at]), (3, 2)),
        (np.array([2.0, np.nextafter(at, np.inf)]), (3, 2)),
        (np.array([2.0, np.nextafter(at, 0.0)]), (3, 2)),
        (np.array([0.5, tol.rank * 3]), (3, 3)),  # at the unit-anchored cutoff
        (np.array([0.5, 0.1, tol.rank * 10.0 * 3]), (3, 3)),  # at the cutoff anchored at 10
        (np.array([3.0, 1.0, 1e-9, 1e-10, 0.0]), (5, 5)),
    ]
    rng = np.random.default_rng(17)
    for shape in [(2, 2), (4, 3), (3, 6), (8, 8)]:
        mat = rng.standard_normal(shape) @ np.diag(10.0 ** rng.uniform(-14, 3, shape[1]))
        table.append((np.linalg.svd(mat, compute_uv=False), shape))
    return table


@pytest.mark.parametrize("scale", [None, 1.0, 10.0])
def test_rank_on_python_floats_matches_the_array_count(scale):
    for singular, shape in _rank_table():
        want = _former_rank(singular, shape, ex.TOL, scale)
        got = linrel._rank(singular, shape, ex.TOL, scale)
        assert type(got) is int and got == want, (singular, shape)
    # the table holds values exactly at the cutoff, one ulp either side
    assert linrel._rank(np.array([2.0, ex.TOL.rank * 2.0 * 3]), (3, 2), ex.TOL) == 1
    assert linrel._rank(np.array([0.5, ex.TOL.rank * 3]), (3, 3), ex.TOL, 1.0) == 1
    assert linrel._rank(np.array([0.5, ex.TOL.rank * 10.0 * 3]), (3, 3), ex.TOL, 10.0) == 1


def test_rank_of_a_stack_is_the_rank_of_each_matrix():
    rng = np.random.default_rng(23)
    for shape in [(5, 3, 3), (4, 2, 5), (3, 4, 0)]:
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if shape[2]:
            stack[1, :, -1] = stack[1, :, 0]  # rank one short
            stack[2] *= 1e-12  # rounding level at unit scale only
        for scale in (None, 1.0):
            ranks = linrel._rank_of(stack, ex.TOL, scale)
            assert ranks.tolist() == [linrel._rank_of(mat, ex.TOL, scale) for mat in stack]
    bad = np.ones((3, 2, 2), dtype=complex)
    bad[2, 0, 0] = np.nan
    with pytest.raises(ex.AssumptionError, match="SVD did not converge"):
        linrel._rank_of(bad, ex.TOL)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_invertibility_cutoff_is_unit_anchored(factor):
    # rel_matrix, check_pair, affine_transform and the off-spectrum test
    # call an n x n block singular when its smallest singular value s is
    # at most tol.rank * max(1, smax) * n
    n = 3
    s = factor * ex.TOL.rank * n
    singular = factor < 1
    # the graph of t*I has an input block with singular values
    # 1 / sqrt(1 + t^2); built from generators it carries no matrix, so
    # rel_matrix decides on that block
    t = np.sqrt(1.0 / s**2 - 1.0)
    rel = ex.relation_from_generators(n, n, np.concatenate([np.eye(n), t * np.eye(n)]))
    assert np.allclose(np.linalg.svd(rel.in_block, compute_uv=False), s, rtol=1e-6, atol=0)
    if singular:
        with pytest.raises(ex.AssumptionError):
            ex.rel_matrix(rel)
    else:
        assert np.linalg.norm(ex.rel_matrix(rel) - t * np.eye(n)) < 1e-6 * t
    # psi +/- i phi = +/- i s I for the pair (s I, 0)
    pair = ex.NevanlinnaPairEval(n, lambda lam: (s * np.eye(n), np.zeros((n, n))))
    if singular:
        with pytest.raises(ex.HypothesisFailed) as info:
            ex.check_pair(pair)
        assert info.value.which == "invertibility"
    else:
        ex.check_pair(pair)
    # affine_transform with G = s I on a boundary relation with boundary
    # dimension n; it has no state rows, which W = diag(G^-1, G*) of
    # condition 1/s^2 would push out of the QR of Gamma's moved graph
    chi = ex.canonical_chi(ex.relation_from_matrix(np.diag([0.5, -1.0, 2.0])))
    if singular:
        with pytest.raises(ex.GSingular):
            ex.affine_transform(chi, np.zeros((n, n)), s * np.eye(n))
    else:
        assert ex.affine_transform(chi, np.zeros((n, n)), s * np.eye(n)).boundary_dim == n
    # lam at distance factor x cutoff from the lowest eigenvalue of A0,
    # whose |t - lam| are the singular values of A0 - lam on dom A0
    br = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(3), 5, 2))
    eigs = _triplet_cache(br, ex.TOL).spectrum.eigs
    dist = factor * ex.TOL.rank * br.state_dim * max(1.0, np.abs(eigs - eigs[0]).max())
    lam = eigs[0] + dist
    if singular:
        with pytest.raises(ex.SingularAtLambda, match="eigenvalue of A0"):
            _a0_resolvent(br, lam, ex.TOL)
    else:
        assert np.linalg.norm(_a0_resolvent(br, lam, ex.TOL), 2) == pytest.approx(1 / dist, rel=1e-6)


def test_mul_and_zero_relations():
    mul = ex.mul_relation(ex.full_subspace(2))
    parts = ex.rel_parts(mul)
    assert parts.dom.dim == 0 and parts.mul.dim == 2
    zero = ex.zero_relation(2, 2)
    assert zero.graph_dim == 2
    assert np.linalg.norm(ex.rel_matrix(zero)) == 0.0
    ident = ex.identity_relation(3)
    assert np.linalg.norm(ex.rel_matrix(ident) - np.eye(3)) < RESID


def test_eigenspace_of_diagonal():
    rel = ex.relation_from_matrix(np.diag([1.0, 1.0, 3.0]).astype(complex))
    space, graph_rel = ex.eigenspace(rel, 1.0)
    assert space.dim == 2
    assert graph_rel.graph_dim == 2
    # graph copy stays inside the relation even for huge eigenparameters
    big, _ = ex.eigenspace(rel, 1e8j)
    assert big.dim == 0


def test_eigenspace_graph_stays_in_relation():
    # second order growth in lambda must not push the basis off the graph
    rel = ex.fix_a_relation()
    adj = ex.rel_adjoint(rel)
    for lam in (1j, 1e6j, 1e8j):
        _, nhat = ex.eigenspace(adj, lam)
        assert nhat.graph_dim == 1
        assert ex.is_subrelation(nhat, adj)


def test_classify_flags():
    herm = ex.relation_from_matrix(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex))
    flags = ex.rel_classify(herm)
    assert flags.symmetric and flags.selfadjoint
    diss = ex.rel_classify(ex.relation_from_matrix(1j * np.eye(2)))
    assert diss.dissipative and diss.maximal_dissipative and not diss.symmetric
    acc = ex.rel_classify(ex.relation_from_matrix(-1j * np.eye(2)))
    assert acc.accumulative and not acc.dissipative


def _former_flags(eigs, rel, tol):
    # the former numpy expressions of the four eigenvalue flags
    symmetric = bool(2 * np.abs(eigs).max() <= np.sin(tol.angle))
    dissipative = bool(eigs.min() >= -tol.psd)
    full = rel.graph_dim == rel.dim_in
    return ex.RelationFlags(symmetric, symmetric and full, dissipative, bool(eigs.max() <= tol.psd), dissipative and full)


@pytest.mark.parametrize("tol", [ex.TOL, ex.Tolerances(angle=0.3, psd=0.0), ex.Tolerances(angle=1e-15, psd=1e-300)])
def test_classify_flags_on_python_floats_match_the_numpy_expressions(monkeypatch, tol):
    # eigenvalues exactly at each threshold and one ulp either side, fed to
    # rel_classify in place of eigvalsh's, against the former expressions
    thresholds = [np.sin(tol.angle) / 2, -np.sin(tol.angle) / 2, -tol.psd, tol.psd]
    values = [v for t in thresholds for v in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))]
    tables = [[v] for v in values] + [[min(v, 0.0), max(v, 0.0)] for v in values] + [[-1.0, 0.0, 1.0], [0.0, 0.0]]
    rel = ex.relation_from_matrix(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex))
    fed = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: fed[-1])
    for table in tables:
        fed.append(np.array(table, dtype=float))
        assert ex.rel_classify(rel, tol) == _former_flags(fed[-1], rel, tol), table
    # an empty graph reads the single eigenvalue 0
    empty = ex.LinearRelation(2, 2, ex.zero_subspace(4))
    assert ex.rel_classify(empty, tol) == _former_flags(np.zeros(1), empty, tol)
    # the cutoff is numpy's sine, taken once per tolerance context
    assert tol._sin_angle == np.sin(tol.angle) and type(tol._sin_angle) is float


def _reference_flags(rel):
    # reference route: containment in the adjoint relation
    adj = ex.rel_adjoint(rel)
    symmetric = ex.is_subrelation(rel, adj)
    return symmetric, symmetric and rel.graph_dim == adj.graph_dim


def _perturbed(rel, sine_of, ratio, rng):
    # push the graph basis along a random direction until the reference
    # sine sine_of(rel) is ratio times the tol.angle cutoff (linear regime)
    basis = rel.graph.basis
    push = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)

    def moved(eps):
        return ex.LinearRelation(rel.dim_in, rel.dim_out, ex.subspace_from_columns(basis + eps * push))

    slope = sine_of(moved(1e-6)) / 1e-6
    out = moved(ratio * np.sin(ex.TOL.angle) / slope)
    assert abs(sine_of(out) / np.sin(ex.TOL.angle) - ratio) < 0.1 * ratio
    return out


def _symmetry_sine(rel):
    return np.sin(ex.containment_gap(rel.graph, ex.rel_adjoint(rel).graph))


def test_classify_matches_adjoint_route():
    rng = np.random.default_rng(13)
    for n in range(1, 6):
        rels = [random_rel(rng, n, n, k) for k in range(2 * n + 1)]
        rels += [ex.random_selfadjoint_relation(rng, n), ex.mul_relation(ex.full_subspace(n))]
        rels += [ex.random_symmetric_restriction(rng, n, d) for d in range(1, n + 1)]
        for rel in rels:
            flags = ex.rel_classify(rel)
            assert (flags.symmetric, flags.selfadjoint) == _reference_flags(rel)
        for base in (ex.random_selfadjoint_relation(rng, n), ex.random_symmetric_restriction(rng, n + 1, 1)):
            for ratio, inside in ((0.7, True), (1.5, False)):
                rel = _perturbed(base, _symmetry_sine, ratio, rng)
                flags = ex.rel_classify(rel)
                assert (flags.symmetric, flags.selfadjoint) == _reference_flags(rel)
                assert flags.symmetric == inside
                assert flags.selfadjoint == (inside and base.graph_dim == base.dim_in)


def test_operator_part_splits_mul():
    gens = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    rel = ex.relation_from_generators(2, 2, gens)
    op, mul = ex.operator_part(rel)
    assert mul.dim == 1
    assert ex.rel_parts(op).mul.dim == 0


def test_simplicity():
    rng = np.random.default_rng(4)
    s = ex.random_symmetric_restriction(rng, 4, 1)
    # a restriction of a matrix with a reducing eigenvector is not simple
    block = ex.rel_direct_sum(s, ex.relation_from_matrix(np.array([[1.0]], dtype=complex)))
    assert not ex.is_simple(block)


def _reference_eigenspace(rel, lam):
    # reference route: the span of X c decided by a rank-revealing SVD
    coeff = _nullspace(rel.out_block - lam * rel.in_block, ex.TOL)
    return coeff, ex.subspace_from_columns(rel.in_block @ coeff)


def _reference_is_simple(rel, points=None):
    # reference route: stack the reference eigenspaces of the adjoint over
    # the 2n-point grid {k +/- i}, or a denser one
    adj = ex.rel_adjoint(rel)
    if points is None:
        points = [k + sign * 1j for k in range(rel.dim_in) for sign in (1, -1)]
    bases = [_reference_eigenspace(adj, lam)[1].basis for lam in points]
    return ex.subspace_from_columns(np.hstack(bases)).dim == rel.dim_in


def _eigen_relations():
    rng = np.random.default_rng(8)
    rels = [ex.rel_adjoint(ex.fix_a_relation()), ex.rel_adjoint(ex.zero_relation(3, 3))]
    rels += [ex.rel_adjoint(ex.random_symmetric_restriction(rng, n, d)) for n, d in ((4, 1), (6, 3), (16, 8))]
    rels.append(ex.relation_from_matrix(np.diag([3.0 + 1j, 3.0 + 1j, 1e6j, 2.0])))
    return rels


@pytest.mark.parametrize("lam", [1j, -1j, 3 + 1j, 3 - 1j, 1e6j, 1e8j])
def test_eigenspace_matches_span_route(lam):
    for rel in _eigen_relations():
        space, nhat = ex.eigenspace(rel, lam)
        coeff, ref = _reference_eigenspace(rel, lam)
        assert space.dim == nhat.graph_dim == coeff.shape[1]
        for basis in (space.basis, nhat.graph.basis):
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])) < 1e-12
        assert ex.subspace_equal(space, ref)
        assert ex.is_subrelation(nhat, rel)


def _reducing_block(rng):
    # a symmetric restriction joined with a selfadjoint summand
    s = ex.random_symmetric_restriction(rng, 4, 1)
    return ex.rel_direct_sum(s, ex.relation_from_matrix(np.array([[1.0]], dtype=complex)))


def test_is_simple_matches_reference_route():
    rng = np.random.default_rng(9)
    simple = ex.random_symmetric_restriction(rng, 5, 2)
    block = _reducing_block(rng)
    assert ex.is_simple(simple) and _reference_is_simple(simple)
    assert not ex.is_simple(block) and not _reference_is_simple(block)
    with pytest.raises(ex.ArgumentError):
        ex.is_simple(ex.zero_relation(2, 3))
    with pytest.raises(ex.AssumptionError):
        ex.is_simple(ex.relation_from_matrix(1j * np.eye(2)))


def test_coupling_scene_with_reducing_eigenvector_is_not_minimal():
    rng = np.random.default_rng(10)
    h = ex.random_hermitian(rng, 5)
    # e_5 is an eigenvector of the second corner that the first space never sees
    h[4, :] = 0.0
    h[:, 4] = 0.0
    h[4, 4] = 2.0
    scene = ex.coupling_scene(ex.relation_from_matrix(h), 2, 3)
    assert scene.s2.graph_dim == 1
    assert not scene.minimal and not _reference_is_simple(scene.s2)
    generic = ex.coupling_scene(ex.relation_from_matrix(ex.random_hermitian(rng, 5)), 2, 3)
    assert generic.minimal and _reference_is_simple(generic.s2)


# A denser grid than the 2n points k +/- i: at n >= 16 and defect 1 the
# 2n-point stack is too ill-conditioned for the rank rule.
DENSE_GRID = [complex(x, y) for x in np.linspace(-8, 8, 30) for y in (0.5, -0.5, 2, -2)]


def _with_selfadjoint_block(rng, s, m):
    return ex.rel_direct_sum(s, ex.relation_from_matrix(ex.random_hermitian(rng, m)))


def test_is_simple_matches_dense_grid_reference():
    rng = np.random.default_rng(11)
    for n in (3, 8, 16, 24):
        for defect in (1, 2):
            s = ex.random_symmetric_restriction(rng, n, defect)
            block = _with_selfadjoint_block(rng, s, int(rng.integers(1, 3)))
            multi = ex.rel_direct_sum(s, ex.mul_relation(ex.full_subspace(1)))
            assert ex.is_simple(s) and _reference_is_simple(s, DENSE_GRID)
            for rel in (block, multi):
                assert not ex.is_simple(rel) and not _reference_is_simple(rel, DENSE_GRID)
    for seed in range(3):
        block = _reducing_block(np.random.default_rng(seed))
        assert not ex.is_simple(block) and not _reference_is_simple(block, DENSE_GRID)


@pytest.mark.parametrize("n", [16, 24])
def test_defect_one_restrictions_are_simple(n):
    # the 2n-point stack reported most of these not simple
    for seed in range(60):
        assert ex.is_simple(ex.random_symmetric_restriction(np.random.default_rng(seed), n, 1))


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e8])
def test_is_simple_on_scaled_restrictions(scale):
    # the decision must not depend on the size of S: a restriction of a
    # scaled Hermitian matrix, and its sum with a scaled 1x1 block
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, defect = int(rng.integers(4, 13)), int(rng.integers(1, 3))
        q = np.linalg.qr(rng.standard_normal((n, n - defect)) + 1j * rng.standard_normal((n, n - defect)))[0]
        s = ex.relation_from_generators(n, n, np.vstack([q, scale * ex.random_hermitian(rng, n) @ q]))
        assert ex.is_simple(s)
        assert not ex.is_simple(ex.rel_direct_sum(s, ex.relation_from_matrix(np.array([[0.7 * scale]]))))


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _clustered_restriction(rng, delta, reducing):
    # S maps Q u to Q C u + P B u: C is Hermitian with a cluster of three
    # eigenvalues delta apart, and B (defect 3) sees every eigenvector of
    # C, or misses the middle one of the cluster, which then spans a
    # reducing eigenspace of S.
    k, d = 8, 3
    t = np.concatenate([[0.5, 0.5 + delta, 0.5 + 2 * delta], rng.uniform(-3, 3, k - 3)])
    v = _haar(rng, k)
    b = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    if reducing:
        b -= np.outer(b @ v[:, 1], v[:, 1].conj())
    u = _haar(rng, k + d)
    q, p = u[:, :k], u[:, k:]
    gens = np.vstack([q, q @ (v * t) @ v.conj().T + p @ b])
    return ex.relation_from_generators(k + d, k + d, gens)


@pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_is_simple_on_clustered_spectra(delta):
    rng = np.random.default_rng(12)
    for _ in range(10):
        assert ex.is_simple(_clustered_restriction(rng, delta, reducing=False))
        assert not ex.is_simple(_clustered_restriction(rng, delta, reducing=True))


def test_resolvent_matrix_oracle():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rel = ex.relation_from_matrix(mat)
    for lam in (2j, 1 + 1j):
        res = ex.resolvent_matrix(rel, lam)
        oracle = np.linalg.inv(mat - lam * np.eye(2))
        assert np.linalg.norm(res - oracle) < RESID
    with pytest.raises(ex.SingularAtLambda):
        ex.resolvent_matrix(rel, 1.0)


def test_resolvent_matrix_obstructions():
    # eigenvalue 1 of diag(1, 2): R - 1 has a kernel
    diag = ex.relation_from_matrix(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ex.SingularAtLambda, match="nontrivial kernel"):
        ex.resolvent_matrix(diag, 1.0)
    # the full relation C^2 x C^2 maps every f to everything
    with pytest.raises(ex.SingularAtLambda, match="nontrivial kernel"):
        ex.resolvent_matrix(ex.relation_from_generators(2, 2, np.eye(4)), 1j)
    # the operator on span{e1} only: R - lam misses e2
    partial = ex.relation_from_generators(2, 2, np.array([[1.0], [0.0], [3.0], [0.0]]))
    with pytest.raises(ex.SingularAtLambda, match="not surjective"):
        ex.resolvent_matrix(partial, 1j)
    with pytest.raises(ex.ArgumentError):
        ex.resolvent_matrix(ex.zero_relation(2, 1), 1j)


def test_resolvent_of_purely_multivalued_relation_is_zero():
    rel = ex.mul_relation(ex.full_subspace(3))
    for lam in (1j, 2.0, 1e6j):
        assert np.array_equal(ex.resolvent_matrix(rel, lam), np.zeros((3, 3)))


def test_permute_and_direct_sum():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    rel = ex.rel_permute(ex.relation_from_matrix(mat), in_perm=[1, 0])
    assert np.linalg.norm(ex.rel_matrix(rel) - mat[:, [1, 0]]) < RESID
    both = ex.rel_direct_sum(
        ex.relation_from_matrix(mat), ex.relation_from_matrix(np.eye(1, dtype=complex))
    )
    expect = np.zeros((3, 3), dtype=complex)
    expect[:2, :2] = mat
    expect[2, 2] = 1.0
    assert np.linalg.norm(ex.rel_matrix(both) - expect) < RESID


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_inverse_product_laws(seed, n_in, n_mid, n_out):
    rng = np.random.default_rng(seed)
    a = random_rel(rng, n_mid, n_out, rng.integers(0, n_mid + n_out + 1))
    b = random_rel(rng, n_in, n_mid, rng.integers(0, n_in + n_mid + 1))
    assert ex.rel_equal(ex.rel_inverse(ex.rel_inverse(a)), a)
    assert ex.rel_equal(ex.rel_adjoint(ex.rel_inverse(a)), ex.rel_inverse(ex.rel_adjoint(a)))
    left = ex.rel_inverse(ex.rel_product(a, b))
    right = ex.rel_product(ex.rel_inverse(b), ex.rel_inverse(a))
    assert ex.rel_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_adjoint_involution_and_rank_nullity(seed, n_in, n_out):
    rng = np.random.default_rng(seed)
    rel = random_rel(rng, n_in, n_out, rng.integers(0, n_in + n_out + 1))
    assert ex.rel_equal(ex.rel_adjoint(ex.rel_adjoint(rel)), rel)
    parts = ex.rel_parts(rel)
    assert parts.dom.dim + parts.mul.dim == rel.graph_dim
    assert parts.ran.dim + parts.ker.dim == rel.graph_dim


# _svd against np.linalg.svd: tall, wide and square shapes up to 32 x 16,
# the empty shapes, and the three forms (values only, reduced, full)
SVD_SHAPES = [
    (1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (16, 16),
    (2, 1), (4, 2), (7, 3), (16, 8), (32, 16),
    (1, 2), (2, 4), (3, 7), (8, 16), (16, 32),
    (3, 0), (0, 3), (0, 0),
]
SVD_FORMS = [(False, True), (True, False), (True, True)]


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("shape", SVD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_svd_is_bit_identical_to_numpy(shape, dtype):
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        # the gufunc route is the one under test, not numpy's own function
        assert linrel._NUMPY_SVD is np.linalg.svd
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    full = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is complex else 0)
    rank_one = np.outer(full[:, :1], full[:1, :]) if full.size else full
    for mat in (full.astype(dtype), rank_one.astype(dtype)):
        for compute_uv, full_matrices in SVD_FORMS:
            got = _svd(mat, compute_uv, full_matrices)
            want = np.linalg.svd(mat, full_matrices=full_matrices, compute_uv=compute_uv)
            pairs = zip(got, want) if compute_uv else [(got, want)]
            for g, w in pairs:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("filter_action", ["error", "default"])
@pytest.mark.parametrize("dtype", [complex, float, np.complex64])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svd_failure_raises_a_typed_error(bad, dtype, filter_action):
    # complex64 takes numpy's own function, which raises LinAlgError on NaN;
    # the gufunc flags NaN as a RuntimeWarning and returns NaN for inf
    mat = np.ones((4, 3), dtype=dtype)
    mat[1, 2] = bad
    for compute_uv, full_matrices in SVD_FORMS:
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(filter_action, RuntimeWarning)
            with pytest.raises(ex.AssumptionError, match="SVD did not converge"):
                _svd(mat, compute_uv, full_matrices)
        # under the default filter numpy still shows its flag as a warning
        assert all(issubclass(w.category, RuntimeWarning) for w in shown)
        # a caller's np.errstate turns the flag into FloatingPointError
        with np.errstate(invalid="raise"), pytest.raises(ex.AssumptionError, match="SVD did not converge"):
            _svd(mat, compute_uv, full_matrices)


# _q_factor against np.linalg.qr: the library's blocks are square or tall,
# and an empty block is its own reduced Q factor
QR_SHAPES = [(1, 1), (2, 2), (5, 5), (16, 16), (2, 1), (4, 2), (7, 3), (16, 8), (32, 16), (3, 0), (0, 0)]


def _qr_inputs(shape, dtype):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    full = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is complex else 0)
    rank_one = np.outer(full[:, :1], full[:1, :]) if full.size else full
    return full.astype(dtype), rank_one.astype(dtype)


def _assert_q_factor_is_numpys(mat):
    for complete in (False, True):
        kept = mat.copy()
        got = _q_factor(mat, complete)
        want = np.linalg.qr(mat, "complete" if complete else "reduced")[0]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        # the factorization works on a copy
        assert mat.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("shape", QR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_q_factor_is_bit_identical_to_numpy(shape, dtype):
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        # the gufunc route is the one under test, not numpy's own function
        assert linrel._QR_GUFUNCS is not None
    for mat in _qr_inputs(shape, dtype):
        _assert_q_factor_is_numpys(mat)


def test_q_factor_falls_back_to_numpys_function(monkeypatch):
    """numpy's qr serves wide input and dtypes other than complex128 and
    float64, and everything when the gufunc lookup failed at import."""
    seen = []
    numpy_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args: seen.append(1) or numpy_qr(*args))
    rng = np.random.default_rng(5)
    for mat in (rng.standard_normal((2, 4)), rng.standard_normal((4, 2)).astype(np.complex64)):
        seen.clear()
        _q_factor(mat)
        assert seen == [1]
    _q_factor(rng.standard_normal((4, 2)))
    assert seen == [1]
    monkeypatch.setattr(linrel, "_QR_GUFUNCS", None)
    for shape in QR_SHAPES:
        for mat in _qr_inputs(shape, complex):
            for complete in (False, True):
                seen.clear()
                got = _q_factor(mat, complete)
                # an empty reduced block needs no factorization at all
                assert len(seen) == (1 if complete or shape[1] else 0)
                assert got.tobytes() == numpy_qr(mat, "complete" if complete else "reduced")[0].tobytes()


@pytest.mark.parametrize("filter_action", ["error", "default"])
@pytest.mark.parametrize("dtype", [complex, float, np.complex64])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_q_factor_failure_raises_a_typed_error(bad, dtype, filter_action):
    # LAPACK's QR flags neither NaN nor inf; both leave NaN in Q
    for row, col in ((0, 0), (1, 2), (3, 1)):
        mat = np.ones((4, 3), dtype=dtype) + np.arange(12).reshape(4, 3) ** 2
        mat[row, col] = bad
        for complete in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter(filter_action, RuntimeWarning)
                with pytest.raises(ex.AssumptionError, match="QR factorization failed"):
                    _q_factor(mat, complete)


def _svd_contract_outputs():
    # relation_from_generators takes reduced SVDs, rel_adjoint a full one,
    # containment_gap the values only; rel_inverse takes none
    rng = np.random.default_rng(2006)
    outputs = []
    for dims in [(2, 3, 2), (3, 3, 3), (4, 2, 5), (1, 4, 1)]:
        a, b = random_rel(rng, *dims), random_rel(rng, *dims)
        outputs += [
            a.graph.basis,
            ex.rel_inverse(a).graph.basis,
            ex.rel_adjoint(a).graph.basis,
            np.array(ex.containment_gap(a.graph, b.graph)),
        ]
    return outputs


def test_a_replaced_numpy_svd_sees_every_svd(monkeypatch):
    """A wrapper put in place of np.linalg.svd, as the benchmark's counters
    are, sees each of _svd's calls once, and the outputs do not move."""
    reference = _svd_contract_outputs()
    seen = {"numpy": 0, "entry": 0}
    numpy_svd, entry = np.linalg.svd, linrel._svd

    def counted_numpy(*args, **kwargs):
        seen["numpy"] += 1
        return numpy_svd(*args, **kwargs)

    def counted_entry(*args, **kwargs):
        seen["entry"] += 1
        return entry(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_numpy)
    monkeypatch.setattr(linrel, "_svd", counted_entry)
    outputs = _svd_contract_outputs()
    assert seen["entry"] > 0 and seen["numpy"] == seen["entry"]
    for got, want in zip(outputs, reference, strict=True):
        assert got.tobytes() == want.tobytes()


def _count_svds(monkeypatch):
    """Calls of linrel._svd, the one function that reaches LAPACK's SVD."""
    calls = []
    entry = linrel._svd
    monkeypatch.setattr(linrel, "_svd", lambda *args, **kwargs: calls.append(1) or entry(*args, **kwargs))
    return calls


def _inverse_outcome(invert, mat):
    """Bytes of the inverse, or the type of the typed error raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return invert(mat).tobytes()
        except ex.ExtensioError as err:
            return type(err)


def _svd_rule_inverse(mat):
    # the rule without the certificate: a values-only SVD, then inv
    if linrel._rank_of(mat, ex.TOL, 1.0) < max(mat.shape):
        raise ex.GSingular("singular")
    return np.linalg.inv(mat)


def _inverse_parity_cases():
    rng = np.random.default_rng(32)
    for n in range(1, 17):
        cutoff = ex.TOL.rank * n
        for k in range(-40, 41, 4):
            yield 2.0**k * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for f in (0.5, 1.0, 2.0, 4.0, 1e3):
            yield f * cutoff * np.eye(n, dtype=complex)
    yield 1e-200 * np.eye(3, dtype=complex)
    yield np.ones((3, 3), dtype=complex)
    yield np.zeros((2, 3), dtype=complex)
    for bad in (np.nan, np.inf):
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = bad
        yield mat


def test_checked_inverse_certifies_what_the_svd_rule_decides(monkeypatch):
    """The inverse certifies full rank when 2 x cutoff(||mat||_F) x
    ||inv||_F < 1; elsewhere the SVD rule decides.  Either way the helper
    raises exactly where the rule raises and otherwise returns
    np.linalg.inv(mat) bit for bit, with no stray RuntimeWarning where a
    norm overflows (1e-200 I)."""
    cases = list(_inverse_parity_cases())
    want = [_inverse_outcome(_svd_rule_inverse, mat) for mat in cases]
    calls = _count_svds(monkeypatch)
    helper = lambda mat: linrel._checked_inverse(mat, ex.TOL, ex.GSingular, "singular")  # noqa: E731
    got = [_inverse_outcome(helper, mat) for mat in cases]
    assert got == want
    # both outcomes occur, and the NaN and inf entries keep the SVD's error
    assert ex.GSingular in want and want[-2:] == [ex.AssumptionError] * 2
    # each refusal takes the rule's SVD; the certificate takes most of the
    # full-rank decisions (298 of 330 on this draw)
    full = sum(isinstance(outcome, bytes) for outcome in want)
    certified = full - (len(calls) - (len(cases) - full))
    assert certified >= 0.85 * full


def test_operator_relations_carry_their_matrix(monkeypatch):
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    calls = _count_svds(monkeypatch)
    rel = ex.relation_from_matrix(a)
    # rel_matrix hands back a copy of the matrix, and it is kept as a copy
    got = ex.rel_matrix(rel)
    assert got.tobytes() == a.tobytes()
    got[0, 0] = a[0, 0] = 7.0
    assert ex.rel_matrix(rel)[0, 0] != 7.0
    assert ex.rel_matrix(ex.zero_relation(2, 3)).tobytes() == np.zeros((3, 2), dtype=complex).tobytes()
    assert ex.rel_matrix(ex.identity_relation(2)).tobytes() == np.eye(2, dtype=complex).tobytes()
    assert not calls
    # a copy of the same graph carries no matrix, and gives it from its
    # input block
    assert np.linalg.norm(ex.rel_matrix(ex.rel_permute(rel)) - ex.rel_matrix(rel)) < RESID


def test_operator_product_is_the_matrix_product(monkeypatch):
    # the graph route meets 1e-10 and 1e10 in nothing: their graphs'
    # middle blocks are unit-anchored below the cutoff
    small, large = np.array([[1e-10]]), np.array([[1e10]])
    generated = [ex.relation_from_generators(1, 1, np.concatenate([np.eye(1), m])) for m in (small, large)]
    assert ex.rel_product(*generated).graph_dim == 0
    calls = _count_svds(monkeypatch)
    prod = ex.rel_product(ex.relation_from_matrix(small), ex.relation_from_matrix(large))
    assert prod.graph_dim == 1 and not calls
    assert ex.rel_matrix(prod).tobytes() == (small @ large).astype(complex).tobytes()


def test_operator_product_matches_the_graph_route_under_power_of_two_scaling():
    """a o b for a = 2^k A, b = 2^-k B, k in [-20, 20]: the matrix branch is
    exact, and the graph route on generator-built graphs stays within a
    containment gap of 1e-9 of it (1.3e-10 measured at |k| = 20)."""
    rng = np.random.default_rng(32)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))

    def generated(mat):
        return ex.relation_from_generators(mat.shape[1], mat.shape[0], np.concatenate([np.eye(mat.shape[1]), mat]))

    for k in range(-20, 21):
        left, right = 2.0**k * a, 2.0**-k * b
        fast = ex.rel_product(ex.relation_from_matrix(left), ex.relation_from_matrix(right))
        slow = ex.rel_product(generated(left), generated(right))
        assert ex.rel_matrix(fast).tobytes() == (a @ b).tobytes()
        assert slow.graph_dim == fast.graph_dim == 4
        assert ex.largest_principal_angle(fast.graph, slow.graph) <= 1e-9, k


def test_an_overflowing_operator_product_takes_the_graph_route():
    rel = ex.relation_from_matrix([[1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        square = ex.rel_product(rel, rel)
    # the square of 1e200 is a finite operator the graph route cannot
    # resolve from an inf matrix: its graph is the output axis
    assert square.graph_dim == 1 and abs(square.in_block[0, 0]) < 1e-300


def _stack_cases():
    """Seeded stacks of seven matrices, each with the scale anchor it is
    read under: Gaussian at 2^k scale, smallest singular value at 0.5-1e3
    times the cutoff, exactly rank-deficient, at 1e+-200, and with no rows
    or no columns."""
    rng = np.random.default_rng(33)
    for rows, cols in ((1, 2), (2, 4), (3, 3), (4, 2), (3, 5)):
        gauss = rng.standard_normal((7, rows, cols)) + 1j * rng.standard_normal((7, rows, cols))
        for k in (-40, -8, 0, 8, 40):
            yield 2.0**k * gauss, None
        r = min(rows, cols)
        left = np.linalg.qr(rng.standard_normal((7, rows, r)) + 1j * rng.standard_normal((7, rows, r)))[0]
        right = np.linalg.qr(rng.standard_normal((7, cols, r)) + 1j * rng.standard_normal((7, cols, r)))[0]
        for f in (0.5, 1.0, 2.0, 4.0, 1e3):
            # unit largest value, smallest at f times the cutoff, varying
            # across the stack so that ranks differ within it
            values = np.ones((7, r))
            values[:, -1] = f * ex.TOL.rank * max(rows, cols) * np.linspace(0.5, 2.0, 7)
            yield (left * values[:, None, :]) @ right.conj().swapaxes(1, 2), 1.0
        short = gauss.copy()
        short[:, :, -1] = short[:, :, 0]
        yield short, None
        yield 1e-200 * gauss, 1.0
        yield 1e200 * gauss, None
    yield np.zeros((7, 0, 3), dtype=complex), None
    yield np.zeros((7, 3, 0), dtype=complex), None


def test_a_stack_takes_the_basis_each_matrix_takes_alone():
    """``_nullspace``, ``_orthonormal_columns`` and ``_rank_of`` of a stack:
    one SVD of the stack gives each matrix the rank and the basis it gets
    alone, bit for bit, across the cutoff and at either scale anchor."""
    widths = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stack, scale in _stack_cases():
            for helper in (linrel._nullspace, linrel._orthonormal_columns):
                got = helper(stack, ex.TOL, scale)
                assert isinstance(got, list) and len(got) == len(stack)
                for mat, basis in zip(stack, got):
                    alone = helper(mat, ex.TOL, scale)
                    assert basis.shape == alone.shape and basis.tobytes() == alone.tobytes()
                    assert basis.flags.c_contiguous
                widths.add(len({basis.shape for basis in got}))
            if stack.size:
                ranks = linrel._rank_of(stack, ex.TOL, scale)
                assert ranks.tolist() == [linrel._rank_of(mat, ex.TOL, scale) for mat in stack]
    # some stacks straddle the cutoff: their bases differ in width
    assert widths == {1, 2}


def test_a_stack_with_a_nan_or_inf_matrix_raises_as_that_matrix_does():
    for bad in (np.nan, np.inf):
        stack = np.array([np.eye(2, 3, dtype=complex)] * 3)
        stack[1, 0, 2] = bad
        for helper in (linrel._nullspace, linrel._orthonormal_columns):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ex.AssumptionError, match="SVD did not converge"):
                    helper(stack[1], ex.TOL)
                with pytest.raises(ex.AssumptionError, match="SVD did not converge"):
                    helper(stack, ex.TOL)


def _inverse_stacks():
    """Stacks of seven from the parity cases of ``_checked_inverse``: all
    Gaussian, or one matrix of the stack replaced by a near-cutoff,
    singular or non-finite one."""
    rng = np.random.default_rng(34)
    for n in range(1, 7):
        for k in range(-40, 41, 8):
            yield 2.0**k * (rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n)))
        for odd in (f * ex.TOL.rank * n * np.eye(n) for f in (0.5, 1.0, 2.0, 4.0, 1e3)):
            stack = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
            stack[3] = odd
            yield stack
    for bad in (np.nan, np.inf, 0.0):
        stack = np.array([np.eye(3, dtype=complex)] * 7)
        stack[5, 1, 2 if bad else 1] = bad
        yield stack


def test_a_stacked_inverse_is_certified_for_every_matrix_or_declined(monkeypatch):
    """``_certified_inverse`` of a stack returns np.linalg.inv of the stack,
    bit for bit, only where the SVD rule finds every matrix of full rank,
    and None elsewhere, with no stray RuntimeWarning; it takes no SVD."""
    stacks = list(_inverse_stacks())
    full = [bool((linrel._rank_of(stack, ex.TOL, 1.0) == stack.shape[-1]).all()) for stack in stacks[:-3]]
    calls = _count_svds(monkeypatch)
    certified = 0
    for stack, whole in zip(stacks, full + [False] * 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inv = linrel._certified_inverse(stack, ex.TOL)
        if inv is not None:
            assert whole and inv.tobytes() == np.linalg.inv(stack).tobytes()
            certified += 1
    assert not calls
    # the rule refuses the stacks with a matrix at or below the unit-anchored
    # cutoff (24 of 96); the certificate takes most of the others (60 of 72
    # on this draw)
    assert full.count(False) >= 12 and certified >= 0.8 * full.count(True)


def _row_scan(eigs, lams, n):
    # the rule without the certificate: the smallest |t - lam| of each row
    # against the unit-anchored cutoff at the largest
    diffs = eigs - lams[:, None]
    if eigs.size:
        dist = np.abs(diffs)
        singular = dist.min(axis=1) <= linrel._cutoff(dist.max(axis=1), (n, n), ex.TOL, 1.0)
        if singular.any():
            raise ex.SingularAtLambda(complex(lams[singular.argmax()]), "lambda is an eigenvalue of A0")
    return diffs


def _spectrum_outcome(scan, eigs, lams):
    try:
        return scan(eigs, lams, max(eigs.size, 1)).tobytes()
    except ex.SingularAtLambda as err:
        return err.lam


def test_off_spectrum_decides_what_the_row_scan_decides():
    """A grid whose smallest |Im lam| clears twice the cutoff at max|t| +
    max|lam| skips the scan; every grid gets the scan's differences or its
    SingularAtLambda at the same point."""
    rng = np.random.default_rng(35)
    checks = skipped = 0
    for e in (-12, -3, 0, 3, 12):
        eigs = 10.0**e * rng.standard_normal(4)
        near = eigs[1]
        grids = [
            1j * np.asarray(DEFAULT_GRID),
            np.array([2j, 1 + 1j, -1j, 3 - 0.5j]),
            near + 1j * np.array([1.0, 1e-6, 1e-12, 1e-15, 1e-20]),
            np.array([1j, near, 2j]),
            np.array([10.0 ** (e + 14) + 1e-3j]),
            np.array([1e15j, 1e-15j]),
        ]
        for lams in grids:
            want = _spectrum_outcome(_row_scan, eigs, lams)
            got = _spectrum_outcome(lambda *args: linrel._off_spectrum(*args, ex.TOL), eigs, lams)
            assert got == want
            checks += 1
            reach = np.abs(eigs).max() + np.abs(lams).max()
            skipped += 2 * linrel._cutoff(reach, (4, 4), ex.TOL, 1.0) < np.abs(lams.imag).min()
    # no eigenvalues: nothing to scan
    assert linrel._off_spectrum(np.zeros(0), np.array([0.0, 1j]), 0, ex.TOL).shape == (2, 0)
    # the limit grid and the sample points skip it up to max|t| = 1e3, the
    # eigenvalues and the real or near-real points do not (9 of 30 here)
    assert checks == 30 and skipped >= 8
