"""Boundary transforms and the induced moves of the Weyl family."""

import numpy as np
import pytest

import extensio as ex
from extensio import boundary, transforms

RESID = 1e-9
LAMS = (1j, 2j, 1 + 1j)


def triplet_fixture(seed=21, n=5, defect=3):
    rng = np.random.default_rng(seed)
    s = ex.random_symmetric_restriction(rng, n, defect)
    return ex.von_neumann_triplet(s), rng


def _dense_j(m):
    # J = [[0, -iI], [iI, 0]] on C^{2m} as a dense matrix
    eye = np.eye(m, dtype=complex)
    return np.block([[np.zeros((m, m)), -1j * eye], [1j * eye, np.zeros((m, m))]])


def test_standard_j_unitary_validation():
    rng = np.random.default_rng(0)
    w = ex.random_standard_j_unitary(rng, 2)
    j = _dense_j(2)
    assert np.linalg.norm(w.matrix.conj().T @ j @ w.matrix - j) < RESID
    with pytest.raises(ex.AssumptionError):
        ex.standard_j_unitary(2.0 * np.eye(4))
    # a plain matrix passed to compose_boundary is validated the same way
    # before it moves Gamma's boundary rows, and must act on C^{2m}
    pi, _ = triplet_fixture()
    with pytest.raises(ex.NotUnitary):
        ex.compose_boundary(2 * np.eye(6), pi)
    with pytest.raises(ex.DimMismatch):
        ex.compose_boundary(w, pi)
    # a StandardJUnitary is taken as it is
    assert ex.standard_j_unitary(w) is w


def test_odd_graph_spaces_are_refused_by_the_kreinspace_rule():
    # the half dimension comes from kreinspace._halves, so an odd side
    # raises its ArgumentError wherever a transform needs one
    rng = np.random.default_rng(3)
    w = ex.relation_from_generators(2, 3, rng.standard_normal((5, 2)))
    theta = ex.relation_from_matrix(np.eye(1))
    with pytest.raises(ex.ArgumentError, match="even dimension"):
        ex.shmulyan(w, theta)
    with pytest.raises(ex.ArgumentError, match="even dimension"):
        ex.shmulyan_family(w, ex.FamilyEval(1, lambda lam: theta))
    with pytest.raises(ex.ArgumentError, match="even dimension"):
        ex.standard_j_unitary(np.eye(3))


def test_shmulyan_family_takes_a_matrix_through_the_j_unitary_check():
    # diag(1, -1) is not J-unitary: compose_boundary refuses it, and so
    # does shmulyan_family, whose image of a Weyl family would not be
    # Nevanlinna
    pi, _ = triplet_fixture(seed=5, n=2, defect=1)
    fam = ex.FamilyEval(1, lambda lam: ex.weyl_eval(pi, lam))
    w = np.diag([1.0, -1.0])
    with pytest.raises(ex.NotUnitary):
        ex.compose_boundary(w, pi)
    with pytest.raises(ex.NotUnitary):
        ex.shmulyan_family(w, fam)
    # as a relation W it fails the J-unitary test of kreinspace
    assert not ex.is_unitary(ex.relation_from_matrix(w))
    with pytest.raises(ex.NotUnitary):
        ex.shmulyan_family(ex.relation_from_matrix(w), fam)


def test_shmulyan_image_oracle():
    # the graph image under a block matrix ((a, b), (c, d)) sends the
    # graph of t to the graph of (c + d t)(a + b t)^{-1}
    rng = np.random.default_rng(1)
    w = ex.random_standard_j_unitary(rng, 2)
    t_mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    theta = ex.relation_from_matrix(t_mat)
    image = ex.shmulyan(ex.relation_from_matrix(w.matrix), theta)
    blocks = w.matrix
    a, b = blocks[:2, :2], blocks[:2, 2:]
    c, d = blocks[2:, :2], blocks[2:, 2:]
    oracle = (c + d @ t_mat) @ np.linalg.inv(a + b @ t_mat)
    assert np.linalg.norm(ex.rel_matrix(image) - oracle) < RESID


def test_compose_and_recover():
    pi, rng = triplet_fixture()
    w = ex.random_standard_j_unitary(rng, 3)
    moved = ex.compose_boundary(w, pi)
    recovered = ex.recover_transform(pi, moved)
    # recover up to the graph of the factor
    assert ex.rel_equal(
        ex.relation_from_matrix(recovered.matrix), ex.relation_from_matrix(w.matrix)
    )
    # the family moves by the graph-image transform
    fam = ex.shmulyan_family(w, ex.FamilyEval(3, lambda lam: ex.weyl_eval(pi, lam)))
    for lam in LAMS:
        direct = ex.rel_matrix(ex.weyl_eval(moved, lam))
        via_image = ex.rel_matrix(fam.eval(lam))
        assert np.linalg.norm(direct - via_image) < RESID


def test_compose_with_a_relation_matches_the_matrix_route():
    # a relation W is composed with Gamma by a relation product; for the
    # graph of a standard J-unitary matrix it is the matrix route's Gamma
    for seed in range(20):
        n = 2 + seed % 4
        br, rng = triplet_fixture(seed=300 + seed, n=n, defect=1 + seed % n)
        w = ex.random_standard_j_unitary(rng, br.boundary_dim)
        by_relation = ex.compose_boundary(ex.relation_from_matrix(w.matrix), br)
        by_matrix = ex.compose_boundary(w, br)
        assert by_relation.gamma.graph_dim == by_matrix.gamma.graph_dim
        assert ex.largest_principal_angle(by_relation.gamma.graph, by_matrix.gamma.graph) < 1e-12
        assert ex.rel_equal(by_relation.s_rel, br.s_rel)


def test_transpose_boundary_negative_inverse():
    pi = ex.fix_b_triplet()
    flipped = ex.transpose_boundary(pi)
    for lam in LAMS:
        m = ex.rel_matrix(ex.weyl_eval(flipped, lam))
        assert abs(m[0, 0] + 1.0 / lam) < RESID


def test_affine_transform_formula():
    pi = ex.fix_b_triplet()
    b = np.array([[0.5]], dtype=complex)
    g = np.array([[2.0]], dtype=complex)
    moved = ex.affine_transform(pi, b, g)
    for lam in LAMS:
        m = ex.rel_matrix(ex.weyl_eval(moved, lam))
        expect = b @ g + g.conj().T * lam @ g
        assert abs(m[0, 0] - expect[0, 0]) < RESID
    with pytest.raises(ex.GSingular):
        ex.affine_transform(pi, b, np.zeros((1, 1)))
    with pytest.raises(ex.BGNotHermitian):
        ex.affine_transform(pi, np.array([[1j]]), np.array([[1.0]]))


def test_block_compress_two_routes():
    pi, _ = triplet_fixture()
    split = ex.SpaceSplit(1, 2)
    for which in (1, 2):
        res = ex.block_compress(pi, split, which)
        for lam in LAMS:
            direct = ex.rel_matrix(ex.weyl_eval(res.boundary, lam))
            assert np.linalg.norm(direct - res.weyl_fn(lam)) < RESID


def test_schur_complement_two_routes():
    pi, _ = triplet_fixture()
    split = ex.SpaceSplit(2, 1)
    res = ex.schur_complement(pi, split)
    full = ex.rel_matrix(ex.weyl_eval(pi, 2j))
    oracle = full[:2, :2] - full[:2, 2:] @ np.linalg.inv(full[2:, 2:]) @ full[2:, :2]
    assert np.linalg.norm(res.weyl_fn(2j) - oracle) < RESID
    for lam in LAMS:
        direct = ex.rel_matrix(ex.weyl_eval(res.boundary, lam))
        assert np.linalg.norm(direct - res.weyl_fn(lam)) < RESID


def test_t_transform_two_routes():
    pi, rng = triplet_fixture()
    split = ex.SpaceSplit(1, 2)
    t = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    res = ex.t_transform(pi, split, t)
    full = ex.rel_matrix(ex.weyl_eval(pi, 2j))
    m11, m12 = full[:1, :1], full[:1, 1:]
    m21, m22 = full[1:, :1], full[1:, 1:]
    oracle = t.conj().T @ m11 @ t + t.conj().T @ m12 + m21 @ t + m22
    assert np.linalg.norm(res.weyl_fn(2j) - oracle) < RESID
    for lam in LAMS:
        direct = ex.rel_matrix(ex.weyl_eval(res.boundary, lam))
        assert np.linalg.norm(direct - res.weyl_fn(lam)) < RESID


def test_zero_t_transform_is_second_block():
    pi, _ = triplet_fixture()
    split = ex.SpaceSplit(1, 2)
    res = ex.t_transform(pi, split, np.zeros((1, 2), dtype=complex))
    block = ex.block_compress(pi, split, 2)
    for lam in (1j, 2j):
        assert np.linalg.norm(res.weyl_fn(lam) - block.weyl_fn(lam)) < RESID


def test_direct_sum_and_sum_weyl():
    pi1, _ = triplet_fixture(seed=31, n=3, defect=2)
    pi2, _ = triplet_fixture(seed=32, n=4, defect=2)
    both = ex.boundary_direct_sum(pi1, pi2)
    summed = ex.sum_weyl(pi1, pi2)
    for lam in LAMS:
        m1 = ex.rel_matrix(ex.weyl_eval(pi1, lam))
        m2 = ex.rel_matrix(ex.weyl_eval(pi2, lam))
        assert np.linalg.norm(summed.weyl_fn(lam) - (m1 + m2)) < RESID
        direct = ex.rel_matrix(ex.weyl_eval(summed.boundary, lam))
        assert np.linalg.norm(direct - (m1 + m2)) < RESID
        full = ex.rel_matrix(ex.weyl_eval(both, lam))
        assert np.linalg.norm(full[:2, :2] - m1) < RESID
        assert np.linalg.norm(full[2:, 2:] - m2) < RESID


def test_split_validation():
    pi, _ = triplet_fixture()
    with pytest.raises(ex.DimMismatch):
        ex.block_compress(pi, ex.SpaceSplit(1, 1), 1)
    with pytest.raises(ex.ArgumentError):
        ex.block_compress(pi, ex.SpaceSplit(1, 2), 3)


def test_t_transform_at_zero_is_the_second_block_compression():
    # with t = 0 the coupled block relation is the embedding of the second
    # block, so both transforms compose Gamma with the same relation
    br, _ = triplet_fixture(seed=41, n=4, defect=2)
    split = ex.SpaceSplit(1, 1)
    via_t = ex.t_transform(br, split, np.zeros((1, 1)))
    via_block = ex.block_compress(br, split, 2)
    assert ex.rel_equal(via_t.boundary.gamma, via_block.boundary.gamma)
    assert ex.rel_equal(via_t.boundary.s_rel, via_block.boundary.s_rel)
    for lam in (1j, 1 + 1j):
        assert np.array_equal(via_t.weyl_fn(lam), via_block.weyl_fn(lam))
        assert ex.rel_equal(ex.weyl_eval(via_t.boundary, lam), ex.weyl_eval(via_block.boundary, lam))


def test_transform_kernel_is_read_on_first_use(monkeypatch):
    calls = []
    parts = boundary.rel_parts

    def counted(rel, tol=ex.TOL):
        calls.append(tol)
        return parts(rel, tol)

    monkeypatch.setattr(boundary, "rel_parts", counted)
    br, _ = triplet_fixture(seed=43, n=4, defect=2)
    split = ex.SpaceSplit(1, 1)
    results = [
        ex.block_compress(br, split, 1),
        ex.schur_complement(br, split),
        ex.t_transform(br, split, np.ones((1, 1))),
    ]
    calls.clear()
    for res in results:
        kernel = res.boundary.s_rel
        assert res.boundary.s_rel is kernel
    # one rel_parts per transformed relation, on first read only
    assert len(calls) == len(results)
    # each kernel extends the kernel S of the relation transformed
    for res in results:
        assert ex.containment_gap(br.s_rel.graph, res.boundary.s_rel.graph) <= ex.TOL.angle


@pytest.mark.parametrize(
    "mat,which",
    [
        (np.diag([1.0, 0.0]), "transposed_boundary_conditions"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "second_block_transpose_conditions"),
    ],
)
def test_schur_complement_checks_the_composed_relations(mat, which):
    # Gamma itself satisfies (B1)-(B3); the transpose of Gamma, or that of
    # its second-block compression, does not
    chi = ex.canonical_chi(ex.relation_from_matrix(mat))
    assert ex.check_B123(chi).all_hold
    with pytest.raises(ex.HypothesisFailed) as info:
        ex.schur_complement(chi, ex.SpaceSplit(1, 1))
    assert info.value.which == which


def test_schur_complement_svd_count(monkeypatch):
    # on the fixture (n = 5, defect 3, split (2, 1)): three check_B123 of
    # two SVDs each (on Gamma, its transpose and the transposed
    # second-block compression) and the meet and span of two
    # _block_transform calls; the transposes are QR factors
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    pi, _ = triplet_fixture()
    calls.clear()
    assert ex.check_B123(pi).all_hold
    assert len(calls) <= 2
    calls.clear()
    ex.schur_complement(pi, ex.SpaceSplit(2, 1))
    assert len(calls) == 10


def _reference_block_transform(br, e):
    # former route: the block relation {((E k, h'), (k, E* h'))}
    # orthonormalized, then composed with Gamma by a relation product
    m, d = e.shape
    cols_k = np.vstack([e, np.zeros((m, d)), np.eye(d), np.zeros((d, d))])
    cols_hp = np.vstack([np.zeros((m, m)), np.eye(m), np.zeros((d, m)), e.conj().T])
    block = ex.relation_from_generators(2 * m, 2 * d, np.hstack([cols_k, cols_hp]))
    return ex.validate_boundary_relation(ex.rel_product(block, br.gamma))


def _block_transform_cases():
    # von Neumann triplets, every split, t scaled from 1e-3 to 1e3, and
    # both block_compress embeddings
    for n in range(2, 7):
        for defect in sorted({1, n // 2, n - 1}):
            br, rng = triplet_fixture(seed=100 * n + defect, n=n, defect=defect)
            m = br.boundary_dim
            for d1 in range(m + 1):
                d2 = m - d1
                for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                    t = scale * (rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2)))
                    yield br, transforms._embed(m, 0, d1) @ t + transforms._embed(m, d1, d2)
                yield br, transforms._embed(m, 0, d1)
                yield br, transforms._embed(m, d1, d2)


def test_block_transform_matches_the_product_route():
    count = 0
    for br, e in _block_transform_cases():
        new = transforms._block_transform(br, e, ex.TOL).gamma
        ref = _reference_block_transform(br, e).gamma
        assert new.graph_dim == ref.graph_dim
        assert ex.containment_gap(new.graph, ref.graph) < 1e-11
        assert ex.containment_gap(ref.graph, new.graph) < 1e-11
        count += 1
    assert count == 266


def _reference_compose(w, br):
    # former route: the graph of W composed with Gamma by a relation product
    return ex.validate_boundary_relation(ex.rel_product(ex.relation_from_matrix(w), br.gamma))


def _matrix_transform_cases():
    # von Neumann triplets with n = 2..8 and every defect, each W
    # J-unitarily rescaled by diag(c^-1 I, c I) for c from 1e-3 to 1e3
    for n in range(2, 9):
        for defect in range(1, n + 1):
            br, rng = triplet_fixture(seed=1000 + 10 * n + defect, n=n, defect=defect)
            m = br.boundary_dim
            w0 = ex.random_standard_j_unitary(rng, m).matrix
            g0 = np.eye(m) + 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            b0 = ex.random_hermitian(rng, m) @ np.linalg.inv(g0)
            yield br, _dense_j(m), ex.transpose_boundary(br)
            for c in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                d = np.diag(np.concatenate([np.full(m, 1 / c), np.full(m, c)]))
                yield br, d @ w0, ex.compose_boundary(d @ w0, br)
                g, b = c * g0, c * b0
                w = np.block([[np.linalg.inv(g), np.zeros((m, m))], [b, g.conj().T]])
                yield br, w, ex.affine_transform(br, b, g)


def test_matrix_transforms_match_the_product_route():
    count = 0
    for br, w, result in _matrix_transform_cases():
        new, ref = result.gamma, _reference_compose(w, br).gamma
        assert new.graph_dim == ref.graph_dim
        assert ex.containment_gap(new.graph, ref.graph) <= 1e-11
        assert ex.containment_gap(ref.graph, new.graph) <= 1e-11
        # the kernel is ker Gamma by construction
        assert ex.rel_equal(result.s_rel, br.s_rel)
        count += 1
    assert count == 35 * 11


def _reference_schur_composite(br, d1):
    # former route: the block relation {((h, E1 k), (E1* h, k))} built by
    # hand and composed with Gamma by a relation product
    m = br.boundary_dim
    e1 = transforms._embed(m, 0, d1)
    cols_h = np.vstack([np.eye(m), np.zeros((m, m)), e1.conj().T, np.zeros((d1, m))])
    cols_hp = np.vstack([np.zeros((m, d1)), e1, np.zeros((d1, d1)), np.eye(d1)])
    q_rel = ex.relation_from_generators(2 * m, 2 * d1, np.hstack([cols_h, cols_hp]))
    return ex.validate_boundary_relation(ex.rel_product(q_rel, br.gamma))


def test_schur_composite_matches_the_product_route():
    count = 0
    for n in range(2, 7):
        for defect in range(1, n + 1):
            br, _ = triplet_fixture(seed=2000 + 10 * n + defect, n=n, defect=defect)
            for d1 in range(defect + 1):
                new = ex.schur_complement(br, ex.SpaceSplit(d1, defect - d1)).boundary.gamma
                ref = _reference_schur_composite(br, d1).gamma
                assert new.graph_dim == ref.graph_dim
                assert ex.containment_gap(new.graph, ref.graph) <= 1e-11
                assert ex.containment_gap(ref.graph, new.graph) <= 1e-11
                count += 1
    assert count == sum((d + 1) for n in range(2, 7) for d in range(1, n + 1))
