"""Relation products, sums, images, parts and couplings against the
triple-space routes they replaced.

The references lift both graphs into a triple space, orthonormalize each
lift, intersect the lifts and project; ``rel_parts`` is referenced by
three rank decisions per part, and its ker and mul by the Q factors of
X ker(Y) and Y ker(X).  The library meets coefficients on the graph bases
instead (``linrel._meet``) and rescales X ker(Y) and Y ker(X), whose Gram
matrices are diagonal, to unit columns.
"""

import numpy as np
import pytest

import extensio as ex
from extensio.linrel import _nullspace, _orthonormal_columns, _q_factor

AGREE = 1e-12
ORTHO = 1e-12


def _ref_intersect(a, b):
    if a.dim == 0 or b.dim == 0:
        return ex.zero_subspace(a.ambient_dim)
    coeff = _nullspace(np.hstack([a.basis, -b.basis]), ex.TOL)
    return ex.subspace_from_columns(a.basis @ coeff[: a.dim])


def _ref_product(a, b):
    p, q, r = b.dim_in, b.dim_out, a.dim_out
    lift_b = np.vstack([b.in_block, b.out_block, np.zeros((r, b.graph_dim))])
    free_r = np.vstack([np.zeros((p + q, r)), np.eye(r)])
    lift_a = np.vstack([np.zeros((p, a.graph_dim)), a.in_block, a.out_block])
    free_p = np.vstack([np.eye(p), np.zeros((q + r, p))])
    meet = _ref_intersect(
        ex.subspace_from_columns(np.hstack([lift_b, free_r])),
        ex.subspace_from_columns(np.hstack([lift_a, free_p])),
    )
    return ex.relation_from_generators(p, r, np.vstack([meet.basis[:p], meet.basis[p + q :]]))


def _ref_sum(a, b):
    n, m = a.dim_in, a.dim_out
    lift_a = np.hstack(
        [
            np.vstack([a.in_block, a.out_block, np.zeros((m, a.graph_dim))]),
            np.vstack([np.zeros((n + m, m)), np.eye(m)]),
        ]
    )
    lift_b = np.hstack(
        [
            np.vstack([b.in_block, np.zeros((m, b.graph_dim)), b.out_block]),
            np.vstack([np.zeros((n, m)), np.eye(m), np.zeros((m, m))]),
        ]
    )
    meet = _ref_intersect(ex.subspace_from_columns(lift_a), ex.subspace_from_columns(lift_b))
    gens = np.vstack([meet.basis[:n], meet.basis[n : n + m] + meet.basis[n + m :]])
    return ex.relation_from_generators(n, m, gens)


def _ref_image(rel, space):
    lifted = ex.subspace_direct_sum(space, ex.full_subspace(rel.dim_out))
    meet = _ref_intersect(rel.graph, lifted)
    return ex.subspace_coords(meet, range(rel.dim_in, rel.dim_in + rel.dim_out))


def _ref_parts(rel, tol=ex.TOL):
    if not rel.graph_dim:
        zero_in, zero_out = ex.zero_subspace(rel.dim_in), ex.zero_subspace(rel.dim_out)
        return ex.RelationParts(zero_in, zero_out, zero_in, zero_out)
    x, y = rel.in_block, rel.out_block

    def span(mat):
        return ex.Subspace(mat.shape[0], _orthonormal_columns(mat, tol, 1.0))

    return ex.RelationParts(
        span(x), span(y), span(x @ _nullspace(y, tol, 1.0)), span(y @ _nullspace(x, tol, 1.0))
    )


def _qr_parts(rel, tol=ex.TOL):
    """ker and mul as the Q factors of X ker(Y) and Y ker(X)."""
    x, y = rel.in_block, rel.out_block
    return _q_factor(x @ _nullspace(y, tol, 1.0)), _q_factor(y @ _nullspace(x, tol, 1.0))


def _ref_couple(pi, chi):
    n1, n2, m = pi.state_dim, chi.state_dim, pi.boundary_dim
    g1, g2 = pi.gamma.graph.basis, chi.gamma.graph.basis
    lift1 = np.hstack(
        [
            np.vstack([g1[: 2 * n1], np.zeros((2 * n2, g1.shape[1])), g1[2 * n1 :]]),
            np.vstack([np.zeros((2 * n1, 2 * n2)), np.eye(2 * n2), np.zeros((2 * m, 2 * n2))]),
        ]
    )
    twisted = np.vstack([g2[2 * n2 : 2 * n2 + m], -g2[2 * n2 + m :]])
    lift2 = np.hstack(
        [
            np.vstack([np.zeros((2 * n1, g2.shape[1])), g2[: 2 * n2], twisted]),
            np.vstack([np.eye(2 * n1), np.zeros((2 * n2 + 2 * m, 2 * n1))]),
        ]
    )
    meet = _ref_intersect(ex.subspace_from_columns(lift1), ex.subspace_from_columns(lift2))
    projected = ex.subspace_coords(meet, range(2 * n1 + 2 * n2))
    perm = [*range(n1), *range(2 * n1, 2 * n1 + n2), *range(n1, 2 * n1), *range(2 * n1 + n2, 2 * n1 + 2 * n2)]
    return ex.LinearRelation(n1 + n2, n1 + n2, ex.subspace_permute(projected, perm))


def _agree(new, ref):
    assert new.ambient_dim == ref.ambient_dim
    assert new.dim == ref.dim
    assert ex.largest_principal_angle(new, ref) <= AGREE


def _gauss(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _relations(rng, dim_in, dim_out):
    """Random relations of every graph dimension, and the special ones:
    graph dimension 0, the full space, the zero operator, purely
    multivalued, and (through the shapes) dim_in or dim_out 0."""
    total = dim_in + dim_out
    rels = [ex.relation_from_generators(dim_in, dim_out, _gauss(rng, total, k)) for k in range(total + 1)]
    rels.append(ex.LinearRelation(dim_in, dim_out, ex.full_subspace(total)))
    rels.append(ex.zero_relation(dim_in, dim_out))
    for k in range(1, dim_out + 1):
        gens = np.vstack([np.zeros((dim_in, k)), _gauss(rng, dim_out, k)])
        rels.append(ex.relation_from_generators(dim_in, dim_out, gens))
    return rels


SHAPES = [(0, 2), (2, 0), (1, 1), (1, 3), (2, 2), (3, 2)]


def _is_mul_then_ker(a, b):
    # {0} x M followed by K x {0} is {(0, 0)}; the triple-space route can
    # keep rounding noise here (test_mul_then_kernel_product_is_zero)
    return ex.rel_parts(b).dom.dim == 0 and ex.rel_parts(a).ran.dim == 0


@pytest.mark.parametrize("p,q,r", [(1, 2, 1), (2, 1, 3), (2, 2, 2), (0, 2, 1), (1, 0, 2), (3, 2, 0)])
def test_product_matches_triple_space_route(p, q, r):
    rng = np.random.default_rng(100 * p + 10 * q + r)
    for a in _relations(rng, q, r):
        for b in _relations(rng, p, q):
            new = ex.rel_product(a, b)
            assert (new.dim_in, new.dim_out) == (p, r)
            if _is_mul_then_ker(a, b):
                assert new.graph_dim == 0
            else:
                _agree(new.graph, _ref_product(a, b).graph)


@pytest.mark.parametrize("n,m", SHAPES)
def test_sum_matches_triple_space_route(n, m):
    rng = np.random.default_rng(10 * n + m + 1)
    rels = _relations(rng, n, m)
    for a in rels:
        for b in rels:
            _agree(ex.rel_sum(a, b).graph, _ref_sum(a, b).graph)


@pytest.mark.parametrize("n,m", SHAPES)
def test_image_and_preimage_match_triple_space_route(n, m):
    rng = np.random.default_rng(10 * n + m + 2)
    spaces_in = [ex.subspace_from_columns(_gauss(rng, n, k)) for k in range(n + 1)]
    spaces_out = [ex.subspace_from_columns(_gauss(rng, m, k)) for k in range(m + 1)]
    for rel in _relations(rng, n, m):
        for space in spaces_in:
            _agree(ex.rel_image(rel, space), _ref_image(rel, space))
        for space in spaces_out:
            _agree(ex.rel_preimage(rel, space), _ref_image(ex.rel_inverse(rel), space))


@pytest.mark.parametrize("n,m", SHAPES)
def test_intersect_matches_stacked_nullspace_route(n, m):
    rng = np.random.default_rng(10 * n + m + 3)
    rels = _relations(rng, n, m)
    for a in rels:
        for b in rels:
            _agree(ex.subspace_intersect(a.graph, b.graph), _ref_intersect(a.graph, b.graph))


def _assert_orthonormal(space):
    gram = space.basis.conj().T @ space.basis
    assert np.linalg.norm(gram - np.eye(space.dim)) <= ORTHO


@pytest.mark.parametrize("n,m", SHAPES)
def test_parts_match_rank_route(n, m):
    rng = np.random.default_rng(10 * n + m + 4)
    for rel in _relations(rng, n, m):
        parts = ex.rel_parts(rel)
        for new, ref in zip(parts, _ref_parts(rel)):
            _agree(new, ref)
        _assert_orthonormal(parts.ker)
        _assert_orthonormal(parts.mul)


@pytest.mark.parametrize("tol", [ex.TOL, ex.Tolerances(rank=1e-4)], ids=["default", "loose"])
@pytest.mark.parametrize("n,m", SHAPES)
def test_parts_match_qr_route(n, m, tol):
    rng = np.random.default_rng(10 * n + m + 5)
    for rel in _relations(rng, n, m):
        parts = ex.rel_parts(rel, tol)
        ker, mul = _qr_parts(rel, tol)
        _agree(parts.ker, ex.Subspace(n, ker))
        _agree(parts.mul, ex.Subspace(m, mul))
        _assert_orthonormal(parts.ker)
        _assert_orthonormal(parts.mul)


def test_a_cutoff_that_drops_a_unit_singular_value_is_refused():
    # rank=0.5 on a 2-column block puts the cutoff at 1: the zero operator
    # C^2 -> C^1 has X = I, whose unit singular values would be dropped,
    # and the kernel columns of X could not be scaled to unit length
    loose = ex.Tolerances(rank=0.5)
    rel = ex.zero_relation(2, 1)
    for case in (rel, ex.rel_inverse(rel)):
        with pytest.raises(ex.ArgumentError, match="unit singular value"):
            ex.rel_parts(case, loose)


def test_parts_are_orthonormal_under_a_loose_rank_tolerance():
    # Y has a singular value 3.9e-4 just under the cutoff 4e-4 of
    # rank=1e-4 on a 4 x 4 block: e1 counts as a kernel coordinate of Y,
    # and X ker(Y) misses orthonormality by 1.5e-7 until its Q factor is
    # taken.  The inverse moves the same defect to mul.
    loose = ex.Tolerances(rank=1e-4)
    rel = ex.relation_from_matrix(np.diag([3.9e-4, 1.0, 2.0, 3.0]))
    for case, dims in ((rel, (1, 0)), (ex.rel_inverse(rel), (0, 1))):
        parts = ex.rel_parts(case, loose)
        assert (parts.ker.dim, parts.mul.dim) == dims
        for new, ref in zip(parts, _ref_parts(case, loose)):
            _agree(new, ref)
        _assert_orthonormal(parts.ker)
        _assert_orthonormal(parts.mul)


def _coupling_cases():
    cases = []
    for seed, n1, n2 in ((3, 1, 1), (4, 2, 2), (5, 2, 3), (6, 3, 1), (7, 1, 3)):
        scene = ex.random_scene(np.random.default_rng(seed), n1, n2)
        pi = ex.scene_triplet(scene)
        cases.append((pi, ex.induced_chi(scene, pi)))
    pi = ex.fix_b_triplet()
    cases.append((pi, ex.induced_chi(ex.fix_b_scene(), pi)))
    for theta in ([[2.0]], [[-0.5]]):
        cases.append((pi, ex.canonical_chi(ex.relation_from_matrix(np.array(theta, dtype=complex)))))
    cases.append((pi, ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1))).realization))
    steering, pair = ex.fix_infty_steering()
    cases.append((steering, pair.realization))
    return cases


@pytest.mark.parametrize("case", range(len(_coupling_cases())))
def test_couple_matches_triple_space_route(case):
    pi, chi = _coupling_cases()[case]
    new, ref = ex.couple(pi, chi), _ref_couple(pi, chi)
    assert (new.dim_in, new.dim_out) == (ref.dim_in, ref.dim_out)
    _agree(new.graph, ref.graph)
    assert ex.rel_classify(new).selfadjoint


def test_mul_then_kernel_product_is_zero():
    # {0} x C^2 followed by the zero operator: the only f is 0 and the
    # only k is 0 g, so the product is the zero relation of graph
    # dimension 0, not {0} x C^2.
    prod = ex.rel_product(ex.relation_from_matrix(np.zeros((2, 2))), ex.mul_relation(ex.full_subspace(2)))
    assert prod.graph_dim == 0
    # {0} x M followed by K x {0} is {(0, 0)} for every M and K.
    rng = np.random.default_rng(20061024)
    for _ in range(200):
        p, q, r = (int(v) for v in rng.integers(1, 5, size=3))
        mul = ex.subspace_from_columns(_gauss(rng, q, int(rng.integers(1, q + 1))))
        ker = _gauss(rng, q, int(rng.integers(1, q + 1)))
        b = ex.relation_from_generators(p, q, np.vstack([np.zeros((p, mul.dim)), mul.basis]))
        a = ex.relation_from_generators(q, r, np.vstack([ker, np.zeros((r, ker.shape[1]))]))
        assert ex.rel_product(a, b).graph_dim == 0
