"""Indefinite pairing, isometry and the main transform."""

import numpy as np
import pytest

import extensio as ex
from extensio import kreinspace

RESID = 1e-10


def _dense_j(n):
    # reference route: J = [[0, -iI], [iI, 0]] on C^{2n} as a dense matrix
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    return np.concatenate([np.concatenate([zero, -1j * eye], axis=1), np.concatenate([1j * eye, zero], axis=1)])


def test_fundamental_symmetry_matrix():
    expect = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.linalg.norm(_dense_j(1) - expect) == 0.0
    j2 = _dense_j(3)
    assert np.linalg.norm(j2 @ j2 - np.eye(6)) < RESID
    assert np.linalg.norm(j2 - j2.conj().T) < RESID
    # the library applies J as the block swap, exactly the dense product
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 3):
        u = rng.standard_normal((2 * n, 3)) + 1j * rng.standard_normal((2 * n, 3))
        assert np.array_equal(kreinspace._apply_j(u), _dense_j(n) @ u)


_ODD = ex.relation_from_generators(3, 2, np.eye(5, dtype=complex)[:, :2])
_ODD_CASES = {
    "krein_complement": lambda: ex.krein_complement(ex.full_subspace(3)),
    "krein_adjoint": lambda: ex.krein_adjoint(_ODD),
    "is_isometric": lambda: ex.is_isometric(_ODD),
    "is_unitary": lambda: ex.is_unitary(_ODD),
    "main_transform": lambda: ex.main_transform(_ODD),
    "unitary_domain_identities": lambda: ex.unitary_domain_identities(_ODD),
    "green_residual": lambda: ex.green_residual(ex.relation_from_generators(2, 1, np.eye(3, dtype=complex))),
    "inverse_main_transform": lambda: ex.inverse_main_transform(ex.zero_relation(1, 1), (-1, 2)),
}


@pytest.mark.parametrize("name", sorted(_ODD_CASES))
def test_odd_graph_spaces_have_no_symmetry(name):
    # J exists on C^{2n} only: every Krein function refuses an odd side, and
    # the inverse main transform a negative half dimension
    with pytest.raises(ex.ArgumentError):
        _ODD_CASES[name]()


def test_krein_complement_dims():
    space = ex.subspace_from_columns(np.eye(4, dtype=complex)[:, :1])
    comp = ex.krein_complement(space)
    assert comp.dim == 3


def test_boundary_graph_is_unitary():
    pi = ex.fix_b_triplet()
    assert ex.is_isometric(pi.gamma)
    assert ex.is_unitary(pi.gamma)
    # scaling one output coordinate breaks the pairing
    scaled = ex.relation_from_generators(
        2, 2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 2.0]], dtype=complex)
    )
    assert not ex.is_isometric(scaled)
    assert not ex.is_unitary(scaled)


def test_krein_adjoint_involution():
    rng = np.random.default_rng(1)
    rel = ex.relation_from_generators(
        4, 2, rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    )
    adj = ex.krein_adjoint(rel)
    back = ex.krein_adjoint(adj)
    assert ex.rel_equal(back, rel)


def test_main_transform_equivalence():
    rng = np.random.default_rng(2)
    # selfadjoint source: the inverse transform is unitary
    atilde = ex.random_selfadjoint_relation(rng, 3)
    kr = ex.inverse_main_transform(atilde, (2, 1))
    assert ex.is_unitary(kr)
    assert ex.rel_equal(ex.main_transform(kr), atilde)
    # symmetric, non-selfadjoint source: isometric but not unitary
    sym = ex.random_symmetric_restriction(rng, 3, 1)
    kr2 = ex.inverse_main_transform(sym, (2, 1))
    assert ex.is_isometric(kr2)
    assert not ex.is_unitary(kr2)
    # generic relation: neither
    graph = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    generic = ex.relation_from_generators(3, 3, graph)
    kr3 = ex.inverse_main_transform(generic, (2, 1))
    assert not ex.is_isometric(kr3)


def test_main_transform_round_trip():
    rng = np.random.default_rng(3)
    rel = ex.relation_from_generators(
        4, 2, rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    )
    atilde = ex.main_transform(rel)
    assert atilde.dim_in == 3
    back = ex.inverse_main_transform(atilde, (2, 1))
    assert ex.rel_equal(back, rel)


def test_unitary_domain_identities():
    pi = ex.fix_b_triplet()
    report = ex.unitary_domain_identities(pi.gamma)
    assert report.ker_angle < 1e-8
    assert report.mul_angle < 1e-8
    with pytest.raises(ex.NotUnitary):
        ex.unitary_domain_identities(ex.zero_relation(2, 2))


def _reference_krein_adjoint(t):
    # reference route: compose the graphs of J_in, the Euclidean adjoint
    # and J_out with two relation products
    j_in = ex.relation_from_matrix(_dense_j(t.dim_in // 2))
    j_out = ex.relation_from_matrix(_dense_j(t.dim_out // 2))
    return ex.rel_product(j_in, ex.rel_product(ex.rel_adjoint(t), j_out))


def _random_split_relations():
    rng = np.random.default_rng(5)
    cases = []
    for n, m in ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (3, 2)):
        for k in sorted({0, n + m, 2 * (n + m)}):
            gens = rng.standard_normal((2 * n + 2 * m, k)) + 1j * rng.standard_normal((2 * n + 2 * m, k))
            cases.append((n, m, ex.relation_from_generators(2 * n, 2 * m, gens)))
    # multivalued: a random operator graph plus outputs paired with input 0
    graph = np.vstack([np.eye(4), rng.standard_normal((2, 4))]).astype(complex)
    mul = np.vstack([np.zeros((4, 1)), np.array([[1.0], [1j]])])
    cases.append((2, 1, ex.relation_from_generators(4, 2, np.hstack([graph, mul]))))
    return cases


@pytest.mark.parametrize("n, m, rel", _random_split_relations())
def test_krein_adjoint_matches_product_route(n, m, rel):
    adj = ex.krein_adjoint(rel)
    basis = adj.graph.basis
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(adj.graph_dim)) < 1e-12
    assert (adj.dim_in, adj.dim_out) == (2 * m, 2 * n)
    assert ex.rel_equal(adj, _reference_krein_adjoint(rel))


def _laws_small_transform(rng, kind, n, m):
    # the three relation kinds of the laws-small benchmark workload
    total = n + m
    if kind == "selfadjoint":
        return ex.random_selfadjoint_relation(rng, total)
    if kind == "symmetric":
        return ex.random_symmetric_restriction(rng, total, int(rng.integers(1, total + 1)))
    gens = rng.standard_normal((2 * total, total)) + 1j * rng.standard_normal((2 * total, total))
    return ex.relation_from_generators(total, total, gens)


@pytest.mark.parametrize("kind", ["selfadjoint", "symmetric", "generic"])
def test_unitarity_matches_product_route(kind):
    rng = np.random.default_rng(6)
    for n in range(1, 4):
        for m in range(1, 4):
            kr = ex.inverse_main_transform(_laws_small_transform(rng, kind, n, m), (n, m))
            ref = _reference_krein_adjoint(kr)
            inverse = ex.rel_inverse(kr)
            assert ex.is_unitary(kr) == ex.rel_equal(inverse, ref) == (kind == "selfadjoint")
            assert ex.is_isometric(kr) == ex.is_subrelation(inverse, ref) == (kind != "generic")


def _pairing_sine(kr):
    # reference route: the gap of the inverse graph in the indefinite adjoint
    return np.sin(ex.containment_gap(ex.rel_inverse(kr).graph, ex.krein_adjoint(kr).graph))


@pytest.mark.parametrize("ratio, inside", [(0.7, True), (1.5, False)])
def test_unitarity_at_the_angle_cutoff(ratio, inside):
    # a unitary graph pushed to either side of the tol.angle cutoff
    rng = np.random.default_rng(7)
    for n in range(1, 4):
        for m in range(1, 4):
            kr = ex.inverse_main_transform(ex.random_selfadjoint_relation(rng, n + m), (n, m))
            basis = kr.graph.basis
            push = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)

            def moved(eps):
                return ex.LinearRelation(2 * n, 2 * m, ex.subspace_from_columns(basis + eps * push))

            slope = _pairing_sine(moved(1e-6)) / 1e-6
            pushed = moved(ratio * np.sin(ex.TOL.angle) / slope)
            assert abs(_pairing_sine(pushed) / np.sin(ex.TOL.angle) - ratio) < 0.1 * ratio
            ref = ex.krein_adjoint(pushed)
            inverse = ex.rel_inverse(pushed)
            assert ex.is_isometric(pushed) == ex.is_subrelation(inverse, ref) == inside
            assert ex.is_unitary(pushed) == ex.rel_equal(inverse, ref) == inside
            # one graph dimension fewer: never unitary
            cut = ex.LinearRelation(2 * n, 2 * m, ex.Subspace(2 * (n + m), pushed.graph.basis[:, 1:]))
            assert ex.is_isometric(cut) == ex.is_subrelation(ex.rel_inverse(cut), ex.krein_adjoint(cut))
            assert not ex.is_unitary(cut) and not ex.rel_equal(ex.rel_inverse(cut), ex.krein_adjoint(cut))


# Reference routes with J materialized as a dense matrix (_dense_j); the
# library applies J as the block swap [-i u2; i u1] and forms
# X* J X - Y* J Y as i(D* - D) with D = X1* X2 - Y1* Y2.


def _j_form(rows):
    # X* J X = i(G* - G) with G = X1* X2, for X split at half its rows: the
    # former route, one form per graph block
    half = rows.shape[0] // 2
    g = rows[:half].conj().T @ rows[half:]
    return 1j * (g.conj().T - g)


def test_pairing_form_matches_the_two_j_forms():
    # one D = X1* X2 - Y1* Y2 in place of the difference of two forms, on
    # the block-swap cases and on von Neumann triplets' boundary relations
    rng = np.random.default_rng(12)
    rels = [rel for _, _, rel in _block_swap_cases()]
    for n in (1, 2, 3, 4):
        pi = ex.von_neumann_triplet(ex.random_symmetric_restriction(rng, n + 1, 1 + n % 2))
        rels.append(pi.gamma)
    for rel in rels:
        form = kreinspace._pairing_form(rel)
        ref = _j_form(rel.in_block) - _j_form(rel.out_block)
        assert form.shape == ref.shape
        assert np.linalg.norm(form - ref) <= 1e-14 * max(1, rel.graph_dim)
        assert ex.green_residual(rel) == np.linalg.norm(form)
        assert abs(ex.green_residual(rel) - np.linalg.norm(ref)) <= 1e-14 * max(1, rel.graph_dim)


def _dense_pairing_form(kr):
    x, y = kr.in_block, kr.out_block
    return x.conj().T @ _dense_j(kr.dim_in // 2) @ x - y.conj().T @ _dense_j(kr.dim_out // 2) @ y


def _dense_krein_adjoint_basis(kr):
    star = ex.rel_adjoint(kr)
    return np.vstack([_dense_j(kr.dim_out // 2) @ star.in_block, _dense_j(kr.dim_in // 2) @ star.out_block])


def _dense_isometric(kr):
    form = _dense_pairing_form(kr)
    return not form.size or bool(np.abs(np.linalg.eigvalsh(form)).max() <= np.sin(ex.TOL.angle))


def _block_swap_cases():
    # random relations with unequal half dimensions, unitary graphs and
    # unitary graphs pushed to either side of the angle cutoff
    cases = list(_random_split_relations())
    rng = np.random.default_rng(8)
    for n, m in ((1, 2), (2, 1), (3, 1), (1, 3), (2, 3)):
        kr = ex.inverse_main_transform(ex.random_selfadjoint_relation(rng, n + m), (n, m))
        basis = kr.graph.basis
        push = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)

        def moved(eps):
            return ex.LinearRelation(2 * n, 2 * m, ex.subspace_from_columns(basis + eps * push))

        slope = _pairing_sine(moved(1e-6)) / 1e-6
        cases.append((n, m, kr))
        cases += [(n, m, moved(ratio * np.sin(ex.TOL.angle) / slope)) for ratio in (0.7, 1.5)]
    return cases


def test_block_swap_matches_the_dense_symmetry():
    verdicts = set()
    for n, m, rel in _block_swap_cases():
        dense = _dense_pairing_form(rel)
        form = kreinspace._pairing_form(rel)
        assert np.linalg.norm(form - dense) <= 1e-14 * max(1, rel.graph_dim)
        assert np.array_equal(form, form.conj().T)
        assert ex.is_isometric(rel) == _dense_isometric(rel)
        assert ex.is_unitary(rel) == (_dense_isometric(rel) and 2 * rel.graph_dim == rel.dim_in + rel.dim_out)
        verdicts.add(ex.is_isometric(rel))
        assert abs(ex.green_residual(rel) - np.linalg.norm(dense)) <= 1e-14 * max(1, rel.graph_dim)
        # the swap is exact: the adjoint basis and the complement's
        # generators equal the dense products entry for entry
        assert np.array_equal(ex.krein_adjoint(rel).graph.basis, _dense_krein_adjoint_basis(rel))
        parts = ex.rel_parts(rel)
        for space, half in ((parts.dom, n), (parts.ran, m)):
            dense_comp = ex.subspace_complement(ex.Subspace(2 * half, _dense_j(half) @ space.basis))
            assert np.array_equal(ex.krein_complement(space).basis, dense_comp.basis)
    assert verdicts == {True, False}
