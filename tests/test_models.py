"""Fixtures, seeded generators, the interval model and serialization."""

import json

import mpmath
import numpy as np
import pytest

import extensio as ex


# ---------------------------------------------------------------------------
# fixture relations


def test_fixture_classifications():
    a = ex.fix_a_relation()
    flags = ex.rel_classify(a)
    assert flags.symmetric and not flags.selfadjoint
    rep = ex.defect_report(ex.von_neumann_triplet(a))
    assert (rep.n_plus, rep.n_minus) == (1, 1)
    assert ex.rel_classify(ex.fix_b_relation()).selfadjoint
    inf = ex.fix_infty_relation()
    assert ex.rel_classify(inf).selfadjoint
    assert ex.rel_parts(inf).mul.dim == 1
    # both selfadjoint fixtures extend the rank-one symmetric operator
    assert ex.is_subrelation(a, ex.fix_b_relation())
    assert ex.is_subrelation(a, inf)


def test_twist_relation_involution():
    theta = ex.relation_from_matrix(np.array([[2.0, 1.0], [1.0, -1.0]]))
    twisted = ex.twist_relation(theta)
    assert ex.rel_classify(twisted).selfadjoint
    assert ex.rel_equal(ex.twist_relation(twisted), theta)
    assert np.linalg.norm(ex.rel_matrix(twisted) + ex.rel_matrix(theta)) < 1e-12


# ---------------------------------------------------------------------------
# seeded generators


def test_random_generators_reproducible_and_classified():
    a = ex.random_selfadjoint_relation(np.random.default_rng(3), 4)
    b = ex.random_selfadjoint_relation(np.random.default_rng(3), 4)
    assert ex.rel_equal(a, b)
    assert ex.rel_classify(a).selfadjoint

    # a Haar unitary has the eigenvalue 1 with probability zero, so the
    # Cayley image is an operator graph
    for seed in range(40):
        assert ex.rel_parts(ex.random_selfadjoint_relation(np.random.default_rng(seed), 1 + seed % 6)).mul.dim == 0

    s = ex.random_symmetric_restriction(np.random.default_rng(4), 5, 2)
    flags = ex.rel_classify(s)
    assert flags.symmetric and not flags.selfadjoint
    assert s.graph_dim == 3
    rep = ex.defect_report(ex.von_neumann_triplet(s))
    assert rep.n_plus == rep.n_minus == 2
    with pytest.raises(ex.ArgumentError):
        ex.random_symmetric_restriction(np.random.default_rng(4), 5, 0)


def test_random_scene_validation():
    scene = ex.random_scene(11, 2, 2)
    again = ex.random_scene(11, 2, 2)
    assert ex.rel_equal(scene.a_tilde, again.a_tilde)
    assert ex.rel_classify(scene.a_tilde).selfadjoint
    with pytest.raises(ex.ArgumentError):
        ex.random_scene(11, 0, 2)


def test_scene_triplet_kernel_matches():
    scene = ex.random_scene(12, 2, 3)
    pi = ex.scene_triplet(scene)
    assert ex.rel_equal(pi.s_rel, scene.s1)


# ---------------------------------------------------------------------------
# interval model


def test_sl_model_validation():
    with pytest.raises(ex.ArgumentError):
        ex.SLModel(0.0)
    with pytest.raises(ex.ArgumentError):
        ex.SLModel(-1.0)


def test_sl_weyl_hand_values():
    model = ex.SLModel(1.0)
    m = ex.sl_weyl(model, -1.0)
    # below the spectrum everything is hyperbolic
    assert abs(m[0, 0] + np.cosh(1.0) / np.sinh(1.0)) < 1e-12
    assert abs(m[0, 1] - 1.0 / np.sinh(1.0)) < 1e-12
    schur = m[0, 0] - m[0, 1] * m[1, 0] / m[1, 1]
    assert abs(schur + np.tanh(1.0)) < 1e-12
    # Nevanlinna behavior off the axis
    val = ex.sl_weyl(model, 2j)
    imag = (val - val.conj().T) / 2j
    assert np.linalg.eigvalsh(imag).min() > 0
    conj = ex.sl_weyl(model, -2j)
    assert np.linalg.norm(conj - val.conj().T) < 1e-12


def test_sl_weyl_near_pole_guard():
    model = ex.SLModel(1.0)
    with pytest.raises(ex.NearPole):
        ex.sl_weyl(model, np.pi**2)
    with pytest.raises(ex.NearPole):
        ex.sl_weyl(model, 4 * np.pi**2 + 1e-8)
    ex.sl_weyl(model, np.pi**2 + 0.1)


def test_sl_weyl_stable_branch():
    model = ex.SLModel(1.0)
    # both branches are representable here; they must agree
    for y in (1700.0, 1900.0, 2200.0):
        lam = 1j * y
        w = complex(np.sqrt(lam))
        z = w * model.length
        naive = (1.0 / (np.sin(z) / w)) * np.array(
            [[-np.cos(z), 1.0], [1.0, -np.cos(z)]], dtype=complex
        )
        stable = ex.sl_weyl(model, lam)
        assert np.linalg.norm(stable - naive) / np.linalg.norm(naive) < 1e-10
    # far out the matrix converges to i w on the diagonal
    lam = 1e8j
    val = ex.sl_weyl(model, lam)
    assert np.all(np.isfinite(val.view(float)))
    w = complex(np.sqrt(lam))
    assert abs(val[0, 0] - 1j * w) / abs(w) < 1e-10
    assert abs(val[0, 1]) / abs(w) < 1e-10


def _mp_sl_reference(length, lam):
    # 50-digit sin(w l)/w and cos(w l) with w the upper square root of lam
    with mpmath.workdps(50):
        w = mpmath.sqrt(mpmath.mpc(lam.real, lam.imag))
        if w.imag < 0 or (w.imag == 0 and w.real < 0):
            w = -w
        z = w * length
        s, c = mpmath.sin(z) / w, mpmath.cos(z)
        phi = np.array([[complex(s), 0.0], [0.0, complex(s)]])
        psi = np.array([[-complex(c), 1.0], [1.0, -complex(c)]])
        weyl = np.array([[complex(-c / s), complex(1 / s)], [complex(1 / s), complex(-c / s)]])
    return phi, psi, weyl


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def test_sl_small_lambda_series_matches_extended_precision():
    # |w l| straddles 1e-5, where sin(w l)/w switches to its Taylor series
    sides = set()
    for length in (1.0, 2.5):
        model = ex.SLModel(length)
        for lam in (1e-12j, 1e-11 * (1 + 1j), -3e-11 + 1e-12j):
            sides.add(abs(np.sqrt(lam) * length) < 1e-5)
            phi_ref, psi_ref, weyl_ref = _mp_sl_reference(length, lam)
            phi, psi = ex.sl_pair_eval(model).eval(lam)
            assert _rel_err(phi, phi_ref) < 1e-14
            assert _rel_err(psi, psi_ref) < 1e-14
            assert _rel_err(ex.sl_weyl(model, lam), weyl_ref) < 1e-14
    assert sides == {True, False}


def test_sl_pair_matches_weyl():
    model = ex.SLModel(1.0)
    pair = ex.sl_pair_eval(model)
    ex.check_pair(pair)
    for lam in (2j, -1.0, 1 + 1j, 1e8j):
        phi, psi = pair.eval(lam)
        quotient = psi @ np.linalg.inv(phi)
        assert np.linalg.norm(quotient - ex.sl_weyl(model, lam)) < 1e-8
    # the pair is entire: evaluation at an interval eigenvalue works
    phi, psi = pair.eval(np.pi**2)
    assert np.linalg.norm(phi) < 1e-12
    assert np.all(np.isfinite(psi.view(float)))


def test_periodic_spectrum_values():
    model = ex.SLModel(1.0)
    got = ex.periodic_spectrum(model, (-0.5, 45.0))
    expect = [0.0, np.pi**2, 4 * np.pi**2]
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-6
    dirich = ex.periodic_spectrum(model, (-0.5, 45.0), variant="dirichlet")
    expect_d = [(k * np.pi / 2) ** 2 for k in (1, 2, 3, 4)]
    assert len(dirich) == len(expect_d)
    for g, e in zip(dirich, expect_d):
        assert abs(g - e) < 1e-6
    with pytest.raises(ex.ArgumentError):
        ex.periodic_spectrum(model, (3.0, 3.0))
    with pytest.raises(ex.ArgumentError):
        ex.periodic_spectrum(model, (0.0, 1.0), variant="mystery")


def test_periodic_spectrum_window_control():
    model = ex.SLModel(1.0)
    inside = ex.periodic_spectrum(model, (5.0, 15.0))
    assert len(inside) == 1
    assert abs(inside[0] - np.pi**2) < 1e-6
    empty = ex.periodic_spectrum(model, (1.0, 8.0))
    assert empty == []


# ---------------------------------------------------------------------------
# serialization


def test_matrix_and_relation_round_trip():
    rng = np.random.default_rng(20)
    mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert np.array_equal(ex.json_to_matrix(ex.matrix_to_json(mat)), mat)
    rel = ex.random_relation(rng, 2, 3)
    back = ex.json_to_relation(ex.relation_to_json(rel))
    assert back.dim_in == 2 and back.dim_out == 3
    assert ex.rel_equal(back, rel)


def test_triplet_round_trip():
    pi = ex.von_neumann_triplet(ex.fix_a_relation())
    back = ex.json_to_triplet(ex.triplet_to_json(pi))
    assert ex.rel_equal(back.gamma, pi.gamma)


def test_model_text_round_trip_bit_exact():
    rng = np.random.default_rng(21)
    doc = {
        "matrices": {"m": ex.matrix_to_json(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))},
        "relations": {"r": ex.relation_to_json(ex.random_relation(rng, 2, 2))},
        "triplets": {"t": ex.triplet_to_json(ex.fix_b_triplet())},
        "pairs": {"sl": {"kind": "sl-interval", "length": 1.0}},
    }
    back = ex.parse_model_text(json.dumps(doc))
    # stored decimals come back bit-exact, and orthonormal generators verbatim
    assert ex.matrix_to_json(back.matrices["m"]) == doc["matrices"]["m"]
    assert ex.relation_to_json(back.relations["r"]) == doc["relations"]["r"]
    assert ex.triplet_to_json(back.triplets["t"]) == doc["triplets"]["t"]
    assert back.pairs["sl"].dim == 2


def test_pair_spec_kinds():
    herg = ex.pair_from_spec(
        {
            "kind": "herglotz",
            "const": ex.matrix_to_json(np.array([[2.0]], dtype=complex)),
            "linear": ex.matrix_to_json(np.zeros((1, 1), dtype=complex)),
            "masses": [
                {
                    "point": 0.5,
                    "weight": ex.matrix_to_json(np.array([[1.0]], dtype=complex)),
                }
            ],
        },
        {},
    )
    phi, psi = herg.eval(2j)
    expect = 2.0 + 1.0 / (0.5 - 2j) - 0.5 / (0.25 + 1.0)
    assert abs(psi[0, 0] / phi[0, 0] - expect) < 1e-12

    sl = ex.pair_from_spec({"kind": "sl-interval", "length": 2.0}, {})
    assert sl.dim == 2

    const = ex.pair_from_spec(
        {"kind": "constant", "relation": "v"},
        {"v": ex.relation_from_matrix(np.array([[3.0]], dtype=complex))},
    )
    phi, psi = const.eval(1j)
    assert abs(psi[0, 0] / phi[0, 0] - 3.0) < 1e-12

    rat = ex.pair_from_spec(
        {"kind": "scalar-rational", "numerator": [[-1.0, 0.0]], "denominator": [[0.0, 0.0], [1.0, 0.0]]},
        {},
    )
    phi, psi = rat.eval(2j)
    assert abs(psi[0, 0] / phi[0, 0] - (-1.0 / 2j)) < 1e-12

    with pytest.raises(ex.ArgumentError):
        ex.pair_from_spec({"kind": "mystery"}, {})


def test_parse_error_paths():
    with pytest.raises(ex.ArgumentError):
        ex.parse_model_text("not json at all{")
    with pytest.raises(ex.ArgumentError):
        ex.parse_model_text(json.dumps({"matrices": {"m": {"rows": 1}}}))
    with pytest.raises(ex.ArgumentError):
        ex.json_to_relation({"dim_in": 1, "dim_out": 1, "generators": [[1.0]]})


@pytest.mark.parametrize(
    "data_text",
    [
        pytest.param('[["1.5", 0.0]]', id="string"),
        pytest.param("[[null, 1.0]]", id="null"),
        pytest.param("[[1.0], [1.0, 2.0]]", id="ragged"),
        pytest.param("[[1.0, [2.0]]]", id="nested"),
        pytest.param("[[1.0, 2.0, 3.0]]", id="triple"),
        pytest.param("[1.0]", id="bare-number"),
        pytest.param('[{"re": 1.0, "im": 0.0}]', id="object"),
        # json.loads accepts NaN and Infinity
        pytest.param("[[NaN, 1.0]]", id="nan"),
        pytest.param("[[1.0, -Infinity]]", id="infinity"),
        pytest.param("[[1" + "9" * 400 + ", 0]]", id="huge-integer"),
    ],
)
def test_json_to_matrix_rejects_malformed_data(data_text):
    data = json.loads(data_text)
    with pytest.raises(ex.ArgumentError):
        ex.json_to_matrix({"rows": 1, "cols": len(data), "data": data})
    # the same rejection reaches model files and pair specs
    matrix = {"rows": 1, "cols": len(data), "data": data}
    with pytest.raises(ex.ArgumentError):
        ex.parse_model_text(json.dumps({"matrices": {"m": matrix}}))
    spec = {"kind": "herglotz", "const": matrix, "linear": ex.matrix_to_json(np.zeros((1, 1)))}
    with pytest.raises(ex.ArgumentError):
        ex.pair_from_spec(spec, {})
    spec = {"kind": "scalar-rational", "numerator": data, "denominator": [[1.0, 0.0]]}
    with pytest.raises(ex.ArgumentError):
        ex.pair_from_spec(spec, {})


def test_json_to_matrix_parse_is_bit_exact():
    rng = np.random.default_rng(22)
    for shape in ((3, 4), (0, 2), (2, 0), (1, 1)):
        mat = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) + 1j * rng.standard_normal(shape)
        data = json.loads(json.dumps(ex.matrix_to_json(mat)))
        back = ex.json_to_matrix(data)
        entrywise = np.array([complex(re, im) for re, im in data["data"]], dtype=complex).reshape(shape)
        assert np.array_equal(back.view(float), entrywise.view(float))
        assert np.array_equal(back, mat)
    # integers, also beyond int64, parse as the nearest float
    data = {"rows": 1, "cols": 2, "data": [[3, -1], [2**70, 10**30]]}
    assert np.array_equal(ex.json_to_matrix(data), np.array([[3 - 1j, 2.0**70 + 1e30j]]))
