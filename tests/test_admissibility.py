"""Limit-based admissibility detectors against exactly computable cases."""

import numpy as np
import pytest

import extensio as ex
from extensio.admissibility import _fit


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


def _polyfit_reference(ys, vals):
    # top four decades (all points when fewer than two lie there), by polyfit
    vals = np.maximum(np.abs(vals), 1e-300)
    keep = ys >= ys.max() / 1e4 * 0.999
    if keep.sum() < 2:
        keep[:] = True
    return np.polyfit(np.log10(ys[keep]), np.log10(vals[keep]), 1)[0], vals[-1]


@pytest.mark.parametrize(
    "grid", [ex.DEFAULT_PROBE.y_grid, (1.0, 3.0, 1e2, 4e3, 1e5, 2e6), (1.0, 1e5, 1e10, 1e15)]
)
def test_fit_matches_polyfit(grid):
    ys = np.asarray(ex.LimitProbe(y_grid=grid).y_grid, dtype=float)
    rng = np.random.default_rng(31)
    powers = rng.uniform(-3, 2, size=(20, 1))
    curves = ys**powers * np.exp(rng.standard_normal((20, ys.size)))
    curves[0] = 0.0  # floored at 1e-300 before the logs
    curves[1, -1] = -1e-3  # the fit reads absolute values
    slopes, tops = _fit(ys, curves)
    for row, slope, top in zip(curves, slopes, tops):
        ref_slope, ref_top = _polyfit_reference(ys, row)
        assert abs(slope - ref_slope) <= 1e-12
        assert top == ref_top


def test_limit_tests_evaluate_the_family_once_per_grid_point():
    calls = []

    def counted(lam):
        calls.append(lam)
        return ex.relation_from_matrix(np.array([[1j, 0.0], [0.0, 2j]]))

    family = ex.FamilyEval(2, counted)
    grid = ex.DEFAULT_PROBE.y_grid
    assert ex.mul_a0_limit(family)
    assert calls == [1j * y for y in grid]
    calls.clear()
    assert ex.mul_t_limit(family, h0=ex.subspace_from_columns(np.array([[1.0], [0.0]])))
    assert calls == [1j * y for y in grid]

    pair_calls = []
    eye = np.eye(1, dtype=complex)

    def counted_pair(lam):
        pair_calls.append(lam)
        return eye, np.array([[-1.0 / lam]])

    pi = ex.fix_b_triplet()
    pair = ex.NevanlinnaPairEval(1, counted_pair)
    for run in (
        lambda: ex.admissible(pi, pair).admissible,
        lambda: ex.mt_admissibility(pi, pair, np.zeros((1, 1))),
        lambda: ex.langer_textorius(pi, pair, 1j),
    ):
        pair_calls.clear()
        assert run()
        assert pair_calls == [1j * y for y in grid]


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


# Operator couplings from the admissibility-catalog benchmark whose limit
# curves decay as 1/y only over the top decades and so end just above the
# 1e-4 top-value floor.  Each is the symmetric relation spanned by the
# generators [g; h g] with a constant Hermitian parameter.
# Seed 104, round 6, case 20 (C^5, defect 2): at z0 = 1 + i the
# quadratic-form curves stay flat up to y ~ 1e4 and end at 1.06e-4.
SEED104_GENS_RE = [
    [0.18416828449259914, 0.9322439109127756, 0.23224067293517536],
    [-1.1546503217059954, -0.46647407434469773, -0.6790201591974387],
    [-0.33315992033957575, -0.8170624176228394, -1.7166018622469292],
    [-0.3660360799125938, 0.45762252450441043, -0.627233647222496],
    [1.664205222786614, -1.0570155716695722, 0.4222443401834203],
    [1.4954327333209152, -0.8932104656178572, 1.1011706521525977],
    [-0.26990939061579294, 2.069256840564968, -1.3452799035867988],
    [-2.6781492277158616, -2.6657845466113583, -1.8172062216504552],
    [-2.164853142774141, 0.29511559787887265, 1.0325334851796282],
    [-0.13960542492896363, -0.3743349072970521, 2.215805899208723],
]
SEED104_GENS_IM = [
    [0.8208657424209007, -0.9319369935036453, -0.019964648133377772],
    [0.39171761844732605, -1.743654437390265, 0.22801069499162246],
    [1.286262039379686, 0.46674773467232733, -1.603384797980926],
    [-1.5940441445377496, -0.062398019732440434, -0.09235997557790605],
    [1.202828810338597, -1.012001921405729, 1.5355281739760431],
    [-0.5476397105135795, -2.5699640856717645, 3.3528540331866994],
    [0.47858539494766045, 1.205481258032757, -2.126467253178772],
    [1.2604862896835325, 0.9675733508272355, -1.7963462363617395],
    [2.48776440509509, -3.7965977416878927, 0.3306007497321512],
    [1.769001350919144, -1.728117124691119, 1.878521730893191],
]
SEED104_OFF = complex(0.9779714382381715, 1.3356252662651587)
SEED104_THETA = [
    [-0.030044709289353017, SEED104_OFF],
    [SEED104_OFF.conjugate(), 1.2361629680013857],
]
# Seed 466, round 17, case 22 (C^3, defect 2): the curve of the first
# resolvent-difference condition stays flat up to y ~ 1e4 and ends at
# 1.18e-4.
SEED466_GENS = [
    [complex(1.4935423558369456, -0.964772135268961)],
    [complex(-0.9423969953271052, 0.6746356290343521)],
    [complex(-0.117800694409891, 0.5277466050057908)],
    [complex(0.2587801607120388, -1.578325421017223)],
    [complex(2.252512202951438, -2.2723958969613505)],
    [complex(-2.1948275008394162, -2.7796537220993063)],
]
SEED466_OFF = complex(-0.06207770854479, -0.8279458620336317)
SEED466_THETA = [
    [0.819876663995624, SEED466_OFF],
    [SEED466_OFF.conjugate(), 0.487364664873645],
]
LATE_DECAY_CASES = {
    "seed104": (np.array(SEED104_GENS_RE) + 1j * np.array(SEED104_GENS_IM), SEED104_THETA),
    "seed466": (np.array(SEED466_GENS), SEED466_THETA),
}


@pytest.mark.parametrize("case", sorted(LATE_DECAY_CASES))
def test_late_decay_is_admissible(case):
    gens, theta = LATE_DECAY_CASES[case]
    n = gens.shape[0] // 2
    pi = ex.von_neumann_triplet(ex.relation_from_generators(n, n, gens))
    pair = ex.realized_constant_pair(ex.relation_from_matrix(theta))
    for z0 in (1j, 2j, 1 + 1j):
        rep = ex.admissible(pi, pair, z0=z0)
        assert rep.exact_mul_dim == 0
        assert rep.admissible and rep.qlt_pass


def test_singular_pair_combination_raises():
    # psi + M phi vanishes identically: no inverse, and no silent fallback
    pi = ex.fix_b_triplet()
    zero = np.zeros((1, 1), dtype=complex)
    pair = ex.NevanlinnaPairEval(1, lambda lam: (zero, zero))
    with pytest.raises(ex.Omega0Singular):
        ex.admissible(pi, pair)
    # singular at one grid point only: the error names that point
    eye = np.eye(1, dtype=complex)
    late = ex.NevanlinnaPairEval(1, lambda lam: (zero, (lam - 1e4j) * eye))
    for run in (
        lambda: ex.admissible(pi, late),
        lambda: ex.mt_admissibility(pi, late, zero),
        lambda: ex.langer_textorius(pi, late, 1j),
    ):
        with pytest.raises(ex.Omega0Singular) as exc:
            run()
        assert exc.value.lam == 1e4j


def test_exact_mul_helper():
    assert ex.exact_mul(ex.fix_infty_relation()).dim == 1
    assert ex.exact_mul(ex.fix_b_relation()).dim == 0
    with pytest.raises(ex.RealizationUnavailable):
        ex.realize_tau(
            ex.pair_from_matrix_function(1, lambda lam: np.array([[lam]]))
        )
