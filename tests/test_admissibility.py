"""Limit-based admissibility detectors against exactly computable cases."""

import dataclasses

import numpy as np
import pytest

import extensio as ex
from extensio import admissibility
from extensio.admissibility import DEFAULT_GRID, _fit, _grid_design, _vanishes
from extensio.coupling import _double_weyl_blocks
from extensio.nevanlinna import _GridEval
from extensio.transforms import _t_combination


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
    # built once per (dim, probe) and shared read-only
    assert again is vecs
    with pytest.raises(ValueError):
        vecs[0, 0] = 2.0
    # the values are those of the seeded generator
    rng = np.random.default_rng(5)
    extra = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(vecs, np.hstack([np.eye(3), extra / np.linalg.norm(extra, axis=0)]))
    assert ex.probe_vectors(0, probe).shape == (0, 0)


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
    design = _grid_design(ex.LimitProbe(y_grid=grid).y_grid)
    ys = design.ys
    rng = np.random.default_rng(31)
    powers = rng.uniform(-3, 2, size=(20, 1))
    curves = ys**powers * np.exp(rng.standard_normal((20, ys.size)))
    curves[0] = 0.0  # floored at 1e-300 before the logs
    curves[1, -1] = -1e-3  # the fit reads absolute values
    slopes, tops, logs = _fit(design, curves)
    for row, slope, top in zip(curves, slopes, tops):
        ref_slope, ref_top = _polyfit_reference(ys, row)
        assert abs(slope - ref_slope) <= 1e-12
        assert top == ref_top
    # the log curves are those of the kept points, which end with the last
    # two of the grid
    assert logs.shape == (20, np.count_nonzero(design.keep))
    assert logs.tobytes() == np.log10(np.maximum(np.abs(curves[:, design.keep]), 1e-300)).tobytes()
    assert logs[:, -2:].tobytes() == np.log10(np.maximum(np.abs(curves[:, -2:]), 1e-300)).tobytes()


def _former_design(ys):
    # the grid pieces as the fit computed them on every call, step for step
    keep = ys >= ys[-1] / 10.0**4 * 0.999
    if np.count_nonzero(keep) < 2:
        keep = np.ones(ys.shape, dtype=bool)
    dx = np.log10(ys[keep])
    dx -= dx.mean()
    return keep, dx


def _former_fit(ys, curves):
    vals = np.maximum(np.abs(curves), 1e-300)
    keep, dx = _former_design(ys)
    return np.log10(vals[:, keep]) @ dx / (dx @ dx), vals[:, -1]


def _former_vanishes(ys, curves, probe):
    slopes, tops = _former_fit(ys, curves)
    logs = np.log10(np.maximum(np.abs(curves[:, -2:]), 1e-300))
    last = (logs[:, 1] - logs[:, 0]) / np.log10(ys[-1] / ys[-2])
    fit_decays = (slopes < -probe.slope_tol) & (tops < 1e-4)
    return (tops < 1e-12) | fit_decays | (last < -probe.slope_tol), slopes


@pytest.mark.parametrize(
    "grid",
    [
        ex.DEFAULT_PROBE.y_grid,
        (1.0, 3.0, 1e2, 4e3, 1e5, 2e6),
        (1.0, 1e5, 1e10, 1e15),
        (10, 20, 50, 100, 1e3),
        (2.5, 31.0, 7e2, 1.1e4, 1.37e5),
    ],
)
def test_cached_grid_design_keeps_every_bit(grid):
    # (1, 1e5, 1e10, 1e15) has one point in its top four decades, so all
    # points are fitted; the integer grid hashes like its float twin
    probe = ex.LimitProbe(y_grid=grid)
    design = _grid_design(probe.y_grid)
    assert _grid_design(probe.y_grid) is design
    assert not design.ys.flags.writeable and not design.dx.flags.writeable
    ys = np.asarray(probe.y_grid, dtype=float)
    assert design.ys.tobytes() == ys.tobytes()
    keep, dx = _former_design(ys)
    assert np.array_equal(design.keep, keep) and design.dx.tobytes() == dx.tobytes()
    assert design.dx_sq == dx @ dx and design.last_step == np.log10(ys[-1] / ys[-2])
    rng = np.random.default_rng(2023)
    for _ in range(20):
        powers = rng.uniform(-3, 2, size=(9, 1))
        curves = ys**powers * np.exp(rng.standard_normal((9, ys.size)))
        curves[0] = 0.0
        curves[1, -2:] = [1e-13, -1e-14]
        curves[2] *= 1e-200
        for got, want in zip(_fit(design, curves)[:2], _former_fit(ys, curves), strict=True):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(_vanishes(curves, probe), _former_vanishes(ys, curves, probe), strict=True):
            assert got.tobytes() == want.tobytes()


def test_double_weyl_blocks_match_np_block():
    rng = np.random.default_rng(7)
    for shape in [(2, 2), (4, 3, 3)]:
        m_mat, upper, lower = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))
        got = _double_weyl_blocks(m_mat, upper, lower)
        eye = np.eye(shape[-1], dtype=complex)
        want = np.block([[-upper, eye - upper @ m_mat], [lower, lower @ m_mat]])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _catalog_cases(seed):
    # the case kinds of the admissibility-catalog benchmark: realized scene
    # pairs, the steering fixture, von Neumann triplets with constant
    # Hermitian pairs, and the purely multivalued parameter
    rng = np.random.default_rng(seed)
    for n1, n2 in ((1, 1), (2, 2), (3, 2), (2, 3)):
        scene = ex.random_scene(int(rng.integers(1 << 30)), n1, n2)
        pi = ex.scene_triplet(scene)
        yield pi, ex.realized_pair(ex.induced_chi(scene, pi))
    yield ex.fix_infty_steering()
    for n, defect in ((3, 1), (4, 2), (5, 2)):
        h = ex.random_hermitian(rng, n)
        g = rng.standard_normal((n, n - defect)) + 1j * rng.standard_normal((n, n - defect))
        pi = ex.von_neumann_triplet(ex.relation_from_generators(n, n, np.vstack([g, h @ g])))
        yield pi, ex.realized_constant_pair(ex.relation_from_matrix(ex.random_hermitian(rng, defect)))
    yield ex.fix_b_triplet(), ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mt_curve_matches_the_t_combination_of_the_block_family(monkeypatch, seed):
    # mt_admissibility collapses t* M11 t + t* M12 + M21 t + M22 of the
    # 2m x 2m block family to t* - t* phi omega (t + M) + psi omega (t + M);
    # the reference assembles the blocks and takes the T-combination
    curves = []
    vanishes = admissibility._vanishes
    monkeypatch.setattr(admissibility, "_vanishes", lambda c, probe: curves.append(c) or vanishes(c, probe))
    rng = np.random.default_rng(100 + seed)
    verdicts = set()
    for pi, pair in _catalog_cases(seed):
        m = pi.boundary_dim
        probes = ex.probe_vectors(m)
        for t in (np.zeros((m, m)), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))):
            curves.clear()
            verdict = ex.mt_admissibility(pi, pair, t)
            ys, m_mat, upper, lower = admissibility._sweep(pi, pair, ex.DEFAULT_PROBE, ex.TOL)
            full = _double_weyl_blocks(m_mat, upper, lower)
            ref = np.linalg.norm(_t_combination(full, t) @ probes, axis=1).max(axis=1, initial=0.0) / ys
            (got,) = curves
            scale = np.linalg.norm(full, axis=(1, 2)) * (1 + np.linalg.norm(t)) ** 2 / ys
            assert np.all(np.abs(got[0] - ref) <= 1e-14 * scale)
            assert verdict == bool(vanishes(ref[None, :], ex.DEFAULT_PROBE)[0][0])
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("points", [1, 7])
def test_stacked_grid_arrays_keep_every_byte(points):
    # np.array(parts, dtype=complex) in place of the former
    # np.asarray(np.stack(parts), dtype=complex), on the parts the sweep
    # stacks: a realized pair's (phi, psi), real ones among them, and the
    # family matrices of the quadratic-form test
    scene = ex.random_scene(3, 2, 2)
    pi = ex.scene_triplet(scene)
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    ys = DEFAULT_GRID[-points:]
    real = ex.NevanlinnaPairEval(2, lambda lam: (np.eye(2), np.diag([1.0, 2.0])))
    for tau in (pair, real):
        for parts in zip(*(tau.eval(1j * y) for y in ys)):
            got = np.array(parts, dtype=complex)
            want = np.asarray(np.stack(parts), dtype=complex)
            assert got.shape == want.shape == (points, 2, 2) and got.tobytes() == want.tobytes()
    mats = [ex.rel_matrix(ex.weyl_eval(pi, 1j * y)) for y in ys]
    assert np.array(mats, dtype=complex).tobytes() == np.stack(mats).tobytes()
    # the sweep and the grid matrices themselves against the former
    # stacking over the default grid: the sweep's phi omega and psi omega
    # are the products of the formerly stacked phi and psi with omega
    if points == len(DEFAULT_GRID):
        family = ex.FamilyEval(2, lambda lam: ex.weyl_eval(pi, lam))
        got = admissibility._grid_matrices(family, ex.DEFAULT_PROBE, ex.TOL)[1]
        assert got.tobytes() == np.stack(mats).tobytes()
        for tau in (pair, real):
            _, m_mat, upper, lower = admissibility._sweep(pi, tau, ex.DEFAULT_PROBE, ex.TOL)
            phi, psi = (np.asarray(np.stack(part), dtype=complex) for part in zip(*(tau.eval(1j * y) for y in ys)))
            omega = np.linalg.inv(psi + m_mat @ phi)
            for got, want in ((upper, phi @ omega), (lower, psi @ omega)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    # the three limit tests on one (triplet, pair) share one grid pass
    pi = ex.fix_b_triplet()
    pair = ex.NevanlinnaPairEval(1, counted_pair)
    assert ex.admissible(pi, pair).admissible
    assert ex.admissible(pi, pair, z0=1 + 1j).admissible
    assert ex.mt_admissibility(pi, pair, np.zeros((1, 1)))
    assert ex.langer_textorius(pi, pair, 2j)
    assert pair_calls == [1j * y for y in grid]
    # a new grid is evaluated again; a probe on the same grid reuses it
    pair_calls.clear()
    short = ex.LimitProbe(y_grid=grid[:-1])
    assert ex.langer_textorius(pi, pair, 1j, probe=short)
    assert pair_calls == [1j * y for y in short.y_grid]
    pair_calls.clear()
    assert ex.langer_textorius(pi, pair, 1j, probe=ex.LimitProbe(y_grid=grid[:-1], slope_tol=0.4))
    assert pair_calls == []
    # pairs are matched by identity: an equal pair wrapping the same
    # function is evaluated again
    assert ex.NevanlinnaPairEval(1, counted_pair) == pair
    assert ex.langer_textorius(pi, ex.NevanlinnaPairEval(1, counted_pair), 1j, probe=short)
    assert pair_calls == [1j * y for y in short.y_grid]


def test_coupling_is_built_once_per_pair(monkeypatch):
    calls = []

    def counted_couple(*args):
        calls.append(args)
        return ex.couple(*args)

    monkeypatch.setattr(admissibility, "couple", counted_couple)
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    reports = [ex.admissible(pi, pair, z0=z0) for z0 in (1j, 2j, 1 + 1j)]
    assert len(calls) == 1
    assert all(rep.exact_mul_dim == 0 and rep.agreement for rep in reports)

    # a coupling that fails is not stored: every call builds and raises
    def failing_couple(*args):
        calls.append(args)
        raise ex.AssumptionError("coupling did not produce a selfadjoint relation")

    monkeypatch.setattr(admissibility, "couple", failing_couple)
    calls.clear()
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    for _ in range(2):
        with pytest.raises(ex.AssumptionError):
            ex.admissible(pi, pair)
    assert len(calls) == 2


def test_alternating_pairs_match_a_fresh_triplet():
    # one slot per triplet: switching pairs refills it, and no report
    # depends on the pair seen before
    scene = ex.fix_b_scene()
    pi = ex.fix_b_triplet()
    pairs = [
        ex.realized_pair(ex.induced_chi(scene, pi)),
        ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1))),
    ]
    fresh = [ex.admissible(ex.fix_b_triplet(), pair, z0=2j) for pair in pairs]
    assert fresh[0].admissible and not fresh[1].admissible
    for pair, expected in [*zip(pairs, fresh)] * 2:
        assert ex.admissible(pi, pair, z0=2j) == expected
        assert ex.mt_admissibility(pi, pair, np.zeros((1, 1))) == ex.mt_admissibility(
            ex.fix_b_triplet(), pair, np.zeros((1, 1))
        )


def test_sweep_arrays_are_read_only():
    pi = ex.fix_b_triplet()
    pair = ex.pair_from_matrix_function(1, lambda lam: np.array([[-1.0 / lam]]))
    sweep = admissibility._sweep(pi, pair, ex.DEFAULT_PROBE, ex.TOL)
    # the grid, M, phi omega and psi omega
    assert len(sweep) == 4
    for arr in sweep:
        with pytest.raises(ValueError):
            arr[...] = 0


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


def test_realize_tau_accepts_a_triplet_realization():
    # an ordinary triplet is a boundary relation, so it realizes its pair
    pi = ex.fix_b_triplet()
    assert ex.realize_tau(ex.realized_pair(pi)) is pi
    with pytest.raises(ex.RealizationUnavailable):
        ex.realize_tau(ex.sl_pair_eval(ex.SLModel(1.0)))


def test_trivial_boundary_space_is_admissible():
    # S = diag(1, 2) is selfadjoint: the boundary space is {0}, the limit
    # curves reduce over no probes, and every test passes on zero curves
    pi = ex.von_neumann_triplet(ex.relation_from_matrix(np.diag([1.0, 2.0])))
    assert pi.boundary_dim == 0
    pair = ex.realized_constant_pair(ex.relation_from_matrix(np.zeros((0, 0))))
    rep = ex.admissible(pi, pair)
    assert rep.adm1_pass and rep.adm2_pass and rep.qlt_pass and rep.admissible
    assert rep.exact_mul_dim == 0 and rep.agreement is True
    assert rep.adm1_slope == 0.0 and rep.adm2_slope == 0.0
    assert ex.mt_admissibility(pi, pair, np.zeros((0, 0)))
    assert ex.langer_textorius(pi, pair, 1j)


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
    # nothing is stored for a call that raises: every call raises again
    for _ in range(2):
        with pytest.raises(ex.Omega0Singular):
            ex.admissible(pi, pair)
    # singular at one grid point only: the error names that point
    eye = np.eye(1, dtype=complex)
    late = ex.NevanlinnaPairEval(1, lambda lam: (zero, (lam - 1e4j) * eye))
    for run in (
        lambda: ex.admissible(pi, late),
        lambda: ex.mt_admissibility(pi, late, zero),
        lambda: ex.langer_textorius(pi, late, 1j),
    ) * 2:
        with pytest.raises(ex.Omega0Singular) as exc:
            run()
        assert exc.value.lam == 1e4j


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_near_singular_pair_combination_is_decided_by_the_rank_rule(factor):
    # phi = 0 and psi = (iy - 1e4 i + s): psi + M phi is the 1 x 1 block s at
    # y = 1e4, and the unit-anchored cutoff of a 1 x 1 block is tol.rank
    pi = ex.fix_b_triplet()
    s = factor * ex.TOL.rank
    zero = np.zeros((1, 1), dtype=complex)
    pair = ex.NevanlinnaPairEval(1, lambda lam: (zero, (lam - 1e4j + s) * np.eye(1, dtype=complex)))
    if factor < 1:
        # LAPACK inverts s without complaint; the rank rule refuses it
        with pytest.raises(ex.Omega0Singular) as exc:
            ex.admissible(pi, pair)
        assert exc.value.lam == 1e4j
    else:
        # the sweep holds phi omega = 0 and psi omega = s (1 / s) there
        ys, _, upper, lower = admissibility._sweep(pi, pair, ex.DEFAULT_PROBE, ex.TOL)
        at = np.flatnonzero(ys == 1e4)[0]
        assert upper[at, 0, 0] == 0 and lower[at, 0, 0] == s * (1 / s)


def test_nan_pair_combination_raises_a_typed_error():
    # the rank test's SVD refuses a NaN in psi + M phi before any slope reads it
    pi = ex.fix_b_triplet()
    zero = np.zeros((1, 1), dtype=complex)
    nan = np.full((1, 1), np.nan, dtype=complex)
    pair = ex.NevanlinnaPairEval(1, lambda lam: (zero, nan if lam == 1e4j else np.eye(1, dtype=complex)))
    with pytest.raises(ex.AssumptionError, match="SVD did not converge"):
        ex.admissible(pi, pair)


WRONG_SHAPE_PAIRS = {
    "2x2 values on a 1-dim pair": (1, lambda lam: (np.eye(2), np.eye(2))),
    "1-D values": (1, lambda lam: (np.ones(1), np.ones(1))),
    "scalar values": (1, lambda lam: (1.0, lam)),
    "shape changes at one point": (1, lambda lam: (np.eye(2 if lam == 1e4j else 1), np.eye(1))),
    "one ragged side": (1, lambda lam: (np.eye(1), np.eye(2) if lam == 1e4j else np.eye(1))),
    "pair dimension differs": (2, lambda lam: (np.eye(1), np.eye(1))),
    "not a pair": (1, lambda lam: 3),
    "one matrix": (1, lambda lam: np.eye(1)),
    "three parts": (1, lambda lam: (np.eye(1),) * 3),
}


@pytest.mark.parametrize("dim,values", WRONG_SHAPE_PAIRS.values(), ids=WRONG_SHAPE_PAIRS.keys())
def test_wrong_shape_pair_values_raise_a_typed_error(dim, values):
    # the sweep checks the stacked pair values once, for every limit test;
    # pair_at checks one value, here at the point where some of them break
    pi = ex.fix_b_triplet()
    pair = ex.NevanlinnaPairEval(dim, values)
    for run in (
        lambda: ex.admissible(pi, pair),
        lambda: ex.mt_admissibility(pi, pair, np.zeros((1, 1))),
        lambda: ex.langer_textorius(pi, pair, 1j),
    ):
        with pytest.raises(ex.ArgumentError, match="pair"):
            run()
    with pytest.raises(ex.ArgumentError):
        ex.pair_at(pair, 1e4j)


def test_exact_mul_helper():
    assert ex.exact_mul(ex.fix_infty_relation()).dim == 1
    assert ex.exact_mul(ex.fix_b_relation()).dim == 0
    with pytest.raises(ex.RealizationUnavailable):
        ex.realize_tau(
            ex.pair_from_matrix_function(1, lambda lam: np.array([[lam]]))
        )


def test_exact_mul_is_the_mul_part_of_rel_parts_bit_for_bit(monkeypatch):
    # one SVD, of the input block, gives the bytes of rel_parts(a).mul, on
    # operator graphs, multivalued and purely multivalued relations, and
    # the empty relation
    rng = np.random.default_rng(51)
    relations = [ex.zero_relation(3, 3), ex.LinearRelation(2, 2, ex.zero_subspace(4))]
    relations += [ex.mul_relation(ex.full_subspace(n)) for n in (1, 3)]
    for n in range(1, 7):
        a = ex.random_selfadjoint_relation(rng, n)
        relations.append(a)
        relations.append(ex.rel_direct_sum(a, ex.mul_relation(ex.full_subspace(1 + n % 2))))
    relations += [ex.fix_infty_relation(), ex.fix_b_relation()]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    dims = set()
    for a in relations:
        calls.clear()
        mul = ex.exact_mul(a)
        assert len(calls) <= 1
        ref = ex.rel_parts(a).mul
        assert mul.ambient_dim == ref.ambient_dim
        assert mul.basis.shape == ref.basis.shape and mul.basis.tobytes() == ref.basis.tobytes()
        dims.add(mul.dim)
    assert dims >= {0, 1, 2, 3}


def test_resolvent_conditions_are_fitted_once_per_probe(monkeypatch):
    # the two resolvent-difference rows do not depend on z0: three
    # admissible calls on one (pi, tau) fit them once, and only the
    # quadratic-form rows are fitted per call
    fitted = []
    vanishes = admissibility._vanishes

    def counted(curves, probe):
        fitted.append(curves.shape[0])
        return vanishes(curves, probe)

    monkeypatch.setattr(admissibility, "_vanishes", counted)
    scene = ex.random_scene(5, 2, 2)
    pi = ex.scene_triplet(scene)
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    probe_rows = pi.boundary_dim + ex.DEFAULT_PROBE.extra_probes
    reports = [ex.admissible(pi, pair, z0=z0) for z0 in (1j, 2j, 1 + 1j)]
    assert fitted == [2, probe_rows, probe_rows, probe_rows]
    # a probe that differs only in slope_tol fits them again
    fitted.clear()
    loose = dataclasses.replace(ex.DEFAULT_PROBE, slope_tol=0.6)
    loose_reports = [ex.admissible(pi, pair, probe=loose, z0=z0) for z0 in (1j, 2j)]
    assert fitted == [2, probe_rows, probe_rows]
    # every report equals the one from a fresh triplet
    for z0, rep in zip((1j, 2j, 1 + 1j), reports):
        assert rep == ex.admissible(ex.scene_triplet(scene), pair, z0=z0)
    for z0, rep in zip((1j, 2j), loose_reports):
        assert rep == ex.admissible(ex.scene_triplet(scene), pair, probe=loose, z0=z0)


def test_a_pair_value_is_its_one_point_grid_bit_for_bit():
    # realized pairs on induced and on ordinary boundary relations evaluate
    # a grid in one pass, and eval(lam) is that pass at the one point lam;
    # constant pairs loop eval, so their grid is their point values too
    lams = [2j, 1 + 1j, -1j, 3 - 0.5j, *(1j * y for y in DEFAULT_GRID)]
    pairs = [pair for _, pair in _catalog_cases(7)]
    pairs.append(ex.realized_pair(ex.scene_triplet(ex.random_scene(7, 2, 2))))
    assert sum(isinstance(pair.eval, _GridEval) for pair in pairs) == 5
    for pair in pairs:
        for points in (lams, 1j * np.asarray(DEFAULT_GRID)):
            values = pair.eval_grid(points)
            assert len(values) == len(points)
            for lam, (phi, psi) in zip(points, values):
                one_phi, one_psi = pair.eval(lam)
                assert phi.tobytes() == one_phi.tobytes() and psi.tobytes() == one_psi.tobytes()


def test_the_sweep_takes_one_grid_pass_per_pair_and_grid():
    scene = ex.random_scene(3, 2, 2)
    pi = ex.scene_triplet(scene)
    pair = ex.realized_pair(ex.induced_chi(scene, pi))
    passes = []
    counted = dataclasses.replace(pair, eval=_GridEval(lambda lams: passes.append(list(lams)) or pair.eval.grid(lams)))
    m = pi.boundary_dim
    for z0 in (1j, 2j, 1 + 1j):
        ex.admissible(pi, counted, z0=z0)
    ex.mt_admissibility(pi, counted, np.zeros((m, m)))
    assert passes == [[1j * y for y in DEFAULT_GRID]]
    short = ex.LimitProbe(y_grid=DEFAULT_GRID[:-1])
    ex.langer_textorius(pi, counted, 1j, probe=short)
    assert passes[1:] == [[1j * y for y in short.y_grid]]
    # a pair whose eval is replaced holds no grid of the former one: it is
    # evaluated point by point, and its own values reach the sweep
    points = []
    plain = dataclasses.replace(pair, eval=lambda lam: points.append(lam) or pair.eval(lam))
    other = ex.scene_triplet(scene)
    assert admissibility._sweep(other, plain, ex.DEFAULT_PROBE, ex.TOL)[2].tobytes() == (
        admissibility._sweep(pi, pair, ex.DEFAULT_PROBE, ex.TOL)[2].tobytes()
    )
    assert points == [1j * y for y in DEFAULT_GRID]
