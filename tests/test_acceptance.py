"""Acceptance gate: nine release criteria, one test per criterion.

Each test prints a single verdict line; run with ``pytest -v
tests/test_acceptance.py`` to see one pass/fail row per criterion.
Tolerances are pinned here on purpose; loosening them is a release
decision, not a test fix.
"""

import numpy as np

import extensio as ex

LAW_TOL = 1e-8
TRIPLET_TOL = 1e-9
RESOLVENT_TOL = 1e-8
COUPLING_TOL = 1e-8
TRANSFORM_TOL = 1e-9
PINNED_TOL = 1e-12
SPECTRUM_TOL = 1e-6

SAMPLES = (1j, 2j, 1 + 1j)


def graph_gap(a, b):
    return max(
        ex.containment_gap(a.graph, b.graph), ex.containment_gap(b.graph, a.graph)
    )


def test_criterion_1_relation_laws():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p, q, r = (int(d) for d in rng.integers(1, 5, size=3))
        a = ex.random_relation(rng, q, r)
        b = ex.random_relation(rng, p, q)
        worst = max(worst, graph_gap(ex.rel_inverse(ex.rel_inverse(a)), a))
        worst = max(
            worst,
            graph_gap(ex.rel_inverse(ex.rel_adjoint(a)), ex.rel_adjoint(ex.rel_inverse(a))),
        )
        ab = ex.rel_product(a, b)
        worst = max(
            worst,
            graph_gap(
                ex.rel_inverse(ab),
                ex.rel_product(ex.rel_inverse(b), ex.rel_inverse(a)),
            ),
        )
        adj_prod = ex.rel_product(ex.rel_adjoint(b), ex.rel_adjoint(a))
        worst = max(
            worst, ex.containment_gap(adj_prod.graph, ex.rel_adjoint(ab).graph)
        )
        for rel in (a, b, ab):
            parts = ex.rel_parts(rel)
            assert parts.dom.dim + parts.mul.dim == rel.graph_dim
            assert parts.ran.dim + parts.ker.dim == rel.graph_dim
    assert worst < LAW_TOL
    print(f"criterion 1: pass (100 relation instances, worst angle {worst:.2e})")


def test_criterion_2_main_transform_equivalence():
    disagreements = 0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        n, m = (int(d) for d in rng.integers(1, 4, size=2))
        total = n + m
        kind = case % 3
        if kind == 0:
            rel = ex.random_selfadjoint_relation(rng, total)
        elif kind == 1:
            rel = ex.random_symmetric_restriction(rng, total, int(rng.integers(1, total + 1)))
        else:
            rel = ex.random_relation(rng, total, total)
        gamma = ex.inverse_main_transform(rel, (n, m))
        forward = ex.main_transform(gamma)
        flags = ex.rel_classify(forward)
        if ex.is_unitary(gamma) != flags.selfadjoint:
            disagreements += 1
        if ex.is_isometric(gamma) != flags.symmetric:
            disagreements += 1
    assert disagreements == 0
    print("criterion 2: pass (100 transform instances, 0 disagreements)")


def test_criterion_3_constructed_triplets():
    worst = 0.0
    for case in range(30):
        rng = np.random.default_rng(2000 + case)
        n = int(rng.integers(2, 7))
        defect = int(rng.integers(1, n + 1))
        s = ex.random_symmetric_restriction(rng, n, defect)
        pi = ex.von_neumann_triplet(s)
        ex.validate_boundary_relation(pi.gamma)
        worst = max(worst, ex.green_residual(pi.gamma))
        for lam in SAMPLES:
            m_val = ex.rel_matrix(ex.weyl_eval(pi, lam))
            m_conj = ex.rel_matrix(ex.weyl_eval(pi, np.conj(lam)))
            worst = max(worst, float(np.abs(m_conj - m_val.conj().T).max()))
            imag = (m_val - m_val.conj().T) / 2j
            low = float(np.linalg.eigvalsh(imag / lam.imag).min())
            worst = max(worst, max(0.0, -low))
    assert worst < TRIPLET_TOL
    print(f"criterion 3: pass (30 triplets, worst residual {worst:.2e})")


def scene_catalog():
    cases = []
    for case in range(30):
        rng = np.random.default_rng(3000 + case)
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, min(5, 9 - n1)))
        cases.append(ex.random_scene(3000 + case, n1, n2))
    return cases


def test_criterion_4_resolvent_formula():
    lams = (1j, 2j, -1j, 1 + 1j, 0.5 - 2j)
    worst = 0.0
    for scene in scene_catalog():
        pi = ex.scene_triplet(scene)
        tau = ex.tau_of_extension(scene, pi)
        for lam in lams:
            lhs = ex.generalized_resolvent(scene, lam).compressed
            rhs = ex.krein_rhs(pi, tau, lam)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < RESOLVENT_TOL
    pinned = ex.generalized_resolvent(ex.fix_b_scene(), 1j).compressed[0, 0]
    assert abs(pinned - 0.5j) < PINNED_TOL
    print(f"criterion 4: pass (30 scenes x 5 points, worst residual {worst:.2e})")


def test_criterion_5_coupling_round_trip():
    worst = 0.0
    for scene in scene_catalog():
        pi = ex.scene_triplet(scene)
        chi = ex.induced_chi(scene, pi)
        rebuilt = ex.couple(pi, chi)
        worst = max(worst, graph_gap(rebuilt, scene.a_tilde))
        scene2 = ex.coupling_scene(rebuilt, scene.h1_dim, scene.h2_dim)
        chi2 = ex.induced_chi(scene2, pi)
        worst = max(worst, graph_gap(chi2.gamma, chi.gamma))
    assert worst < COUPLING_TOL
    print(f"criterion 5: pass (30 scenes both directions, worst angle {worst:.2e})")


def test_criterion_6_transform_two_routes():
    rng = np.random.default_rng(4000)
    s = ex.random_symmetric_restriction(rng, 6, 3)
    pi = ex.von_neumann_triplet(s)
    results = [
        ex.block_compress(pi, ex.SpaceSplit(1, 2), 1),
        ex.block_compress(pi, ex.SpaceSplit(1, 2), 2),
        ex.block_compress(pi, ex.SpaceSplit(2, 1), 1),
        ex.schur_complement(pi, ex.SpaceSplit(2, 1)),
        ex.t_transform(
            pi,
            ex.SpaceSplit(1, 2),
            rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)),
        ),
    ]
    s2 = ex.random_symmetric_restriction(np.random.default_rng(4001), 5, 3)
    results.append(ex.sum_weyl(pi, ex.von_neumann_triplet(s2)))
    worst = 0.0
    for res in results:
        for lam in SAMPLES:
            direct = ex.rel_matrix(ex.weyl_eval(res.boundary, lam))
            worst = max(worst, float(np.abs(direct - res.weyl_fn(lam)).max()))
    assert worst < TRANSFORM_TOL
    m_val = ex.sl_weyl(ex.SLModel(1.0), -1.0)
    schur = m_val[0, 0] - m_val[0, 1] * m_val[1, 0] / m_val[1, 1]
    assert abs(schur + np.tanh(1.0)) < TRANSFORM_TOL
    print(f"criterion 6: pass (6 transforms x 3 points, worst residual {worst:.2e})")


def admissibility_catalog():
    cases = []
    for case in range(12):
        rng = np.random.default_rng(5000 + case)
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        scene = ex.random_scene(5000 + case, n1, n2)
        pi = ex.scene_triplet(scene)
        cases.append((pi, ex.realized_pair(ex.induced_chi(scene, pi))))
    for _ in range(3):
        cases.append(ex.fix_infty_steering())
    for case in range(12):
        rng = np.random.default_rng(5100 + case)
        n = int(rng.integers(3, 6))
        defect = int(rng.integers(1, 3))
        s = ex.random_symmetric_restriction(rng, n, defect)
        pi = ex.von_neumann_triplet(s)
        theta = ex.relation_from_matrix(ex.random_hermitian(rng, defect))
        cases.append((pi, ex.realized_constant_pair(theta)))
    for _ in range(3):
        pi = ex.fix_b_triplet()
        cases.append((pi, ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1)))))
    return cases


def test_criterion_7_admissibility_oracle_agreement():
    disagreements = 0
    inadmissible_seen = 0
    for pi, pair in admissibility_catalog():
        m = pi.boundary_dim
        exact_operator = ex.exact_mul(ex.couple(pi, pair.realization)).dim == 0
        if not exact_operator:
            inadmissible_seen += 1
        for z0 in SAMPLES:
            rep = ex.admissible(pi, pair, z0=z0)
            if rep.admissible != exact_operator or rep.qlt_pass != exact_operator:
                disagreements += 1
        t = np.zeros((m, m), dtype=complex)
        dw = ex.double_weyl(pi, pair.realization)
        tt = ex.t_transform(dw.boundary, ex.SpaceSplit(m, m), t)
        a_t = ex.kernel_of_boundary_map(tt.boundary, 1)
        mt = ex.mt_admissibility(pi, pair, t)
        if ex.rel_parts(a_t).mul.dim == 0:
            if mt != exact_operator:
                disagreements += 1
        elif exact_operator and not mt:
            disagreements += 1
    assert disagreements == 0
    assert inadmissible_seen >= 6
    print(
        "criterion 7: pass (30 realizable cases, both verdict signs, 0 disagreements)"
    )


def test_criterion_8_periodic_spectrum():
    model = ex.SLModel(1.0)
    got = ex.periodic_spectrum(model, (-1.0, 50.0))
    expect = [0.0, np.pi**2, 4 * np.pi**2]
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert abs(g - e) <= SPECTRUM_TOL * max(1.0, abs(e))
    dirich = ex.periodic_spectrum(model, (-1.0, 50.0), variant="dirichlet")
    expect_d = [(k * np.pi / 2) ** 2 for k in range(1, 5)]
    assert len(dirich) == len(expect_d)
    for g, e in zip(dirich, expect_d):
        assert abs(g - e) <= SPECTRUM_TOL * max(1.0, abs(e))
    print("criterion 8: pass (periodic and interface-coupling spectra match)")


def family_catalog():
    model = ex.SLModel(1.0)
    herg = ex.HerglotzModel(
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([2.0, 0.0]).astype(complex),
        ((0.5, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)),),
    )
    const = ex.relation_from_matrix(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex))
    return [
        ex.FamilyEval(2, lambda lam: ex.relation_from_matrix(ex.sl_weyl(model, lam))),
        ex.FamilyEval(2, lambda lam: ex.relation_from_matrix(ex.herglotz_eval(herg, lam))),
        ex.FamilyEval(2, lambda lam: const),
    ]


def test_criterion_9_class_invariance():
    disagreements = 0
    families = family_catalog()
    flags_before = [ex.classify_family(f, 2j) for f in families]
    signatures = {(fl.strict, fl.uniformly_strict) for fl in flags_before}
    assert (True, True) in signatures and (False, False) in signatures
    for case in range(20):
        rng = np.random.default_rng(6000 + case)
        w = ex.random_standard_j_unitary(rng, 2)
        for f, before in zip(families, flags_before):
            moved = ex.shmulyan_family(w, f)
            after = ex.classify_family(moved, 2j)
            if (before.strict, before.uniformly_strict) != (
                after.strict,
                after.uniformly_strict,
            ):
                disagreements += 1
    assert disagreements == 0
    print("criterion 9: pass (20 transforms x 3 families, 0 disagreements)")
