"""Validation where data enters: public constructors and serialize.

Bases the library computes itself skip these checks; the session guard in
conftest.py verifies them instead.  Each typed hypothesis error is raised
here by one input that reaches its raise site.
"""

import functools
import json
from types import SimpleNamespace

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


# Spectral points enter at public entry points, where one rule applies:
# every point is finite, Weyl families, gamma fields and pairs are
# evaluated off the real axis (RealAxis), and reference points lie in the
# open upper half plane.
NONFINITE = {
    "nan+nanj": complex(np.nan, np.nan),
    "1+nanj": complex(1.0, np.nan),
    "inf*i": complex(0.0, np.inf),
    "inf+i": complex(np.inf, 1.0),
}


@functools.cache
def _fixtures():
    herglotz = ex.HerglotzModel(
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([2.0, 0.0]).astype(complex),
        ((0.5, np.ones((2, 2), dtype=complex)),),
    )
    pair = ex.realized_constant_pair(ex.relation_from_matrix([[2.0]]))
    trip = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(21), 5, 3))
    scene, pi = ex.fix_b_scene(), ex.fix_b_triplet()
    chi = ex.induced_chi(scene, pi)
    split = ex.SpaceSplit(2, 1)
    return SimpleNamespace(
        rel=ex.fix_b_relation(),
        scene=scene,
        pi=pi,
        herglotz=herglotz,
        pair=pair,
        family=ex.family_eval_from_pair(pair),
        mul_pair=ex.realized_constant_pair(ex.mul_relation(ex.full_subspace(1))),
        weyl_fns={
            "block_compress": ex.block_compress(trip, split, 1).weyl_fn,
            "schur_complement": ex.schur_complement(trip, split).weyl_fn,
            "t_transform": ex.t_transform(trip, split, np.ones((2, 1))).weyl_fn,
            "sum_weyl": ex.sum_weyl(pi, pi).weyl_fn,
            "double_weyl": ex.double_weyl(pi, chi).weyl_fn,
            "intermediate_h1": ex.intermediate_h1(pi, chi).weyl_fn,
            "intermediate_h2": ex.intermediate_h2(pi, chi).weyl_fn,
        },
    )


ANY_FINITE = {
    "resolvent_matrix": lambda f, p: ex.resolvent_matrix(f.rel, p),
    "eigenspace": lambda f, p: ex.eigenspace(f.rel, p),
    "generalized_resolvent": lambda f, p: ex.generalized_resolvent(f.scene, p),
    "straus_solve": lambda f, p: ex.straus_solve(f.scene, f.pi, [1.0], p),
    "tau.eval": lambda f, p: ex.tau_of_extension(f.scene, f.pi).eval(p),
    "nev_kernel": lambda f, p: ex.nev_kernel(f.pair, p, 1j),
    "sl_weyl": lambda f, p: ex.sl_weyl(ex.SLModel(), p),
    "periodic_spectrum": lambda f, p: ex.periodic_spectrum(ex.SLModel(), (0.0, p)),
}
NONREAL = {
    "weyl_eval": lambda f, p: ex.weyl_eval(f.pi, p),
    "gamma_field": lambda f, p: ex.gamma_field(f.pi, p),
    "check_weyl_identities": lambda f, p: ex.check_weyl_identities(f.pi, p, 1j),
    "pair_at": lambda f, p: ex.pair_at(f.pair, p),
    "herglotz_eval": lambda f, p: ex.herglotz_eval(f.herglotz, p),
    "check_family": lambda f, p: ex.check_family(f.family, [p]),
    "classify_family": lambda f, p: ex.classify_family(f.family, p),
    "decompose_family": lambda f, p: ex.decompose_family(f.family, p),
    **{
        f"{name}.weyl_fn": (lambda f, p, name=name: f.weyl_fns[name](p))
        for name in ("block_compress", "schur_complement", "t_transform", "sum_weyl",
                     "double_weyl", "intermediate_h1", "intermediate_h2")
    },
}
UPPER = {
    "admissible": lambda f, p: ex.admissible(f.pi, f.mul_pair, z0=p),
    "langer_textorius": lambda f, p: ex.langer_textorius(f.pi, f.mul_pair, p),
}
ENTRIES = {**ANY_FINITE, **NONREAL, **UPPER}


@pytest.mark.parametrize("point", NONFINITE.values(), ids=NONFINITE.keys())
@pytest.mark.parametrize("call", ENTRIES.values(), ids=ENTRIES.keys())
def test_nonfinite_points_are_refused_at_entry(call, point, capfd):
    fixtures = _fixtures()
    with pytest.raises(ex.ArgumentError, match="not finite"):
        call(fixtures, point)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("point", [2.0, -1.0, 0.0])
@pytest.mark.parametrize("call", NONREAL.values(), ids=NONREAL.keys())
def test_real_points_raise_real_axis_where_values_live_off_it(call, point):
    with pytest.raises(ex.RealAxis, match="nonreal"):
        call(_fixtures(), point)


@pytest.mark.parametrize("z0", [0.5, -1j, 1 - 1j, complex(0.0, np.inf)])
def test_reference_points_must_lie_in_the_upper_half_plane(z0, tmp_path):
    fixtures = _fixtures()
    for call in UPPER.values():
        with pytest.raises(ex.ArgumentError):
            call(fixtures, z0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"triplets": {"ident": ex.triplet_to_json(fixtures.pi)}, "pairs": {
        "neg-recip": {"kind": "scalar-rational", "numerator": [[-1.0, 0.0]], "denominator": [[0.0, 0.0], [1.0, 0.0]]}
    }}))
    text = f"{z0.real}{z0.imag:+}i" if isinstance(z0, complex) else str(z0)
    assert ex.cli_run(["admissibility", str(path), "ident", "neg-recip", "--z0", text]) == 2


BAD_PROBES = {
    "negative grid": dict(y_grid=(-1e4, -1e3, -1e2, -1e1)),
    "zero height": dict(y_grid=(0.0, 1e1, 1e2, 1e3)),
    "trailing inf": dict(y_grid=(1e2, 1e3, 1e4, np.inf)),
    "trailing nan": dict(y_grid=(1e2, 1e3, 1e4, np.nan)),
    "not increasing": dict(y_grid=(1e2, 1e4, 1e3, 1e5)),
    "nan slope_tol": dict(slope_tol=np.nan),
    "inf slope_tol": dict(slope_tol=np.inf),
    "zero slope_tol": dict(slope_tol=0.0),
    "negative extra_probes": dict(extra_probes=-1),
    "fractional extra_probes": dict(extra_probes=2.5),
    "negative seed": dict(seed=-1),
    "fractional seed": dict(seed=2.5),
}


@pytest.mark.parametrize("kwargs", BAD_PROBES.values(), ids=BAD_PROBES.keys())
def test_limit_probe_rejects_what_it_cannot_sample(kwargs):
    with pytest.raises(ex.ArgumentError):
        ex.LimitProbe(**kwargs)


def test_limit_probe_accepts_the_default_and_integer_like_counts():
    assert ex.LimitProbe() == ex.DEFAULT_PROBE
    assert ex.LimitProbe(y_grid=[1.0, 2.0, 3.0, 4.0], extra_probes=np.int64(0)).extra_probes == 0
    assert ex.LimitProbe(seed=np.int64(0)).seed == 0


BAD_TOLERANCES = {
    "negative rank": dict(rank=-1.0),
    "zero rank": dict(rank=0.0),
    "unit rank": dict(rank=1.0),
    "nan rank": dict(rank=np.nan),
    "zero angle": dict(angle=0.0),
    "negative angle": dict(angle=-1e-8),
    "inf angle": dict(angle=np.inf),
    "nan angle": dict(angle=np.nan),
    "negative psd": dict(psd=-1e-9),
    "inf psd": dict(psd=np.inf),
    "nan psd": dict(psd=np.nan),
}


@pytest.mark.parametrize("kwargs", BAD_TOLERANCES.values(), ids=BAD_TOLERANCES.keys())
def test_tolerances_reject_what_no_cutoff_can_use(kwargs):
    with pytest.raises(ex.ArgumentError):
        ex.Tolerances(**kwargs)


def test_tolerances_accept_the_default_and_the_edges_of_their_ranges():
    assert ex.Tolerances() == ex.TOL
    assert ex.Tolerances(rank=0.5, angle=1.0, psd=0.0).psd == 0.0


def test_arrays_entering_next_to_a_point_are_validated():
    fixtures = _fixtures()
    with pytest.raises(ex.ArgumentError, match="finite"):
        ex.straus_solve(fixtures.scene, fixtures.pi, [np.nan], 1j)
    trip = ex.von_neumann_triplet(ex.random_symmetric_restriction(np.random.default_rng(3), 4, 2))
    pair = ex.realized_constant_pair(ex.relation_from_matrix(np.eye(2)))
    assert isinstance(ex.mt_admissibility(trip, pair, np.zeros((2, 2))), bool)
    with pytest.raises(ex.ArgumentError, match="rows"):
        ex.mt_admissibility(trip, pair, np.zeros((3, 3)))
    with pytest.raises(ex.ArgumentError, match="finite"):
        ex.mt_admissibility(trip, pair, np.full((2, 2), np.nan))
