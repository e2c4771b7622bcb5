"""The three benchmark workloads: input generators and checked cases.

A generator turns a seed and a round number k into one *round*: a list
of cases holding only raw numpy arrays (read-only) or model-file text.
The shapes of a round are fixed; ``(seed, k)`` draws the entries, so
each round of a run brings inputs the library has not seen before.
Every round of a workload thus has the same work profile, and a run that
stops on a round boundary has exact per-op call and SVD counts.

A case calls extensio only through ``lib``, a namespace of the functions
named in ``SPANS`` (plain functions when tracing is off, span-wrapped
ones when it is on), and checks every answer against its oracle at the
acceptance tolerances of ``tests/test_acceptance.py``.  A case returns a
tag that the run-level gate reads; a wrong answer raises ``CaseFailed``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

LAW_TOL = 1e-8
TRIPLET_TOL = 1e-9
RESOLVENT_TOL = 1e-8
SHAPE_SEED = 20061024

# Calls each workload makes into extensio; one span name per call site kind.
SPANS = {
    "laws-small": (
        "linrel.relation_from_generators",
        "linrel.rel_product",
        "linrel.rel_adjoint",
        "linrel.rel_inverse",
        "linrel.rel_parts",
        "linrel.containment_gap",
        "linrel.rel_classify",
        "kreinspace.inverse_main_transform",
        "kreinspace.main_transform",
        "kreinspace.is_unitary",
    ),
    "resolvent-sizes": (
        "serialize.parse_model_text",
        "coupling.coupling_scene",
        "boundary.von_neumann_triplet",
        "coupling.tau_of_extension",
        "boundary.weyl_eval",
        "linrel.rel_matrix",
        "coupling.generalized_resolvent",
        "coupling.krein_rhs",
    ),
    "admissibility-catalog": (
        "linrel.relation_from_matrix",
        "linrel.relation_from_generators",
        "linrel.mul_relation",
        "linrel.full_subspace",
        "linrel.rel_parts",
        "coupling.coupling_scene",
        "boundary.von_neumann_triplet",
        "coupling.induced_chi",
        "models.realized_pair",
        "models.fix_infty_steering",
        "models.realized_constant_pair",
        "models.fix_b_triplet",
        "coupling.couple",
        "admissibility.exact_mul",
        "admissibility.admissible",
        "coupling.double_weyl",
        "transforms.t_transform",
        "boundary.kernel_of_boundary_map",
        "admissibility.mt_admissibility",
    ),
}


class CaseFailed(Exception):
    """An answer missed its oracle."""


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _gauss(rng, n, n)
    return (g + g.conj().T) / 2


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CaseFailed(what)


# ---------------------------------------------------------------------------
# laws-small: relation laws (criterion 1) and the main transform (criterion 2)


def laws_round(seed: int, k: int) -> list[tuple]:
    """64 law cases over every (p, q, r) in 1..4 and 27 transform cases:
    three kinds over every split (n, m) in 1..3."""
    shapes = np.random.default_rng(SHAPE_SEED)
    rng = _rng(seed, k)
    cases: list[tuple] = []
    for p, q, r in itertools.product(range(1, 5), repeat=3):
        ka = int(shapes.integers(0, q + r + 1))
        kb = int(shapes.integers(0, p + q + 1))
        cases.append(
            ("law", (p, q, r), _frozen(_gauss(rng, q + r, ka)), _frozen(_gauss(rng, p + q, kb)))
        )
    for kind, (n, m) in itertools.product(
        ("selfadjoint", "symmetric", "generic"), itertools.product(range(1, 4), repeat=2)
    ):
        total = n + m
        if kind == "selfadjoint":
            u = _haar_unitary(rng, total)
            eye = np.eye(total)
            gens = np.vstack([u - eye, 1j * (u + eye)])
        elif kind == "symmetric":
            defect = int(shapes.integers(1, total + 1))
            h = _hermitian(rng, total)
            g = _gauss(rng, total, total - defect)
            gens = np.vstack([g, h @ g])
        else:
            gens = _gauss(rng, 2 * total, total)
        cases.append(("transform", (n, m, kind), _frozen(gens)))
    return cases


def _graph_gap(lib, a, b) -> float:
    return max(lib.containment_gap(a.graph, b.graph), lib.containment_gap(b.graph, a.graph))


def laws_case(lib, case: tuple) -> str:
    if case[0] == "law":
        _, (p, q, r), ga, gb = case
        a = lib.relation_from_generators(q, r, ga)
        b = lib.relation_from_generators(p, q, gb)
        worst = _graph_gap(lib, lib.rel_inverse(lib.rel_inverse(a)), a)
        worst = max(
            worst,
            _graph_gap(
                lib,
                lib.rel_inverse(lib.rel_adjoint(a)),
                lib.rel_adjoint(lib.rel_inverse(a)),
            ),
        )
        ab = lib.rel_product(a, b)
        worst = max(
            worst,
            _graph_gap(
                lib,
                lib.rel_inverse(ab),
                lib.rel_product(lib.rel_inverse(b), lib.rel_inverse(a)),
            ),
        )
        adj_prod = lib.rel_product(lib.rel_adjoint(b), lib.rel_adjoint(a))
        worst = max(worst, lib.containment_gap(adj_prod.graph, lib.rel_adjoint(ab).graph))
        _require(worst < LAW_TOL, f"law residual {worst:.2e}")
        for rel in (a, b, ab):
            parts = lib.rel_parts(rel)
            _require(parts.dom.dim + parts.mul.dim == rel.graph_dim, "dom + mul dimension")
            _require(parts.ran.dim + parts.ker.dim == rel.graph_dim, "ran + ker dimension")
        return "law"
    _, (n, m, kind), gens = case
    rel = lib.relation_from_generators(n + m, n + m, gens)
    gamma = lib.inverse_main_transform(rel, (n, m))
    forward = lib.main_transform(gamma)
    gap = _graph_gap(lib, forward, rel)
    _require(gap < LAW_TOL, f"main transform round trip {gap:.2e}")
    flags = lib.rel_classify(forward)
    unitary = lib.is_unitary(gamma)
    _require(unitary == flags.selfadjoint, "unitary <=> selfadjoint")
    _require(flags.selfadjoint == (kind == "selfadjoint"), f"{kind} selfadjoint flag")
    _require(flags.symmetric == (kind != "generic"), f"{kind} symmetric flag")
    return kind


def laws_gate(tags: list[str]) -> str | None:
    missing = {"law", "selfadjoint", "symmetric", "generic"} - set(tags)
    return f"kinds never run: {sorted(missing)}" if missing else None


# ---------------------------------------------------------------------------
# resolvent-sizes: Krein-type formula route against the compressed resolvent

SIZES = (2, 4, 6, 8, 10, 13, 16)
LAMBDAS = (1j, -1j, 2j, -2j, 1 + 1j, 1 - 1j)


def _matrix_json(mat: np.ndarray) -> dict:
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }


def resolvent_round(seed: int, k: int) -> list[tuple]:
    """One model file per size: a Hermitian matrix on C^{2n} stored as the
    generator columns [I; A] of its graph, split as n + n."""
    rng = _rng(seed, k)
    cases = []
    for n in SIZES:
        a = _hermitian(rng, 2 * n)
        gens = np.vstack([np.eye(2 * n), a])
        doc = {
            "relations": {
                "a_tilde": {"dim_in": 2 * n, "dim_out": 2 * n, "generators": _matrix_json(gens)}
            }
        }
        cases.append((n, json.dumps(doc)))
    return cases


def resolvent_case(lib, case: tuple) -> int:
    n, text = case
    mf = lib.parse_model_text(text)
    scene = lib.coupling_scene(mf.relations["a_tilde"], n, n)
    pi = lib.von_neumann_triplet(scene.s1)
    tau = lib.tau_of_extension(scene, pi)
    weyl = {}
    for lam in LAMBDAS:
        m_val = lib.rel_matrix(lib.weyl_eval(pi, lam))
        imag = (m_val - m_val.conj().T) / (2j * lam.imag)
        low = float(np.linalg.eigvalsh(imag).min())
        _require(low > -TRIPLET_TOL, f"Im M / Im lam >= 0 misses by {-low:.2e} at n={n}")
        weyl[lam] = m_val
        lhs = lib.generalized_resolvent(scene, lam).compressed
        rhs = lib.krein_rhs(pi, tau, lam)
        _require(lhs.shape == (n, n), "compressed resolvent shape")
        res = float(np.abs(lhs - rhs).max())
        _require(res < RESOLVENT_TOL, f"resolvent residual {res:.2e} at n={n}")
    for lam in LAMBDAS:
        sym = float(np.abs(weyl[lam.conjugate()] - weyl[lam].conj().T).max())
        _require(sym < TRIPLET_TOL, f"M(conj lam) = M(lam)* residual {sym:.2e} at n={n}")
    return n


def resolvent_gate(tags: list[int]) -> str | None:
    missing = set(SIZES) - set(tags)
    return f"sizes never run: {sorted(missing)}" if missing else None


# ---------------------------------------------------------------------------
# admissibility-catalog: criterion 7's case mix with the exact verdict

ADM_SAMPLES = (1j, 2j, 1 + 1j)
SCENE_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (1, 1), (2, 2), (3, 3))
TRIPLET_SHAPES = ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)) * 2


def admissibility_round(seed: int, k: int) -> list[tuple]:
    """Per 30 cases: 12 realized scene pairs, 3 steering fixtures, 12 von
    Neumann triplets with constant Hermitian pairs, 3 multivalued pairs."""
    rng = _rng(seed, k)
    cases: list[tuple] = []
    for n1, n2 in SCENE_SHAPES:
        cases.append(("scene", (n1, n2), _frozen(_hermitian(rng, n1 + n2))))
    cases += [("steering",)] * 3
    for n, defect in TRIPLET_SHAPES:
        h = _hermitian(rng, n)
        g = _gauss(rng, n, n - defect)
        cases.append(
            ("triplet", (n, defect), _frozen(np.vstack([g, h @ g])), _frozen(_hermitian(rng, defect)))
        )
    cases += [("multivalued",)] * 3
    return cases


# Exact verdicts known from the construction: a scene pair couples back to
# its Hermitian matrix; the two fixtures steer onto a multivalued coupling.
EXPECTED_OPERATOR = {"scene": True, "steering": False, "multivalued": False}


def admissibility_case(lib, case: tuple) -> bool:
    kind = case[0]
    if kind == "scene":
        _, (n1, n2), a = case
        scene = lib.coupling_scene(lib.relation_from_matrix(a), n1, n2)
        pi = lib.von_neumann_triplet(scene.s1)
        pair = lib.realized_pair(lib.induced_chi(scene, pi))
    elif kind == "steering":
        pi, pair = lib.fix_infty_steering()
    elif kind == "triplet":
        _, (n, _), gens, theta = case
        pi = lib.von_neumann_triplet(lib.relation_from_generators(n, n, gens))
        pair = lib.realized_constant_pair(lib.relation_from_matrix(theta))
    else:
        pi = lib.fix_b_triplet()
        pair = lib.realized_constant_pair(lib.mul_relation(lib.full_subspace(1)))
    m = pi.base.boundary_dim
    exact = lib.exact_mul(lib.couple(pi, pair.realization)).dim == 0
    if kind in EXPECTED_OPERATOR:
        _require(exact == EXPECTED_OPERATOR[kind], f"{kind} exact verdict")
    for z0 in ADM_SAMPLES:
        rep = lib.admissible(pi, pair, z0=z0)
        _require(rep.admissible == exact and rep.qlt_pass == exact, f"{kind} admissible at {z0}")
    t = np.zeros((m, m), dtype=complex)
    dw = lib.double_weyl(pi, pair.realization)
    tt = lib.t_transform(dw.boundary, lib.SpaceSplit(m, m), t)
    a_t = lib.kernel_of_boundary_map(tt.boundary, 1)
    mt = lib.mt_admissibility(pi, pair, t)
    if lib.rel_parts(a_t).mul.dim == 0:
        _require(mt == exact, f"{kind} transformed-block verdict")
    else:
        _require(mt or not exact, f"{kind} transformed-block necessity")
    return exact


def admissibility_gate(tags: list[bool]) -> str | None:
    if not (any(tags) and not all(tags)):
        return "run lacks one of the two verdict signs"
    return None


WORKLOADS = {
    "laws-small": (laws_round, laws_case, laws_gate),
    "resolvent-sizes": (resolvent_round, resolvent_case, resolvent_gate),
    "admissibility-catalog": (admissibility_round, admissibility_case, admissibility_gate),
}
