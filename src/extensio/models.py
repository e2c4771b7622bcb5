"""Fixture construction and closed-form models.

Seeded random scenes and relations, the small hand fixtures used across
the test suite, free Sturm-Liouville boundary maps on an interval in
closed form, and the interface determinant whose real zeros are the
eigenvalues of two coupled intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, NearPole
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    _q_factor,
    _spectral_point,
    identity_relation,
    relation_from_generators,
    relation_from_matrix,
    subspace_from_columns,
)
from .boundary import BoundaryRelation, OrdinaryTriplet, _boundary_map, _weyl_values, ordinary_triplet, von_neumann_triplet
from .nevanlinna import NevanlinnaPairEval, _GridEval, pair_from_relation
from .coupling import CouplingScene, canonical_chi, coupling_scene
from .kreinspace import _apply_j
from .transforms import StandardJUnitary, standard_j_unitary

__all__ = [
    "SLModel",
    "fix_a_relation",
    "fix_b_relation",
    "fix_b_scene",
    "fix_b_triplet",
    "fix_infty_relation",
    "fix_infty_steering",
    "twist_relation",
    "realized_constant_pair",
    "realized_pair",
    "random_hermitian",
    "random_relation",
    "random_selfadjoint_relation",
    "random_symmetric_restriction",
    "random_scene",
    "random_standard_j_unitary",
    "scene_triplet",
    "sl_weyl",
    "sl_pair_eval",
    "periodic_spectrum",
]


# ---------------------------------------------------------------------------
# hand fixtures


def fix_a_relation(tol: Tolerances = TOL) -> LinearRelation:
    """Rank-one symmetric operator on C^2 sending e1 to e2."""
    gens = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)
    return relation_from_generators(2, 2, gens, tol)


def fix_b_relation() -> LinearRelation:
    """Graph of the flip matrix on C^2."""
    return relation_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def fix_b_scene(tol: Tolerances = TOL) -> CouplingScene:
    """The flip matrix split over C^1 + C^1."""
    return coupling_scene(fix_b_relation(), 1, 1, tol)


def fix_b_triplet(tol: Tolerances = TOL) -> OrdinaryTriplet:
    """Triplet over the trivial restriction in C^1 whose Weyl function is
    the identity coordinate."""
    return ordinary_triplet(identity_relation(2), tol)


def fix_infty_relation(tol: Tolerances = TOL) -> LinearRelation:
    """Selfadjoint extension of the rank-one fixture with a one
    dimensional multivalued part."""
    gens = np.array(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=complex
    )
    return relation_from_generators(2, 2, gens, tol)


def twist_relation(v: LinearRelation) -> LinearRelation:
    """Flip the sign of the output component; an involution that maps
    selfadjoint parameters to selfadjoint parameters."""
    basis = np.concatenate([v.in_block, -v.out_block])
    return LinearRelation(v.dim_in, v.dim_out, Subspace._trusted(v.graph.ambient_dim, basis))


# ---------------------------------------------------------------------------
# realized parameter pairs


def realized_constant_pair(v: LinearRelation, tol: Tolerances = TOL) -> NevanlinnaPairEval:
    """Constant pair whose finite realization couples to the extension
    with boundary values in the sign-twisted parameter."""
    base = pair_from_relation(v)
    chi = canonical_chi(twist_relation(v), tol)
    return NevanlinnaPairEval(base.dim, base.eval, chi)


def realized_pair(chi: BoundaryRelation, tol: Tolerances = TOL) -> NevanlinnaPairEval:
    """Pair evaluator reading off the Weyl family of a boundary relation,
    carrying that relation as its realization; a grid of points takes one
    pass (``boundary._weyl_values``)."""
    m = chi.boundary_dim

    def values(lams) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(value.in_block, value.out_block) for value in _weyl_values(chi, lams, tol)]

    return NevanlinnaPairEval(m, _GridEval(values), chi)


def fix_infty_steering(tol: Tolerances = TOL) -> tuple[OrdinaryTriplet, NevanlinnaPairEval]:
    """Triplet for the rank-one fixture together with the constant pair
    that steers the coupling onto the multivalued extension."""
    pi = von_neumann_triplet(fix_a_relation(tol), tol=tol)
    basis = fix_infty_relation(tol).graph.basis
    bounds = _boundary_map(pi, tol)(basis)
    m = pi.boundary_dim
    theta = relation_from_generators(m, m, bounds, tol)
    return pi, realized_constant_pair(twist_relation(theta), tol)


# ---------------------------------------------------------------------------
# seeded random generators


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_relation(
    rng: np.random.Generator, dim_in: int, dim_out: int, graph_dim: int | None = None,
    tol: Tolerances = TOL,
) -> LinearRelation:
    total = dim_in + dim_out
    if graph_dim is None:
        graph_dim = int(rng.integers(0, total + 1))
    gens = rng.standard_normal((total, graph_dim)) + 1j * rng.standard_normal(
        (total, graph_dim)
    )
    return LinearRelation(dim_in, dim_out, subspace_from_columns(gens, tol))


def random_selfadjoint_relation(
    rng: np.random.Generator, n: int, tol: Tolerances = TOL
) -> LinearRelation:
    """Cayley image of a Haar unitary: mul is the eigenspace of the
    eigenvalue 1, which a Haar unitary has with probability zero, so a
    draw is a selfadjoint operator graph almost surely."""
    from scipy.stats import unitary_group

    u = unitary_group.rvs(n, random_state=rng)
    eye = np.eye(n, dtype=complex)
    gens = np.concatenate([u - eye, 1j * (u + eye)])
    return relation_from_generators(n, n, gens, tol)


def random_symmetric_restriction(
    rng: np.random.Generator, n: int, defect: int, tol: Tolerances = TOL
) -> LinearRelation:
    """Restriction of a random Hermitian matrix to a random subspace of
    codimension defect; symmetric with equal defect numbers."""
    if not 0 < defect <= n:
        raise ArgumentError("defect must lie between 1 and the dimension")
    h = random_hermitian(rng, n)
    g = rng.standard_normal((n, n - defect)) + 1j * rng.standard_normal((n, n - defect))
    q = _q_factor(g)
    return relation_from_generators(n, n, np.concatenate([q, h @ q]), tol)


def random_scene(
    seed: int,
    n1: int,
    n2: int,
    a_tilde: LinearRelation | None = None,
    tol: Tolerances = TOL,
) -> CouplingScene:
    """Coupling scene over a seeded Gaussian Hermitian matrix; a_tilde
    overrides the matrix for fixture injection."""
    if n1 < 1 or n2 < 1:
        raise ArgumentError("both component spaces must be nontrivial")
    if a_tilde is None:
        rng = np.random.default_rng(seed)
        a_tilde = relation_from_matrix(random_hermitian(rng, n1 + n2))
    return coupling_scene(a_tilde, n1, n2, tol)


def random_standard_j_unitary(
    rng: np.random.Generator, m: int, scale: float = 0.7
) -> StandardJUnitary:
    from scipy.linalg import expm

    s = scale * random_hermitian(rng, 2 * m)
    return standard_j_unitary(expm(1j * _apply_j(s)))


def scene_triplet(scene: CouplingScene, tol: Tolerances = TOL) -> OrdinaryTriplet:
    """Distinguished triplet for the first restriction of a scene."""
    return von_neumann_triplet(scene.s1, tol=tol)


# ---------------------------------------------------------------------------
# Sturm-Liouville interval models


@dataclass(frozen=True)
class SLModel:
    """Free second-derivative model on an interval of the given length;
    square roots use the principal branch with nonnegative imaginary
    part."""

    length: float = 1.0

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ArgumentError("interval length must be positive")


def _sqrt_upper(lam: complex) -> complex:
    w = complex(np.sqrt(complex(lam)))
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    return w


def _entire_sincos(model: SLModel, lam: complex) -> tuple[complex, complex]:
    """sin(w l)/w and cos(w l), both entire in lam."""
    w = _sqrt_upper(lam)
    z = w * model.length
    c = complex(np.cos(z))
    if abs(z) < 1e-5:
        s = model.length * (1 - z**2 / 6 + z**4 / 120)
    else:
        s = complex(np.sin(z)) / w
    return s, c


def sl_weyl(model: SLModel, lam: complex) -> np.ndarray:
    """Boundary-value transfer matrix of -f'' = lam f with data
    (f(0), f(l)) against (f'(0), -f'(l))."""
    lam = _spectral_point(lam)
    w = _sqrt_upper(lam)
    z = w * model.length
    k = int(round(z.real / np.pi))
    if k >= 1 and abs(z - k * np.pi) < 1e-6:
        raise NearPole(f"lambda={lam} is within 1e-6 of a Dirichlet eigenvalue")
    if z.imag > 30.0:
        # exp(i z) is tiny here; the naive quotient overflows long before
        # the matrix itself grows.
        q = complex(np.exp(2j * z))
        diag = 1j * w * (1.0 + q) / (1.0 - q)
        off = 2j * w * complex(np.exp(1j * z)) / (q - 1.0)
        return np.array([[diag, off], [off, diag]], dtype=complex)
    s, c = _entire_sincos(model, lam)
    return (1.0 / s) * np.array([[-c, 1.0], [1.0, -c]], dtype=complex)


def _sl_pair_fn(model: SLModel) -> Callable[[complex], tuple[np.ndarray, np.ndarray]]:
    def eval_at(lam: complex) -> tuple[np.ndarray, np.ndarray]:
        w = _sqrt_upper(lam)
        z = w * model.length
        if z.imag > 300.0:
            # Same subspace, rescaled by 2 exp(i z) to stay representable.
            q = complex(np.exp(2j * z))
            g = 2.0 * complex(np.exp(1j * z))
            phi = ((q - 1.0) / (1j * w)) * np.eye(2, dtype=complex)
            psi = np.array([[-(q + 1.0), g], [g, -(q + 1.0)]], dtype=complex)
            return phi, psi
        s, c = _entire_sincos(model, lam)
        phi = s * np.eye(2, dtype=complex)
        psi = np.array([[-c, 1.0], [1.0, -c]], dtype=complex)
        return phi, psi

    return eval_at


def sl_pair_eval(model: SLModel) -> NevanlinnaPairEval:
    """Entire pair representing the interval boundary-value family
    without poles; the quotient reproduces sl_weyl off the poles."""
    return NevanlinnaPairEval(2, _sl_pair_fn(model))


# ---------------------------------------------------------------------------
# coupled-interval spectrum


def _interface_det(model: SLModel, variant: str) -> Callable[[complex], complex]:
    """Determinant of the interface system for two mirrored copies,
    built from entire pairs so interval eigenvalues cause no poles."""
    if variant == "periodic":

        def det_at(lam: complex) -> complex:
            s, c = _entire_sincos(model, lam)
            phi = s * np.eye(2, dtype=complex)
            psi = np.array([[-c, 1.0], [1.0, -c]], dtype=complex)
            top = np.concatenate([phi, -phi], axis=1)
            bot = np.concatenate([psi, psi], axis=1)
            return complex(np.linalg.det(np.concatenate([top, bot])))

        return det_at
    if variant == "dirichlet":

        def det_at(lam: complex) -> complex:
            s, c = _entire_sincos(model, lam)
            d = np.array([[s, -s], [-c, -c]], dtype=complex)
            return complex(np.linalg.det(d))

        return det_at
    raise ArgumentError(f"unknown coupling variant {variant!r}")


# periodic_spectrum evaluates the determinant at height _SCAN_HEIGHT above
# the axis, on a grid of step min(_SCAN_STEP, window / _SCAN_POINTS), and
# refines each bracketed zero to _ROOT_XTOL.
_SCAN_HEIGHT = 1e-8
_SCAN_STEP = 0.02
_SCAN_POINTS = 400
_ROOT_XTOL = 1e-10


def periodic_spectrum(
    model: SLModel,
    search_window: tuple[float, float],
    variant: str = "periodic",
) -> list[float]:
    """Real zeros of the interface determinant for two coupled copies of
    the interval: the eigenvalues of the glued selfadjoint operator.

    Zeros are located on a grid of the determinant evaluated just above
    the axis; odd-order zeros are bracketed through the real part and
    even-order zeros through the imaginary part near magnitude minima,
    then refined by bisection.
    """
    from scipy.optimize import brentq, minimize_scalar

    lo, hi = _spectral_point(search_window[0]), _spectral_point(search_window[1])
    if lo.imag or hi.imag or not lo.real < hi.real:
        raise ArgumentError("search window must be a nonempty real interval")
    lo, hi = lo.real, hi.real
    det_fn = _interface_det(model, variant)

    def det_at(x: float) -> complex:
        return det_fn(x + 1j * _SCAN_HEIGHT)

    step = min(_SCAN_STEP, (hi - lo) / _SCAN_POINTS)
    xs = np.arange(lo, hi + step, step)
    vals = np.array([det_at(x) for x in xs])
    mags = np.abs(vals)
    scale = float(mags.max()) if mags.size else 1.0
    roots: list[float] = []

    re = np.real(vals)
    for i in range(len(xs) - 1):
        if re[i] == 0.0:
            roots.append(float(xs[i]))
        elif re[i] * re[i + 1] < 0:
            roots.append(
                float(brentq(lambda x: det_at(x).real, xs[i], xs[i + 1], xtol=_ROOT_XTOL))
            )

    for i in range(1, len(xs) - 1):
        if mags[i] < mags[i - 1] and mags[i] <= mags[i + 1] and mags[i] < 1e-5 * scale:
            a, b = float(xs[i - 1]), float(xs[i + 1])
            ia, ib = det_at(a).imag, det_at(b).imag
            if ia * ib < 0:
                roots.append(float(brentq(lambda x: det_at(x).imag, a, b, xtol=_ROOT_XTOL)))
            else:
                res = minimize_scalar(
                    lambda x: abs(det_at(x)),
                    bounds=(a, b),
                    method="bounded",
                    options={"xatol": 1e-12},
                )
                if abs(det_at(float(res.x))) < 1e-10 * (1 + scale):
                    roots.append(float(res.x))

    cleaned: list[float] = []
    for x in sorted(roots):
        if lo - 1e-9 <= x <= hi + 1e-9 and (
            not cleaned or abs(x - cleaned[-1]) > 1e-6 * (1 + abs(x))
        ):
            cleaned.append(x)
    return cleaned
