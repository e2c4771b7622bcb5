"""Matrix-valued Nevanlinna pairs, relation-valued families, and discrete
Herglotz models.

A pair evaluator maps a nonreal point to two m x m matrices (phi, psi);
the associated relation {(phi(lam) h, psi(lam) h)} is maximal dissipative
in the upper half plane.  Pairs are the primary representation because
every transform in the package keeps them closed; relation evaluators are
derived views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    ConjugateCoincidence,
    HypothesisFailed,
    PoleHit,
)
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    _rank_of,
    _span,
    _spectral_point,
    as_complex_matrix,
    rel_adjoint,
    rel_classify,
    rel_equal,
    rel_intersect,
    rel_parts,
    operator_part,
    rel_comp_sum,
    rel_matrix,
    subspace_equal,
)

__all__ = [
    "NevanlinnaPairEval",
    "FamilyEval",
    "HerglotzModel",
    "FamilyFlags",
    "DEFAULT_SAMPLES",
    "pair_at",
    "check_pair",
    "check_family",
    "family_from_pair",
    "family_eval_from_pair",
    "pair_from_matrix_function",
    "pair_from_relation",
    "pair_from_herglotz",
    "nev_kernel",
    "herglotz_eval",
    "classify_family",
    "decompose_family",
]

# Relative distance from Hermitian up to which a coefficient counts as
# Hermitian, and the most negative eigenvalue a semidefinite one may have.
_HERMITIAN_TOL = 1e-10
_PSD_FLOOR = 1e-9
# Points closer than this, relative to their size, coincide: equal mass
# points, lam on a mass point, lam at conj(mu) in the kernel.
_COINCIDENCE_TOL = 1e-12

DEFAULT_SAMPLES: tuple[complex, ...] = (1j, 2j, -1j, 1 + 1j, 1 - 1j)


@dataclass(frozen=True)
class _GridEval:
    """A point evaluation that takes a whole grid of points in one pass:
    ``grid`` maps a sequence of points to their values in order, and a
    call at one point is the one-point grid, so the two cannot disagree."""

    grid: Callable[[Sequence[complex]], list[tuple[np.ndarray, np.ndarray]]]

    def __call__(self, lam: complex) -> tuple[np.ndarray, np.ndarray]:
        return self.grid([lam])[0]


@dataclass(frozen=True)
class NevanlinnaPairEval:
    """Pair evaluator lam -> (phi(lam), psi(lam)), both dim x dim.

    ``realization`` optionally carries the construction the pair came
    from (for consumers that need more than point values); it does not
    take part in any algebra here.
    """

    dim: int
    eval: Callable[[complex], tuple[np.ndarray, np.ndarray]]
    realization: Any | None = field(default=None, compare=False)

    def eval_grid(self, lams: Sequence[complex]) -> list[tuple[np.ndarray, np.ndarray]]:
        """The values at the points of lams, in order: one pass when
        ``eval`` is a ``_GridEval``, else ``eval`` at each point in turn,
        so an error is the first failing point's."""
        if isinstance(self.eval, _GridEval):
            return self.eval.grid(lams)
        return [self.eval(lam) for lam in lams]


@dataclass(frozen=True)
class FamilyEval:
    """Relation evaluator lam -> maximal dissipative relation in C^dim."""

    dim: int
    eval: Callable[[complex], LinearRelation]


@dataclass(frozen=True)
class HerglotzModel:
    """A + B lam + sum over point masses; finitely many masses only."""

    coeff_const: np.ndarray
    coeff_linear: np.ndarray
    masses: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self) -> None:
        a = as_complex_matrix(self.coeff_const)
        b = as_complex_matrix(self.coeff_linear)
        m = a.shape[0]
        if a.shape != (m, m) or b.shape != (m, m):
            raise ArgumentError("coefficient matrices must be square and equal sized")
        if np.linalg.norm(a - a.conj().T) > _HERMITIAN_TOL * (1 + np.linalg.norm(a)):
            raise ArgumentError("constant coefficient must be Hermitian")
        _require_psd(b, "linear coefficient")
        masses = tuple((float(t), as_complex_matrix(sigma)) for t, sigma in self.masses)
        for i, (t, _) in enumerate(masses):
            if any(abs(t - s) < _COINCIDENCE_TOL * (1 + abs(t)) for s, _ in masses[:i]):
                raise ArgumentError("mass points must be distinct")
        for _, sig in masses:
            if sig.shape != (m, m):
                raise ArgumentError("mass matrices must match the model dimension")
            _require_psd(sig, "mass matrix")
        object.__setattr__(self, "coeff_const", a)
        object.__setattr__(self, "coeff_linear", b)
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return self.coeff_const.shape[0]


def _require_psd(mat: np.ndarray, label: str) -> None:
    herm = (mat + mat.conj().T) / 2
    if np.linalg.norm(mat - herm) > _HERMITIAN_TOL * (1 + np.linalg.norm(mat)):
        raise ArgumentError(f"{label} must be Hermitian")
    if herm.size and np.linalg.eigvalsh(herm).min() < -_PSD_FLOOR:
        raise ArgumentError(f"{label} must be positive semidefinite")


def _imag_part(mat: np.ndarray) -> np.ndarray:
    return (mat - mat.conj().T) / 2j


def pair_at(p: NevanlinnaPairEval, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate and validate shapes."""
    lam = _spectral_point(lam, "nonreal")
    value = p.eval(lam)
    try:
        phi, psi = value
    except (TypeError, ValueError):
        raise ArgumentError("pair value is not a (phi, psi) pair") from None
    return as_complex_matrix(phi, p.dim, p.dim), as_complex_matrix(psi, p.dim, p.dim)


def check_pair(
    p: NevanlinnaPairEval,
    lams: Sequence[complex] | None = None,
    tol: Tolerances = TOL,
) -> None:
    """Raise HypothesisFailed unless the pair axioms hold at the samples.

    The three axioms: dissipativity of Im(phi^H psi) scaled by Im lam,
    symmetry between conjugate points, and invertibility of
    psi +/- i phi in the matching half plane.
    """
    if lams is None:
        lams = DEFAULT_SAMPLES
    for lam in lams:
        lam = complex(lam)
        phi, psi = pair_at(p, lam)
        form = _imag_part(phi.conj().T @ psi) / lam.imag
        if form.size and np.linalg.eigvalsh(form).min() < -tol.psd:
            raise HypothesisFailed("dissipativity", f"pair form indefinite at {lam}")
        phi_c, psi_c = pair_at(p, np.conj(lam))
        resid = psi_c.conj().T @ phi - phi_c.conj().T @ psi
        scale = 1 + np.linalg.norm(phi) * np.linalg.norm(psi_c) + np.linalg.norm(psi) * np.linalg.norm(phi_c)
        if np.linalg.norm(resid) > tol.angle * scale:
            raise HypothesisFailed("conjugate_symmetry", f"pair symmetry fails at {lam}")
        sign = 1j if lam.imag > 0 else -1j
        probe = psi + sign * phi
        if _rank_of(probe, tol, 1.0) < p.dim:
            raise HypothesisFailed("invertibility", f"psi + sign*i*phi singular at {lam}")


def family_from_pair(p: NevanlinnaPairEval, lam: complex, tol: Tolerances = TOL) -> LinearRelation:
    """The relation {(phi(lam) h, psi(lam) h) : h in C^dim}."""
    phi, psi = pair_at(p, lam)
    return LinearRelation(p.dim, p.dim, _span(np.concatenate([phi, psi]), tol))


def family_eval_from_pair(p: NevanlinnaPairEval, tol: Tolerances = TOL) -> FamilyEval:
    return FamilyEval(p.dim, lambda lam: family_from_pair(p, lam, tol))


def check_family(
    f: FamilyEval,
    lams: Sequence[complex] | None = None,
    tol: Tolerances = TOL,
) -> None:
    """Raise HypothesisFailed unless values are maximal dissipative in the
    upper half plane, maximal accumulative in the lower, with adjoint
    symmetry between conjugate points."""
    if lams is None:
        lams = DEFAULT_SAMPLES
    for lam in lams:
        lam = _spectral_point(lam, "nonreal")
        value = f.eval(lam)
        flags = rel_classify(value, tol)
        maximal = value.graph_dim == value.dim_in
        if lam.imag > 0 and not (flags.dissipative and maximal):
            raise HypothesisFailed("maximal_dissipative", f"family value at {lam}")
        if lam.imag < 0 and not (flags.accumulative and maximal):
            raise HypothesisFailed("maximal_accumulative", f"family value at {lam}")
        mirror = rel_adjoint(f.eval(np.conj(lam)), tol)
        if not rel_equal(value, mirror, tol):
            raise HypothesisFailed("conjugate_adjoint", f"family symmetry fails at {lam}")


def pair_from_matrix_function(dim: int, fn: Callable[[complex], np.ndarray]) -> NevanlinnaPairEval:
    """Pair (I, fn(lam)) for a matrix-valued function."""
    eye = np.eye(dim, dtype=complex)
    return NevanlinnaPairEval(dim, lambda lam: (eye, as_complex_matrix(fn(lam), dim, dim)))


def pair_from_relation(value: LinearRelation, tol: Tolerances = TOL) -> NevanlinnaPairEval:
    """Constant pair whose relation equals the given maximal relation."""
    if value.dim_in != value.dim_out:
        raise ArgumentError("constant pair needs a square relation")
    if value.graph_dim != value.dim_in:
        raise ArgumentError("constant pair needs graph dimension equal to the space dimension")
    phi = value.in_block.copy()
    psi = value.out_block.copy()
    return NevanlinnaPairEval(value.dim_in, lambda lam: (phi, psi))


def pair_from_herglotz(model: HerglotzModel) -> NevanlinnaPairEval:
    eye = np.eye(model.dim, dtype=complex)
    return NevanlinnaPairEval(model.dim, lambda lam: (eye, herglotz_eval(model, lam)))


def nev_kernel(p: NevanlinnaPairEval, lam: complex, mu: complex) -> np.ndarray:
    """(phi(mu)^H psi(lam) - psi(mu)^H phi(lam)) / (lam - conj(mu))."""
    lam = _spectral_point(lam)
    mu = _spectral_point(mu)
    if abs(lam - np.conj(mu)) < _COINCIDENCE_TOL * (1 + abs(lam)):
        raise ConjugateCoincidence("kernel denominator vanishes")
    phi_l, psi_l = pair_at(p, lam)
    phi_m, psi_m = pair_at(p, mu)
    return (phi_m.conj().T @ psi_l - psi_m.conj().T @ phi_l) / (lam - np.conj(mu))


def herglotz_eval(model: HerglotzModel, lam: complex) -> np.ndarray:
    """Constant plus linear term plus regularized point-mass sum."""
    lam = complex(lam)
    for t, _ in model.masses:
        if abs(lam - t) < _COINCIDENCE_TOL * (1 + abs(t)):
            raise PoleHit(f"evaluation at mass point {t}")
    lam = _spectral_point(lam, "nonreal")
    out = model.coeff_const + lam * model.coeff_linear
    for t, sigma in model.masses:
        weight = 1.0 / (t - lam) - t / (t * t + 1.0)
        out = out + weight * sigma
    return out


@dataclass(frozen=True)
class FamilyFlags:
    """Subclass membership for one family value (single-point tests)."""

    operator_valued: bool
    strict: bool
    uniformly_strict: bool
    everywhere_defined: bool
    strict_everywhere_defined: bool
    constant: bool


def classify_family(f: FamilyEval, lam: complex, tol: Tolerances = TOL) -> FamilyFlags:
    """Subspace tests on a single value; each class is a single-point
    property, so one nonreal sample decides membership."""
    lam = _spectral_point(lam, "nonreal")
    value = f.eval(lam)
    adj = rel_adjoint(value, tol)
    parts = rel_parts(value, tol)
    operator_valued = parts.mul.dim == 0
    strict = rel_intersect(value, adj, tol).graph_dim == 0
    uniformly_strict = rel_comp_sum(value, adj, tol).graph_dim == 2 * value.dim_in
    everywhere_defined = parts.dom.dim == value.dim_in
    strict_everywhere_defined = False
    if everywhere_defined and operator_valued:
        imag = _imag_part(rel_matrix(value, tol))
        rank = _rank_of(imag, tol, max(1.0, np.linalg.norm(imag)))
        strict_everywhere_defined = rank == value.dim_in
    second = f.eval(2 * lam)
    constant = rel_classify(value, tol).selfadjoint and rel_equal(value, second, tol)
    return FamilyFlags(
        operator_valued=operator_valued,
        strict=strict,
        uniformly_strict=uniformly_strict,
        everywhere_defined=everywhere_defined,
        strict_everywhere_defined=strict_everywhere_defined,
        constant=constant,
    )


def decompose_family(f: FamilyEval, lam: complex, tol: Tolerances = TOL) -> tuple[LinearRelation, Subspace]:
    """Operator part and the lam-independent multivalued part."""
    lam = _spectral_point(lam, "nonreal")
    part, mul = operator_part(f.eval(lam), tol)
    _, mul_second = operator_part(f.eval(2 * lam), tol)
    if not subspace_equal(mul, mul_second, tol):
        raise HypothesisFailed("mul_constant", "multivalued part moved between samples")
    return part, mul
