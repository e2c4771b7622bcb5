"""Operator-versus-relation tests for minimal extensions.

Whether the extension behind a compressed resolvent is an operator can
be read off exactly in finite dimension (multivalued part of the
coupling) or detected through the growth of boundary families along the
imaginary axis.  Both routes are provided; they must agree on models
with a finite realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    AssumptionError,
    Omega0Singular,
    RealizationUnavailable,
)
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    rel_matrix,
    rel_parts,
)
from .boundary import (
    BoundaryRelation,
    OrdinaryTriplet,
    _gamma_and_weyl,
    kernel_of_boundary_map,
)
from .nevanlinna import FamilyEval, NevanlinnaPairEval
from .coupling import couple

__all__ = [
    "LimitProbe",
    "AdmissibilityReport",
    "DEFAULT_PROBE",
    "probe_vectors",
    "exact_mul",
    "realize_tau",
    "mul_a0_limit",
    "mul_t_limit",
    "admissible",
    "mt_admissibility",
    "langer_textorius",
]

DEFAULT_GRID = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


@dataclass(frozen=True)
class LimitProbe:
    """Sampling plan for limits along the upper imaginary axis."""

    y_grid: tuple[float, ...] = DEFAULT_GRID
    slope_tol: float = 0.5
    extra_probes: int = 5
    seed: int = 1729

    def __post_init__(self) -> None:
        if len(self.y_grid) < 4:
            raise ArgumentError("limit grid needs at least four points")
        diffs = np.diff(np.asarray(self.y_grid, dtype=float))
        if np.any(diffs <= 0):
            raise ArgumentError("limit grid must be strictly increasing")


DEFAULT_PROBE = LimitProbe()


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdicts of the exact and the limit route.

    exact_mul_dim and agreement are None when the parameter family has
    no finite realization attached, in which case only the limit
    verdict is meaningful.
    """

    exact_mul_dim: int | None
    adm1_pass: bool
    adm2_pass: bool
    qlt_pass: bool
    agreement: bool | None
    admissible: bool
    adm1_slope: float
    adm2_slope: float


def probe_vectors(dim: int, probe: LimitProbe = DEFAULT_PROBE) -> np.ndarray:
    """Standard basis columns padded with seeded random unit vectors."""
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    rng = np.random.default_rng(probe.seed)
    extra = rng.standard_normal((dim, probe.extra_probes)) + 1j * rng.standard_normal(
        (dim, probe.extra_probes)
    )
    norms = np.linalg.norm(extra, axis=0)
    extra = extra / np.where(norms == 0, 1.0, norms)
    return np.hstack([np.eye(dim, dtype=complex), extra])


def _fit_top_decades(ys: Sequence[float], vals: Sequence[float]) -> tuple[float, float]:
    """Log-log slope over the top four grid decades and the top value."""
    ys_arr = np.asarray(ys, dtype=float)
    vals_arr = np.maximum(np.abs(np.asarray(vals, dtype=float)), 1e-300)
    keep = ys_arr >= ys_arr.max() / 1e4 * 0.999
    if int(keep.sum()) < 2:
        keep = np.ones(ys_arr.shape, dtype=bool)
    slope = np.polyfit(np.log10(ys_arr[keep]), np.log10(vals_arr[keep]), 1)[0]
    return float(slope), float(vals_arr[np.argmax(ys_arr)])


def _tends_to_zero(ys: np.ndarray, vals: Sequence[float], probe: LimitProbe) -> tuple[bool, float]:
    """Decay verdict and fitted slope of one curve on the y-grid.

    A curve vanishes when its top value is at rounding level, when the
    fit decays and ends below 1e-4, or when its last grid step decays:
    a curve that stays flat over the low decades and falls off as 1/y
    only near the top can end just above the 1e-4 floor.
    """
    slope, top = _fit_top_decades(ys, vals)
    if top < 1e-12 or (slope < -probe.slope_tol and top < 1e-4):
        return True, slope
    # top is the last value, floored at 1e-300 as in the fit
    last = math.log10(top / max(abs(float(vals[-2])), 1e-300)) / math.log10(ys[-1] / ys[-2])
    return last < -probe.slope_tol, slope


def exact_mul(a_tilde: LinearRelation, tol: Tolerances = TOL) -> Subspace:
    """Multivalued part of a selfadjoint relation, computed exactly."""
    return rel_parts(a_tilde, tol).mul


def realize_tau(tau: NevanlinnaPairEval) -> BoundaryRelation:
    """Finite realization attached to a parameter pair, if any."""
    if tau.realization is None or not isinstance(tau.realization, BoundaryRelation):
        raise RealizationUnavailable("parameter pair carries no finite realization")
    return tau.realization


def _grid_matrices(family: FamilyEval, probe: LimitProbe, tol: Tolerances) -> tuple[np.ndarray, list[np.ndarray]]:
    """The y-grid and the family's matrix at each iy on it."""
    ys = np.asarray(probe.y_grid, dtype=float)
    return ys, [rel_matrix(family.eval(1j * y), tol) for y in ys]


def _sublinear(probes: np.ndarray, ys: np.ndarray, mats: list[np.ndarray]) -> bool:
    """No probe's form (mat h, h)/y tends to a positive constant."""
    for h in probes.T:
        vals = [abs(np.vdot(h, mat @ h)) / y for mat, y in zip(mats, ys)]
        slope, top = _fit_top_decades(ys, vals)
        if slope > -0.25 and top > 1e-6:
            return False
    return True


def mul_a0_limit(family: FamilyEval, probe: LimitProbe = DEFAULT_PROBE, tol: Tolerances = TOL) -> bool:
    """True when the quadratic form of the family grows sublinearly for
    every probe, so the distinguished extension has no multivalued part.

    The discriminated alternative is a positive constant limit of
    (value(iy)h, h)/(iy); a vanishing limit may decay arbitrarily
    slowly, so the gate is a flat-slope test rather than the strict
    decay gate used for the resolvent-difference conditions.
    """
    probes = probe_vectors(family.dim, probe)
    if probes.size == 0:
        return True
    return _sublinear(probes, *_grid_matrices(family, probe, tol))


def mul_t_limit(
    family: FamilyEval,
    probe: LimitProbe = DEFAULT_PROBE,
    h0: Subspace | None = None,
    tol: Tolerances = TOL,
) -> bool:
    """True when y times the dissipative part of the quadratic form
    diverges for every probe orthogonal to h0, so the domain relation
    of the boundary map has no multivalued part off h0.  Raises
    AssumptionError unless the family passes the mul_a0_limit test."""
    m = family.dim
    probes = probe_vectors(m, probe)
    if probes.size == 0:
        return True
    ys, mats = _grid_matrices(family, probe, tol)
    if not _sublinear(probes, ys, mats):
        raise AssumptionError("sublinear growth of the family is required first")
    if h0 is not None:
        if h0.ambient_dim != m:
            raise ArgumentError("h0 does not live in the boundary space")
        proj = np.eye(m, dtype=complex) - h0.projector()
        probes = proj @ probes
        norms = np.linalg.norm(probes, axis=0)
        keep = norms > 0.5
        probes = probes[:, keep] / norms[keep]
        if probes.size == 0:
            return True
    for h in probes.T:
        vals = [y * abs(np.imag(np.vdot(h, mat @ h))) for mat, y in zip(mats, ys)]
        slope, _ = _fit_top_decades(ys, vals)
        if slope <= probe.slope_tol:
            return False
    return True


# Weyl matrix M, pair factors phi and psi, and the inverse of psi + M phi.
_Pieces = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _pair_pieces(pi: OrdinaryTriplet, tau: NevanlinnaPairEval, lam: complex, tol: Tolerances) -> _Pieces:
    """Weyl matrix, pair factors and the inverse of their combination."""
    m_mat = _gamma_and_weyl(pi.base, lam, tol)[1]
    phi, psi = (np.asarray(part, dtype=complex) for part in tau.eval(lam))
    try:
        omega = np.linalg.inv(psi + m_mat @ phi)
    except np.linalg.LinAlgError as exc:
        raise Omega0Singular(lam, "pair combination is not invertible") from exc
    return m_mat, phi, psi, omega


def _weak_decay(
    mats: list[np.ndarray], ys: np.ndarray, probes: np.ndarray, probe: LimitProbe
) -> tuple[bool, float]:
    """Decide the weak vanishing of mats[j]/ys[j] over probe pairs."""
    vals = []
    for mat, y in zip(mats, ys):
        inner = np.abs(probes.conj().T @ mat @ probes)
        vals.append(float(inner.max()) / y)
    return _tends_to_zero(ys, vals, probe)


def admissible(
    pi: OrdinaryTriplet,
    tau: NevanlinnaPairEval,
    probe: LimitProbe = DEFAULT_PROBE,
    tol: Tolerances = TOL,
    z0: complex = 1j,
) -> AdmissibilityReport:
    """Full report: the two resolvent-difference limit conditions, the
    quadratic-form test, and the exact multivalued part of the coupling
    when the pair carries a realization."""
    m = pi.base.boundary_dim
    if tau.dim != m:
        raise ArgumentError("pair dimension differs from the boundary space")
    z0 = _reference_point(z0)
    probes = probe_vectors(m, probe)
    ys = np.asarray(probe.y_grid, dtype=float)
    pieces = [_pair_pieces(pi, tau, 1j * y, tol) for y in ys]
    x1 = [phi @ omega for _, phi, _, omega in pieces]
    x2 = [psi @ omega @ m_mat for m_mat, _, psi, omega in pieces]
    adm1, slope1 = _weak_decay(x1, ys, probes, probe)
    adm2, slope2 = _weak_decay(x2, ys, probes, probe)
    a0_operator = rel_parts(kernel_of_boundary_map(pi, 0, tol), tol).mul.dim == 0
    a1_operator = rel_parts(kernel_of_boundary_map(pi, 1, tol), tol).mul.dim == 0
    if a0_operator:
        verdict = adm1
    elif a1_operator:
        verdict = adm2
    else:
        verdict = adm1 and adm2
    qlt = _qlt_pass(pi, pieces, z0, probe, tol)
    try:
        chi = realize_tau(tau)
        coupled = couple(pi, chi, tol)
        exact_dim: int | None = exact_mul(coupled, tol).dim
        agreement: bool | None = (exact_dim == 0) == verdict
    except RealizationUnavailable:
        exact_dim = None
        agreement = None
    return AdmissibilityReport(
        exact_mul_dim=exact_dim,
        adm1_pass=adm1,
        adm2_pass=adm2,
        qlt_pass=qlt,
        agreement=agreement,
        admissible=verdict,
        adm1_slope=slope1,
        adm2_slope=slope2,
    )


def mt_admissibility(
    pi: OrdinaryTriplet,
    tau: NevanlinnaPairEval,
    t: np.ndarray,
    probe: LimitProbe = DEFAULT_PROBE,
    tol: Tolerances = TOL,
) -> bool:
    """Strong-limit test of the transformed block family.

    The verdict is always necessary for the minimal extension to be an
    operator; it is sufficient when the boundary condition tied to the
    adjoint of t defines an operator extension, which callers can check
    exactly through the intermediate extension of the triplet.
    """
    m = pi.base.boundary_dim
    t_mat = np.asarray(t, dtype=complex).reshape(m, m)
    probes = probe_vectors(m, probe)
    ys = np.asarray(probe.y_grid, dtype=float)
    eye = np.eye(m, dtype=complex)
    vals = []
    for y in ys:
        m_mat, phi, psi, omega = _pair_pieces(pi, tau, 1j * y, tol)
        ul = -phi @ omega
        ur = eye - phi @ omega @ m_mat
        ll = psi @ omega
        lr = psi @ omega @ m_mat
        m_t = t_mat.conj().T @ ul @ t_mat + t_mat.conj().T @ ur + ll @ t_mat + lr
        vals.append(float(np.linalg.norm(m_t @ probes, axis=0).max()) / y)
    return _tends_to_zero(ys, vals, probe)[0]


def _reference_point(z0: complex) -> complex:
    z0 = complex(z0)
    if z0.imag <= 0:
        raise ArgumentError("reference point must lie in the upper half plane")
    return z0


def _qlt_pass(pi: OrdinaryTriplet, pieces: list[_Pieces], z0: complex, probe: LimitProbe, tol: Tolerances) -> bool:
    """Quadratic-form test on the pieces at the points of probe.y_grid: the
    form built from the reference point z0 must vanish weakly for every
    probe vector."""
    m_ref = _gamma_and_weyl(pi.base, z0, tol)[1]
    probes = probe_vectors(pi.base.boundary_dim, probe)
    ys = np.asarray(probe.y_grid, dtype=float)
    vals = np.zeros((probes.shape[1], ys.size), dtype=float)
    for j, (y, (m_mat, phi, _, omega)) in enumerate(zip(ys, pieces)):
        q = m_mat - (m_mat - m_ref.conj().T) @ phi @ omega @ (m_mat - m_ref)
        vals[:, j] = np.abs(np.sum(probes.conj() * (q @ probes), axis=0)) / y
    for i in range(probes.shape[1]):
        if not _tends_to_zero(ys, vals[i], probe)[0]:
            return False
    return True


def langer_textorius(
    pi: OrdinaryTriplet,
    tau: NevanlinnaPairEval,
    z0: complex,
    probe: LimitProbe = DEFAULT_PROBE,
    tol: Tolerances = TOL,
) -> bool:
    """Quadratic-form test built from one reference point in the upper
    half plane; the verdict does not depend on the reference point."""
    z0 = _reference_point(z0)
    pieces = [_pair_pieces(pi, tau, 1j * y, tol) for y in probe.y_grid]
    return _qlt_pass(pi, pieces, z0, probe, tol)
