"""Operator-versus-relation tests for minimal extensions.

Whether the extension behind a compressed resolvent is an operator can
be read off exactly in finite dimension (multivalued part of the
coupling) or detected through the growth of boundary families along the
imaginary axis.  Both routes are provided; they must agree on models
with a finite realization.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _kernel_single_valued,
)
from .nevanlinna import FamilyEval, NevanlinnaPairEval
from .coupling import _double_weyl_blocks, couple
from .transforms import _t_combination

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

# Slopes are fitted over the grid points within _TOP_DECADES decades of
# the top one (with a _DECADE_MARGIN for the rounding of y_grid), on
# curves floored at _LOG_FLOOR before taking logs.
_TOP_DECADES = 4
_DECADE_MARGIN = 0.999
_LOG_FLOOR = 1e-300
# A curve vanishes outright when its top value is below _ROUNDING_FLOOR;
# a decaying fit must also end below _DECAY_FLOOR.
_ROUNDING_FLOOR = 1e-12
_DECAY_FLOOR = 1e-4
# A form (X h, h)/y tends to a positive constant when its fit is flatter
# than _SUBLINEAR_SLOPE and its top value exceeds _SUBLINEAR_TOP.
_SUBLINEAR_SLOPE = -0.25
_SUBLINEAR_TOP = 1e-6


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


def _fit(ys: np.ndarray, curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares log-log slope over the top four grid decades, and the
    top value, of every row of curves (all points when fewer than two lie
    in those decades)."""
    vals = np.maximum(np.abs(curves), _LOG_FLOOR)
    keep = ys >= ys[-1] / 10.0**_TOP_DECADES * _DECADE_MARGIN
    if np.count_nonzero(keep) < 2:
        keep = np.ones(ys.shape, dtype=bool)
    dx = np.log10(ys[keep])
    dx -= dx.mean()
    return np.log10(vals[:, keep]) @ dx / (dx @ dx), vals[:, -1]


def _vanishes(ys: np.ndarray, curves: np.ndarray, probe: LimitProbe) -> tuple[np.ndarray, np.ndarray]:
    """Decay verdicts and fitted slopes of the rows of curves on the y-grid.

    A curve vanishes when its top value is at rounding level, when the
    fit decays and ends below the decay floor, or when its last grid step
    decays: a curve that stays flat over the low decades and falls off as
    1/y only near the top can end just above the floor.
    """
    slopes, tops = _fit(ys, curves)
    logs = np.log10(np.maximum(np.abs(curves[:, -2:]), _LOG_FLOOR))
    last = (logs[:, 1] - logs[:, 0]) / np.log10(ys[-1] / ys[-2])
    fit_decays = (slopes < -probe.slope_tol) & (tops < _DECAY_FLOOR)
    return (tops < _ROUNDING_FLOOR) | fit_decays | (last < -probe.slope_tol), slopes


def _forms(probes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """h*Xh for each probe column h (rows) and each matrix X of the stack
    (columns)."""
    return np.einsum("ai,jab,bi->ij", probes.conj(), mats, probes)


def exact_mul(a_tilde: LinearRelation, tol: Tolerances = TOL) -> Subspace:
    """Multivalued part of a selfadjoint relation, computed exactly."""
    return rel_parts(a_tilde, tol).mul


def realize_tau(tau: NevanlinnaPairEval) -> BoundaryRelation:
    """Finite realization attached to a parameter pair, if any."""
    if tau.realization is None or not isinstance(tau.realization, BoundaryRelation):
        raise RealizationUnavailable("parameter pair carries no finite realization")
    return tau.realization


def _grid_matrices(family: FamilyEval, probe: LimitProbe, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The y-grid and the family's matrices at the points iy, stacked."""
    ys = np.asarray(probe.y_grid, dtype=float)
    return ys, np.stack([rel_matrix(family.eval(1j * y), tol) for y in ys])


def _sublinear(probes: np.ndarray, ys: np.ndarray, mats: np.ndarray) -> bool:
    """No probe's form (mat h, h)/y tends to a positive constant."""
    slopes, tops = _fit(ys, np.abs(_forms(probes, mats)) / ys)
    return not np.any((slopes > _SUBLINEAR_SLOPE) & (tops > _SUBLINEAR_TOP))


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
    slopes, _ = _fit(ys, ys * np.abs(np.imag(_forms(probes, mats))))
    return bool(np.all(slopes > probe.slope_tol))


def _sweep(pi: OrdinaryTriplet, tau: NevanlinnaPairEval, probe: LimitProbe, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """The y-grid, then M(iy), phi, psi and omega = (psi + M phi)^{-1} at its
    points stacked (k, m, m), in the argument order of _double_weyl_blocks.
    The triplet and the pair are evaluated once per grid point; raises
    Omega0Singular at the first point where psi + M phi is singular."""
    ys = np.asarray(probe.y_grid, dtype=float)
    m_mat = np.stack([_gamma_and_weyl(pi.base, 1j * y, tol)[1] for y in ys])
    phi, psi = (np.asarray(np.stack(part), dtype=complex) for part in zip(*(tau.eval(1j * y) for y in ys)))
    combo = psi + m_mat @ phi
    try:
        omega = np.linalg.inv(combo)
    except np.linalg.LinAlgError:
        for y, mat in zip(ys, combo):
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError as exc:
                raise Omega0Singular(1j * y, "pair combination is not invertible") from exc
        raise
    return ys, m_mat, phi, psi, omega


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
    sw = _sweep(pi, tau, probe, tol)
    ys, m_mat, phi, psi, omega = sw
    # the two conditions: phi omega and psi omega M vanish weakly
    pairs = probes.conj().T @ np.stack([phi @ omega, psi @ omega @ m_mat]) @ probes
    adm_curves = np.abs(pairs).max(axis=(2, 3)) / ys
    passes, slopes = _vanishes(ys, np.vstack([adm_curves, _qlt_curves(pi, sw, z0, probes, tol)]), probe)
    adm1, adm2 = bool(passes[0]), bool(passes[1])
    if _kernel_single_valued(pi.base, 0, tol):
        verdict = adm1
    elif _kernel_single_valued(pi.base, 1, tol):
        verdict = adm2
    else:
        verdict = adm1 and adm2
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
        qlt_pass=bool(np.all(passes[2:])),
        agreement=agreement,
        admissible=verdict,
        adm1_slope=float(slopes[0]),
        adm2_slope=float(slopes[1]),
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
    ys, *pieces = _sweep(pi, tau, probe, tol)
    m_t = _t_combination(_double_weyl_blocks(*pieces), t_mat)
    curve = np.linalg.norm(m_t @ probes, axis=1).max(axis=1) / ys
    return bool(_vanishes(ys, curve[None, :], probe)[0][0])


def _reference_point(z0: complex) -> complex:
    z0 = complex(z0)
    if z0.imag <= 0:
        raise ArgumentError("reference point must lie in the upper half plane")
    return z0


def _qlt_curves(pi: OrdinaryTriplet, sw: tuple[np.ndarray, ...], z0: complex, probes: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Curves of the quadratic-form test, one row per probe: the form
    built from the reference point z0 must vanish weakly for each."""
    ys, m_mat, phi, _, omega = sw
    m_ref = _gamma_and_weyl(pi.base, z0, tol)[1]
    q = m_mat - (m_mat - m_ref.conj().T) @ phi @ omega @ (m_mat - m_ref)
    return np.abs(_forms(probes, q)) / ys


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
    probes = probe_vectors(pi.base.boundary_dim, probe)
    sw = _sweep(pi, tau, probe, tol)
    return bool(np.all(_vanishes(sw[0], _qlt_curves(pi, sw, z0, probes, tol), probe)[0]))
