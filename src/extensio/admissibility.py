"""Operator-versus-relation tests for minimal extensions.

Whether the extension behind a compressed resolvent is an operator can
be read off exactly in finite dimension (multivalued part of the
coupling) or detected through the growth of boundary families along the
imaginary axis.  Both routes are provided; they must agree on models
with a finite realization.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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
    _certified_inverse,
    _range_and_kernel_image,
    _rank_of,
    _spectral_point,
    as_complex_matrix,
    rel_matrix,
)
from .boundary import (
    BoundaryRelation,
    OrdinaryTriplet,
    _gamma_and_weyl_grid,
    _triplet_cache,
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
# A curve decays when its fit or its last grid step falls faster than
# y^-_SLOPE_TOL, and diverges when its fit rises faster than y^_SLOPE_TOL.
_SLOPE_TOL = 0.5
# The probe directions: the standard basis and _EXTRA_PROBES random unit
# vectors of a generator seeded with _PROBE_SEED.
_EXTRA_PROBES = 5
_PROBE_SEED = 1729


@dataclass(frozen=True)
class LimitProbe:
    """Sampling plan for limits along the upper imaginary axis: the heights
    y of the points iy, at least four, finite, positive and strictly
    increasing, kept as a tuple of Python floats, so the plan is hashable
    and keys the caches of the limit tests."""

    y_grid: tuple[float, ...] = DEFAULT_GRID

    def __post_init__(self) -> None:
        grid = tuple(self.y_grid)
        if not all(isinstance(y, numbers.Real) for y in grid):
            raise ArgumentError("limit grid heights must be real numbers")
        grid = tuple(map(float, grid))
        if len(grid) < 4:
            raise ArgumentError("limit grid needs at least four points")
        if not all(0 < a < b < math.inf for a, b in zip(grid, grid[1:])):
            raise ArgumentError("limit grid must be finite, positive and strictly increasing")
        object.__setattr__(self, "y_grid", grid)


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


@functools.lru_cache
def probe_vectors(dim: int) -> np.ndarray:
    """Standard basis columns padded with _EXTRA_PROBES seeded random unit
    vectors; built once per dim and returned read-only."""
    if dim == 0:
        cols = np.zeros((0, 0), dtype=complex)
    else:
        rng = np.random.default_rng(_PROBE_SEED)
        extra = rng.standard_normal((dim, _EXTRA_PROBES)) + 1j * rng.standard_normal((dim, _EXTRA_PROBES))
        norms = np.linalg.norm(extra, axis=0)
        cols = np.concatenate([np.eye(dim, dtype=complex), extra / np.where(norms == 0, 1.0, norms)], axis=1)
    cols.flags.writeable = False
    return cols


class _GridDesign(NamedTuple):
    """What the slope fits read off a y-grid alone (``_grid_design``): the
    grid ``ys``; the mask ``keep`` of its points within the top four
    decades (all points when fewer than two lie there); their log10 y,
    centred (``dx``), with its sum of squares ``dx_sq``; and ``last_step``,
    log10 of the ratio of the last two points."""

    ys: np.ndarray
    keep: np.ndarray
    dx: np.ndarray
    dx_sq: float
    last_step: float


@functools.lru_cache
def _grid_design(y_grid: tuple[float, ...]) -> _GridDesign:
    """The fit design of a y-grid, built once per grid, as probe_vectors
    is, with read-only arrays."""
    ys = np.asarray(y_grid, dtype=float)
    keep = ys >= ys[-1] / 10.0**_TOP_DECADES * _DECADE_MARGIN
    if np.count_nonzero(keep) < 2:
        keep = np.ones(ys.shape, dtype=bool)
    dx = np.log10(ys[keep])
    dx -= dx.mean()
    for arr in (ys, keep, dx):
        arr.flags.writeable = False
    return _GridDesign(ys, keep, dx, dx @ dx, np.log10(ys[-1] / ys[-2]))


def _fit(design: _GridDesign, curves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares log-log slope over the kept grid points of the design,
    top value and log10 curve on the kept points, which end with the last
    two of the grid, of every row of curves."""
    vals = np.maximum(np.abs(curves), _LOG_FLOOR)
    logs = np.log10(vals[:, design.keep])
    return logs @ design.dx / design.dx_sq, vals[:, -1], logs


def _vanishes(curves: np.ndarray, probe: LimitProbe) -> tuple[np.ndarray, np.ndarray]:
    """Decay verdicts and fitted slopes of the rows of curves on the probe's
    y-grid.

    A curve vanishes when its top value is at rounding level, when the
    fit decays and ends below the decay floor, or when its last grid step
    decays: a curve that stays flat over the low decades and falls off as
    1/y only near the top can end just above the floor.  The verdicts of
    the few rows are read on Python floats, with the float operations of
    the fit's arrays.
    """
    design = _grid_design(probe.y_grid)
    slopes, tops, logs = _fit(design, curves)
    limit = -_SLOPE_TOL
    verdicts = [
        top < _ROUNDING_FLOOR or (slope < limit and top < _DECAY_FLOOR) or (end - before) / design.last_step < limit
        for slope, top, (before, end) in zip(slopes.tolist(), tops.tolist(), logs[:, -2:].tolist())
    ]
    return np.array(verdicts, dtype=bool), slopes


def _forms(probes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """h*Xh for each probe column h (rows) and each matrix X of the stack
    (columns)."""
    return np.einsum("ai,jab,bi->ij", probes.conj(), mats, probes)


def exact_mul(a_tilde: LinearRelation, tol: Tolerances = TOL) -> Subspace:
    """Multivalued part of a selfadjoint relation, computed exactly: the
    mul part of ``rel_parts``, from the one SVD it needs, of the input
    block X (mul = Y ker X)."""
    mul = _range_and_kernel_image(a_tilde.in_block, a_tilde.out_block, tol)[1]
    return Subspace._trusted(a_tilde.dim_out, mul)


def realize_tau(tau: NevanlinnaPairEval) -> BoundaryRelation:
    """Finite realization attached to a parameter pair, if any."""
    if not isinstance(tau.realization, BoundaryRelation):
        raise RealizationUnavailable("parameter pair carries no finite realization")
    return tau.realization


def _grid_matrices(family: FamilyEval, probe: LimitProbe, tol: Tolerances) -> tuple[_GridDesign, np.ndarray]:
    """The fit design of the y-grid and the family's matrices at the points
    iy, stacked."""
    design = _grid_design(probe.y_grid)
    return design, np.array([rel_matrix(family.eval(1j * y), tol) for y in design.ys], dtype=complex)


def _sublinear(probes: np.ndarray, design: _GridDesign, mats: np.ndarray) -> bool:
    """No probe's form (mat h, h)/y tends to a positive constant."""
    slopes, tops, _ = _fit(design, np.abs(_forms(probes, mats)) / design.ys)
    return not np.any((slopes > _SUBLINEAR_SLOPE) & (tops > _SUBLINEAR_TOP))


def mul_a0_limit(family: FamilyEval, probe: LimitProbe = DEFAULT_PROBE, tol: Tolerances = TOL) -> bool:
    """True when the quadratic form of the family grows sublinearly for
    every probe, so the distinguished extension has no multivalued part.

    The discriminated alternative is a positive constant limit of
    (value(iy)h, h)/(iy); a vanishing limit may decay arbitrarily
    slowly, so the gate is a flat-slope test rather than the strict
    decay gate used for the resolvent-difference conditions.
    """
    probes = probe_vectors(family.dim)
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
    probes = probe_vectors(m)
    if probes.size == 0:
        return True
    design, mats = _grid_matrices(family, probe, tol)
    if not _sublinear(probes, design, mats):
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
    slopes = _fit(design, design.ys * np.abs(np.imag(_forms(probes, mats))))[0]
    return bool(np.all(slopes > _SLOPE_TOL))


class _PairSlot:
    """What the limit tests derive from one parameter pair tau on one
    triplet and one y-grid, each on first use: the sweep, the two
    resolvent-difference conditions and the dimension of the exact
    multivalued part of the coupling, None when tau carries no
    realization.  ``_pair_slot`` keeps the last one per triplet
    (``_TripletCache.pair``).  A raise stores nothing."""

    def __init__(self, pi: OrdinaryTriplet, tau: NevanlinnaPairEval, probe: LimitProbe, tol: Tolerances):
        self.pi = pi
        self.tau = tau
        self.probe = probe
        self.tol = tol

    @functools.cached_property
    def sweep(self) -> tuple[np.ndarray, ...]:
        """The y-grid, then M(iy), phi omega and psi omega with
        omega = (psi + M phi)^{-1} at its points, stacked (k, m, m) and
        read-only.  M is propagated over the whole grid in one pass from the
        triplet's cached spectral data, and the pair at its points with one
        ``eval_grid`` call.  Raises ArgumentError unless the pair's values
        are (phi, psi) pairs that stack to m x m matrices (one shape check
        of the stack), and Omega0Singular at the first point where
        psi + M phi falls short of full rank under the unit-anchored cutoff:
        the stacked inverse certifies full rank where it can
        (``_certified_inverse``), and one values-only SVD of the stack
        decides elsewhere."""
        pi, tau, tol = self.pi, self.tau, self.tol
        if tau.dim != pi.boundary_dim:
            raise ArgumentError("pair dimension differs from the boundary space")
        ys = _grid_design(self.probe.y_grid).ys
        m_mat = _gamma_and_weyl_grid(pi, 1j * ys, tol)[1]
        values = tau.eval_grid(1j * ys)
        try:
            phi, psi = (np.array(part, dtype=complex) for part in zip(*values))
            if phi.shape != m_mat.shape or psi.shape != m_mat.shape:
                raise ValueError
        except (TypeError, ValueError):
            raise ArgumentError("pair values are not matrices of the boundary dimension") from None
        combo = psi + m_mat @ phi
        omega = _certified_inverse(combo, tol)
        if omega is None:
            short = np.flatnonzero(_rank_of(combo, tol, 1.0) < combo.shape[-1])
            if short.size:
                raise Omega0Singular(1j * ys[short[0]], "pair combination is not invertible")
            omega = np.linalg.inv(combo)
        upper, lower = phi @ omega, psi @ omega
        for arr in (m_mat, upper, lower):
            arr.flags.writeable = False
        return ys, m_mat, upper, lower

    @functools.cached_property
    def conditions(self) -> tuple[bool, bool, float, float]:
        """Verdicts and fitted slopes of the two resolvent-difference
        conditions, phi omega and psi omega M vanishing weakly.  They do not
        depend on the reference point; ``_vanishes`` fits row by row, so
        fitting them apart from the quadratic-form rows changes no bit."""
        ys, m_mat, upper, lower = self.sweep
        probes = probe_vectors(self.pi.boundary_dim)
        pairs = probes.conj().T @ np.array([upper, lower @ m_mat], dtype=complex) @ probes
        passes, slopes = _vanishes(np.abs(pairs).max(axis=(2, 3), initial=0.0) / ys, self.probe)
        return bool(passes[0]), bool(passes[1]), float(slopes[0]), float(slopes[1])

    @functools.cached_property
    def exact_dim(self) -> int | None:
        try:
            chi = realize_tau(self.tau)
        except RealizationUnavailable:
            return None
        return exact_mul(couple(self.pi, chi, self.tol), self.tol).dim


def _pair_slot(pi: OrdinaryTriplet, tau: NevanlinnaPairEval, probe: LimitProbe, tol: Tolerances) -> _PairSlot:
    """The slot of (tau, the probe's grid) on pi's cache under tol: the last
    one when it holds this very tau, matched by identity, as a
    NevanlinnaPairEval compares without its realization (the slot holds
    tau, so no recycled id can match), and an equal grid; else a new one."""
    cache = _triplet_cache(pi, tol)
    slot = cache.pair
    if slot is None or slot.tau is not tau or slot.probe != probe:
        slot = cache.pair = _PairSlot(pi, tau, probe, tol)
    return slot


def admissible(
    pi: OrdinaryTriplet,
    tau: NevanlinnaPairEval,
    probe: LimitProbe = DEFAULT_PROBE,
    tol: Tolerances = TOL,
    z0: complex = 1j,
) -> AdmissibilityReport:
    """Full report: the two resolvent-difference limit conditions, the
    quadratic-form test (``langer_textorius``), and the exact multivalued
    part of the coupling when the pair carries a realization."""
    z0 = _spectral_point(z0, "upper")
    slot = _pair_slot(pi, tau, probe, tol)
    adm1, adm2, adm1_slope, adm2_slope = slot.conditions
    qlt = langer_textorius(pi, tau, z0, probe, tol)
    a0_single, a1_single = _triplet_cache(pi, tol).single_valued
    if a0_single:
        verdict = adm1
    elif a1_single:
        verdict = adm2
    else:
        verdict = adm1 and adm2
    exact_dim = slot.exact_dim
    return AdmissibilityReport(
        exact_mul_dim=exact_dim,
        adm1_pass=adm1,
        adm2_pass=adm2,
        qlt_pass=qlt,
        agreement=None if exact_dim is None else (exact_dim == 0) == verdict,
        admissible=verdict,
        adm1_slope=adm1_slope,
        adm2_slope=adm2_slope,
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
    m = pi.boundary_dim
    t_mat = as_complex_matrix(t, m, m)
    probes = probe_vectors(m)
    ys, m_mat, upper, lower = _pair_slot(pi, tau, probe, tol).sweep
    # t* M11 t + t* M12 + M21 t + M22 of _double_weyl_blocks, collapsed to
    # t* + (psi omega - t* phi omega)(t + M)
    t_h = t_mat.conj().T
    m_t = t_h + (lower - t_h @ upper) @ (t_mat + m_mat)
    curve = np.linalg.norm(m_t @ probes, axis=1).max(axis=1, initial=0.0) / ys
    return bool(_vanishes(curve[None, :], probe)[0][0])


def langer_textorius(
    pi: OrdinaryTriplet,
    tau: NevanlinnaPairEval,
    z0: complex,
    probe: LimitProbe = DEFAULT_PROBE,
    tol: Tolerances = TOL,
) -> bool:
    """Quadratic-form test built from one reference point in the upper
    half plane: for each probe h, the form (Q(iy) h, h)/y with
    Q = M - (M - M(z0)*) phi omega (M - M(z0)) must vanish weakly.  The
    verdict does not depend on the reference point."""
    z0 = _spectral_point(z0, "upper")
    ys, m_mat, upper, _ = _pair_slot(pi, tau, probe, tol).sweep
    m_ref = _gamma_and_weyl_grid(pi, [z0], tol)[1][0]
    q = m_mat - (m_mat - m_ref.conj().T) @ upper @ (m_mat - m_ref)
    curves = np.abs(_forms(probe_vectors(pi.boundary_dim), q)) / ys
    return bool(np.all(_vanishes(curves, probe)[0]))
