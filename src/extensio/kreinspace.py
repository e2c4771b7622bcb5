"""Indefinite inner product structure on C^{2n} and the main transform.

The pairing is [u, v] = (J u, v) with the block symmetry
J = [[0, -iI], [iI, 0]].  The Krein adjoint and the J-orthogonal
complement apply J as the block swap J u = [-i u2; i u1] of the two halves
of u, which is exact in floating point, and the pairing form
X* J X - Y* J Y of a graph basis [X; Y] is i(D* - D) with
D = X1* X2 - Y1* Y2.  Euclidean inner products stay linear in the first
argument, as in ``linrel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimMismatch, NotUnitary
from .linrel import (
    TOL,
    LinearRelation,
    Subspace,
    Tolerances,
    largest_principal_angle,
    rel_adjoint,
    rel_parts,
    subspace_complement,
)

__all__ = [
    "FundamentalSymmetry",
    "KreinRelation",
    "DomainIdentityReport",
    "krein_complement",
    "krein_adjoint",
    "is_isometric",
    "is_unitary",
    "main_transform",
    "inverse_main_transform",
    "unitary_domain_identities",
]


@dataclass(frozen=True)
class FundamentalSymmetry:
    """Signature matrix J on C^{2n}; J equals its adjoint and its inverse."""

    half_dim: int

    def __post_init__(self) -> None:
        if self.half_dim < 0:
            raise ArgumentError("half_dim must be nonnegative")

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    @property
    def matrix(self) -> np.ndarray:
        n = self.half_dim
        eye = np.eye(n, dtype=complex)
        zero = np.zeros((n, n), dtype=complex)
        return np.concatenate([np.concatenate([zero, -1j * eye], axis=1), np.concatenate([1j * eye, zero], axis=1)])


@dataclass(frozen=True)
class KreinRelation:
    """A linear relation between two indefinite spaces, with their symmetries."""

    rel: LinearRelation
    j_in: FundamentalSymmetry
    j_out: FundamentalSymmetry

    def __post_init__(self) -> None:
        if self.rel.dim_in != self.j_in.dim or self.rel.dim_out != self.j_out.dim:
            raise DimMismatch("relation dimensions do not match the symmetries")


def _apply_j(rows: np.ndarray) -> np.ndarray:
    """J times each column of rows: the block swap [-i u2; i u1]."""
    half = rows.shape[0] // 2
    return np.concatenate([-1j * rows[half:], 1j * rows[:half]])


def krein_complement(space: Subspace, j: FundamentalSymmetry, tol: Tolerances = TOL) -> Subspace:
    """J-orthogonal complement: all u with [u, v] = 0 for every v in space."""
    if space.ambient_dim != j.dim:
        raise DimMismatch("space does not live in the symmetry's space")
    # J is unitary: it maps the orthonormal basis to an orthonormal basis.
    return subspace_complement(Subspace._trusted(j.dim, _apply_j(space.basis)), tol)


def krein_adjoint(t: KreinRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Indefinite adjoint J_in T* J_out = {(J_out h, J_in k) : (h, k) in T*};
    J is unitary, so the row-transformed graph basis stays orthonormal."""
    star = rel_adjoint(t.rel, tol)
    basis = np.concatenate([_apply_j(star.in_block), _apply_j(star.out_block)])
    return LinearRelation(star.dim_in, star.dim_out, Subspace._trusted(star.graph.ambient_dim, basis))


def _pairing_form(rel: LinearRelation) -> np.ndarray:
    """X* J_in X - Y* J_out Y on the graph basis [X; Y] of T, formed as
    i(D* - D) with D = X1* X2 - Y1* Y2 for X and Y split at half their
    rows.  T^[*] is the orthogonal complement of [J_out Y; -J_in X], so its
    spectral norm is the sine of the containment gap of T^{-1} in T^[*]."""
    x, y, hx, hy = rel.in_block, rel.out_block, rel.dim_in // 2, rel.dim_out // 2
    d = x[:hx].conj().T @ x[hx:] - y[:hy].conj().T @ y[hy:]
    return 1j * (d.conj().T - d)


def is_isometric(t: KreinRelation, tol: Tolerances = TOL) -> bool:
    """Inverse graph contained in the indefinite adjoint."""
    form = _pairing_form(t.rel)
    return not form.size or bool(np.abs(np.linalg.eigvalsh(form)).max() <= np.sin(tol.angle))


def is_unitary(t: KreinRelation, tol: Tolerances = TOL) -> bool:
    """Inverse graph equals the indefinite adjoint, whose dimension is
    dim_in + dim_out - graph_dim."""
    return 2 * t.rel.graph_dim == t.rel.dim_in + t.rel.dim_out and is_isometric(t, tol)


def main_transform(gamma: KreinRelation) -> LinearRelation:
    """Reorder {(f, f'), (h, h')} into {(f, h), (f', -h')} on C^{n+m}."""
    n = gamma.j_in.half_dim
    m = gamma.j_out.half_dim
    basis = gamma.rel.graph.basis
    f = basis[:n, :]
    fp = basis[n : 2 * n, :]
    h = basis[2 * n : 2 * n + m, :]
    hp = basis[2 * n + m :, :]
    # Row shuffle with a sign flip keeps the basis orthonormal exactly.
    shuffled = np.concatenate([f, h, fp, -hp])
    return LinearRelation(n + m, n + m, Subspace._trusted(2 * (n + m), shuffled))


def inverse_main_transform(atilde: LinearRelation, split: tuple[int, int]) -> KreinRelation:
    """Undo the main transform; split gives the two half dimensions (n, m)."""
    n, m = split
    if atilde.dim_in != n + m or atilde.dim_out != n + m:
        raise DimMismatch("relation does not act on C^{n+m}")
    basis = atilde.graph.basis
    f = basis[:n, :]
    h = basis[n : n + m, :]
    fp = basis[n + m : 2 * n + m, :]
    neg_hp = basis[2 * n + m :, :]
    graph = np.concatenate([f, fp, h, -neg_hp])
    rel = LinearRelation(2 * n, 2 * m, Subspace._trusted(2 * n + 2 * m, graph))
    return KreinRelation(rel, FundamentalSymmetry(n), FundamentalSymmetry(m))


@dataclass(frozen=True)
class DomainIdentityReport:
    """Residual angles for the kernel/domain and multivalued/range pairings."""

    ker_angle: float
    mul_angle: float


def unitary_domain_identities(t: KreinRelation, tol: Tolerances = TOL) -> DomainIdentityReport:
    """Check ker T = [perp] of dom T and mul T = [perp] of ran T."""
    if not is_unitary(t, tol):
        raise NotUnitary("domain identities hold for unitary relations only")
    parts = rel_parts(t.rel, tol)
    ker_angle = largest_principal_angle(parts.ker, krein_complement(parts.dom, t.j_in, tol))
    mul_angle = largest_principal_angle(parts.mul, krein_complement(parts.ran, t.j_out, tol))
    return DomainIdentityReport(ker_angle, mul_angle)
