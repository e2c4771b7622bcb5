"""Indefinite inner product structure on C^{2n} and the main transform.

The pairing is [u, v] = (J u, v) with the block symmetry
J = [[0, -iI], [iI, 0]].  The dimension 2n fixes J, so the functions
below take plain relations and subspaces and read n off them; an odd
dimension raises ``ArgumentError``.  The Krein adjoint and the
J-orthogonal complement apply J as the block swap J u = [-i u2; i u1] of
the two halves of u, which is exact in floating point, and the pairing
form X* J X - Y* J Y of a graph basis [X; Y] is i(D* - D) with
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
    "DomainIdentityReport",
    "krein_complement",
    "krein_adjoint",
    "is_isometric",
    "is_unitary",
    "main_transform",
    "inverse_main_transform",
    "unitary_domain_identities",
]


def _halves(*dims: int) -> tuple[int, ...]:
    """Half of each graph space dimension 2n; an odd one has no symmetry J."""
    if any(d % 2 for d in dims):
        raise ArgumentError("graph spaces must have even dimension")
    return tuple(d // 2 for d in dims)


def _apply_j(rows: np.ndarray) -> np.ndarray:
    """J times each column of rows: the block swap [-i u2; i u1]."""
    half = rows.shape[0] // 2
    return np.concatenate([-1j * rows[half:], 1j * rows[:half]])


def krein_complement(space: Subspace, tol: Tolerances = TOL) -> Subspace:
    """J-orthogonal complement: all u with [u, v] = 0 for every v in space."""
    _halves(space.ambient_dim)
    # J is unitary: it maps the orthonormal basis to an orthonormal basis.
    return subspace_complement(Subspace._trusted(space.ambient_dim, _apply_j(space.basis)), tol)


def krein_adjoint(t: LinearRelation, tol: Tolerances = TOL) -> LinearRelation:
    """Indefinite adjoint J_in T* J_out = {(J_out h, J_in k) : (h, k) in T*};
    J is unitary, so the row-transformed graph basis stays orthonormal."""
    _halves(t.dim_in, t.dim_out)
    star = rel_adjoint(t, tol)
    basis = np.concatenate([_apply_j(star.in_block), _apply_j(star.out_block)])
    return LinearRelation(star.dim_in, star.dim_out, Subspace._trusted(star.graph.ambient_dim, basis))


def _pairing_form(rel: LinearRelation) -> np.ndarray:
    """X* J_in X - Y* J_out Y on the graph basis [X; Y] of T, formed as
    i(D* - D) with D = X1* X2 - Y1* Y2 for X and Y split at half their
    rows.  T^[*] is the orthogonal complement of [J_out Y; -J_in X], so its
    spectral norm is the sine of the containment gap of T^{-1} in T^[*]."""
    hx, hy = _halves(rel.dim_in, rel.dim_out)
    x, y = rel.in_block, rel.out_block
    d = x[:hx].conj().T @ x[hx:] - y[:hy].conj().T @ y[hy:]
    return 1j * (d.conj().T - d)


def is_isometric(t: LinearRelation, tol: Tolerances = TOL) -> bool:
    """Inverse graph contained in the indefinite adjoint."""
    form = _pairing_form(t)
    return not form.size or bool(np.abs(np.linalg.eigvalsh(form)).max() <= tol._sin_angle)


def is_unitary(t: LinearRelation, tol: Tolerances = TOL) -> bool:
    """Inverse graph equals the indefinite adjoint, whose dimension is
    dim_in + dim_out - graph_dim."""
    _halves(t.dim_in, t.dim_out)
    return 2 * t.graph_dim == t.dim_in + t.dim_out and is_isometric(t, tol)


def main_transform(gamma: LinearRelation) -> LinearRelation:
    """Reorder {(f, f'), (h, h')} into {(f, h), (f', -h')} on C^{n+m}."""
    n, m = _halves(gamma.dim_in, gamma.dim_out)
    basis = gamma.graph.basis
    f = basis[:n, :]
    fp = basis[n : 2 * n, :]
    h = basis[2 * n : 2 * n + m, :]
    hp = basis[2 * n + m :, :]
    # Row shuffle with a sign flip keeps the basis orthonormal exactly.
    shuffled = np.concatenate([f, h, fp, -hp])
    return LinearRelation(n + m, n + m, Subspace._trusted(2 * (n + m), shuffled))


def inverse_main_transform(atilde: LinearRelation, split: tuple[int, int]) -> LinearRelation:
    """Undo the main transform; split gives the two half dimensions (n, m)."""
    n, m = split
    if n < 0 or m < 0:
        raise ArgumentError("half dimensions must be nonnegative")
    if atilde.dim_in != n + m or atilde.dim_out != n + m:
        raise DimMismatch("relation does not act on C^{n+m}")
    basis = atilde.graph.basis
    f = basis[:n, :]
    h = basis[n : n + m, :]
    fp = basis[n + m : 2 * n + m, :]
    neg_hp = basis[2 * n + m :, :]
    graph = np.concatenate([f, fp, h, -neg_hp])
    return LinearRelation(2 * n, 2 * m, Subspace._trusted(2 * n + 2 * m, graph))


@dataclass(frozen=True)
class DomainIdentityReport:
    """Residual angles for the kernel/domain and multivalued/range pairings."""

    ker_angle: float
    mul_angle: float


def unitary_domain_identities(t: LinearRelation, tol: Tolerances = TOL) -> DomainIdentityReport:
    """Check ker T = [perp] of dom T and mul T = [perp] of ran T."""
    if not is_unitary(t, tol):
        raise NotUnitary("domain identities hold for unitary relations only")
    parts = rel_parts(t, tol)
    ker_angle = largest_principal_angle(parts.ker, krein_complement(parts.dom, tol))
    mul_angle = largest_principal_angle(parts.mul, krein_complement(parts.ran, tol))
    return DomainIdentityReport(ker_angle, mul_angle)
