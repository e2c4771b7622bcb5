"""Suite-wide guards on internally built subspaces and boundary relations.

The library builds every basis it computes itself through the unchecked
``Subspace._trusted``.  For the whole test session that path is wrapped
with the public constructor's checks (finite complex entries, the right
row count, at most that many columns, orthonormal to the same Gram
tolerance), so every basis a test makes the library compute is verified.
Likewise every boundary relation the library builds by a construction
that is unitary by proof enters through ``BoundaryRelation._trusted``,
which skips the Green identity; for the session that path also asserts
the Green residual bound of ``validate_boundary_relation``.  A failure
raises AssertionError, which no typed ``ExtensioError`` handler can
swallow.
"""

import numpy as np
import pytest

from extensio.boundary import BoundaryRelation, green_residual
from extensio.errors import ArgumentError
from extensio.linrel import Subspace


@pytest.fixture(scope="session", autouse=True)
def checked_trusted_subspaces():
    trusted = Subspace._trusted.__func__

    def checked(cls, ambient_dim, basis):
        assert isinstance(basis, np.ndarray) and basis.dtype == complex, "basis must be a complex array"
        try:
            Subspace(ambient_dim, basis)
        except ArgumentError as exc:
            raise AssertionError(f"internally built basis fails the public check: {exc}") from exc
        return trusted(cls, ambient_dim, basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Subspace, "_trusted", classmethod(checked))
        yield


@pytest.fixture(scope="session", autouse=True)
def checked_trusted_boundary_relations():
    trusted = BoundaryRelation._trusted.__func__

    def checked(cls, gamma, tol):
        residual = green_residual(gamma)
        bound = tol.angle * max(1, gamma.graph_dim)
        assert residual <= bound, f"library-built boundary relation fails the Green identity: {residual:.3g} > {bound:.3g}"
        return trusted(cls, gamma, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BoundaryRelation, "_trusted", classmethod(checked))
        yield
