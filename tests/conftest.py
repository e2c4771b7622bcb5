"""Suite-wide guard on internally built subspaces.

The library builds every basis it computes itself through the unchecked
``Subspace._trusted``.  For the whole test session that path is wrapped
with the public constructor's checks (finite complex entries, the right
row count, at most that many columns, orthonormal to the same Gram
tolerance), so every basis a test makes the library compute is verified.
A failure raises AssertionError, which no typed ``ExtensioError`` handler
can swallow.
"""

import numpy as np
import pytest

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
