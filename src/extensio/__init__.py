"""Finite-dimensional linear relations, boundary triplets, Weyl
families, couplings and resolvent formulas, with exact subspace
arithmetic as the oracle for every limit criterion.

Each module's ``__all__`` is its public surface; the package re-exports
those names flat."""

from .errors import *
from .linrel import *
from .kreinspace import *
from .nevanlinna import *
from .boundary import *
from .transforms import *
from .coupling import *
from .admissibility import *
from .models import *
from .serialize import *
from .cli import cli_run

__version__ = "0.1.0"
