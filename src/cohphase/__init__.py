"""Phases of harmonically evolving coherent states.

Closed-form total, dynamical, and geometric phases for single coherent
states and two-branch superpositions of product coherent states, together
with a truncated Fock-space simulator that verifies every closed form
directly from the definitions.

Each module's __all__ is its public surface, and the package re-exports
exactly those names: core (domain types, errors, circle arithmetic),
analytic (closed forms), oracle (Fock-space simulator) and verify (the
randomized cross-check).
"""

__version__ = "0.1.0"

from .analytic import *
from .core import *
from .oracle import *
from .verify import *

# importing a submodule binds its name in the package namespace
__all__ = ["__version__", *core.__all__, *analytic.__all__, *oracle.__all__, *verify.__all__]
