"""Shape-invariant potentials for position-dependent effective mass.

Construction of four solvable potential families over an arbitrary
positive mass profile, algebraic bound-state spectra via a parameter
recursion, closed-form ground states, and independent finite-difference
verification.  All quantities use hbar = 1 units; e^2 defaults to 1.

The public names are those of each module's ``__all__``.
"""

from . import errors, families, groundstate, massprofile, spectra, verify
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .groundstate import *  # noqa: F403
from .massprofile import *  # noqa: F403
from .spectra import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, massprofile, families, spectra, groundstate, verify)
    for name in module.__all__
]
