"""Shape-invariant potentials for position-dependent effective mass.

Construction of four solvable potential families over an arbitrary
positive mass profile, algebraic bound-state spectra via a parameter
recursion, closed-form ground states, and independent finite-difference
verification.  All quantities use hbar = 1 units; e^2 defaults to 1.
"""

from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    PoleError,
    SipEffmassError,
    ValidationError,
)
from .families import FAMILIES, FamilyCoeffs, FamilyModel, Fields, ParamTriple, validate
from .groundstate import (
    WavefunctionTable,
    annihilation_residual,
    psi0_closed,
    psi0_closed_table,
    psi0_generic,
)
from .massprofile import REGISTRY_NAMES, MassProfile, MuMap, registry_get
from .spectra import (
    SpectrumTable,
    coulomb_closed_level,
    coulomb_quantum_map,
    coulomb_spectrum_nr,
    coulomb_spectrum_sum,
    morse_reduced_spectrum,
    pt_reduced_spectrum,
    spectrum_closed,
    spectrum_sum,
)
from .verify import (
    GridEigenResult,
    GridSpec,
    compare,
    discretize,
    discretize_model,
    lowest_eigenvalues,
    morse_reduced_compare,
    rayleigh_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "SipEffmassError",
    "ConfigError",
    "ValidationError",
    "DomainError",
    "PoleError",
    "NumericalError",
    "MassProfile",
    "MuMap",
    "registry_get",
    "REGISTRY_NAMES",
    "FAMILIES",
    "ParamTriple",
    "FamilyCoeffs",
    "FamilyModel",
    "Fields",
    "validate",
    "SpectrumTable",
    "spectrum_sum",
    "spectrum_closed",
    "pt_reduced_spectrum",
    "morse_reduced_spectrum",
    "coulomb_spectrum_sum",
    "coulomb_closed_level",
    "coulomb_spectrum_nr",
    "coulomb_quantum_map",
    "WavefunctionTable",
    "psi0_generic",
    "psi0_closed",
    "psi0_closed_table",
    "annihilation_residual",
    "GridSpec",
    "GridEigenResult",
    "discretize",
    "discretize_model",
    "lowest_eigenvalues",
    "rayleigh_quotient",
    "compare",
    "morse_reduced_compare",
]
