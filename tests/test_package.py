"""The package's public surface: each name once, from its defining module."""

import importlib

import pytest

import sip_effmass

MODULES = ("errors", "massprofile", "families", "spectra", "groundstate", "verify")

PUBLIC = {
    "SipEffmassError", "ConfigError", "ValidationError", "DomainError", "PoleError",
    "NumericalError",
    "MassProfile", "MuMap", "registry_get", "REGISTRY_NAMES",
    "FAMILIES", "ParamTriple", "FamilyCoeffs", "FamilyModel", "Fields", "validate",
    "SpectrumTable", "spectrum_sum", "spectrum_closed", "pt_reduced_spectrum",
    "morse_reduced_spectrum", "coulomb_spectrum_sum", "coulomb_closed_level",
    "coulomb_spectrum_nr", "coulomb_quantum_map",
    "WavefunctionTable", "psi0_generic", "psi0_closed", "psi0_closed_table",
    "annihilation_residual",
    "GridSpec", "GridEigenResult", "discretize", "lowest_eigenvalues", "rayleigh_quotient",
    "compare", "morse_reduced_compare",
}


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 37
    assert len(sip_effmass.__all__) == len(set(sip_effmass.__all__))
    assert set(sip_effmass.__all__) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_each_module_name_is_the_package_name(name):
    module = importlib.import_module(f"sip_effmass.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), attr
        assert getattr(sip_effmass, attr) is getattr(module, attr), attr
