"""Ground states: generic integral form, closed forms, annihilation residual."""

import numpy as np
import pytest

from sip_effmass import (
    ConfigError,
    FamilyCoeffs,
    FamilyModel,
    NumericalError,
    ParamTriple,
    annihilation_residual,
    psi0_closed,
    psi0_closed_table,
    psi0_generic,
)


def make_model(family, coeffs, params, profile, mumap, **kw):
    return FamilyModel(
        family=family, coeffs=coeffs, params0=params, profile=profile, mumap=mumap, **kw
    )


def closed_form_cases(profile, mumap):
    """One zero-mode configuration per family, on its natural span."""
    return [
        (
            "ho",
            make_model(
                "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, -1.0), profile, mumap
            ),
            np.linspace(0.05, 8.0, 1201),
        ),
        (
            "morse",
            FamilyModel.morse_reduced(
                a=-1.0, lambda0=1.0, sigma0=-0.5, profile=profile, mumap=mumap
            ),
            np.linspace(-12.0, 3.0, 1501),
        ),
        (
            "pt_trig",
            make_model(
                "pt_trig",
                FamilyCoeffs(a=1.0, b=0.0, c=1.0),
                # rho0 < 0 gives the sin factor a positive exponent, so the
                # zero mode vanishes at both ends of the well
                ParamTriple(2.0, 0.0, -1.0),
                profile,
                mumap,
            ),
            np.linspace(0.02, 1.47, 1201),
        ),
        (
            "pt_hyp",
            make_model(
                "pt_hyp",
                FamilyCoeffs(a=1.0, b=0.0, c=-1.0),
                ParamTriple(-2.0, 0.0, 1.0),
                profile,
                mumap,
            ),
            np.linspace(0.05, 10.0, 1201),
        ),
        (
            "coulomb",
            FamilyModel.coulomb(
                a=1.0, b=0.5, l=0, ze2=1.0, profile=profile, mumap=mumap
            ),
            np.linspace(0.05, 30.0, 2001),
        ),
    ]


@pytest.fixture(scope="module")
def const_cases(const_profile, const_mumap):
    return closed_form_cases(const_profile, const_mumap)


# conftest fixtures are function-scoped from the module's point of view, so
# re-request them here at module scope through a thin indirection
@pytest.fixture(scope="module")
def const_profile():
    from sip_effmass import registry_get

    return registry_get("constant", m0=0.5)


@pytest.fixture(scope="module")
def const_mumap(const_profile):
    from sip_effmass import MuMap

    return MuMap(const_profile)


def test_generic_matches_closed_forms(const_cases):
    for name, model, grid in const_cases:
        t_gen = psi0_generic(model, grid)
        t_cl = psi0_closed_table(model, grid)
        err = float(np.max(np.abs(t_gen.psi - t_cl.psi)))
        assert err < 1e-8, f"{name}: generic vs closed mismatch {err}"


def test_zero_modes_are_nodeless(const_cases):
    for name, model, grid in const_cases:
        psi = psi0_closed_table(model, grid).psi
        assert np.all(psi > 0), f"{name}: zero mode must be strictly positive"


def test_annihilation_residual_small(const_cases):
    for name, model, grid in const_cases:
        table = psi0_closed_table(model, grid)
        r = annihilation_residual(model, table)
        assert r < 1e-5, f"{name}: annihilation residual {r}"


def test_annihilation_residual_on_variable_mass():
    from sip_effmass import MuMap, registry_get

    profile = registry_get("asinh_mu", m0=0.5, alpha=0.1)
    mumap = MuMap(profile)
    for name, model, grid in closed_form_cases(profile, mumap):
        table = psi0_generic(model, grid)
        r = annihilation_residual(model, table)
        assert r < 1e-5, f"{name}: residual {r} on variable mass"


def test_annihilation_negative_control(const_cases):
    """A multiplicative perturbation of the zero mode must be detected."""
    name, model, grid = const_cases[0]
    table = psi0_closed_table(model, grid)
    bent = table.psi * (1.0 + 0.01 * grid)
    from sip_effmass.groundstate import WavefunctionTable

    fake = WavefunctionTable(x=grid, psi=bent)
    assert annihilation_residual(model, fake) > 1e-3


def test_normalization(const_cases):
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for name, model, grid in const_cases:
        psi = psi0_generic(model, grid).psi
        norm = float(trapezoid(psi * psi, grid))
        assert abs(norm - 1.0) < 1e-6, f"{name}: |psi|^2 integrates to {norm}"


def test_non_normalizable_raises(const_profile, const_mumap):
    """A zero mode that grows at both grid ends is rejected."""
    model = make_model(
        "pt_hyp",
        FamilyCoeffs(a=1.0, b=0.0, c=-1.0),
        ParamTriple(2.0, 0.0, 0.0),  # cosh^2 grows in both directions
        const_profile,
        const_mumap,
    )
    with pytest.raises(NumericalError):
        psi0_closed_table(model, np.linspace(-6.0, 6.0, 601))


def test_closed_form_preconditions(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.5, -1.0), const_profile, const_mumap
    )
    with pytest.raises(ConfigError):
        psi0_closed(model, np.linspace(0.1, 2.0, 15))


def test_ho_closed_form_warns_when_origin_factor_grows(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 1.0), const_profile, const_mumap
    )
    with pytest.warns(UserWarning):
        psi0_closed(model, np.linspace(0.1, 2.0, 15))


def test_generic_grid_validation(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, -1.0), const_profile, const_mumap
    )
    with pytest.raises(ConfigError):
        psi0_generic(model, np.linspace(0.1, 2.0, 5))
    with pytest.raises(ConfigError):
        psi0_generic(model, np.array([0.5, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]))


def test_residual_requires_uniform_grid(const_cases):
    name, model, grid = const_cases[0]
    table = psi0_closed_table(model, grid)
    from sip_effmass.groundstate import WavefunctionTable

    squished = np.concatenate([grid[:600], grid[600:] * 1.001])
    fake = WavefunctionTable(x=squished, psi=table.psi)
    with pytest.raises(ConfigError):
        annihilation_residual(model, fake)
