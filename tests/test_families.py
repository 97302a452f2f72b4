"""Potential families: phi, superpotentials, partners, recursion, remainder."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sip_effmass import (
    FamilyCoeffs,
    FamilyModel,
    MuMap,
    ParamTriple,
    PoleError,
    ValidationError,
    registry_get,
    validate,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


def make_model(family, coeffs, params, profile, mumap, **kw):
    return FamilyModel(
        family=family, coeffs=coeffs, params0=params, profile=profile, mumap=mumap, **kw
    )


# --------------------------------------------------------------------------
# validation


def test_validate_ho():
    assert validate("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0)) == []
    assert "a != 0" in validate("ho", FamilyCoeffs(a=0.0), ParamTriple(1.0, 0.0, 0.0))
    assert any(
        v.startswith("q =") for v in validate("ho", FamilyCoeffs(a=1.0), ParamTriple(0.0, 0.0, 0.0))
    )


def test_validate_morse():
    assert validate("morse", FamilyCoeffs(a=-1.0, b=1.0), ParamTriple(1.0, 2.5, 0.0)) == []
    assert "a < 0" in validate("morse", FamilyCoeffs(a=1.0, b=1.0), ParamTriple(1.0, 0.0, 0.0))


def test_validate_pt_discriminants():
    assert validate("pt_trig", FamilyCoeffs(a=1.0, b=0.0, c=1.0), ParamTriple(1.0, 0.0, 0.0)) == []
    assert "discriminant > 0" in validate(
        "pt_trig", FamilyCoeffs(a=1.0, b=0.0, c=-1.0), ParamTriple(1.0, 0.0, 0.0)
    )
    assert validate("pt_hyp", FamilyCoeffs(a=1.0, b=0.0, c=-1.0), ParamTriple(1.0, 0.0, 0.0)) == []
    assert "discriminant < 0" in validate(
        "pt_hyp", FamilyCoeffs(a=1.0, b=0.0, c=1.0), ParamTriple(1.0, 0.0, 0.0)
    )


def test_validate_coulomb():
    coeffs = FamilyCoeffs(a=1.0, b=2.0, c=1.0)  # 4ac - b^2 = 0
    assert validate("coulomb", coeffs, ParamTriple(1.0, 1.0, 0.0)) == []
    assert "rho0 == 0" in validate("coulomb", coeffs, ParamTriple(1.0, 1.0, 0.5))
    assert "discriminant == 0" in validate(
        "coulomb", FamilyCoeffs(a=1.0, b=1.0, c=1.0), ParamTriple(1.0, 1.0, 0.0)
    )


def test_model_rejects_invalid(const_profile, const_mumap):
    with pytest.raises(ValidationError) as err:
        make_model(
            "morse",
            FamilyCoeffs(a=1.0, b=1.0),
            ParamTriple(1.0, 0.0, 0.0),
            const_profile,
            const_mumap,
        )
    assert "a < 0" in err.value.violations


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coeffs_reject_non_finite(bad):
    with pytest.raises(ValidationError, match="coefficient 'a' must be finite"):
        FamilyCoeffs(a=bad)


def test_family_aliases(const_profile, const_mumap):
    m = make_model(
        "PT-Trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(1.0, 0.0, 0.0),
        const_profile,
        const_mumap,
    )
    assert m.family == "pt_trig"


def test_model_rejects_a_mumap_of_another_profile(const_mumap, asinh_profile):
    with pytest.raises(ValidationError, match="another profile"):
        make_model("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), asinh_profile, const_mumap)


def test_morse_reduced_constructor(const_profile, const_mumap):
    m = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=const_profile, mumap=const_mumap
    )
    assert m.coeffs.b == 0.0
    with pytest.raises(ValidationError):
        FamilyModel.morse_reduced(
            a=1.0, lambda0=1.0, sigma0=-2.5, profile=const_profile, mumap=const_mumap
        )


def test_morse_b_zero_is_the_reduced_slice(const_profile, const_mumap):
    # b = 0 needs no option: q = 2 b lambda0 is required only off that slice
    m = FamilyModel(
        family="morse",
        coeffs=FamilyCoeffs(a=-1.0, b=0.0),
        params0=ParamTriple(1.0, -2.5, 0.0),
        profile=const_profile,
        mumap=const_mumap,
    )
    assert m == FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=const_profile, mumap=const_mumap
    )
    assert validate("morse", FamilyCoeffs(a=-1.0, b=0.0), ParamTriple(0.0, 1.0, 0.0)) == []
    assert "q = 2*b*lambda0 != 0" in validate(
        "morse", FamilyCoeffs(a=-1.0, b=1.0), ParamTriple(0.0, 1.0, 0.0)
    )


def test_coulomb_constructor_derives_parameters(const_profile, const_mumap):
    m = FamilyModel.coulomb(
        a=1.0, b=0.5, l=1, ze2=1.0, profile=const_profile, mumap=const_mumap
    )
    assert m.coeffs.c == pytest.approx(0.0625)
    assert m.params0.lam == pytest.approx(2.0)  # a (l+1)
    assert m.params0.sigma == pytest.approx(0.5 * 0.5 * 2.0 + 1.0 / 4.0)
    assert m.params0.rho == 0.0


# --------------------------------------------------------------------------
# phi solves its defining first-order equation


CASES = [
    ("ho", FamilyCoeffs(a=1.3, b=0.4, c=0.0), ParamTriple(0.8, 0.2, 0.0), (0.1, 3.0)),
    ("morse", FamilyCoeffs(a=-0.9, b=1.2), ParamTriple(1.0, 2.5, 0.0), (-2.0, 2.0)),
    (
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.3, c=0.8),
        ParamTriple(1.5, 0.0, 0.0),
        (0.05, 1.5),
    ),
    (
        "pt_hyp",
        FamilyCoeffs(a=1.0, b=0.2, c=-0.7),
        ParamTriple(1.5, 0.0, 0.0),
        (-2.0, 2.0),
    ),
    (
        "coulomb",
        FamilyCoeffs(a=1.0, b=2.0, c=1.0),
        ParamTriple(1.0, 1.0, 0.0),
        (0.2, 4.0),
    ),
]


@pytest.mark.parametrize("family,coeffs,params,span", CASES, ids=[c[0] for c in CASES])
def test_phi_solves_its_equation(family, coeffs, params, span, const_profile, const_mumap):
    """U phi' = A phi^2 + B phi + C with (A, B, C) = model.ode_coeffs()."""
    model = make_model(family, coeffs, params, const_profile, const_mumap)
    mu = np.linspace(*span, 201)
    h = 1e-6
    dphi = (model.phi_from_mu(mu + h) - model.phi_from_mu(mu - h)) / (2 * h)
    A, B, C = model.ode_coeffs()
    phi = model.phi_from_mu(mu)
    rhs = (A * phi + B) * phi + C
    # constant profile: U d/dx = d/dmu, so dphi/dmu must equal P(phi)
    assert np.max(np.abs(dphi - rhs)) < 1e-6 * max(1.0, float(np.max(np.abs(rhs))))


def test_phi_of_x_uses_mu(asinh_profile, asinh_mumap):
    model = make_model(
        "ho",
        FamilyCoeffs(a=2.0, b=-1.0),
        ParamTriple(1.0, 0.0, 0.0),
        asinh_profile,
        asinh_mumap,
    )
    x = 1.7
    assert model.fields(x).phi == pytest.approx(2.0 * float(asinh_mumap.mu_array(x)) - 1.0, abs=1e-10)


def test_pt_trig_branch_guard(const_profile, const_mumap):
    model = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(1.0, 0.0, 0.0),
        const_profile,
        const_mumap,
    )
    from sip_effmass.errors import DomainError

    with pytest.raises(DomainError):
        model.phi_from_mu(np.array([math.pi / 2]))  # sqrt(disc)*mu/2 = pi/2


def test_coulomb_phi_pole_guard(const_profile, const_mumap):
    model = FamilyModel.coulomb(
        a=1.0, b=1.0, l=0, ze2=1.0, profile=const_profile, mumap=const_mumap
    )
    from sip_effmass.errors import DomainError

    with pytest.raises(DomainError):
        model.phi_from_mu(np.array([0.0]))


def test_phi_zero_with_pole_term_raises(const_profile, const_mumap):
    model = make_model(
        "ho",
        FamilyCoeffs(a=1.0),
        ParamTriple(1.0, 0.0, -1.0),
        const_profile,
        const_mumap,
    )
    with pytest.raises(PoleError):
        model.fields(np.array([0.0]))  # phi(0) = 0 while rho != 0


# --------------------------------------------------------------------------
# superpotential and partner potentials


def test_ho_superpotential_and_v1_constant_mass(const_profile, const_mumap):
    # U = 1, mu = x, W = lam x; V1 = W^2 - W' = x^2 - 1
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), const_profile, const_mumap
    )
    f = model.fields(2.0)
    assert f.w == pytest.approx(2.0, abs=1e-12)
    assert f.v1 == pytest.approx(3.0, abs=1e-12)
    assert f.v2 == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("family,coeffs,params,span", CASES, ids=[c[0] for c in CASES])
def test_v1_equals_w2_minus_uw_prime(
    family, coeffs, params, span, asinh_profile, asinh_mumap
):
    """V1 = W^2 - (U W)', with (U W)' taken by finite differences."""
    model = make_model(family, coeffs, params, asinh_profile, asinh_mumap)
    x = np.linspace(span[0] + 0.05, span[1] - 0.05, 31)
    h = 1e-6
    u = np.asarray(asinh_profile.u(x))
    uw_p = (
        np.asarray(asinh_profile.u(x + h)) * model.fields(x + h).w
        - np.asarray(asinh_profile.u(x - h)) * model.fields(x - h).w
    ) / (2 * h)
    f = model.fields(x)
    w = f.w
    v1_fd = w * w - uw_p
    v1 = f.v1
    scale = max(1.0, float(np.max(np.abs(v1))))
    assert np.max(np.abs(v1 - v1_fd)) < 1e-5 * scale


@pytest.mark.parametrize("family,coeffs,params,span", CASES, ids=[c[0] for c in CASES])
def test_partner_differences(family, coeffs, params, span, asinh_profile, asinh_mumap):
    """V2 - V1 = V2_eff - V1_eff = 2 U W_eff', and the effective shift is
    V1_eff - V1 = U U''/2 + U'^2/4."""
    model = make_model(family, coeffs, params, asinh_profile, asinh_mumap)
    x = np.linspace(span[0] + 0.05, span[1] - 0.05, 31)
    f = model.fields(x)
    v1, v2, v1e, v2e = f.v1, f.v2, f.v1_eff, f.v2_eff
    u = np.asarray(asinh_profile.u(x))
    du = np.asarray(asinh_profile.du(x))
    d2u = np.asarray(asinh_profile.d2u(x))
    shift = 0.5 * u * d2u + 0.25 * du * du
    assert np.max(np.abs((v2 - v1) - (v2e - v1e))) < 1e-10
    assert np.max(np.abs((v1e - v1) - shift)) < 1e-10
    assert np.max(np.abs((v2e - v2) - shift)) < 1e-10


def test_effective_pair_from_weff(const_profile, const_mumap):
    """V_eff = W_eff^2 -+ dW_eff/dmu (constant mass, finite differences)."""
    model = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(2.0, 0.0, 1.0),
        const_profile,
        const_mumap,
    )
    x = np.linspace(0.1, 1.4, 27)
    h = 1e-6
    f = model.fields(x)
    weff = f.weff
    dweff = (model.fields(x + h).weff - model.fields(x - h).weff) / (2 * h)
    v1e, v2e = f.v1_eff, f.v2_eff
    assert np.max(np.abs(v1e - (weff**2 - dweff))) < 1e-5
    assert np.max(np.abs(v2e - (weff**2 + dweff))) < 1e-5


# --------------------------------------------------------------------------
# recursion and remainder


def test_next_params_ho(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.3, 0.2), const_profile, const_mumap
    )
    p1 = model.next_params()
    assert (p1.lam, p1.sigma, p1.rho) == (1.0, 0.3, -(0.2 + 1.0))
    p2 = model.next_params(p1)
    assert p2.rho == pytest.approx(0.2)  # two steps alternate back


def test_next_params_morse(const_profile, const_mumap):
    model = make_model(
        "morse",
        FamilyCoeffs(a=-1.0, b=1.0),
        ParamTriple(1.0, 2.5, 0.0),
        const_profile,
        const_mumap,
    )
    p1 = model.next_params()
    assert (p1.lam, p1.sigma, p1.rho) == (1.0, 1.5, -1.0)


def test_next_params_quadratic(const_profile, const_mumap):
    model = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.5, c=1.0),
        ParamTriple(2.0, 0.1, 1.0),
        const_profile,
        const_mumap,
    )
    p1 = model.next_params()
    assert (p1.lam, p1.sigma, p1.rho) == (3.0, 0.6, -2.0)


def test_param_chain_length(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), const_profile, const_mumap
    )
    chain = model.param_chain(5)
    assert len(chain) == 6
    assert chain[0] == model.params0


def test_remainder_worked_values(const_profile, const_mumap):
    """Partial sums of R reproduce the reference level tables."""
    ho = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), const_profile, const_mumap
    )
    chain = ho.param_chain(4)
    sums = [0.0]
    for p in chain[:-1]:
        sums.append(sums[-1] + ho.remainder_R(p))
    assert sums == pytest.approx([0.0, 4.0, 4.0, 8.0, 8.0], abs=1e-12)

    morse = make_model(
        "morse",
        FamilyCoeffs(a=-1.0, b=1.0),
        ParamTriple(1.0, 2.5, 0.0),
        const_profile,
        const_mumap,
    )
    chain = morse.param_chain(3)
    sums = [0.0]
    for p in chain[:-1]:
        sums.append(sums[-1] + morse.remainder_R(p))
    assert sums == pytest.approx([0.0, 8.0, 10.0, 14.0], abs=1e-12)


def test_model_rejects_unknown_branch(const_profile, const_mumap):
    with pytest.raises(ValidationError):
        make_model(
            "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), const_profile,
            const_mumap, branch="mirror",
        )


def test_next_params_shift(const_profile, const_mumap):
    ho = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.3, 0.0, 0.7), const_profile,
        const_mumap, branch="shift",
    )
    p1 = ho.next_params()
    assert (p1.lam, p1.sigma, p1.rho) == (1.3, 0.0, 0.7 - 1.0)
    pt = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.5, c=1.0),
        ParamTriple(2.0, 0.1, 0.0),
        const_profile,
        const_mumap,
        branch="shift",
    )
    p1 = pt.next_params()
    # sigma1 = (2 lam0 sigma0 + b (lam0 + lam1)) / (2 lam1); rho stays 0
    assert (p1.lam, p1.rho) == (3.0, 0.0)
    assert p1.sigma == pytest.approx((0.4 + 0.5 * 5.0) / 6.0, abs=1e-15)


def test_shift_chain_keeps_its_start_rule(const_profile, const_mumap):
    """Whether rho stays 0 is decided by the chain's start, not by a step
    where rho passes 0: the radial chain keeps its spacing 4 a lam, the
    rho0 = 0 chain its spacing 2 a lam."""
    radial = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 1.0), const_profile,
        const_mumap, branch="shift",
    )
    chain = radial.param_chain(3)
    assert [p.rho for p in chain] == [1.0, 0.0, -1.0, -2.0]
    assert [radial.remainder_R(p) for p in chain[:-1]] == [4.0, 4.0, 4.0]
    full_line = radial.with_params(ParamTriple(1.0, 0.0, 0.0))
    chain = full_line.param_chain(3)
    assert [p.rho for p in chain] == [0.0, 0.0, 0.0, 0.0]
    assert [full_line.remainder_R(p) for p in chain[:-1]] == [2.0, 2.0, 2.0]


def test_shift_step_rejects_vanishing_lambda(const_profile, const_mumap):
    pt = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(-1.0, 0.0, 0.5),
        const_profile,
        const_mumap,
        branch="shift",
    )
    with pytest.raises(ValidationError):
        pt.next_params()


@pytest.mark.parametrize("branch", ["alternating", "shift"])
@pytest.mark.parametrize("family,coeffs,params,span", CASES, ids=[c[0] for c in CASES])
def test_partner_coeffs_match_effective_pair(
    family, coeffs, params, span, branch, const_profile, const_mumap
):
    """The five Laurent coefficients reproduce V2_eff(p0) - V1_eff(p1),
    for the model's own step and for an unrelated p1."""
    model = make_model(family, coeffs, params, const_profile, const_mumap, branch=branch)
    if family != "coulomb":
        model = model.with_params(ParamTriple(params.lam, 0.3, 0.4))
    mu = np.linspace(span[0] + 0.05, span[1] - 0.05, 200)
    phi = model.phi_from_mu(mu)
    mu, phi = mu[np.abs(phi) > 1e-2], phi[np.abs(phi) > 1e-2]
    for p1 in (model.next_params(), ParamTriple(-0.7, 1.1, -0.2)):
        c2, c1, c0, cm1, cm2 = model.partner_coeffs(model.params0, p1)
        v2e0 = model.fields_of_mu(mu).v2_eff
        v1e1 = model.fields_of_mu(mu, p1).v1_eff
        laurent = c2 * phi**2 + c1 * phi + c0 + cm1 / phi + cm2 / phi**2
        scale = max(1.0, float(np.max(np.abs(v2e0))), float(np.max(np.abs(v1e1))))
        assert np.max(np.abs(v2e0 - v1e1 - laurent)) < 1e-12 * scale


def test_shift_remainder_is_laurent_constant(const_profile, const_mumap):
    """On the shift branch R is c0, and the four other coefficients vanish
    on the slices; the alternating R differs from c0 by 2 a rho0."""
    pt = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(2.0, 0.0, 0.4),
        const_profile,
        const_mumap,
        branch="shift",
    )
    c2, c1, c0, cm1, cm2 = pt.partner_coeffs()
    assert (c2, c1, cm1, cm2) == (0.0, 0.0, 0.0, 0.0)
    assert pt.remainder_R() == c0
    alt = replace(pt, branch="alternating")
    p1 = alt.next_params()
    assert alt.remainder_R() == pytest.approx(alt.partner_coeffs(p1=p1)[2] + 2.0 * 0.4)


# --------------------------------------------------------------------------
# the separation residual


def test_residual_vanishes_on_identity_slices(asinh_profile, asinh_mumap):
    """The partner difference is x-independent on the sigma0 = rho0 = 0
    slice of the oscillator-like family and the b = sigma0 = rho0 = 0
    slice of the trigonometric one."""
    grid = np.linspace(0.05, 6.0, 400)
    ho = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), asinh_profile, asinh_mumap
    )
    assert ho.shape_invariance_residual_of_mu(asinh_mumap.mu_array(grid)) < 1e-10

    grid_pt = np.linspace(0.05, 1.4, 300)
    pt = make_model(
        "pt_trig",
        FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        ParamTriple(2.0, 0.0, 0.0),
        asinh_profile,
        asinh_mumap,
    )
    assert pt.shape_invariance_residual_of_mu(asinh_mumap.mu_array(grid_pt)) < 1e-10


def test_residual_negative_control(asinh_profile, asinh_mumap):
    """Perturbing the chained parameters must be detected."""
    grid = np.linspace(0.05, 6.0, 400)
    ho = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), asinh_profile, asinh_mumap
    )
    p1 = ho.next_params()
    bad = ParamTriple(p1.lam + 0.1, p1.sigma, p1.rho)
    mu = asinh_mumap.mu_array(grid)
    v2e0 = ho.fields_of_mu(mu).v2_eff
    v1e_bad = ho.fields_of_mu(mu, bad).v1_eff
    r = ho.remainder_R()
    assert float(np.max(np.abs(v2e0 - v1e_bad - r))) > 1e-3


def test_residual_nonzero_off_slice(asinh_profile, asinh_mumap):
    """With sigma0 != 0 the alternating-branch difference is x-dependent."""
    grid = np.linspace(0.05, 6.0, 400)
    ho = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.5, 0.0), asinh_profile, asinh_mumap
    )
    assert ho.shape_invariance_residual_of_mu(asinh_mumap.mu_array(grid)) > 1e-2


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=3.0),
    lam=st.floats(min_value=0.2, max_value=3.0),
)
def test_ho_identity_slice_property(a, lam):
    profile = registry_get("constant", m0=0.5)
    mumap = MuMap(profile)
    model = make_model(
        "ho", FamilyCoeffs(a=a), ParamTriple(lam, 0.0, 0.0), profile, mumap
    )
    grid = np.linspace(0.1, 4.0, 101)
    scale = max(1.0, float(np.max(np.abs(model.fields(grid).v2_eff))))
    assert model.shape_invariance_residual_of_mu(mumap.mu_array(grid)) < 1e-10 * scale
