"""Ground states: generic integral form, closed forms, annihilation residual."""

import numpy as np
import pytest

from sip_effmass import (
    ConfigError,
    DomainError,
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


# (family, coeffs, p0, mu span, shift steps), with (a, b, l) and Z e^2 in
# place of coeffs and p0 for coulomb: criterion 6's five cases, then slices
# off sigma0 = b = rho0 = 0.  The pt_hyp well at lam0 = -2 takes one shift
# step; the next would reach lam = 0.
OFF_SLICE_DRAWS = {
    "ho": ("ho", (1.0, 0.0, 0.0), (1.0, 0.0, -1.0), (0.05, 8.0), 2),
    "morse": ("morse", (-1.0, 0.0, 0.0), (1.0, -0.5, 0.0), (-12.0, 3.0), 2),
    "pt_trig": ("pt_trig", (1.0, 0.0, 1.0), (2.0, 0.0, -1.0), (0.02, 1.47), 2),
    "pt_hyp": ("pt_hyp", (1.0, 0.0, -1.0), (-2.0, 0.0, 1.0), (0.05, 10.0), 1),
    "coulomb_l0": ("coulomb", (1.0, 0.5, 0), 1.0, (0.05, 30.0), 2),
    "ho_b": ("ho", (1.0, 0.7, 0.0), (1.0, 0.9, 0.0), (-7.0, 5.0), 2),
    "ho_sigma0": ("ho", (1.0, 0.0, 0.0), (1.0, 0.5, -1.0), (0.05, 8.0), 2),
    "morse_b": ("morse", (-1.0, 1.0, 0.0), (1.0, -2.5, 0.0), (-12.0, 3.0), 2),
    "pt_trig_rho2": ("pt_trig", (1.0, 0.0, 1.0), (2.0, 0.0, -2.0), (0.02, 1.47), 2),
    "pt_hyp_b": ("pt_hyp", (1.0, 0.3, -1.0), (-3.0, 0.4, 0.0), (-10.0, 10.0), 2),
    "coulomb_l1": ("coulomb", (1.0, 0.5, 1), 1.0, (0.05, 40.0), 2),
    # the two int dmu/phi branches the draws above miss: A = 0 with C != 0,
    # and C = 0 with B != 0 (phi = -(1 + tanh(mu/2))/2 stays negative)
    "morse_b_rho": ("morse", (-1.0, 1.0, 0.0), (1.0, -2.5, -2.0), (0.02, 3.5), 2),
    "pt_hyp_c0_rho": ("pt_hyp", (1.0, 1.0, 0.0), (-3.0, 0.0, 1.0), (-4.0, 12.0), 2),
    # tanh(mu) rounds to 1 at every point, so phi sits on a root of P there
    "pt_hyp_saturated": ("pt_hyp", (1.0, 0.0, -1.0), (-2.0, 0.0, 1.0), (25.0, 45.0), 1),
}

# a smooth inline table spanning mu in about (-20, 50) around x_ref = 0
_TABLE = [[x, 0.5 + 0.1 * np.sin(0.25 * x)] for x in np.arange(-22.0, 53.0, 1.0)]
OFF_SLICE_PROFILES = {
    "constant": ({"m0": 0.5}, None),
    "asinh_mu": ({"alpha": 0.05, "m0": 0.5}, None),
    "exp_mass": ({"beta": 0.05, "m0": 0.5}, 0.0),  # mu from -20 at x_ref = 0
    "tabulated": ({"data": _TABLE}, 0.0),
}


@pytest.fixture(scope="module", params=sorted(OFF_SLICE_PROFILES))
def off_slice_mumap(request):
    from sip_effmass import MuMap, registry_get

    keys, x_ref = OFF_SLICE_PROFILES[request.param]
    return MuMap(registry_get(request.param, **keys), x_ref=x_ref)


@pytest.mark.parametrize("draw", sorted(OFF_SLICE_DRAWS))
def test_closed_zero_mode_on_every_slice(off_slice_mumap, draw):
    """psi0_closed against psi0_generic on and off the old per-family slices,
    at p0 and at the shift-chain points p1, p2 through with_params."""
    family, coeffs, p0, (mu_lo, mu_hi), steps = OFF_SLICE_DRAWS[draw]
    mumap = off_slice_mumap
    if family == "coulomb":
        a, b, l = coeffs
        model = FamilyModel.coulomb(
            a=a, b=b, l=l, ze2=p0, profile=mumap.profile, mumap=mumap, branch="shift"
        )
    else:
        model = make_model(
            family, FamilyCoeffs(*coeffs), ParamTriple(*p0), mumap.profile, mumap,
            branch="shift",
        )
    # mean mu step 2.5e-3; U varies by at most 4x over these spans
    n_points = int((mu_hi - mu_lo) / 2.5e-3)
    x = np.linspace(mumap.mu_inverse(mu_lo), mumap.mu_inverse(mu_hi), n_points)
    for n, p in enumerate(model.param_chain(steps)):
        chained = model.with_params(p)
        closed = psi0_closed_table(chained, x)
        err = float(np.max(np.abs(closed.psi - psi0_generic(chained, x).psi)))
        assert err <= 1e-8, (draw, n, err)
        assert annihilation_residual(chained, closed) <= 1e-7, (draw, n)


def _model_with_a_pole_at_0(family, profile, mumap):
    # ho with rho0 != 0 has rho/phi blow up at mu = 0; coulomb's phi passes
    # through infinity there
    if family == "ho":
        return make_model("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, -1.0), profile, mumap)
    return FamilyModel.coulomb(a=1.0, b=0.5, l=0, ze2=1.0, profile=profile, mumap=mumap)


@pytest.mark.parametrize("family", ["ho", "coulomb"])
def test_closed_zero_mode_rejects_a_grid_across_a_pole(const_profile, const_mumap, family):
    model = _model_with_a_pole_at_0(family, const_profile, const_mumap)
    with pytest.raises(DomainError):
        psi0_closed(model, np.linspace(-3.0, 3.0, 600))


@pytest.mark.parametrize("family", ["ho", "coulomb"])
@pytest.mark.parametrize(
    "grid", [(-3.0, 3.0, 600), (-2.71, 3.13, 777)], ids=["symmetric", "no_node_near_0"]
)
def test_generic_zero_mode_rejects_a_grid_across_a_pole(const_profile, const_mumap, family, grid):
    # on the second grid no quadrature node comes near the pole, so only the
    # domain check stops the integral from stepping over it
    model = _model_with_a_pole_at_0(family, const_profile, const_mumap)
    with pytest.raises(DomainError):
        psi0_generic(model, np.linspace(*grid))


def test_ho_closed_zero_mode_on_the_full_line_is_the_gaussian(const_profile, const_mumap):
    model = make_model(
        "ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), const_profile, const_mumap
    )
    x = np.linspace(-6.0, 6.0, 1201)  # mu = x on the constant profile
    psi = psi0_closed(model, x)
    assert np.max(np.abs(psi / np.max(psi) - np.exp(-0.5 * x * x))) <= 1e-14


@pytest.mark.parametrize("sigma0", [-1.5, -2.5])
def test_morse_closed_form_reads_sigma0(const_profile, const_mumap, sigma0):
    # exp(-sigma0 mu - (lam0/a^2) e^{-a mu}) is the zero mode for every sigma0
    model = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=sigma0, profile=const_profile, mumap=const_mumap
    )
    x = np.arange(-20.0, 3.0, 1e-3)
    generic = psi0_generic(model, x)
    closed = psi0_closed_table(model, x)
    assert np.max(np.abs(closed.psi - generic.psi)) <= 1e-8
    assert annihilation_residual(model, closed) <= 1e-7


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
