"""Acceptance gate: end-to-end checks at pinned tolerances.

Criterion 1 exercises the x-independence of the partner-potential
difference under the shift recursion, on the parameter slices where a
shape-invariant step exists (derived in the comment above the test).
The default alternating recursion is x-independent only on narrower
slices; its level tables are pinned by criteria 3 and 9.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from sip_effmass import (
    FamilyCoeffs,
    FamilyModel,
    GridSpec,
    MuMap,
    ParamTriple,
    annihilation_residual,
    coulomb_closed_level,
    coulomb_spectrum_nr,
    coulomb_spectrum_sum,
    discretize,
    discretize_model,
    lowest_eigenvalues,
    morse_reduced_compare,
    psi0_closed_table,
    psi0_generic,
    pt_reduced_spectrum,
    rayleigh_quotient,
    registry_get,
    spectrum_closed,
    spectrum_sum,
)

GOLDEN = Path(__file__).parent / "golden"

CONST = registry_get("constant", m0=0.5)
CONST_MU = MuMap(CONST)
ASINH = registry_get("asinh_mu", m0=0.5, alpha=0.1)
ASINH_MU = MuMap(ASINH)

PROFILES = [("constant", CONST, CONST_MU), ("asinh_mu", ASINH, ASINH_MU)]


def _random_model(family, rng, profile, mumap, draw):
    """One validated shift-branch draw per family, put on the family's
    shape-invariant slice (see criterion 1)."""
    if family == "ho":
        coeffs = FamilyCoeffs(a=rng.uniform(0.2, 2.0), b=rng.uniform(0.0, 1.0))
        lam, _, rho = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        return FamilyModel(
            family="ho",
            coeffs=coeffs,
            params0=ParamTriple(lam, 0.0, rho),
            profile=profile,
            mumap=mumap,
            branch="shift",
        )
    if family == "morse":
        coeffs = FamilyCoeffs(a=rng.uniform(-2.0, -0.2), b=rng.uniform(0.2, 0.95))
        lam, sigma, _ = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        return FamilyModel(
            family="morse",
            coeffs=coeffs,
            params0=ParamTriple(lam, sigma, 0.0),
            profile=profile,
            mumap=mumap,
            branch="shift",
        )
    if family == "pt_trig":
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(-0.5, 0.5)
        c = (b * b + 4.0 * rng.uniform(0.2, 2.0)) / (4.0 * a)
        lam, sigma, rho = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if draw % 2 == 0:
            rho = 0.0  # Rosen-Morse I
        else:
            b = sigma = 0.0  # Poeschl-Teller I
        return FamilyModel(
            family="pt_trig",
            coeffs=FamilyCoeffs(a=a, b=b, c=c),
            params0=ParamTriple(lam, sigma, rho),
            profile=profile,
            mumap=mumap,
            branch="shift",
        )
    # coulomb: rho0 = 0 by construction, so the draw is already on its slice
    return FamilyModel.coulomb(
        a=rng.uniform(0.5, 2.0),
        b=rng.uniform(0.2, 1.0),
        l=int(rng.integers(0, 3)),
        ze2=rng.uniform(0.5, 2.0),
        profile=profile,
        mumap=mumap,
        branch="shift",
    )


def _pole_free_mu_grid(model, n_points=1000):
    """n_points of the deformation coordinate where phi stays away from
    zero and the trigonometric branch stays on its principal interval.

    The effective pair depends on position only through mu, so sampling
    mu directly is equivalent to sampling the image of an x grid.
    """
    mu_lo, mu_hi = 0.05, 5.0
    if model.family == "pt_trig":
        sd = math.sqrt(model.coeffs.discriminant)
        mu_hi = min(mu_hi, (math.pi - 0.05) / sd)
    mu = np.linspace(mu_lo, mu_hi, 4 * n_points)
    phi = np.asarray(model.phi_from_mu(mu))
    mu = mu[np.abs(phi) > 1e-2]
    assert mu.size >= n_points
    return mu[:: max(1, mu.size // n_points)][:n_points]


# --------------------------------------------------------------------------
# criterion 1: separation residual across families, profiles, random draws
#
# With W_eff = lam phi + rho/phi + sigma and dphi/dmu = A phi^2 + B phi + C,
# V2_eff(p0) - V1_eff(p1) = c2 phi^2 + c1 phi + c0 + c_1/phi + c_2/phi^2 with
#
#   c2  = (lam0 + lam1)(lam0 - lam1 + A)
#   c1  = 2 lam0 sigma0 - 2 lam1 sigma1 + B (lam0 + lam1)
#   c_1 = 2 rho0 sigma0 - 2 rho1 sigma1 - B (rho0 + rho1)
#   c_2 = (rho0 + rho1)(rho0 - rho1 - C)
#
# and R = c0.  Shape invariance is c2 = c1 = c_1 = c_2 = 0.  c2 = 0 needs
# lam1 = -lam0 or lam0 + A, and c_2 = 0 needs rho1 = -rho0 or rho0 - C.
# At a generic draw (sigma0, rho0 and B nonzero) only the reflection
# p1 = -p0 then solves all four, and it makes V1_eff(p1) equal V2_eff(p0)
# for any W, with R = 0: it yields no spectrum.  The shift step
# lam1 = lam0 + A, rho1 = rho0 - C (rho1 = 0 if rho0 = 0), sigma1 from
# c1 = 0, leaves c_1 = 0 when rho0 = 0, and otherwise
# c_1 = 2 rho0 sigma0 - 2 (rho0 - C) sigma1 - B (2 rho0 - C), which must
# vanish at every step of the chain:
#
#   ho      (A = B = 0, C = a): sigma1 = sigma0 and c_1 = 2 a sigma0,
#           so sigma0 = 0;
#   morse   (A = 0, B = -a, C = b): sigma1 = sigma0 + B and
#           c_1 = 2 C sigma0 + B (3 C - 4 rho0), whose root moves by -2 B
#           per step, so rho0 = 0;
#   pt_trig (A, B, C = a, b, c): rho0 = 0 with b and sigma0 free
#           (Rosen-Morse I), or b = sigma0 = 0, where sigma stays 0
#           (Poeschl-Teller I);
#   coulomb: rho0 = 0 always.
#
# The draws keep their ranges and seed and are projected on these slices.


@pytest.mark.parametrize("family", ["ho", "morse", "pt_trig", "coulomb"])
@pytest.mark.parametrize("profile_name", ["constant", "asinh_mu"])
def test_criterion_1_shape_invariance_residual(family, profile_name):
    profile, mumap = next((p, m) for n, p, m in PROFILES if n == profile_name)
    rng = np.random.default_rng(20260823)
    worst = worst_chain = 0.0
    for draw in range(10):
        model = _random_model(family, rng, profile, mumap, draw)
        p0, p1 = model.params0, model.next_params()
        assert (p1.lam, p1.sigma, p1.rho) != (-p0.lam, -p0.sigma, -p0.rho)
        mu = _pole_free_mu_grid(model)
        f = model.fields_of_mu(mu)
        v1e0, v2e0 = f.v1_eff, f.v2_eff
        scale = max(1.0, float(np.max(np.abs(v1e0))), float(np.max(np.abs(v2e0))))
        resid = model.shape_invariance_residual_of_mu(mu)
        worst = max(worst, resid / scale)
        # spectrum_sum adds R(p_k) over the chain, so every later step
        # must be shape-invariant too
        chain = model.param_chain(3)
        for pk, pk1 in zip(chain, chain[1:]):
            v2e = model.fields_of_mu(mu, pk).v2_eff
            v1e = model.fields_of_mu(mu, pk1).v1_eff
            scale = max(1.0, float(np.max(np.abs(v1e))), float(np.max(np.abs(v2e))))
            resid = float(np.max(np.abs(v2e - v1e - model.remainder_R(pk))))
            worst_chain = max(worst_chain, resid / scale)
    assert worst <= 1e-9, (
        f"{family}/{profile_name}: worst normalized residual {worst:.3e}"
    )
    assert worst_chain <= 1e-9, (
        f"{family}/{profile_name}: worst normalized chain residual {worst_chain:.3e}"
    )


# --------------------------------------------------------------------------
# criterion 2: closed forms equal partial sums


def _rel_close(xs, ys, tol):
    return all(abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys))


def test_criterion_2_closed_equals_sum():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(0, 21))
        ho = FamilyModel(
            family="ho",
            coeffs=FamilyCoeffs(a=rng.uniform(0.1, 4.0)),
            params0=ParamTriple(
                rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            ),
            profile=CONST,
            mumap=CONST_MU,
        )
        assert _rel_close(
            spectrum_closed(ho, n).energies, spectrum_sum(ho, n).energies, 1e-10
        )
        morse = FamilyModel(
            family="morse",
            coeffs=FamilyCoeffs(a=rng.uniform(-4.0, -0.1), b=rng.uniform(0.1, 4.0)),
            params0=ParamTriple(
                rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            ),
            profile=CONST,
            mumap=CONST_MU,
        )
        assert _rel_close(
            spectrum_closed(morse, n).energies, spectrum_sum(morse, n).energies, 1e-10
        )
        # the compact quadratic-family forms live on the sigma0 = b = 0,
        # c = +-1/a slice
        a = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.2, 3.0)
        rho = rng.uniform(-2.0, 2.0)
        for fam, c in (("pt_trig", 1.0 / a), ("pt_hyp", -1.0 / a)):
            pt = FamilyModel(
                family=fam,
                coeffs=FamilyCoeffs(a=a, b=0.0, c=c),
                params0=ParamTriple(lam, 0.0, rho),
                profile=CONST,
                mumap=CONST_MU,
            )
            assert _rel_close(
                pt_reduced_spectrum(fam, a, lam, rho, n).energies,
                spectrum_sum(pt, n).energies,
                1e-10,
            )


def test_criterion_2_coulomb_sum_exact():
    cp = FamilyModel.coulomb(a=1.0, b=0.5, l=0, ze2=1.0, profile=CONST, mumap=CONST_MU)
    for n, e in coulomb_spectrum_sum(cp, 12).levels:
        assert e == coulomb_closed_level(cp, 2 * n)
    rng = np.random.default_rng(11)
    for _ in range(50):
        # keywords in the draw order z, l, b
        cp = FamilyModel.coulomb(
            ze2=rng.uniform(0.2, 4.0), l=int(rng.integers(0, 5)), b=rng.uniform(0.05, 2.0),
            a=1.0, profile=CONST, mumap=CONST_MU,
        )
        n = int(rng.integers(0, 13))
        e_sum = coulomb_spectrum_sum(cp, 2 * n).energies[-1]
        e_closed = coulomb_closed_level(cp, 2 * n)
        assert abs(e_sum - e_closed) <= 1e-13 * max(1.0, abs(e_closed))


# --------------------------------------------------------------------------
# criterion 3: worked spectra, bit-stable


def test_criterion_3_worked_spectra():
    ho = FamilyModel(
        family="ho",
        coeffs=FamilyCoeffs(a=1.0),
        params0=ParamTriple(1.0, 0.0, 0.0),
        profile=CONST,
        mumap=CONST_MU,
    )
    morse = FamilyModel(
        family="morse",
        coeffs=FamilyCoeffs(a=-1.0, b=1.0),
        params0=ParamTriple(1.0, 2.5, 0.0),
        profile=CONST,
        mumap=CONST_MU,
    )
    pt = FamilyModel(
        family="pt_trig",
        coeffs=FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        params0=ParamTriple(2.0, 0.0, 1.0),
        profile=CONST,
        mumap=CONST_MU,
    )
    assert spectrum_sum(ho, 4).energies == [0.0, 4.0, 4.0, 8.0, 8.0]
    assert spectrum_sum(morse, 3).energies == [0.0, 8.0, 10.0, 14.0]
    assert spectrum_sum(pt, 2).energies == [0.0, 24.0, 8.0]
    # bit-stability: repeated evaluation yields identical floats
    for model, n in ((ho, 4), (morse, 3), (pt, 2)):
        assert spectrum_sum(model, n).energies == spectrum_sum(model, n).energies


# --------------------------------------------------------------------------
# criterion 4: single-exponential well eigensolve


def test_criterion_4_morse_reduction_eigensolve():
    grid = GridSpec(-15.0, 5.0, 4000)
    for name, profile, mumap in PROFILES:
        report = morse_reduced_compare(-1.0, 2.5, profile, mumap, grid, 3)
        assert abs(report["ground_energy"]) < 5e-3, name
        assert abs(report["gaps"][1] - 4.0) < 5e-3, name
        assert abs(report["gaps"][2] - 6.0) < 5e-3, name


# --------------------------------------------------------------------------
# criterion 5: radial well eigensolve


def test_criterion_5_coulomb_reduction_eigensolve():
    grid = GridSpec(0.0, 200.0, 4000)
    for l in (0, 1):
        diag, off = discretize(
            CONST, lambda r: -1.0 / r + l * (l + 1) / r**2, grid
        )
        res = lowest_eigenvalues(diag, off, 3, grid=grid)
        gaps = res.eigenvalues - res.eigenvalues[0]
        for n_r in (1, 2):
            expected = 0.25 * (1.0 / (l + 1) ** 2 - 1.0 / (n_r + l + 1) ** 2)
            assert abs(gaps[n_r] - expected) < 1e-3 * expected, (l, n_r)


# --------------------------------------------------------------------------
# criterion 6: ground states


def _groundstate_cases():
    step = 1e-3
    return [
        (
            "ho",
            FamilyModel(
                family="ho",
                coeffs=FamilyCoeffs(a=1.0),
                params0=ParamTriple(1.0, 0.0, -1.0),
                profile=CONST,
                mumap=CONST_MU,
            ),
            np.arange(0.05, 8.0, step),
        ),
        (
            "morse",
            FamilyModel.morse_reduced(
                a=-1.0, lambda0=1.0, sigma0=-0.5, profile=CONST, mumap=CONST_MU
            ),
            np.arange(-12.0, 3.0, step),
        ),
        (
            "pt_trig",
            FamilyModel(
                family="pt_trig",
                coeffs=FamilyCoeffs(a=1.0, b=0.0, c=1.0),
                params0=ParamTriple(2.0, 0.0, -1.0),
                profile=CONST,
                mumap=CONST_MU,
            ),
            np.arange(0.02, 1.47, step),
        ),
        (
            "pt_hyp",
            FamilyModel(
                family="pt_hyp",
                coeffs=FamilyCoeffs(a=1.0, b=0.0, c=-1.0),
                params0=ParamTriple(-2.0, 0.0, 1.0),
                profile=CONST,
                mumap=CONST_MU,
            ),
            np.arange(0.05, 10.0, step),
        ),
        (
            "coulomb",
            FamilyModel.coulomb(
                a=1.0, b=0.5, l=0, ze2=1.0, profile=CONST, mumap=CONST_MU
            ),
            np.arange(0.05, 30.0, step),
        ),
    ]


def test_criterion_6_ground_states():
    for name, model, grid in _groundstate_cases():
        closed = psi0_closed_table(model, grid)
        assert annihilation_residual(model, closed) <= 1e-7, name
        generic = psi0_generic(model, grid)
        assert float(np.max(np.abs(generic.psi - closed.psi))) <= 1e-8, name


def test_criterion_6_rayleigh_quotient():
    model = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=CONST, mumap=CONST_MU
    )
    grid = GridSpec(-15.0, 5.0, 4000)
    diag, off = discretize_model(model, grid)
    e0 = lowest_eigenvalues(diag, off, 1, grid=grid).eigenvalues[0]
    psi = psi0_generic(model, grid.interior()).psi
    rq = rayleigh_quotient(diag, off, psi)
    assert abs(rq - e0) < 5e-4


# --------------------------------------------------------------------------
# criterion 7: radial asymptotics


def test_criterion_7_coulomb_asymptotics():
    def reldiff(nr, l):
        e1, _ = coulomb_spectrum_nr(l, nr, mode="exact", z=1.0)
        e2, _ = coulomb_spectrum_nr(l, nr, mode="asymptotic", z=1.0)
        return abs(e1 - e2) / abs(e1)

    assert reldiff(40, 40) < reldiff(5, 5)
    for l in range(6):
        e, _ = coulomb_spectrum_nr(l, 0, mode="asymptotic", z=1.7)
        assert e == 0.0


# --------------------------------------------------------------------------
# criterion 8: deformation coordinate


def test_criterion_8_mu_map():
    profiles = [
        registry_get("constant", m0=0.5),
        registry_get("asinh_mu", m0=0.5, alpha=0.3),
        registry_get("arctan_mu", m0=1.0, alpha=0.2),
    ]
    xs = np.linspace(-5.0, 5.0, 21)
    for profile in profiles:
        mumap = MuMap(profile)
        closed = np.asarray(profile.mu_closed(xs)) - float(profile.mu_closed(0.0))
        assert np.max(np.abs(mumap.mu_array(xs) - closed)) <= 1e-10, profile.name
        for x in (-4.0, -0.7, 0.0, 1.3, 4.5):
            m = mumap.mu(x)
            assert abs(mumap.mu_inverse(m) - x) <= 1e-9 * max(1.0, abs(x)), profile.name


# --------------------------------------------------------------------------
# criterion 9: CLI determinism and golden outputs


GOLDEN_ARGS = {
    "ho_spectrum.csv": [
        "spectrum", "--family", "ho", "--a", "1", "--lambda0", "1",
        "--sigma0", "0", "--rho0", "0", "--n", "5",
    ],
    "morse_spectrum.csv": [
        "spectrum", "--family", "morse", "--a", "-1", "--b", "1",
        "--lambda0", "1", "--sigma0", "2.5", "--rho0", "0", "--n", "4",
    ],
    "pt_trig_spectrum.csv": [
        "spectrum", "--family", "pt_trig", "--a", "1", "--b", "0", "--c", "1",
        "--lambda0", "2", "--sigma0", "0", "--rho0", "1", "--n", "3",
    ],
}


def test_criterion_9_cli_determinism_and_goldens(tmp_path):
    from sip_effmass.cli import main

    for name, args in GOLDEN_ARGS.items():
        d1, d2 = tmp_path / f"{name}.r1", tmp_path / f"{name}.r2"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        b1 = (d1 / "spectrum.csv").read_bytes()
        assert b1 == (d2 / "spectrum.csv").read_bytes()
        assert b1 == (GOLDEN / name).read_bytes()
