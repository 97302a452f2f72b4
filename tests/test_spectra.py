"""Algebraic spectra: partial-sum engine vs closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sip_effmass import (
    ConfigError,
    FamilyCoeffs,
    FamilyModel,
    MuMap,
    ParamTriple,
    ValidationError,
    coulomb_closed_level,
    coulomb_quantum_map,
    coulomb_spectrum_nr,
    coulomb_spectrum_sum,
    morse_reduced_spectrum,
    pt_reduced_spectrum,
    registry_get,
    spectrum_closed,
    spectrum_sum,
)

PROFILE = registry_get("constant", m0=0.5)
MUMAP = MuMap(PROFILE)


def model(family, coeffs, params, **kw):
    return FamilyModel(
        family=family, coeffs=coeffs, params0=params, profile=PROFILE, mumap=MUMAP, **kw
    )


def rel_close(xs, ys, tol):
    return all(abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys))


# --------------------------------------------------------------------------
# worked tables


def test_ho_worked_levels():
    m = model("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0))
    assert spectrum_sum(m, 4).energies == pytest.approx([0, 4, 4, 8, 8], abs=1e-12)
    assert spectrum_closed(m, 4).energies == pytest.approx([0, 4, 4, 8, 8], abs=1e-12)


def test_morse_worked_levels():
    m = model("morse", FamilyCoeffs(a=-1.0, b=1.0), ParamTriple(1.0, 2.5, 0.0))
    assert spectrum_sum(m, 3).energies == pytest.approx([0, 8, 10, 14], abs=1e-12)
    assert spectrum_closed(m, 3).energies == pytest.approx([0, 8, 10, 14], abs=1e-12)


def test_pt_trig_worked_levels():
    m = model("pt_trig", FamilyCoeffs(a=1.0, b=0.0, c=1.0), ParamTriple(2.0, 0.0, 1.0))
    assert spectrum_sum(m, 2).energies == pytest.approx([0, 24, 8], abs=1e-12)
    assert spectrum_closed(m, 2).energies == pytest.approx([0, 24, 8], abs=1e-12)
    assert spectrum_sum(m, 2).flags.get("nonmonotone") is True


def test_spectrum_closed_refuses_coulomb():
    m = FamilyModel.coulomb(a=1.0, b=1.0, l=0, ze2=1.0, profile=PROFILE, mumap=MUMAP)
    with pytest.raises(ConfigError):
        spectrum_closed(m, 3)


@pytest.mark.parametrize("branch", ["alternating", "shift"])
def test_spectrum_sum_runs_each_step_once(monkeypatch, branch):
    m = model("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0), branch=branch)
    calls = []
    next_params = FamilyModel.next_params

    def counted(self, pk=None):
        calls.append(pk)
        return next_params(self, pk)

    monkeypatch.setattr(FamilyModel, "next_params", counted)
    spectrum_sum(m, 10)
    assert len(calls) == 10


@pytest.mark.parametrize("rho_zero", [True, False], ids=["rho0=0", "rho0!=0"])
@pytest.mark.parametrize("family", ["ho", "morse", "pt_trig", "pt_hyp"])
def test_shift_closed_equals_sum(family, rho_zero):
    """200 seeded draws per family and slice; lam0 has the sign of a, so
    no chain reaches lam_n = 0."""
    rng = np.random.default_rng(20071)
    for _ in range(200):
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        if family == "morse":
            a = -abs(a)
        b = rng.uniform(-2.0, 2.0)
        c = 0.0
        if family in ("pt_trig", "pt_hyp"):
            spread = 4.0 * rng.uniform(0.1, 3.0)
            c = (b * b + (spread if family == "pt_trig" else -spread)) / (4.0 * a)
        rho0 = 0.0 if rho_zero else rng.uniform(-2.0, 2.0)
        lam0 = math.copysign(rng.uniform(0.2, 4.0), a)
        params = ParamTriple(lam0, rng.uniform(-2.0, 2.0), rho0)
        m = model(family, FamilyCoeffs(a=a, b=b, c=c), params, branch="shift")
        n = int(rng.integers(0, 21))
        closed, summed = spectrum_closed(m, n), spectrum_sum(m, n)
        assert closed.branch == "shift"
        assert rel_close(closed.energies, summed.energies, 1e-12)


def test_shift_coulomb_gives_hydrogen_gaps():
    """Z^2 e^4 / 4 (1/(l+1)^2 - 1/(n+l+1)^2) for any b: no even-step restriction."""
    ze2 = 1.7
    for b in (0.3, 1.0, -2.0):
        for l in (0, 2):
            m = FamilyModel.coulomb(
                a=1.0, b=b, l=l, ze2=ze2, profile=PROFILE, mumap=MUMAP, branch="shift"
            )
            hydrogen = [
                ze2**2 / 4.0 * (1.0 / (l + 1) ** 2 - 1.0 / (n + l + 1) ** 2) for n in range(7)
            ]
            assert rel_close(spectrum_closed(m, 6).energies, hydrogen, 1e-12)
            assert rel_close(spectrum_sum(m, 6).energies, hydrogen, 1e-12)


def test_shift_chain_through_lambda_zero_raises():
    # lam_k = 2 - k vanishes at k = 2
    coeffs = FamilyCoeffs(a=-1.0, b=0.0, c=-1.0)
    m = model("pt_trig", coeffs, ParamTriple(2.0, 0.5, 0.0), branch="shift")
    assert spectrum_closed(m, 1).energies == pytest.approx(spectrum_sum(m, 1).energies)
    with pytest.raises(ValidationError):
        spectrum_sum(m, 2)
    with pytest.raises(ValidationError):
        spectrum_closed(m, 2)


def test_spectrum_tables_record_branch():
    m = FamilyModel(
        family="ho",
        coeffs=FamilyCoeffs(a=1.0),
        params0=ParamTriple(1.0, 0.0, 0.0),
        profile=PROFILE,
        mumap=MUMAP,
    )
    assert spectrum_sum(m, 2).branch == "alternating"
    assert spectrum_closed(m, 2).branch == "alternating"
    assert spectrum_sum(replace(m, branch="shift"), 2).branch == "shift"


# --------------------------------------------------------------------------
# closed form == partial sums (property)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=4.0),
    lam=st.floats(min_value=0.1, max_value=4.0),
    sig=st.floats(min_value=-2.0, max_value=2.0),
    rho=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=0, max_value=20),
)
def test_ho_closed_equals_sum(a, lam, sig, rho, n):
    m = model("ho", FamilyCoeffs(a=a), ParamTriple(lam, sig, rho))
    assert rel_close(spectrum_closed(m, n).energies, spectrum_sum(m, n).energies, 1e-10)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-4.0, max_value=-0.1),
    b=st.floats(min_value=0.1, max_value=4.0),
    lam=st.floats(min_value=0.1, max_value=4.0),
    sig=st.floats(min_value=-3.0, max_value=3.0),
    rho=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=0, max_value=20),
)
def test_morse_closed_equals_sum(a, b, lam, sig, rho, n):
    m = model("morse", FamilyCoeffs(a=a, b=b), ParamTriple(lam, sig, rho))
    assert rel_close(spectrum_closed(m, n).energies, spectrum_sum(m, n).energies, 1e-10)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=3.0),
    b=st.floats(min_value=-1.0, max_value=1.0),
    cex=st.floats(min_value=0.1, max_value=3.0),
    lam=st.floats(min_value=0.1, max_value=4.0),
    sig=st.floats(min_value=-2.0, max_value=2.0),
    rho=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=0, max_value=20),
    hyp=st.booleans(),
)
def test_pt_closed_equals_sum(a, b, cex, lam, sig, rho, n, hyp):
    # choose c so that the discriminant has the required sign
    if hyp:
        c = (b * b - 4.0 * cex) / (4.0 * a)
        fam = "pt_hyp"
    else:
        c = (b * b + 4.0 * cex) / (4.0 * a)
        fam = "pt_trig"
    m = model(fam, FamilyCoeffs(a=a, b=b, c=c), ParamTriple(lam, sig, rho))
    assert rel_close(spectrum_closed(m, n).energies, spectrum_sum(m, n).energies, 1e-10)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=3.0),
    lam=st.floats(min_value=0.2, max_value=3.0),
    rho=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=0, max_value=15),
    hyp=st.booleans(),
)
def test_pt_reduced_matches_sum_on_its_slice(a, lam, rho, n, hyp):
    """The compact sigma0 = b = 0 expressions assume c = +-1/a."""
    fam = "pt_hyp" if hyp else "pt_trig"
    c = -1.0 / a if hyp else 1.0 / a
    m = model(fam, FamilyCoeffs(a=a, b=0.0, c=c), ParamTriple(lam, 0.0, rho))
    reduced = pt_reduced_spectrum(fam, a, lam, rho, n).energies
    assert rel_close(reduced, spectrum_sum(m, n).energies, 1e-10)


def test_ho_even_step_remainders_repeat():
    """R depends on rho through an alternating pair: R_{k+2} = R_k."""
    m = model("ho", FamilyCoeffs(a=1.5), ParamTriple(0.7, 0.3, 0.4))
    chain = m.param_chain(6)
    rs = [m.remainder_R(p) for p in chain]
    assert rs[0] == pytest.approx(rs[2], abs=1e-12)
    assert rs[1] == pytest.approx(rs[3], abs=1e-12)


# --------------------------------------------------------------------------
# reduced single-exponential well


def test_morse_reduced_spectrum_values_and_bound_count():
    table = morse_reduced_spectrum(-1.0, 2.5, 4)
    assert table.energies == pytest.approx([0.0, 4.0, 6.0, 6.0, 4.0], abs=1e-12)
    # levels increase only while n < sigma0/|a| = 2.5
    assert table.flags["bound"] == [True, True, True, False, False]
    assert sum(table.flags["bound"]) == math.ceil(2.5)


def test_morse_reduced_spectrum_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        morse_reduced_spectrum(1.0, 2.5, 3)
    with pytest.raises(ConfigError):
        morse_reduced_spectrum(-1.0, -2.5, 3)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=-0.2),
    sig=st.floats(min_value=0.3, max_value=5.0),
)
def test_morse_reduced_orientation_invariance(a, sig):
    """sigma0^2 - (sigma0 + a n)^2 is invariant under (sigma0, a) -> (-sigma0, -a)."""
    t1 = morse_reduced_spectrum(a, sig, 6).energies
    t2 = [sig * sig - (-sig - a * n) ** 2 for n in range(7)]
    assert t1 == pytest.approx(t2, abs=1e-10)


# --------------------------------------------------------------------------
# degenerate-quadratic (radial) family


def _coulomb(z, l, b):
    return FamilyModel.coulomb(a=1.0, b=b, l=l, ze2=z, profile=PROFILE, mumap=MUMAP)


def test_coulomb_sum_equals_closed_dyadic():
    """With dyadic parameters the two engines agree bit-for-bit."""
    cp = _coulomb(z=1.0, l=0, b=0.5)
    table = coulomb_spectrum_sum(cp, 8)
    for n, e in table.levels:
        assert e == coulomb_closed_level(cp, 2 * n)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(min_value=0.2, max_value=4.0),
    l=st.integers(min_value=0, max_value=4),
    b=st.floats(min_value=0.05, max_value=2.0),
    n=st.integers(min_value=0, max_value=12),
)
def test_coulomb_sum_equals_closed_property(z, l, b, n):
    cp = _coulomb(z=z, l=l, b=b)
    e_sum = coulomb_spectrum_sum(cp, 2 * n).energies[-1]
    e_closed = coulomb_closed_level(cp, 2 * n)
    assert abs(e_sum - e_closed) <= 1e-12 * max(1.0, abs(e_closed))


def test_coulomb_sum_rejects_odd_chain_length():
    with pytest.raises(ConfigError):
        coulomb_spectrum_sum(_coulomb(z=1.0, l=0, b=1.0), 3)


def test_coulomb_operations_take_an_alternating_coulomb_model():
    ho = model("ho", FamilyCoeffs(a=1.0), ParamTriple(1.0, 0.0, 0.0))
    shift = FamilyModel.coulomb(
        a=1.0, b=0.5, l=0, ze2=1.0, profile=PROFILE, mumap=MUMAP, branch="shift"
    )
    for m in (ho, shift):
        with pytest.raises(ConfigError):
            coulomb_spectrum_sum(m, 4)
        with pytest.raises(ConfigError):
            coulomb_closed_level(m, 4)


def test_coulomb_params_validation():
    with pytest.raises(Exception):
        _coulomb(z=1.0, l=-1, b=1.0)
    with pytest.raises(Exception):
        _coulomb(z=1.0, l=0, b=0.0)


def test_coulomb_b_enters_levels():
    """The family coefficient b couples into every level value."""
    e1 = coulomb_closed_level(_coulomb(z=1.0, l=0, b=0.5), 4)
    e2 = coulomb_closed_level(_coulomb(z=1.0, l=0, b=1.0), 4)
    assert e1 != e2


def test_coulomb_exact_level_reference_value():
    # n_r = 0, l = 0, Z e^2 = 1: E = -1
    e, _ = coulomb_spectrum_nr(0, 0, mode="exact", z=1.0)
    assert e == pytest.approx(-1.0, abs=1e-14)


def test_coulomb_asymptotic_vanishes_at_nr0():
    for l in range(5):
        e, _ = coulomb_spectrum_nr(l, 0, mode="asymptotic", z=1.3)
        assert e == 0.0


def test_coulomb_asymptotic_approaches_exact():
    def reldiff(nr, l):
        e1, _ = coulomb_spectrum_nr(l, nr, mode="exact", z=1.0)
        e2, _ = coulomb_spectrum_nr(l, nr, mode="asymptotic", z=1.0)
        return abs(e1 - e2) / abs(e1)

    assert reldiff(40, 40) < reldiff(5, 5)


def test_coulomb_bound_flag_as_printed_is_never_true():
    """The printed boundedness inequality compares F >= l+1 against l+1."""
    for l in range(3):
        for nr in range(4):
            _, flag = coulomb_spectrum_nr(l, nr, z=2.0)
            assert flag is False


def test_coulomb_quantum_map():
    assert coulomb_quantum_map(1, 0) == (2, 0, 1)
    assert coulomb_quantum_map(3, 1) == (6, 1, 3)
    with pytest.raises(ConfigError):
        coulomb_quantum_map(1, 1)
    with pytest.raises(ConfigError):
        coulomb_quantum_map(1, -1)


def test_coulomb_quantum_map_consistent_with_closed_level():
    """For l = 0 the closed level at chain length N = 2n sits at radial
    index n_r = n - 1."""
    cp = _coulomb(z=1.0, l=0, b=0.5)
    n = 3
    n_cap, n_r, s = coulomb_quantum_map(n, 0)
    assert n_cap == 6 and s == 1
    e = coulomb_closed_level(cp, n_cap)
    nr_used = math.floor((n_cap - 1) / 2)
    assert nr_used == n - 1
    expected = (-cp.coeffs.b / 1.0) * (1.0 + nr_used) * (1.0 + cp.coeffs.b * 1.0 * nr_used)
    assert e == pytest.approx(expected, abs=1e-14)
