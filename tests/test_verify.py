"""Finite-difference eigensolver and algebraic-vs-numerical comparison."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import sip_effmass.verify as verify_module
from sip_effmass.verify import MAX_LEVELS
from sip_effmass import (
    ConfigError,
    FamilyCoeffs,
    FamilyModel,
    GridSpec,
    MuMap,
    NumericalError,
    ParamTriple,
    compare,
    discretize,
    discretize_model,
    lowest_eigenvalues,
    morse_reduced_compare,
    psi0_generic,
    rayleigh_quotient,
    registry_get,
    spectrum_sum,
)

PROFILE = registry_get("constant", m0=0.5)
MUMAP = MuMap(PROFILE)


def test_gridspec_validation():
    with pytest.raises(ConfigError):
        GridSpec(1.0, 0.0, 100)
    with pytest.raises(ConfigError):
        GridSpec(0.0, 1.0, 10)
    g = GridSpec(0.0, 1.0, 101)
    assert g.h == pytest.approx(0.01)
    assert g.nodes().size == 101
    assert g.interior().size == 99
    assert g.halved().n_points == 64 or g.halved().n_points == 50  # floor at 64


def test_particle_in_a_box():
    """V = 0, U = 1 on [0, 1]: eigenvalues (n pi)^2."""
    grid = GridSpec(0.0, 1.0, 4001)
    diag, off = discretize(PROFILE, lambda x: np.zeros_like(x), grid)
    res = lowest_eigenvalues(diag, off, 4, grid=grid)
    exact = [(n * math.pi) ** 2 for n in range(1, 5)]
    for e, ex in zip(res.eigenvalues, exact):
        assert abs(e - ex) < 5e-4 * ex
    assert np.all(res.residuals < 1e-8)


def test_oscillator_eigenvalues():
    """V = x^2, U = 1: eigenvalues 2n + 1."""
    def solve(n_points):
        grid = GridSpec(-12.0, 12.0, n_points)
        diag, off = discretize(PROFILE, lambda x: x * x, grid)
        return lowest_eigenvalues(diag, off, 6, grid=grid).eigenvalues

    fine = solve(4001)
    exact = np.array([2 * n + 1.0 for n in range(6)])
    assert np.max(np.abs(fine - exact)) < 2e-4
    # Richardson extrapolation of the O(h^2) stencil removes the leading error
    extrapolated = (4.0 * fine - solve(2001)) / 3.0
    assert np.max(np.abs(extrapolated - exact)) < 1e-8


def test_second_order_convergence():
    """Halving h divides the eigenvalue error by about four."""
    exact = 1.0

    def err(n):
        grid = GridSpec(-12.0, 12.0, n)
        diag, off = discretize(PROFILE, lambda x: x * x, grid)
        return abs(lowest_eigenvalues(diag, off, 1, grid=grid).eigenvalues[0] - exact)

    ratio = err(1001) / err(2001)
    assert 3.5 < ratio < 4.5


def _random_tridiagonal():
    rng = np.random.default_rng(7)
    n = 300
    return rng.uniform(1.0, 5.0, n), rng.uniform(-1.0, 1.0, n - 1)


def _double_well():
    """V = 4 (x^2 - 6)^2: its two lowest pairs are split by about 6e-12 and 7e-12."""
    return discretize(PROFILE, lambda x: 4.0 * (x * x - 6.0) ** 2, GridSpec(-5.0, 5.0, 302))


@pytest.mark.parametrize(
    "matrix", [_random_tridiagonal, _double_well], ids=["random", "double_well"]
)
def test_eigensolver_matches_dense_reference(matrix):
    """Cross-check the bisection result against numpy's dense solver."""
    diag, off = matrix()
    n = diag.size
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = diag
    dense[np.arange(n - 1), np.arange(1, n)] = off
    dense[np.arange(1, n), np.arange(n - 1)] = off
    ref = np.sort(np.linalg.eigvalsh(dense))[:5]
    res = lowest_eigenvalues(diag, off, 5)
    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10


def test_lowest_eigenvalues_argument_checks():
    diag = np.ones(100)
    off = np.zeros(99)
    with pytest.raises(ConfigError):
        lowest_eigenvalues(diag, off, 0)
    with pytest.raises(ConfigError):
        lowest_eigenvalues(diag, off, 13)
    with pytest.raises(ConfigError):
        lowest_eigenvalues(np.ones(5), np.zeros(4), 5)


def test_lowest_eigenvalues_without_a_grid():
    # a bare matrix of any size: the 20-point second difference, 2 - 2 cos(j pi / 21)
    res = lowest_eigenvalues(np.full(20, 2.0), np.full(19, -1.0), 3)
    expect = 2.0 - 2.0 * np.cos(np.arange(1, 4) * math.pi / 21.0)
    assert np.max(np.abs(res.eigenvalues - expect)) <= 1e-12
    assert res.grid is None


def test_lapack_failure_is_numerical_error(monkeypatch):
    def fail(*args, **kwargs):
        raise LinAlgError("stebz did not converge")

    monkeypatch.setattr(verify_module, "eigh_tridiagonal", fail)
    with pytest.raises(NumericalError, match="stebz did not converge"):
        lowest_eigenvalues(np.ones(100), np.zeros(99), 1)


@pytest.mark.parametrize("entry", ["diag_nan", "off_inf"])
def test_non_finite_matrix_is_numerical_error(entry):
    diag, off = np.ones(100), np.zeros(99)
    if entry == "diag_nan":
        diag[50] = np.nan
    else:
        off[50] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        lowest_eigenvalues(diag, off, 1)


@pytest.mark.parametrize(
    "profile, potential, grid",
    [
        (PROFILE, lambda x: 1.0 / x, GridSpec(-1.0, 1.0, 201)),  # x = 0 is a node
        # exp_mass U^2 overflows near x = -1600 while V stays finite
        (registry_get("exp_mass", m0=0.5, beta=1.0), np.zeros_like, GridSpec(-1600.0, 0.0, 2001)),
    ],
    ids=["pole", "mass_overflow"],
)
def test_discretize_rejects_pole_on_interior(profile, potential, grid):
    with np.errstate(divide="ignore", over="ignore"), pytest.raises(NumericalError):
        discretize(profile, potential, grid)


def test_singular_endpoint_is_allowed():
    """A potential singular exactly at a boundary node must discretize."""
    grid = GridSpec(0.0, 50.0, 2001)
    diag, off = discretize(PROFILE, lambda r: -1.0 / r, grid)
    assert np.all(np.isfinite(diag))


def test_rayleigh_quotient_bounds_ground_energy():
    grid = GridSpec(-12.0, 12.0, 2001)
    diag, off = discretize(PROFILE, lambda x: x * x, grid)
    v = np.exp(-0.5 * grid.interior() ** 2)
    rq = rayleigh_quotient(diag, off, v)
    e0 = lowest_eigenvalues(diag, off, 1, grid=grid).eigenvalues[0]
    assert rq >= e0 - 1e-12
    assert abs(rq - 1.0) < 1e-4


def test_rayleigh_quotient_of_zero_mode():
    """The variational energy of the sampled zero mode sits near 0."""
    model = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=PROFILE, mumap=MUMAP
    )
    grid = GridSpec(-15.0, 5.0, 4001)
    table = psi0_generic(model, grid.interior())
    diag, off = discretize_model(model, grid)
    rq = rayleigh_quotient(diag, off, table.psi)
    assert abs(rq) < 5e-4


def test_morse_reduced_compare_gaps():
    grid = GridSpec(-15.0, 5.0, 4001)
    report = morse_reduced_compare(-1.0, 2.5, PROFILE, MUMAP, grid, 3)
    assert report["gaps"][0] == 0.0
    assert abs(report["gaps"][1] - 4.0) < 5e-3
    assert abs(report["gaps"][2] - 6.0) < 5e-3
    assert abs(report["ground_energy"]) < 5e-3
    assert report["flags"][:3] == ["match", "match", "match"]
    assert report["bound_flags"][:3] == [True, True, True]


def test_compare_flags_degenerate_tables_as_diagnostic():
    model = FamilyModel(
        family="pt_trig",
        coeffs=FamilyCoeffs(a=1.0, b=0.0, c=1.0),
        params0=ParamTriple(2.0, 0.0, 0.0),
        profile=PROFILE,
        mumap=MUMAP,
    )
    grid = GridSpec(1e-9, math.pi / 2 - 1e-9, 2001)
    report = compare(model, grid, 3)
    assert report["diagnostic_only"] is True
    assert all(f == "diagnostic" for f in report["flags"])


def test_compare_flags_mismatched_levels():
    # the alternating table 0, 3, 4, 7 is monotone and not degenerate, but the
    # half-line oscillator's gaps are 0, 4, 8, 12: the table is formal off its slice
    model = FamilyModel(
        family="ho",
        coeffs=FamilyCoeffs(a=1.0),
        params0=ParamTriple(1.0, 0.0, -0.25),
        profile=PROFILE,
        mumap=MUMAP,
        branch="alternating",
    )
    report = compare(model, GridSpec(0.0, 8.0, 4001), 3)
    assert report["algebraic_levels"] == [0.0, 3.0, 4.0, 7.0]
    assert report["flags"] == ["match", "mismatch", "mismatch", "mismatch"]
    assert report["diagnostic_only"] is False


def test_compare_caps_its_level_count():
    # levels 0..n_levels must fit in the MAX_LEVELS one solve returns, or
    # the report would list more algebraic levels than gaps and flags
    model = FamilyModel(
        family="ho",
        coeffs=FamilyCoeffs(a=1.0),
        params0=ParamTriple(1.0, 0.0, 0.0),
        profile=PROFILE,
        mumap=MUMAP,
    )
    grid = GridSpec(-8.0, 8.0, 2001)
    with pytest.raises(ConfigError, match=f"must be <= {MAX_LEVELS - 1}, got 20"):
        compare(model, grid, 20)
    report = compare(model, grid, MAX_LEVELS - 1)
    assert len(report["algebraic_levels"]) == len(report["gaps"]) == len(report["flags"])


def test_refinement_guard_triggers_on_coarse_grids():
    model = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=PROFILE, mumap=MUMAP
    )
    grid = GridSpec(-15.0, 5.0, 130)
    with pytest.raises(NumericalError):
        morse_reduced_compare(-1.0, 2.5, PROFILE, MUMAP, grid, 3, tol=1e-8)


def test_morse_reduced_compare_variable_mass():
    profile = registry_get("asinh_mu", m0=0.5, alpha=0.1)
    mumap = MuMap(profile)
    grid = GridSpec(-15.0, 5.0, 4001)
    report = morse_reduced_compare(-1.0, 2.5, profile, mumap, grid, 3)
    assert abs(report["gaps"][1] - 4.0) < 5e-3
    assert abs(report["gaps"][2] - 6.0) < 5e-3


@pytest.mark.parametrize("profile_name", ["constant", "asinh_mu"])
def test_shift_branch_levels_match_eigensolver(profile_name):
    """The eigensolver finds the shift-branch partial sums (6, 10), not
    the alternating ones (-2, -10), as the gaps of the rho0 = 0 linear
    family with a = -1, b = 1, p0 = (1, -2.5, 0)."""
    shape = {"constant": {}, "asinh_mu": {"alpha": 0.1}}[profile_name]
    profile = registry_get(profile_name, m0=0.5, **shape)
    model = FamilyModel(
        family="morse",
        coeffs=FamilyCoeffs(a=-1.0, b=1.0),
        params0=ParamTriple(1.0, -2.5, 0.0),
        profile=profile,
        mumap=MuMap(profile),
        branch="shift",
    )
    grid = GridSpec(-15.0, 5.0, 2001)
    diag, off = discretize_model(model, grid)
    gaps = lowest_eigenvalues(diag, off, 3, grid=grid).gaps
    levels = spectrum_sum(model, 2).energies
    assert levels == pytest.approx([0.0, 6.0, 10.0], abs=1e-12)
    for gap, level in zip(gaps[1:], levels[1:]):
        assert abs(gap - level) <= 1e-3 * level, (profile_name, gaps)
