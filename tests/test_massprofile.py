"""Mass-profile registry and the deformation coordinate mu."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sip_effmass import ConfigError, DomainError, MuMap, NumericalError, registry_get

ANALYTIC_PROFILES = [
    ("constant", {"m0": 0.5}),
    ("constant", {"m0": 2.0}),
    ("asinh_mu", {"m0": 0.5, "alpha": 0.1}),
    ("asinh_mu", {"m0": 1.5, "alpha": 0.7}),
    ("arctan_mu", {"m0": 0.5, "alpha": 0.3}),
    ("exp_mass", {"m0": 1.0, "beta": 0.4}),
]


@pytest.fixture(scope="module", params=ANALYTIC_PROFILES, ids=lambda p: f"{p[0]}")
def profile_and_map(request):
    name, params = request.param
    profile = registry_get(name, **params)
    return profile, MuMap(profile)


def test_registry_names_build():
    for name, params in ANALYTIC_PROFILES:
        profile = registry_get(name, **params)
        assert profile.name == name


def test_registry_unknown_name():
    with pytest.raises(ConfigError):
        registry_get("nope", m0=1.0)


def test_registry_rejects_nonpositive_parameters():
    with pytest.raises(ConfigError):
        registry_get("constant", m0=0.0)
    with pytest.raises(ConfigError):
        registry_get("exp_mass", m0=1.0, beta=-1.0)
    with pytest.raises(ConfigError):
        registry_get("asinh_mu", m0=1.0)  # missing alpha


@pytest.mark.parametrize("name,params,dead", [
    ("constant", {}, "alpha"),
    ("exp_mass", {"beta": 1.0}, "alpha"),
    ("asinh_mu", {"alpha": 0.1}, "beta"),
    ("arctan_mu", {"alpha": 0.1}, "beta"),
    # the key is rejected before the (missing) file is read
    ("tabulated", {"path": "no-such-table.csv"}, "m0"),
])
def test_registry_rejects_keys_the_builder_does_not_take(name, params, dead):
    with pytest.raises(ConfigError, match=f"^profile '{name}' does not take {dead}$"):
        registry_get(name, **params, **{dead: 1.0})


def test_registry_names_a_missing_key_and_defaults_m0():
    with pytest.raises(ConfigError, match="alpha"):
        registry_get("arctan_mu", m0=0.5)
    assert registry_get("constant").u(0.0) == 1.0


@pytest.mark.parametrize("name,params", [
    ("constant", {"m0": math.inf}),
    ("exp_mass", {"beta": math.inf}),
    ("asinh_mu", {"alpha": math.inf}),
    ("arctan_mu", {"alpha": math.nan}),
])
def test_registry_rejects_non_finite_parameters(name, params):
    with pytest.raises(ConfigError, match="must be positive and finite"):
        registry_get(name, **params)


def test_u_positive_and_derivatives_consistent(profile_and_map):
    """du and d2u must be the derivatives of u (central-difference check)."""
    profile, _ = profile_and_map
    x = np.linspace(-5.0, 5.0, 41)
    h = 1e-5
    u = np.asarray(profile.u(x), dtype=float)
    assert np.all(u > 0)
    du_fd = (np.asarray(profile.u(x + h)) - np.asarray(profile.u(x - h))) / (2 * h)
    d2u_fd = (
        np.asarray(profile.u(x + h)) - 2 * u + np.asarray(profile.u(x - h))
    ) / h**2
    scale = max(1.0, float(np.max(np.abs(u))))
    assert np.max(np.abs(np.asarray(profile.du(x)) - du_fd)) < 1e-7 * scale
    assert np.max(np.abs(np.asarray(profile.d2u(x)) - d2u_fd)) < 1e-4 * scale


def test_mu_closed_vs_quadrature(profile_and_map):
    profile, mumap = profile_and_map
    ref = mumap.x_ref if math.isfinite(mumap.x_ref) else None
    xs = np.linspace(-6.0, 6.0, 25)
    mu_q = mumap.mu_array(xs)
    mu_c = np.asarray(profile.mu_closed(xs), dtype=float)
    if ref is not None:
        mu_c = mu_c - float(profile.mu_closed(ref))
    assert np.max(np.abs(mu_q - mu_c)) < 1e-10


def test_mu_monotone(profile_and_map):
    _, mumap = profile_and_map
    xs = np.linspace(-8.0, 8.0, 33)
    mu = mumap.mu_array(xs)
    assert np.all(np.diff(mu) > 0)


def test_mu_scalar_matches_array(profile_and_map):
    _, mumap = profile_and_map
    xs = np.array([-2.0, 0.5, 3.0])
    mu = mumap.mu_array(xs)
    for x, m in zip(xs, mu):
        assert float(mumap.mu_array(float(x))) == pytest.approx(float(m), abs=1e-12)


def test_mu_inverse_round_trip(profile_and_map):
    _, mumap = profile_and_map
    for x in (-4.0, -0.3, 0.0, 1.7, 5.0):
        m = float(mumap.mu_array(x))
        assert abs(mumap.mu_inverse(m) - x) < 1e-9 * max(1.0, abs(x))


def test_mu_inverse_out_of_range():
    profile = registry_get("arctan_mu", m0=0.5, alpha=1.0)
    mumap = MuMap(profile)
    # the arctan coordinate is bounded by +-pi/2
    with pytest.raises(DomainError):
        mumap.mu_inverse(10.0)


def test_non_finite_mu_raises_numerical_error():
    with pytest.raises(NumericalError):
        MuMap(registry_get("exp_mass", m0=0.5, beta=1.0)).mu_array(1000.0)
    with pytest.raises(NumericalError):
        MuMap(registry_get("constant", m0=0.5), x_ref=-math.inf)


def test_exp_mass_anchor_at_left_asymptote():
    profile = registry_get("exp_mass", m0=0.5, beta=1.0)
    mumap = MuMap(profile)
    # mu = e^x maps the line onto (0, inf)
    assert float(mumap.mu_array(0.0)) == pytest.approx(1.0, abs=1e-10)
    assert float(mumap.mu_array(-20.0)) == pytest.approx(math.exp(-20.0), rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=-8.0, max_value=8.0))
def test_constant_mu_is_linear(x):
    profile = registry_get("constant", m0=0.5)
    mumap = MuMap(profile)
    assert float(mumap.mu_array(x)) == pytest.approx(x, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(min_value=-10.0, max_value=10.0),
    alpha=st.floats(min_value=0.05, max_value=2.0),
)
def test_asinh_round_trip_property(x, alpha):
    profile = registry_get("asinh_mu", m0=0.5, alpha=alpha)
    mumap = MuMap(profile)
    m = float(mumap.mu_array(x))
    assert abs(mumap.mu_inverse(m) - x) < 1e-9 * max(1.0, abs(x))


def test_tabulated_profile(tmp_path):
    xs = np.linspace(-3.0, 3.0, 61)
    ms = 0.5 * (1.0 + 0.3 * np.tanh(xs))
    path = tmp_path / "mass.csv"
    lines = ["# sampled mass profile", "x,m"]
    lines += [f"{x:.17g},{m:.17g}" for x, m in zip(xs, ms)]
    path.write_text("\n".join(lines) + "\n")

    profile = registry_get("tabulated", path=str(path))
    assert profile.x_lo == -3.0 and profile.x_hi == 3.0
    u = np.asarray(profile.u(xs))
    assert np.allclose(u, 1.0 / np.sqrt(2.0 * ms), atol=1e-12)

    mumap = MuMap(profile)
    m = float(mumap.mu_array(2.0))
    assert abs(mumap.mu_inverse(m) - 2.0) < 1e-8


def test_tabulated_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b\n0,1\n1,1\n2,1\n3,1\n")
    with pytest.raises(ConfigError):
        registry_get("tabulated", path=str(bad_header))

    bad_mass = tmp_path / "bad2.csv"
    bad_mass.write_text("x,m\n0,1\n1,-1\n2,1\n3,1\n")
    with pytest.raises(ConfigError):
        registry_get("tabulated", path=str(bad_mass))

    unsorted = tmp_path / "bad3.csv"
    unsorted.write_text("x,m\n0,1\n2,1\n1,1\n3,1\n")
    with pytest.raises(ConfigError):
        registry_get("tabulated", path=str(unsorted))

    for value in ("nan", "inf"):
        non_finite = tmp_path / f"bad_{value}.csv"
        non_finite.write_text(f"x,m\n0,1\n1,{value}\n2,1\n3,1\n")
        with pytest.raises(ConfigError):
            registry_get("tabulated", path=str(non_finite))

    for data in (
        [[0.0, 1.0], [1.0, 1.1], [2.0, 1.2]],  # a file needs 4 rows too
        [0.0, 1.0, 2.0, 3.0],
        [[0.0, 1.0, 5.0], [1.0, 1.1, 5.0], [2.0, 1.2, 5.0], [3.0, 1.3, 5.0]],
        [[0.0, 1.0], [1.0, float("nan")], [2.0, 1.2], [3.0, 1.3]],
        [[0.0, 1.0], [1.0], [2.0, 1.2], [3.0, 1.3]],
    ):
        with pytest.raises(ConfigError):
            registry_get("tabulated", data=data)


def _parity_tables():
    """Seeded (x, m) tables, then one whose end slopes take both limiter branches."""
    rng = np.random.default_rng(20260)
    for k in range(40):
        n = int(rng.integers(4, 40))
        if k % 2:
            x = np.linspace(-5.0, 5.0, n)
        else:
            x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
        m = rng.uniform(0.2, 2.0, n)  # secants change sign
        if k % 4 == 0:
            m[1:4] = m[1]  # a flat run
        yield x, m
    # U = 1/sqrt(2m) has secants 0.1, 0.9, ... (left: three-point slope < 0)
    # and ..., -1.0, 0.2 (right: it overshoots 3 m0)
    u = np.array([1.0, 1.1, 2.0, 2.2, 1.2, 1.4])
    yield np.arange(6.0), 1.0 / (2.0 * u * u)


def test_tabulated_pchip_equals_scipy():
    """U, U' and U'' of the tabulated profile are scipy's PCHIP to the last bit."""
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(7)
    for x, m in _parity_tables():
        profile = registry_get("tabulated", data=np.c_[x, m])
        pchip = PchipInterpolator(x, 1.0 / np.sqrt(2.0 * m), extrapolate=False)
        oracle = (pchip, pchip.derivative(1), pchip.derivative(2))
        z = np.concatenate([
            x, rng.uniform(x[0], x[-1], 500),
            [x[0] - 1.0, x[-1] + 0.5, -np.inf, np.inf, np.nan],
        ])
        for ours, ref in zip((profile.u, profile.du, profile.d2u), oracle):
            assert np.array_equal(ours(z), ref(z), equal_nan=True)
            for zi in (x[0], x[2], x[-1], x[-1] + 1.0, np.nan):
                got = ours(zi)
                assert isinstance(got, np.ndarray) and got.ndim == 0
                assert np.array_equal(got, ref(zi), equal_nan=True)
            assert np.isnan(ours(z[-5:])).all()
    # the last table reaches both end-slope limits: 0 and 3 m0
    u = 1.0 / np.sqrt(2.0 * m)
    assert profile.du(x[0]) == 0.0
    assert profile.du(x[-1]) == 3.0 * (u[-1] - u[-2])


def test_profiles_load_no_scipy():
    script = (
        "import sys\n"
        "import sip_effmass as s\n"
        "data = [[0.0, 1.0], [1.0, 1.2], [2.0, 0.9], [3.0, 1.1]]\n"
        "params = {'constant': {'m0': 0.5}, 'exp_mass': {'m0': 0.5, 'beta': 0.3},\n"
        "          'asinh_mu': {'m0': 0.5, 'alpha': 0.2}, 'arctan_mu': {'m0': 0.5, 'alpha': 0.2},\n"
        "          'tabulated': {'data': data}}\n"
        "for name in s.REGISTRY_NAMES:\n"
        "    p = s.registry_get(name, **params[name])\n"
        "    s.MuMap(p).mu_array([0.5, 1.5])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout.strip() == "[]", proc.stderr


def test_domain_check():
    profile = registry_get("tabulated", data=[[0.0, 1.0], [1.0, 1.1], [2.0, 1.2], [3.0, 1.3]])
    mumap = MuMap(profile, x_ref=0.0)
    with pytest.raises(DomainError):
        mumap.mu_array(5.0)


# tanh ripple on 61 knots (step 0.1), and a coarse 11-knot table (step 2)
# on which 7-point Gauss over the raw knots misses mu by 3e-8
_TANH_X = np.linspace(-3.0, 3.0, 61)
_COARSE_X = np.arange(0.0, 21.0, 2.0)
ORACLE_PROFILES = [
    ("constant", {"m0": 0.5}, 1.5),
    ("exp_mass", {"m0": 1.0, "beta": 0.4}, 1.5),
    ("asinh_mu", {"m0": 0.5, "alpha": 0.1}, 1.5),
    ("arctan_mu", {"m0": 0.5, "alpha": 0.3}, 1.5),
    ("tabulated", {"data": np.c_[_TANH_X, 0.5 * (1.0 + 0.3 * np.tanh(_TANH_X))]}, 0.7),
    ("tabulated", {"data": np.c_[_COARSE_X, 1.0 + 0.5 * np.sin(_COARSE_X)]}, 7.3),
]


def _oracle_mu(profile, x_ref, x):
    """mu(x) - mu(x_ref) by adaptive quadrature, split at the table knots."""
    if x == x_ref:
        return 0.0
    lo, hi = min(x_ref, x), max(x_ref, x)
    knots = profile.knots
    points = None
    if knots is not None:
        points = list(knots[(knots > lo) & (knots < hi)]) or None
    with np.errstate(over="ignore"):  # U overflows deep in the exp_mass tail; 1/inf = 0
        val, _ = quad(
            lambda z: 1.0 / float(profile.u(z)), x_ref, x,
            epsabs=1e-15, epsrel=1e-13, limit=1000, points=points,
        )
    return val


@pytest.mark.parametrize(
    "name,params,finite_ref", ORACLE_PROFILES,
    ids=["constant", "exp_mass", "asinh_mu", "arctan_mu", "tabulated", "tabulated_coarse"],
)
def test_mu_array_matches_independent_quadrature(name, params, finite_ref):
    profile = registry_get(name, **params)
    if profile.knots is not None:
        lo, hi = profile.x_lo, profile.x_hi
        xs = np.concatenate([[lo, hi], np.linspace(lo, hi, 23)[1:-1] + 0.013])
    elif name == "exp_mass":
        xs = np.array([-30.0, -12.5, -1.0, 0.0, 0.3, 4.0, 18.0, 45.0, 60.0])
    else:
        xs = np.array([-120.0, -55.0, -9.5, -1.0, 0.0, 0.3, 4.0, 41.0, 77.0, 120.0])
    for x_ref in (None, finite_ref):
        mumap = MuMap(profile, x_ref=x_ref)
        ref = profile.default_ref if x_ref is None else x_ref
        mu = mumap.mu_array(xs)
        for x, m in zip(xs, mu):
            expect = _oracle_mu(profile, ref, float(x))
            assert abs(m - expect) <= 1e-12 * max(1.0, abs(expect)), (name, x_ref, x)
            assert abs(mumap.mu_inverse(m) - x) <= 1e-9 * max(1.0, abs(x)), (name, x_ref, x)
