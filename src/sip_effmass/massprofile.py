"""Position-dependent mass profiles and the deformation coordinate.

A profile is represented through U(x) with U^2(x) = 1/(2 m(x)); the
kinetic operator used everywhere in this package is the manifestly
Hermitian -d/dx U^2(x) d/dx.  The deformation coordinate

    mu(x) = int dz / U(z)

is strictly increasing (U > 0) and carries every solvable potential
shape in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DomainError, NumericalError

__all__ = ["MassProfile", "MuMap", "registry_get", "REGISTRY_NAMES"]

REGISTRY_NAMES = ("constant", "exp_mass", "asinh_mu", "arctan_mu", "tabulated")


@dataclass(frozen=True)
class MassProfile:
    """U(x) and its first two derivatives on an interval.

    ``mu_closed``, when present, is the closed-form deformation
    coordinate anchored at ``default_ref`` (which may be -inf for
    profiles whose natural anchor is the left asymptote), and
    ``mu_closed_inverse`` is its inverse.  ``mu_limits`` are the
    limits of that closed form at the domain edges.  A profile without
    a closed form gives ``knots`` instead: sorted points spanning the
    finite domain, between which U is smooth.
    """

    name: str
    params: dict
    x_lo: float
    x_hi: float
    u: Callable[[NDArray], NDArray]
    du: Callable[[NDArray], NDArray]
    d2u: Callable[[NDArray], NDArray]
    mu_closed: Optional[Callable[[NDArray], NDArray]] = None
    mu_closed_inverse: Optional[Callable[[NDArray], NDArray]] = None
    default_ref: float = 0.0
    mu_limits: Optional[tuple] = None
    knots: Optional[NDArray] = None

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.x_lo) and np.all(x <= self.x_hi))


def _require_positive(params: dict, key: str):
    val = params.get(key)
    if val is None:
        raise ConfigError(f"missing parameter '{key}'")
    if not (val > 0):
        raise ConfigError(f"parameter '{key}' must be positive, got {val!r}")
    return float(val)


def _constant(params: dict) -> MassProfile:
    m0 = _require_positive(params, "m0")
    s = math.sqrt(2.0 * m0)
    uval = 1.0 / s

    def u(x):
        return np.full_like(np.asarray(x, dtype=float), uval)

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return MassProfile(
        name="constant",
        params={"m0": m0},
        x_lo=-math.inf,
        x_hi=math.inf,
        u=u,
        du=zero,
        d2u=zero,
        mu_closed=lambda x: s * np.asarray(x, dtype=float),
        mu_closed_inverse=lambda m: np.asarray(m, dtype=float) / s,
        default_ref=0.0,
        mu_limits=(-math.inf, math.inf),
    )


def _exp_mass(params: dict) -> MassProfile:
    # m(x) = m0 exp(2 beta x); mu is anchored at the x -> -inf limit,
    # where it vanishes, and maps the real line onto (0, inf).
    m0 = _require_positive(params, "m0")
    beta = _require_positive(params, "beta")
    s = math.sqrt(2.0 * m0)

    def u(x):
        return np.exp(-beta * np.asarray(x, dtype=float)) / s

    def du(x):
        return -beta * np.exp(-beta * np.asarray(x, dtype=float)) / s

    def d2u(x):
        return beta * beta * np.exp(-beta * np.asarray(x, dtype=float)) / s

    return MassProfile(
        name="exp_mass",
        params={"m0": m0, "beta": beta},
        x_lo=-math.inf,
        x_hi=math.inf,
        u=u,
        du=du,
        d2u=d2u,
        mu_closed=lambda x: s * np.exp(beta * np.asarray(x, dtype=float)) / beta,
        mu_closed_inverse=lambda m: np.log(beta * np.asarray(m, dtype=float) / s) / beta,
        default_ref=-math.inf,
        mu_limits=(0.0, math.inf),
    )


def _asinh_mu(params: dict) -> MassProfile:
    # m(x) = m0 / (1 + (alpha x)^2): mu = sqrt(2 m0) asinh(alpha x)/alpha.
    m0 = _require_positive(params, "m0")
    alpha = _require_positive(params, "alpha")
    s = math.sqrt(2.0 * m0)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(1.0 + (alpha * x) ** 2) / s

    def du(x):
        x = np.asarray(x, dtype=float)
        return alpha * alpha * x / (s * np.sqrt(1.0 + (alpha * x) ** 2))

    def d2u(x):
        x = np.asarray(x, dtype=float)
        return alpha * alpha / (s * (1.0 + (alpha * x) ** 2) ** 1.5)

    return MassProfile(
        name="asinh_mu",
        params={"m0": m0, "alpha": alpha},
        x_lo=-math.inf,
        x_hi=math.inf,
        u=u,
        du=du,
        d2u=d2u,
        mu_closed=lambda x: s * np.arcsinh(alpha * np.asarray(x, dtype=float)) / alpha,
        mu_closed_inverse=lambda m: np.sinh(alpha * np.asarray(m, dtype=float) / s) / alpha,
        default_ref=0.0,
        mu_limits=(-math.inf, math.inf),
    )


def _arctan_mu(params: dict) -> MassProfile:
    # m(x) = m0 / (1 + (alpha x)^2)^2: mu = sqrt(2 m0) arctan(alpha x)/alpha,
    # a bounded coordinate range.
    m0 = _require_positive(params, "m0")
    alpha = _require_positive(params, "alpha")
    s = math.sqrt(2.0 * m0)

    def u(x):
        x = np.asarray(x, dtype=float)
        return (1.0 + (alpha * x) ** 2) / s

    def du(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * alpha * alpha * x / s

    def d2u(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 2.0 * alpha * alpha / s)

    half = s * (math.pi / 2.0) / alpha
    return MassProfile(
        name="arctan_mu",
        params={"m0": m0, "alpha": alpha},
        x_lo=-math.inf,
        x_hi=math.inf,
        u=u,
        du=du,
        d2u=d2u,
        mu_closed=lambda x: s * np.arctan(alpha * np.asarray(x, dtype=float)) / alpha,
        mu_closed_inverse=lambda m: np.tan(alpha * np.asarray(m, dtype=float) / s) / alpha,
        default_ref=0.0,
        mu_limits=(-half, half),
    )


def _parse_table(path: str) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = [c.strip().lower() for c in line.split(",")]
                if cols != ["x", "m"]:
                    raise ConfigError(f"tabulated profile header must be 'x,m', got {line!r}")
                header_seen = True
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ConfigError(f"malformed table row: {line!r}") from exc
    if not header_seen:
        raise ConfigError("tabulated profile file has no 'x,m' header")
    return rows


def _tabulated(params: dict) -> MassProfile:
    if "data" in params:
        rows = params["data"]
    elif "path" in params:
        rows = _parse_table(str(params["path"]))
    else:
        raise ConfigError("tabulated profile requires 'path' or 'data'")
    try:
        data = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tabulated profile data is not a numeric table: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise ConfigError(f"tabulated profile needs 4 or more rows (x, m), got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ConfigError("tabulated profile values must be finite")
    x, m = data[:, 0], data[:, 1]
    if np.any(np.diff(x) <= 0):
        raise ConfigError("tabulated profile x values must be strictly increasing")
    if np.any(m <= 0):
        raise ConfigError("tabulated profile mass values must be positive")

    # Monotone cubic interpolation of U itself keeps U positive and
    # avoids derivative overshoot near steep mass gradients.
    uvals = 1.0 / np.sqrt(2.0 * m)
    interp = PchipInterpolator(x, uvals, extrapolate=False)
    dinterp = interp.derivative()
    d2interp = interp.derivative(2)

    return MassProfile(
        name="tabulated",
        params={"x": x, "m": m},
        x_lo=float(x[0]),
        x_hi=float(x[-1]),
        u=lambda z: np.asarray(interp(np.asarray(z, dtype=float))),
        du=lambda z: np.asarray(dinterp(np.asarray(z, dtype=float))),
        d2u=lambda z: np.asarray(d2interp(np.asarray(z, dtype=float))),
        default_ref=float(x[0]),
        knots=x,
    )


_BUILDERS = {
    "constant": _constant,
    "exp_mass": _exp_mass,
    "asinh_mu": _asinh_mu,
    "arctan_mu": _arctan_mu,
    "tabulated": _tabulated,
}


def registry_get(name: str, **params) -> MassProfile:
    """Build a profile from the built-in registry.

    Args:
        name: one of ``constant``, ``exp_mass``, ``asinh_mu``,
            ``arctan_mu``, ``tabulated``.
        **params: profile parameters (``m0``, ``alpha``, ``beta``, or
            ``path``/``data`` for tabulated samples).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown profile '{name}'; available: {', '.join(REGISTRY_NAMES)}"
        ) from None
    return builder(params)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)

# Knot-grid halvings allowed before a tabulated mu is declared unresolved;
# 1/U is smooth between knots, so 7-point Gauss converges long before this.
_MAX_HALVINGS = 10


def _gauss_legendre(f, a: NDArray, b: NDArray) -> NDArray:
    """Integral of f over each [a_i, b_i] (7-point Gauss, vectorized)."""
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals @ _GL_WEIGHTS)


def _cumulative_gl(f, nodes: NDArray) -> NDArray:
    """Cumulative integral of f along sorted nodes (7-point Gauss per segment)."""
    out = np.empty(nodes.size)
    out[0] = 0.0
    out[1:] = np.cumsum(_gauss_legendre(f, nodes[:-1], nodes[1:]))
    return out


def _resolved_cumulative(inv_u, knots: NDArray) -> tuple[NDArray, NDArray]:
    """Nodes and cumulative integral of inv_u, halving the knot grid until resolved.

    Resolved means the cumulative values on a grid and on its halving
    agree to 1e-13 of the total; the finer pair is returned.
    """
    nodes = np.asarray(knots, dtype=float)
    cum = _cumulative_gl(inv_u, nodes)
    for _ in range(_MAX_HALVINGS):
        fine = np.empty(2 * nodes.size - 1)
        fine[::2] = nodes
        fine[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        cum_fine = _cumulative_gl(inv_u, fine)
        if not np.all(np.isfinite(cum_fine)):
            raise NumericalError("integral of 1/U over the knots is not finite")
        if np.max(np.abs(cum_fine[::2] - cum)) <= 1e-13 * cum_fine[-1]:
            return fine, cum_fine
        nodes, cum = fine, cum_fine
    raise NumericalError(
        f"integral of 1/U did not converge after {_MAX_HALVINGS} knot-grid halvings"
    )


class MuMap:
    """The deformation coordinate mu(x) with forward and inverse evaluation.

    Immutable after construction.  mu(x_ref) = 0.  For profiles anchored
    at -inf (exponential mass) ``x_ref`` defaults to that limit and mu
    maps onto (0, inf).  Profiles with ``mu_closed`` are evaluated and
    inverted in closed form; knot profiles (``tabulated``) by 7-point
    Gauss-Legendre on the resolved knot grid, inverted by bracketing on
    the cumulative values plus safeguarded Newton.
    """

    def __init__(self, profile: MassProfile, x_ref: Optional[float] = None):
        self.profile = profile
        self.x_ref = profile.default_ref if x_ref is None else float(x_ref)
        if not (profile.x_lo <= self.x_ref <= profile.x_hi):
            raise DomainError(f"x_ref={self.x_ref} outside profile domain")
        if profile.mu_closed is not None and profile.mu_closed_inverse is not None:
            self._forward, self._backward = profile.mu_closed, profile.mu_closed_inverse
            lo, hi = profile.mu_limits
        elif profile.knots is not None:
            self._nodes, self._cum = _resolved_cumulative(self._inv_u, profile.knots)
            self._forward, self._backward = self._forward_knots, self._inverse_knots
            lo, hi = 0.0, float(self._cum[-1])
        else:
            raise ConfigError(
                f"profile '{profile.name}' has neither a closed-form mu with its inverse nor knots"
            )
        with np.errstate(over="ignore"):
            self._shift = float(self._forward(np.atleast_1d(self.x_ref))[0])
        if not math.isfinite(self._shift):
            raise NumericalError(f"mu diverges at x_ref={self.x_ref}")
        self.mu_lo, self.mu_hi = lo - self._shift, hi - self._shift

    def _inv_u(self, z: NDArray) -> NDArray:
        return 1.0 / np.asarray(self.profile.u(z), dtype=float)

    def _forward_knots(self, x: NDArray) -> NDArray:
        """Unshifted mu on knot profiles: cumulative value at the left node plus one Gauss pass."""
        x = np.atleast_1d(x)
        j = np.clip(np.searchsorted(self._nodes, x, side="right") - 1, 0, self._nodes.size - 2)
        return self._cum[j] + _gauss_legendre(self._inv_u, self._nodes[j], x)

    # -- forward ---------------------------------------------------------

    def _check_domain(self, x):
        if np.any(np.asarray(x) < self.profile.x_lo) or np.any(np.asarray(x) > self.profile.x_hi):
            raise DomainError(f"x outside profile domain [{self.profile.x_lo}, {self.profile.x_hi}]")

    def mu(self, x: float) -> float:
        """Evaluate mu at a single point."""
        return float(self.mu_array(float(x)))

    def mu_array(self, xs) -> NDArray:
        """Evaluate mu on an array of points (a 0-d array for a scalar)."""
        xs = np.asarray(xs, dtype=float)
        self._check_domain(xs)
        with np.errstate(over="ignore"):
            out = np.asarray(self._forward(xs) - self._shift).reshape(xs.shape)
        if not np.all(np.isfinite(out)):
            raise NumericalError("mu is not finite on the requested points")
        return out

    # -- inverse ---------------------------------------------------------

    def mu_inverse(self, m: float) -> float:
        """Solve mu(x) = m: closed form, or bracketing plus safeguarded Newton on knots."""
        m = float(m)
        if not (self.mu_lo <= m <= self.mu_hi):
            raise DomainError(
                f"target {m} outside mu range ({self.mu_lo}, {self.mu_hi})"
            )
        with np.errstate(divide="ignore", over="ignore"):
            return float(self._backward(m + self._shift))

    def _inverse_knots(self, t: float) -> float:
        nodes, cum = self._nodes, self._cum
        j = min(max(int(np.searchsorted(cum, t)), 1), cum.size - 1)
        xa, xb = float(nodes[j - 1]), float(nodes[j])
        x = xa + (xb - xa) * (t - cum[j - 1]) / (cum[j] - cum[j - 1])
        ftol = 1e-14 * max(1.0, abs(t))
        for _ in range(100):
            f = float(self._forward_knots(np.asarray(x))[0]) - t
            if abs(f) <= ftol:
                return x
            if f > 0:
                xb = x
            else:
                xa = x
            xn = x - f * float(self.profile.u(x))  # Newton: mu' = 1/U
            if not (xa < xn < xb):
                xn = 0.5 * (xa + xb)
            if xn == x:
                return x
            x = xn
        raise NumericalError(f"mu_inverse failed to converge on [{xa}, {xb}]")
