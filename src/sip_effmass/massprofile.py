"""Position-dependent mass profiles and the deformation coordinate.

A profile is represented through U(x) with U^2(x) = 1/(2 m(x)); the
kinetic operator used everywhere in this package is the manifestly
Hermitian -d/dx U^2(x) d/dx.  The deformation coordinate

    mu(x) = int dz / U(z)

is strictly increasing (U > 0) and carries every solvable potential
shape in this package.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, NumericalError

__all__ = ["MassProfile", "MuMap", "registry_get", "REGISTRY_NAMES"]


@dataclass(frozen=True)
class MassProfile:
    """U(x) and its first two derivatives on an interval, with the map mu.

    ``mu_closed`` is the deformation coordinate up to a constant shift,
    ``mu_closed_inverse`` its inverse, and ``mu_limits`` its limits at
    the domain edges; ``default_ref`` is the natural anchor (-inf for
    profiles anchored at the left asymptote).  The analytic profiles
    give mu in closed form; ``tabulated`` builds it by quadrature on its
    ``knots``, the sorted table points between which U is smooth.
    """

    name: str
    x_lo: float
    x_hi: float
    u: Callable[[NDArray], NDArray]
    du: Callable[[NDArray], NDArray]
    d2u: Callable[[NDArray], NDArray]
    mu_closed: Callable[[NDArray], NDArray]
    mu_closed_inverse: Callable[[NDArray], NDArray]
    default_ref: float
    mu_limits: tuple
    knots: Optional[NDArray] = None


def _require_positive(key: str, val) -> float:
    if not (0 < val < math.inf):
        raise ConfigError(f"parameter '{key}' must be positive and finite, got {val!r}")
    return float(val)


def _constant(*, m0=0.5) -> MassProfile:
    m0 = _require_positive("m0", m0)
    s = math.sqrt(2.0 * m0)
    uval = 1.0 / s

    def u(x):
        return np.full_like(np.asarray(x, dtype=float), uval)

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return MassProfile(
        name="constant",
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


def _exp_mass(*, beta, m0=0.5) -> MassProfile:
    # m(x) = m0 exp(2 beta x); mu is anchored at the x -> -inf limit,
    # where it vanishes, and maps the real line onto (0, inf).
    m0 = _require_positive("m0", m0)
    beta = _require_positive("beta", beta)
    s = math.sqrt(2.0 * m0)

    def u(x):
        return np.exp(-beta * np.asarray(x, dtype=float)) / s

    def du(x):
        return -beta * np.exp(-beta * np.asarray(x, dtype=float)) / s

    def d2u(x):
        return beta * beta * np.exp(-beta * np.asarray(x, dtype=float)) / s

    return MassProfile(
        name="exp_mass",
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


def _asinh_mu(*, alpha, m0=0.5) -> MassProfile:
    # m(x) = m0 / (1 + (alpha x)^2): mu = sqrt(2 m0) asinh(alpha x)/alpha.
    m0 = _require_positive("m0", m0)
    alpha = _require_positive("alpha", alpha)
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


def _arctan_mu(*, alpha, m0=0.5) -> MassProfile:
    # m(x) = m0 / (1 + (alpha x)^2)^2: mu = sqrt(2 m0) arctan(alpha x)/alpha,
    # a bounded coordinate range.
    m0 = _require_positive("m0", m0)
    alpha = _require_positive("alpha", alpha)
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"unreadable table file: {exc}") from exc
    rows = []
    header_seen = False
    for raw in lines:
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


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: NDArray, y: NDArray) -> tuple:
    """u, du and d2u of the monotone cubic through (x, y), NaN outside [x0, xN].

    Fritsch-Carlson slopes (SIAM J. Numer. Anal. 17 (1980) 238): the
    weighted harmonic mean of the adjacent secants, 0 where they change
    sign or vanish.  The arithmetic and its order are those of
    ``scipy.interpolate.PchipInterpolator(x, y, extrapolate=False)`` and
    its derivatives, so the values agree to the last bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.concatenate(([_edge_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, 1.0 / whmean),
                            [_edge_slope(h[-1], h[-2], m[-1], m[-2])]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    inner, lo, hi = x[1:-1], x[0], x[-1]

    def piecewise(*coeffs):
        """sum_k coeffs[k][j] s^k on the interval j holding z, s = z - x[j], in that order."""
        def f(z):
            z = np.asarray(z, dtype=float)
            inside = None
            if not (lo <= z.min(initial=lo) and z.max(initial=hi) <= hi):  # also NaN
                inside = (z >= lo) & (z <= hi)
                z = np.where(inside, z, lo)
            j = np.searchsorted(inner, z, side="right")
            s = z - x[j]
            out, sk = coeffs[0][j] + coeffs[1][j] * s, s
            for c in coeffs[2:]:
                sk = sk * s
                out += c[j] * sk
            return np.asarray(out if inside is None else np.where(inside, out, np.nan))
        return f

    return piecewise(c3, c2, c1, c0), piecewise(c2, 2 * c1, 3 * c0), piecewise(2 * c1, 6 * c0)


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


def _tabulated(*, path=None, data=None) -> MassProfile:
    if path is not None and data is not None:
        raise ConfigError("profile 'tabulated' takes path or data, not both")
    if path is None and data is None:
        raise ConfigError("tabulated profile requires 'path' or 'data'")
    rows = _parse_table(str(path)) if data is None else data
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
    u, du, d2u = _pchip(x, 1.0 / np.sqrt(2.0 * m))

    def inv_u(z):
        return 1.0 / np.asarray(u(z), dtype=float)

    nodes, cum = _resolved_cumulative(inv_u, x)

    def mu_closed(z):
        """mu from x[0]: the cumulative value at the left node plus one Gauss pass."""
        z = np.atleast_1d(z)
        j = np.clip(np.searchsorted(nodes, z, side="right") - 1, 0, nodes.size - 2)
        return cum[j] + _gauss_legendre(inv_u, nodes[j], z)

    def mu_closed_inverse(t):
        """Bracketing on the cumulative values, then safeguarded Newton."""
        j = min(max(int(np.searchsorted(cum, t)), 1), cum.size - 1)
        za, zb = float(nodes[j - 1]), float(nodes[j])
        z = za + (zb - za) * (t - cum[j - 1]) / (cum[j] - cum[j - 1])
        ftol = 1e-14 * max(1.0, abs(t))
        for _ in range(100):
            f = float(mu_closed(np.asarray(z))[0]) - t
            if abs(f) <= ftol:
                return z
            if f > 0:
                zb = z
            else:
                za = z
            zn = z - f * float(u(z))  # Newton: mu' = 1/U
            if not (za < zn < zb):
                zn = 0.5 * (za + zb)
            if zn == z:
                return z
            z = zn
        raise NumericalError(f"mu_inverse failed to converge on [{za}, {zb}]")

    return MassProfile(
        name="tabulated",
        x_lo=float(x[0]),
        x_hi=float(x[-1]),
        u=u,
        du=du,
        d2u=d2u,
        mu_closed=mu_closed,
        mu_closed_inverse=mu_closed_inverse,
        default_ref=float(x[0]),
        mu_limits=(0.0, float(cum[-1])),
        knots=x,
    )


_BUILDERS = {
    "constant": _constant,
    "exp_mass": _exp_mass,
    "asinh_mu": _asinh_mu,
    "arctan_mu": _arctan_mu,
    "tabulated": _tabulated,
}
REGISTRY_NAMES = tuple(_BUILDERS)


def registry_get(name: str, **params) -> MassProfile:
    """Build a profile from the built-in registry.

    Args:
        name: one of ``constant``, ``exp_mass``, ``asinh_mu``,
            ``arctan_mu``, ``tabulated``.
        **params: the builder's own keywords (``m0``, default 0.5,
            ``alpha``, ``beta``, or ``path``/``data`` for tabulated
            samples); any other key, or a missing one, is a ``ConfigError``.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown profile '{name}'; available: {', '.join(REGISTRY_NAMES)}"
        ) from None
    takes = inspect.signature(builder).parameters
    dead = [key for key in params if key not in takes]
    if dead:
        raise ConfigError(f"profile '{name}' does not take {', '.join(dead)}")
    missing = [k for k, p in takes.items() if p.default is p.empty and k not in params]
    if missing:
        raise ConfigError(f"profile '{name}' requires {', '.join(missing)}")
    return builder(**params)


class MuMap:
    """The deformation coordinate mu(x) with forward and inverse evaluation.

    Immutable after construction.  mu(x_ref) = 0.  For profiles anchored
    at -inf (exponential mass) ``x_ref`` defaults to that limit and mu
    maps onto (0, inf).  The map is the profile's own ``mu_closed`` and
    ``mu_closed_inverse``, shifted so that it vanishes at ``x_ref``.
    """

    def __init__(self, profile: MassProfile, x_ref: Optional[float] = None):
        self.profile = profile
        self.x_ref = profile.default_ref if x_ref is None else float(x_ref)
        if not (profile.x_lo <= self.x_ref <= profile.x_hi):
            raise DomainError(f"x_ref={self.x_ref} outside profile domain")
        with np.errstate(over="ignore"):
            self._shift = float(profile.mu_closed(np.atleast_1d(self.x_ref))[0])
        if not math.isfinite(self._shift):
            raise NumericalError(f"mu diverges at x_ref={self.x_ref}")
        lo, hi = profile.mu_limits
        self.mu_lo, self.mu_hi = lo - self._shift, hi - self._shift

    # -- forward ---------------------------------------------------------

    def _check_domain(self, x):
        if np.any(np.asarray(x) < self.profile.x_lo) or np.any(np.asarray(x) > self.profile.x_hi):
            raise DomainError(f"x outside profile domain [{self.profile.x_lo}, {self.profile.x_hi}]")

    def mu_array(self, xs) -> NDArray:
        """Evaluate mu on an array of points (a 0-d array for a scalar)."""
        xs = np.asarray(xs, dtype=float)
        self._check_domain(xs)
        with np.errstate(over="ignore"):
            out = np.asarray(self.profile.mu_closed(xs) - self._shift).reshape(xs.shape)
        if not np.all(np.isfinite(out)):
            raise NumericalError("mu is not finite on the requested points")
        return out

    # -- inverse ---------------------------------------------------------

    def mu_inverse(self, m: float) -> float:
        """Solve mu(x) = m with the profile's inverse map."""
        m = float(m)
        if not (self.mu_lo <= m <= self.mu_hi):
            raise DomainError(
                f"target {m} outside mu range ({self.mu_lo}, {self.mu_hi})"
            )
        with np.errstate(divide="ignore", over="ignore"):
            return float(self.profile.mu_closed_inverse(m + self._shift))
