"""Ground-state wavefunctions: generic integral form and closed forms.

The ground state is the zero mode of the annihilation operator

    A = sqrt(U) d/dx sqrt(U) + W_eff = U d/dx + W,

namely psi_0(x) = N exp[- int W/U dz] = (N / sqrt(U)) exp[- int W_eff d mu].

Note the 1/sqrt(U) prefactor: it is forced by A psi_0 = 0 and by the
Rayleigh-quotient consistency with the discretized Hamiltonian.  (A
plain 1/U prefactor fails both whenever U' != 0; for constant mass the
two conventions differ by an overall constant and are indistinguishable
after normalization.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, NumericalError
from .families import FamilyModel, ParamTriple
from .massprofile import _cumulative_gl

__all__ = [
    "WavefunctionTable",
    "psi0_generic",
    "psi0_closed",
    "psi0_closed_table",
    "annihilation_residual",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class WavefunctionTable:
    """Normalized samples of a wavefunction on a grid."""

    x: NDArray
    psi: NDArray

    def __post_init__(self):
        if not np.all(np.isfinite(self.psi)):
            raise NumericalError("wavefunction samples are not finite")


def _normalize(x: NDArray, raw: NDArray) -> NDArray:
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0 or not math.isfinite(peak):
        raise NumericalError("wavefunction vanished or overflowed before normalization")
    scaled = raw / peak
    # Decay check: a zero mode that stays O(1) at both grid ends is not
    # normalizable on the sampled span (e.g. the free W = 0 case).
    if abs(scaled[0]) > 0.1 and abs(scaled[-1]) > 0.1:
        raise NumericalError(
            "wavefunction does not decay at either grid end; "
            "non-normalizable configuration or grid span too small"
        )
    norm2 = float(_trapezoid(scaled * scaled, x))
    if norm2 <= 0.0 or not math.isfinite(norm2):
        raise NumericalError("wavefunction norm is not finite and positive")
    return scaled * (1.0 / math.sqrt(norm2))


def psi0_generic(
    model: FamilyModel, grid, params: Optional[ParamTriple] = None
) -> WavefunctionTable:
    """Zero mode via the cumulative integral of W_eff over mu."""
    return _psi0_generic(model, grid, params)[0]


def _psi0_generic(model: FamilyModel, grid, params: Optional[ParamTriple] = None):
    """psi0_generic's table, with the mu and U it evaluated on the grid."""
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 9:
        raise ConfigError("grid must be a 1-D array with at least 9 points")
    if np.any(np.diff(x) <= 0):
        raise ConfigError("grid must be strictly increasing")
    mu = model.mumap.mu_array(x)
    integral = _cumulative_gl(lambda m: model.fields_of_mu(m, params).weff, mu)
    u = np.asarray(model.profile.u(x), dtype=float)
    raw = np.exp(-(integral - np.min(integral))) / np.sqrt(u)
    return WavefunctionTable(x=x, psi=_normalize(x, raw)), mu, u


def psi0_closed(model: FamilyModel, x):
    """Closed-form zero mode, unnormalized.

    Family preconditions: ho needs sigma0 = b = 0 (with rho0 = a*l,
    l < 0 for a zero mode regular at mu = 0); morse needs rho0 = b = 0
    and bakes in sigma0 = a/2; the quadratic families need sigma0 = b =
    0; the degenerate family uses its stored l and coupling.
    """
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    mu = model.mumap.mu_array(xa)
    u = np.atleast_1d(np.asarray(model.profile.u(xa), dtype=float))
    a, b, c = model.coeffs.a, model.coeffs.b, model.coeffs.c
    lam0, sig0, rho0 = model.params0.lam, model.params0.sigma, model.params0.rho

    if model.family == "ho":
        if sig0 != 0.0 or b != 0.0:
            raise ConfigError("closed-form zero mode needs sigma0 = b = 0")
        l_eff = rho0 / a
        if l_eff >= 0.0:
            warnings.warn(
                "rho0/a >= 0: the mu^(-l) factor does not vanish at mu = 0, "
                "normalizability at the origin is not guaranteed",
                stacklevel=2,
            )
        if np.any(mu <= 0.0):
            raise DomainError("half-line zero mode requires mu > 0")
        omega = 2.0 * a * lam0
        f = mu ** (-l_eff) * np.exp(-0.25 * omega * mu * mu)
    elif model.family == "morse":
        if rho0 != 0.0 or b != 0.0:
            raise ConfigError("closed-form zero mode needs rho0 = b = 0")
        if sig0 != 0.5 * a:
            warnings.warn(
                "closed form assumes sigma0 = a/2; the generic integral uses "
                "the model's sigma0 and will differ",
                stacklevel=2,
            )
        f = np.exp(-0.5 * a * mu) * np.exp(-(lam0 / (a * a)) * np.exp(-a * mu))
    elif model.family in ("pt_trig", "pt_hyp"):
        if sig0 != 0.0 or b != 0.0:
            raise ConfigError("closed-form zero mode needs sigma0 = b = 0")
        if model.family == "pt_trig":
            k = math.sqrt(a * c)
            cosf = np.cos(k * mu)
            sinf = np.sin(k * mu)
            if np.any(cosf <= 0.0) or (rho0 != 0.0 and np.any(sinf <= 0.0)):
                raise DomainError("trigonometric zero mode requires k*mu in (0, pi/2)")
            f = cosf ** (lam0 / a)
            if rho0 != 0.0:
                f = f * sinf ** (-rho0 / c)
        else:
            k = math.sqrt(-a * c)
            f = np.cosh(k * mu) ** (lam0 / a)
            if rho0 != 0.0:
                sinhf = np.sinh(k * mu)
                if np.any(sinhf <= 0.0):
                    raise DomainError("hyperbolic zero mode with rho0 != 0 requires mu > 0")
                f = f * sinhf ** (-rho0 / c)
    elif model.family == "coulomb":
        if np.any(mu <= 0.0):
            raise DomainError("radial zero mode requires mu > 0")
        lp1 = model.l + 1.0
        f = mu ** lp1 * np.exp(-model.ze2 * mu / (2.0 * lp1))
    else:  # pragma: no cover
        raise ConfigError(f"unknown family '{model.family}'")

    out = f / np.sqrt(u)
    return float(out[0]) if scalar else out


def psi0_closed_table(model: FamilyModel, grid) -> WavefunctionTable:
    """Normalized closed-form zero mode on a grid."""
    x = np.asarray(grid, dtype=float)
    return WavefunctionTable(x=x, psi=_normalize(x, np.asarray(psi0_closed(model, x))))


def annihilation_residual(
    model: FamilyModel, table: WavefunctionTable, params: Optional[ParamTriple] = None
) -> float:
    """max |sqrt(U) d/dx (sqrt(U) psi) + W_eff psi| / max |psi|.

    The derivative is taken by 4th-order central differences on the
    table's uniform grid, so the result measures how well the samples
    solve A psi = 0 up to an O(h^4) stencil error.
    """
    x, psi = table.x, table.psi
    if x.size < 13:
        raise ConfigError("grid too coarse: need at least 9 interior points")
    if not np.allclose(np.diff(x), x[1] - x[0], rtol=1e-9, atol=0.0):
        raise ConfigError("annihilation residual requires a uniform grid")
    u = np.asarray(model.profile.u(x), dtype=float)
    weff = model.fields_of_mu(model.mumap.mu_array(x[2:-2]), params).weff
    resid = _annihilation_pointwise(table, u, weff)
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


def _annihilation_pointwise(table: WavefunctionTable, u: NDArray, weff: NDArray) -> NDArray:
    """sqrt(U) d/dx (sqrt(U) psi) + W_eff psi at x[2:-2] of a uniform grid,
    from U on all of ``table.x`` and W_eff on x[2:-2].

    The derivative is the 4th-order central difference with step x[1] - x[0].
    """
    x, psi = table.x, table.psi
    h = x[1] - x[0]
    g = np.sqrt(u) * psi
    dg = (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * h)
    return np.sqrt(u[2:-2]) * dg + weff * psi[2:-2]
