"""Ground-state wavefunctions: generic integral form and one closed form.

The ground state is the zero mode of the annihilation operator

    A = sqrt(U) d/dx sqrt(U) + W_eff = U d/dx + W,

namely psi_0(x) = N exp[- int W/U dz] = (N / sqrt(U)) exp[- int W_eff d mu].

``psi0_generic`` integrates W_eff over mu by quadrature; ``psi0_closed``
takes g = int W_eff dmu in closed form (``FamilyModel.weff_integral``) and
returns exp(-(g - min g)) / sqrt(U), on every family and slice.

Note the 1/sqrt(U) prefactor: it is forced by A psi_0 = 0 and by the
Rayleigh-quotient consistency with the discretized Hamiltonian.  (A
plain 1/U prefactor fails both whenever U' != 0; for constant mass the
two conventions differ by an overall constant and are indistinguishable
after normalization.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NumericalError
from .families import FamilyModel
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


def psi0_generic(model: FamilyModel, grid) -> WavefunctionTable:
    """Zero mode via the cumulative integral of W_eff over mu, between poles."""
    return _psi0_generic(model, grid)[0]


def _psi0_generic(model: FamilyModel, grid):
    """psi0_generic's table, with the mu and U it evaluated on the grid."""
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 9:
        raise ConfigError("grid must be a 1-D array with at least 9 points")
    if np.any(np.diff(x) <= 0):
        raise ConfigError("grid must be strictly increasing")
    mu = model.mumap.mu_array(x)
    model.phi_between_poles(mu)  # DomainError: the quadrature would step over a pole
    integral = _cumulative_gl(lambda m: model.fields_of_mu(m).weff, mu)
    u = np.asarray(model.profile.u(x), dtype=float)
    raw = np.exp(-(integral - np.min(integral))) / np.sqrt(u)
    return WavefunctionTable(x=x, psi=_normalize(x, raw)), mu, u


def psi0_closed(model: FamilyModel, x) -> NDArray:
    """Unnormalized zero mode exp(-(g - min g)) / sqrt(U) at points x.

    g = int W_eff dmu is :meth:`FamilyModel.weff_integral`, whose domain the
    points take; subtracting min g keeps the exponential at most 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = model.weff_integral(model.mumap.mu_array(x))
    out = np.exp(-(g - np.min(g))) / np.sqrt(np.asarray(model.profile.u(x), dtype=float))
    if not np.all(np.isfinite(out)):
        raise NumericalError("closed-form zero mode is not finite")
    return out


def psi0_closed_table(model: FamilyModel, grid) -> WavefunctionTable:
    """Normalized closed-form zero mode on a grid."""
    x = np.asarray(grid, dtype=float)
    return WavefunctionTable(x=x, psi=_normalize(x, psi0_closed(model, x)))


def annihilation_residual(model: FamilyModel, table: WavefunctionTable) -> float:
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
    weff = model.fields_of_mu(model.mumap.mu_array(x[2:-2])).weff
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
