"""Algebraic bound-state spectra.

Two independent engines are provided and cross-checked:

* ``spectrum_sum`` accumulates the remainder R over the parameter
  recursion (E_n = sum_{k<n} R(p_k), E_0 = 0).
* ``spectrum_closed`` evaluates the per-family closed forms obtained by
  telescoping the same sums.

The degenerate-quadratic (Coulomb-like) family keeps its own pair of
operations because its chain is restricted to even recursion steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, ValidationError
from .families import FamilyCoeffs, FamilyModel, ParamTriple, canonical_family

__all__ = [
    "SpectrumTable",
    "CoulombParams",
    "spectrum_sum",
    "spectrum_closed",
    "pt_reduced_spectrum",
    "morse_reduced_spectrum",
    "coulomb_spectrum_sum",
    "coulomb_closed_level",
    "coulomb_spectrum_nr",
    "coulomb_quantum_map",
]


@dataclass(frozen=True)
class SpectrumTable:
    """Levels E_0..E_n with method provenance."""

    levels: tuple  # of (n, E)
    method: str  # "partial_sum" | "closed_form"
    family: str
    coeffs: Optional[FamilyCoeffs] = None
    params0: Optional[ParamTriple] = None
    flags: dict = field(default_factory=dict)
    branch: Optional[str] = None  # recursion branch of the FamilyModel, if any

    @property
    def energies(self) -> list[float]:
        return [e for _, e in self.levels]


def _monotone_flags(energies: list[float]) -> dict:
    flags = {}
    if any(e2 < e1 for e1, e2 in zip(energies, energies[1:])):
        flags["nonmonotone"] = True
    return flags


def spectrum_sum(model: FamilyModel, n_max: int) -> SpectrumTable:
    """Partial sums of the remainder over the parameter chain."""
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    chain = model.param_chain(max(n_max - 1, 0))
    energies = [0.0]
    for k in range(n_max):
        energies.append(energies[-1] + model.remainder_R(chain[k]))
    levels = tuple((n, energies[n]) for n in range(n_max + 1))
    return SpectrumTable(
        levels=levels,
        method="partial_sum",
        family=model.family,
        coeffs=model.coeffs,
        params0=model.params0,
        flags=_monotone_flags(energies),
        branch=model.branch,
    )


def _closed_level(model: FamilyModel, n: int) -> float:
    a, b, c = model.coeffs.a, model.coeffs.b, model.coeffs.c
    lam0, sig0, rho0 = model.params0.lam, model.params0.sigma, model.params0.rho
    sgn = -1.0 if n % 2 else 1.0
    if model.family == "ho":
        return 2.0 * a * lam0 * n + lam0 * (a + 2.0 * rho0) * (1.0 - sgn)
    if model.family == "morse":
        return n * (2.0 * b * lam0 - 2.0 * a * sig0 - a * a * n) + lam0 * (
            2.0 * rho0 + b
        ) * (1.0 - sgn)
    if model.family in ("pt_trig", "pt_hyp"):
        return (
            (a * rho0 + 2.0 * lam0 * rho0 + c * lam0 + 0.5 * a * c) * (1.0 - sgn)
            - n * (2.0 * a * rho0 + a * c) * sgn
            + n * (2.0 * c * lam0 + a * c - 2.0 * b * sig0)
            + n * n * (a * c - b * b)
        )
    raise ConfigError(
        f"family '{model.family}' has no closed form here; use the coulomb operations"
    )


def spectrum_closed(model: FamilyModel, n_max: int) -> SpectrumTable:
    """Closed-form levels for the ho/morse/pt families (alternating branch)."""
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if model.branch != "alternating":
        raise ConfigError("closed forms exist for the alternating branch only")
    energies = [_closed_level(model, n) for n in range(n_max + 1)]
    levels = tuple((n, energies[n]) for n in range(n_max + 1))
    return SpectrumTable(
        levels=levels,
        method="closed_form",
        family=model.family,
        coeffs=model.coeffs,
        params0=model.params0,
        flags=_monotone_flags(energies),
        branch=model.branch,
    )


def pt_reduced_spectrum(
    family: str, a: float, lambda0: float, rho0: float, n_max: int
) -> SpectrumTable:
    """Reduced closed forms for the quadratic families with sigma0 = b = 0.

    These compact expressions additionally normalize the product of the
    quadratic coefficients to |a c| = 1 (c = 1/a for the trigonometric
    family, c = -1/a for the hyperbolic one); they agree with the
    partial-sum engine only on that slice.
    """
    family = canonical_family(family)
    energies = []
    for n in range(n_max + 1):
        sgn = -1.0 if n % 2 else 1.0
        if family == "pt_trig":
            e = (0.5 + lambda0 / a + n - (a * rho0 + 0.5) * sgn) ** 2 - (
                lambda0 / a - a * rho0
            ) ** 2
        elif family == "pt_hyp":
            e = -((0.5 + lambda0 / a + n + (a * rho0 - 0.5) * sgn) ** 2) + (
                lambda0 / a + a * rho0
            ) ** 2
        else:
            raise ConfigError("pt_reduced_spectrum applies to pt_trig/pt_hyp only")
        energies.append(e)
    c = 1.0 / a if family == "pt_trig" else -1.0 / a
    return SpectrumTable(
        levels=tuple(enumerate(energies)),
        method="closed_form",
        family=family,
        coeffs=FamilyCoeffs(a=a, b=0.0, c=c),
        params0=ParamTriple(lam=lambda0, sigma=0.0, rho=rho0),
        flags=_monotone_flags(energies),
    )


def morse_reduced_spectrum(a: float, sigma0: float, n_max: int) -> SpectrumTable:
    """E_n = sigma0^2 - (sigma0 + a n)^2 for the single-exponential well.

    This is the rho0 = b = 0 slice of the linear family, computed as a
    formal limit (the separation source term q vanishes there).  Levels
    past the monotone-increase turnover (n >= sigma0/|a|) are reported
    but flagged unbound.
    """
    if not a < 0.0:
        raise ConfigError("reduced linear-family spectrum requires a < 0")
    if not sigma0 > 0.0:
        raise ConfigError("reduced linear-family spectrum requires sigma0 > 0")
    energies = [sigma0 * sigma0 - (sigma0 + a * n) ** 2 for n in range(n_max + 1)]
    bound = [n < sigma0 / abs(a) for n in range(n_max + 1)]
    return SpectrumTable(
        levels=tuple(enumerate(energies)),
        method="closed_form",
        family="morse",
        coeffs=FamilyCoeffs(a=a, b=0.0, c=0.0),
        # the closed levels do not depend on lambda0 on this slice
        params0=ParamTriple(lam=0.0, sigma=sigma0, rho=0.0),
        flags={"bound": bound, **_monotone_flags(energies)},
    )


@dataclass(frozen=True)
class CoulombParams:
    """Inputs of the degenerate-quadratic spectrum (hbar = 1 units)."""

    z: float
    l: int
    b: float
    e2: float = 1.0

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise ValidationError(["l must be a non-negative integer"])
        if self.b == 0.0:
            raise ValidationError(["b != 0"])

    @property
    def ze2(self) -> float:
        return self.z * self.e2


def _coulomb_summand(cp: CoulombParams, k: int) -> float:
    # remainder at even chain index k, where the pole coefficient vanishes
    return -(cp.b * cp.b * k + cp.ze2 * cp.b / (cp.l + 1.0))


def coulomb_closed_level(cp: CoulombParams, n_cap: int) -> float:
    """Closed form at even chain length N = n_cap."""
    nr = math.floor((n_cap - 1) / 2)
    return (
        (-cp.b / (cp.l + 1.0))
        * (1.0 + nr)
        * (cp.ze2 + cp.b * (cp.l + 1.0) * nr)
    )


def coulomb_spectrum_sum(cp: CoulombParams, n_cap: int) -> SpectrumTable:
    """Sum the even-step remainders up to chain length N = n_cap (even).

    Row n of the table is the energy after chain length 2n.  The pole
    coefficient of the chain vanishes on even steps only, so odd chain
    lengths are rejected.

    Note: the coefficient b enters each level directly, so tables for
    different b are different spectra; the ``b_level_coupling`` flag
    records this.
    """
    if n_cap < 0 or n_cap % 2 != 0:
        raise ConfigError("chain length N must be an even integer >= 0")
    energies = [0.0]
    acc = 0.0
    for p in range(n_cap // 2):
        acc += _coulomb_summand(cp, 2 * p)
        energies.append(acc)
    return SpectrumTable(
        levels=tuple(enumerate(energies)),
        method="partial_sum",
        family="coulomb",
        flags={"b_level_coupling": True, **_monotone_flags(energies)},
    )


def coulomb_spectrum_nr(l: int, n_r: int, mode: str = "exact", *, z: float = 1.0):
    """Level at radial quantum number n_r and angular momentum l after
    the b-replacement, with coupling Z e^2 = z.

    The replacement b = Z e^2 / (2 (n_r + l + 1)) + Z e^2 / (2 (l + 1))
    ties the family coefficient to the level index.  ``mode`` selects
    the exact expression or its large-(n_r, l) asymptotic form

        E = -[(Z e^2 - kappa F(n_r, l)) / (2 (n_r + l + 1))]^2,

    with F(n_r, l) = n_r^2 + (l+1)(2 n_r + 1) and kappa = Z e^2/(l+1).

    Returns (E, bound_flag) where the flag is the printed boundedness
    condition F(n_r, l) < Z e^2 / kappa.  As stated, the right-hand
    side equals l + 1 while F(n_r, l) >= l + 1, so the flag is never
    true; it is reported as-is rather than repaired.
    """
    l = int(l)
    ze2 = float(z)
    if n_r < 0:
        raise ConfigError("n_r must be >= 0")
    lp1 = l + 1.0
    ntot = n_r + l + 1.0
    if mode == "exact":
        e = (
            -(ze2 * ze2)
            * (1.0 + n_r)
            * (n_r + 2.0 * l + 2.0)
            * (n_r * n_r + 2.0 * n_r + 2.0 * lp1 * (n_r + 1.0))
            / (4.0 * ntot * ntot * lp1 * lp1)
        )
    elif mode == "asymptotic":
        f = n_r * n_r + lp1 * (2.0 * n_r + 1.0)
        # kappa F is evaluated as ze2 (F / (l+1)) so that the n_r = 0 level,
        # where F = l+1 exactly, comes out as exactly zero
        e = -((ze2 * (1.0 - f / lp1) / (2.0 * ntot)) ** 2)
    else:
        raise ConfigError(f"unknown mode '{mode}' (use 'exact' or 'asymptotic')")
    kappa = ze2 / lp1
    f = n_r * n_r + lp1 * (2.0 * n_r + 1.0)
    bound_flag = bool(f < ze2 / kappa)
    return e, bound_flag


def coulomb_quantum_map(n: int, l: int) -> tuple[int, int, int]:
    """(N, n_r, s) from the principal quantum number and l.

    N = 2 n is the chain length, s = 2 l + 1, and the radial node count
    is n_r = n - l - 1 = (N - 1 - s)/2.  The unshifted floor form
    floor((N - 1)/2) coincides with n_r only when s = 1 (i.e. l = 0).
    """
    if l < 0:
        raise ConfigError("l must be >= 0")
    if n <= l:
        raise ConfigError("principal quantum number must satisfy n >= l + 1")
    n_cap = 2 * n
    n_r = n - l - 1
    s = 2 * l + 1
    assert (n_cap - 1 - s) // 2 == n_r
    return n_cap, n_r, s
