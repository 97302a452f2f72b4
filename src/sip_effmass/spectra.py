"""Algebraic bound-state spectra.

Two independent engines are provided and cross-checked:

* ``spectrum_sum`` accumulates the remainder R over the parameter
  recursion (E_n = sum_{k<n} R(p_k), E_0 = 0).
* ``spectrum_closed`` evaluates the closed form, one per recursion
  branch, obtained by telescoping the same sums.

On the alternating branch, the paper's printed recursion, the tables
are the printed spectra and need not be those of V1: for ``morse``
a = -1, b = 1, p0 = (1, 2.5, 0) they list 0, 8, 10, 14, but V1 has no
bound state.

On the alternating branch the degenerate-quadratic (Coulomb-like)
family keeps its own pair of operations, ``coulomb_spectrum_sum`` and
``coulomb_closed_level``: its chain is restricted to even recursion
steps there.  Both take the coulomb ``FamilyModel`` and read its b, l
and Z e^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ValidationError
from .families import FamilyModel, canonical_family

__all__ = [
    "SpectrumTable",
    "spectrum_sum",
    "spectrum_closed",
    "pt_reduced_spectrum",
    "morse_reduced_spectrum",
    "coulomb_spectrum_sum",
    "coulomb_closed_level",
    "coulomb_spectrum_nr",
    "coulomb_quantum_map",
]

# Most levels one table holds; checked before any chain is built.
MAX_TABLE_LEVELS = 100_000


@dataclass(frozen=True)
class SpectrumTable:
    """Levels E_0..E_n with their flags."""

    levels: tuple  # of (n, E)
    flags: dict
    branch: Optional[str] = None  # recursion branch of the FamilyModel, if any

    @property
    def energies(self) -> list[float]:
        return [e for _, e in self.levels]


def _check_n_max(n_max: int) -> None:
    if not 0 <= n_max < MAX_TABLE_LEVELS:
        raise ConfigError(f"n_max must be in 0..{MAX_TABLE_LEVELS - 1}, got {n_max}")


def _monotone_flags(energies: list[float]) -> dict:
    flags = {}
    if any(e2 < e1 for e1, e2 in zip(energies, energies[1:])):
        flags["nonmonotone"] = True
    return flags


def _model_table(model: FamilyModel, energies: list[float]) -> SpectrumTable:
    return SpectrumTable(
        levels=tuple(enumerate(energies)), flags=_monotone_flags(energies), branch=model.branch
    )


def spectrum_sum(model: FamilyModel, n_max: int) -> SpectrumTable:
    """Partial sums of the remainder over the parameter chain."""
    _check_n_max(n_max)
    chain = model.param_chain(n_max)
    energies = [0.0]
    for pk, p1 in zip(chain, chain[1:]):
        energies.append(energies[-1] + model.remainder_R(pk, p1))
    return _model_table(model, energies)


def _closed_level(model: FamilyModel, n: int) -> float:
    lam0, sig0, rho0 = model.params0.lam, model.params0.sigma, model.params0.rho
    if model.branch == "shift":
        A, B, C = model.ode_coeffs()
        lam_n = lam0 + n * A
        if lam_n == 0.0:
            raise ValidationError(["shift step needs lambda + A != 0"])
        # lam_k sigma_k gains B (lam_k + lam_{k+1}) / 2 per step
        sig_n = (lam0 * sig0 + B * n * (lam0 + 0.5 * A * n)) / lam_n
        rho_n = rho0 - n * C if rho0 != 0.0 else 0.0
        # c0 summed over the chain: each of its terms telescopes
        return (
            C * n * (lam0 + lam_n) - A * n * (rho0 + rho_n)
            + sig0 * sig0 - sig_n * sig_n - 2.0 * (lam_n * rho_n - lam0 * rho0)
        )
    if model.family == "coulomb":
        raise ConfigError("coulomb has no alternating closed form; use the coulomb operations")
    a, b, c = model._alternating_step()
    sgn = -1.0 if n % 2 else 1.0
    return (
        (a * rho0 + 2.0 * lam0 * rho0 + c * lam0 + 0.5 * a * c) * (1.0 - sgn)
        - n * (2.0 * a * rho0 + a * c) * sgn
        + n * (2.0 * c * lam0 + a * c - 2.0 * b * sig0)
        + n * n * (a * c - b * b)
    )


def spectrum_closed(model: FamilyModel, n_max: int) -> SpectrumTable:
    """Closed-form levels: one telescoped form per recursion branch.

    The alternating form serves every family but ``coulomb`` (whose chain
    there lives on even steps; see :func:`coulomb_spectrum_sum`).  A shift
    level whose lam_n vanishes raises ValidationError, as the recursion does.
    """
    _check_n_max(n_max)
    energies = [0.0] + [_closed_level(model, n) for n in range(1, n_max + 1)]
    return _model_table(model, energies)


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
    _check_n_max(n_max)
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
    return SpectrumTable(levels=tuple(enumerate(energies)), flags=_monotone_flags(energies))


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
    _check_n_max(n_max)
    energies = [sigma0 * sigma0 - (sigma0 + a * n) ** 2 for n in range(n_max + 1)]
    bound = [n < sigma0 / abs(a) for n in range(n_max + 1)]
    return SpectrumTable(
        levels=tuple(enumerate(energies)), flags={"bound": bound, **_monotone_flags(energies)}
    )


def _coulomb_inputs(model: FamilyModel) -> tuple[float, int, float]:
    if model.family != "coulomb" or model.branch != "alternating":
        raise ConfigError("the coulomb operations take a coulomb model on the alternating branch")
    return model.coeffs.b, model.l, model.ze2


def coulomb_closed_level(model: FamilyModel, n_cap: int) -> float:
    """Closed form at even chain length N = n_cap."""
    b, l, ze2 = _coulomb_inputs(model)
    nr = math.floor((n_cap - 1) / 2)
    return (-b / (l + 1.0)) * (1.0 + nr) * (ze2 + b * (l + 1.0) * nr)


def coulomb_spectrum_sum(model: FamilyModel, n_cap: int) -> SpectrumTable:
    """Sum the even-step remainders of a coulomb model up to chain length
    N = n_cap (even).

    Row n of the table is the energy after chain length 2n.  The pole
    coefficient of the chain vanishes on even steps only, so odd chain
    lengths are rejected.  The model's b, l and Z e^2 enter each level
    directly: tables for different b are different spectra.
    """
    b, l, ze2 = _coulomb_inputs(model)
    if n_cap < 0 or n_cap % 2 != 0:
        raise ConfigError("chain length N must be an even integer >= 0")
    _check_n_max(n_cap // 2)
    energies = [0.0]
    acc = 0.0
    for p in range(n_cap // 2):
        # remainder at even chain index 2p, where the pole coefficient vanishes
        acc += -(b * b * (2 * p) + ze2 * b / (l + 1.0))
        energies.append(acc)
    return _model_table(model, energies)


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
