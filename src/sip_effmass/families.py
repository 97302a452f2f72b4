"""The four solvable families and their two parameter recursions.

Every family is built from a superpotential ansatz

    W(x) = lam * phi(x) + rho / phi(x) + sigma + U'(x)/2,

where phi solves U(x) phi'(x) = P(phi) for a family-specific polynomial
P of degree at most two in phi.  Writing W_eff = W - U'/2, the partner
potentials come in two flavours:

    V1     = W^2 - (U W)'            V2     = V1 + 2 U W' - U U''
    V1_eff = W_eff^2 - U W_eff'      V2_eff = W_eff^2 + U W_eff'

with V_i,eff = V_i + (U'' U / 2 + U'^2 / 4).  All derivatives of W are
evaluated in closed form through the phi equation, so residual checks
measure algebra rather than finite differencing.

``FamilyModel.fields(x)`` returns all of these at a point set as one
:class:`Fields` record: mu is mapped and U, U', U'' are evaluated once.
``FamilyModel.fields_of_mu(mu)`` gives the columns that depend on
position only through mu (phi, W_eff, U W_eff' and the effective pair).

With P(phi) = A phi^2 + B phi + C (``FamilyModel.ode_coeffs``) the
partner difference between two parameter triples is a Laurent
polynomial in phi,

    V2_eff(p0) - V1_eff(p1) = c2 phi^2 + c1 phi + c0 + c_1/phi + c_2/phi^2,

whose coefficients ``FamilyModel.partner_coeffs`` gives in closed form.
Shape invariance, V2_eff(x; p0) = V1_eff(x; p1) + R(p0), is the
vanishing of the four non-constant coefficients, with R = c0.

A model carries one of two recursion branches:

* ``"alternating"`` (the default), the paper's printed recursion: the
  pole coefficient rho flips sign at every step (rho -> -(rho + const)).
  Its partner difference is constant in x only on narrow slices
  (sigma0 = rho0 = 0 for ``ho``, b = sigma0 = rho0 = 0 for the quadratic
  families, never for ``morse`` or ``coulomb``), and its remainder
  R = c0 + 2 A rho_k is formal off them: for ``morse`` a = -1, b = 1,
  p0 = (1, 2.5, 0) its levels are 0, 8, 10, 14, but V1 has no bound
  state.  The golden spectra and the CLI artifacts are defined on it.
* ``"shift"``: lam -> lam + A, rho -> rho - C (rho stays 0 on a chain
  whose params0 has rho = 0) and sigma solves c1 = 0, so
  c2 = c1 = c_2 = 0 at every step.  This is the standard
  shape-invariant step: c_1 vanishes too,
  and the identity holds exactly with R = c0 along the whole chain,
  on rho0 = 0 for every family (``coulomb`` always starts there), on
  sigma0 = 0 for ``ho``, and on b = sigma0 = 0 for the quadratic
  families.

The partial-sum spectra in :mod:`sip_effmass.spectra` are defined over
either recursion, and the eigensolver comparisons in
:mod:`sip_effmass.verify` treat them as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, PoleError, ValidationError
from .massprofile import MassProfile, MuMap

__all__ = [
    "FAMILIES",
    "ParamTriple",
    "FamilyCoeffs",
    "FamilyModel",
    "Fields",
    "validate",
]

FAMILIES = ("ho", "morse", "pt_trig", "pt_hyp", "coulomb")
_BRANCHES = ("alternating", "shift")

PT_TAN_GUARD = 1e-6
PHI_POLE_GUARD = 1e-12


def canonical_family(tag: str) -> str:
    """The entry of FAMILIES that tag names, ignoring case, edge spaces and '-' for '_'."""
    key = tag.strip().lower().replace("-", "_")
    if key not in FAMILIES:
        raise ConfigError(f"unknown family '{tag}'; available: {', '.join(FAMILIES)}")
    return key


@dataclass(frozen=True)
class ParamTriple:
    """One point (lam, sigma, rho) of the parameter chain."""

    lam: float
    sigma: float
    rho: float

    def __post_init__(self):
        for name in ("lam", "sigma", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError([f"parameter '{name}' must be finite"])


@dataclass(frozen=True)
class FamilyCoeffs:
    """Coefficients (a, b, c) of the phi equation."""

    a: float
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError([f"coefficient '{name}' must be finite"])

    @property
    def discriminant(self) -> float:
        return 4.0 * self.a * self.c - self.b * self.b


def validate(family: str, coeffs: FamilyCoeffs, params0: ParamTriple) -> list[str]:
    """Return the list of violated constraints (empty when valid)."""
    family = canonical_family(family)
    violations = []
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if family == "ho":
        if a == 0.0:
            violations.append("a != 0")
        if 2.0 * a * params0.lam == 0.0:
            violations.append("q = 2*a*lambda0 != 0")
    elif family == "morse":
        if not a < 0.0:
            violations.append("a < 0")
        # b = 0 is the reduced single-exponential slice, where q vanishes
        if b != 0.0 and 2.0 * b * params0.lam == 0.0:
            violations.append("q = 2*b*lambda0 != 0")
    elif family == "pt_trig":
        if not coeffs.discriminant > 0.0:
            violations.append("discriminant > 0")
    elif family == "pt_hyp":
        if not coeffs.discriminant < 0.0:
            violations.append("discriminant < 0")
    elif family == "coulomb":
        # tolerate rounding in 4ac - b^2 when c was derived as b^2/(4a)
        disc_scale = max(1.0, b * b, abs(4.0 * a * c))
        if abs(coeffs.discriminant) > 1e-12 * disc_scale:
            violations.append("discriminant == 0")
        if a == 0.0:
            violations.append("a != 0")
        if b == 0.0:
            violations.append("b != 0")
        if params0.rho != 0.0:
            violations.append("rho0 == 0")
    return violations


@dataclass(frozen=True)
class Fields:
    """Field values at one point set, as 1-D arrays.

    :meth:`FamilyModel.fields_of_mu` fills phi, weff (W_eff) and
    uwp_eff (U W_eff') and leaves the rest None; :meth:`FamilyModel.fields`
    also fills x, mu, u, du and d2u (U, U', U'').  The potentials are
    derived from these columns when first read, so a caller pays only
    for the columns it takes.
    """

    phi: NDArray
    weff: NDArray
    uwp_eff: NDArray
    x: Optional[NDArray] = None
    mu: Optional[NDArray] = None
    u: Optional[NDArray] = None
    du: Optional[NDArray] = None
    d2u: Optional[NDArray] = None

    @cached_property
    def v1_eff(self) -> NDArray:
        """V1_eff = W_eff^2 - U W_eff'."""
        return self.weff * self.weff - self.uwp_eff

    @cached_property
    def v2_eff(self) -> NDArray:
        """V2_eff = W_eff^2 + U W_eff'."""
        return self.weff * self.weff + self.uwp_eff

    @cached_property
    def w(self) -> NDArray:
        """W = W_eff + U'/2."""
        return self.weff + 0.5 * self.du

    @cached_property
    def v1(self) -> NDArray:
        """V1 = W^2 - (U W)', with (U W)' = U' W + U W_eff' + U U''/2."""
        w = self.w
        return w * w - self.du * w - self.uwp_eff - 0.5 * self.u * self.d2u

    @cached_property
    def v2(self) -> NDArray:
        """V2 = V1 + 2 U W' - U U'' = V1 + 2 U W_eff'."""
        return self.v1 + 2.0 * self.uwp_eff


@dataclass(frozen=True)
class FamilyModel:
    """A family tag, coefficients, starting parameters, and a mass profile.

    Immutable; all evaluation methods are pure.  ``mumap`` must be the
    map of this ``profile`` object.  For the Coulomb family
    use :meth:`coulomb`, which derives (lam0, sigma0) from the angular
    momentum l and the coupling Z e^2; they cannot be set independently,
    and the coulomb operations of :mod:`sip_effmass.spectra` read b, l and
    Z e^2 from the model.  The linear family with b = 0 is the reduced
    single-exponential well (:meth:`morse_reduced`); q = 2 b lambda0 is
    required to be nonzero only off that slice.  ``branch`` selects the
    parameter recursion (see the module docstring).
    """

    family: str
    coeffs: FamilyCoeffs
    params0: ParamTriple
    profile: MassProfile
    mumap: MuMap
    l: Optional[int] = None
    ze2: Optional[float] = None
    branch: str = "alternating"

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        if self.branch not in _BRANCHES:
            raise ValidationError([f"unknown branch '{self.branch}'"])
        if self.mumap.profile is not self.profile:
            raise ValidationError(["mumap is built on another profile"])
        violations = validate(self.family, self.coeffs, self.params0)
        if violations:
            raise ValidationError(violations)

    @classmethod
    def morse_reduced(
        cls,
        a: float,
        lambda0: float,
        sigma0: float,
        profile: MassProfile,
        mumap: MuMap,
    ) -> "FamilyModel":
        """Linear family on the rho0 = b = 0 slice (q = 2 b lambda0 vanishes).

        This is the single-exponential well whose spectrum is
        sigma0^2 - (sigma0 + a n)^2; for a < 0 its zero mode is
        normalizable when sigma0 < 0.
        """
        return cls(
            family="morse",
            coeffs=FamilyCoeffs(a=a, b=0.0, c=0.0),
            params0=ParamTriple(lam=lambda0, sigma=sigma0, rho=0.0),
            profile=profile,
            mumap=mumap,
        )

    @classmethod
    def coulomb(
        cls,
        a: float,
        b: float,
        l: int,
        ze2: float,
        profile: MassProfile,
        mumap: MuMap,
        branch: str = "alternating",
    ) -> "FamilyModel":
        """Build the degenerate-quadratic (Coulomb) model.

        The quadratic coefficients are tied by c = b^2/(4a) (vanishing
        discriminant) and the starting parameters are
        lam0 = a (l+1), sigma0 = b (l+1)/2 + Z e^2 / (2 (l+1)).
        """
        if l < 0 or int(l) != l:
            raise ValidationError(["l must be a non-negative integer"])
        if a == 0.0:
            raise ValidationError(["a != 0"])
        coeffs = FamilyCoeffs(a=a, b=b, c=b * b / (4.0 * a))
        lam0 = a * (l + 1.0)
        sigma0 = 0.5 * b * (l + 1.0) + ze2 / (2.0 * (l + 1.0))
        return cls(
            family="coulomb",
            coeffs=coeffs,
            params0=ParamTriple(lam=lam0, sigma=sigma0, rho=0.0),
            profile=profile,
            mumap=mumap,
            l=int(l),
            ze2=float(ze2),
            branch=branch,
        )

    def with_params(self, params: ParamTriple) -> "FamilyModel":
        return replace(self, params0=params)

    # -- phi and its defining polynomial ----------------------------------

    def ode_coeffs(self) -> tuple[float, float, float]:
        """Coefficients (A, B, C) with U phi' = A phi^2 + B phi + C.

        The linear family solves U phi' = -a phi + b (the sign that the
        printed superpotential and partner potentials actually satisfy).
        """
        a, b, c = self.coeffs.a, self.coeffs.b, self.coeffs.c
        if self.family == "ho":
            return (0.0, 0.0, a)
        if self.family == "morse":
            return (0.0, -a, b)
        return (a, b, c)

    def phi_from_mu(self, mu):
        """phi as a function of the deformation coordinate."""
        mu = np.asarray(mu, dtype=float)
        a, b = self.coeffs.a, self.coeffs.b
        if self.family == "ho":
            return a * mu + b
        if self.family == "morse":
            return (b - np.exp(-a * mu)) / a
        if self.family == "pt_trig":
            sd = math.sqrt(self.coeffs.discriminant)
            theta = 0.5 * sd * mu
            if np.any(theta <= 0.0) or np.any(theta >= 0.5 * math.pi - PT_TAN_GUARD):
                raise DomainError(
                    "trigonometric branch restricted to "
                    f"sqrt(disc)*mu/2 in (0, pi/2 - {PT_TAN_GUARD})"
                )
            return (sd / (2.0 * a)) * np.tan(theta) - b / (2.0 * a)
        if self.family == "pt_hyp":
            sd = math.sqrt(-self.coeffs.discriminant)
            return -(sd / (2.0 * a)) * np.tanh(0.5 * sd * mu) - b / (2.0 * a)
        # coulomb
        if np.any(np.abs(mu) < PHI_POLE_GUARD):
            raise DomainError("coulomb phi undefined at mu = 0")
        return -(2.0 + b * mu) / (2.0 * a * mu)

    def phi_between_poles(self, mu) -> tuple[NDArray, NDArray, int]:
        """phi and P(phi) at points mu, and the index where |P| peaks.

        Consecutive points must not straddle a pole of W_eff (DomainError):
        phi keeps one sign when rho != 0, and it never steps against the
        sign of P, as it would through infinity.
        """
        phi = self.phi_from_mu(mu)
        A, B, C = self.ode_coeffs()
        p = (A * phi + B) * phi + C
        anchor = np.argmax(np.abs(p))  # rounding cannot flip the sign of P here
        phi_crosses_0 = self.params0.rho != 0.0 and not (np.all(phi > 0.0) or np.all(phi < 0.0))
        if phi_crosses_0 or np.any(np.diff(phi) * np.diff(mu) * np.sign(p[anchor]) < 0.0):
            raise DomainError("consecutive points straddle a pole of W_eff")
        return phi, p, anchor

    def weff_integral(self, mu) -> NDArray:
        """int W_eff dmu at points mu in closed form, up to a constant.

        dphi/dmu = P(phi) makes lam int phi dmu + sigma mu + rho int dmu/phi
        elementary in (A, B, C).  The points must lie between poles of
        W_eff (:meth:`phi_between_poles`).
        """
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        phi, p, anchor = self.phi_between_poles(mu)
        A, B, C = self.ode_coeffs()
        lam, sigma, rho = self.params0.lam, self.params0.sigma, self.params0.rho
        if A == 0.0:
            log_p = B * mu  # dP/dmu = B P
        elif B * B > 4.0 * A * C:
            # phi has lost the digits of its distance to a root it nears, but the
            # distances d1, d2 to the roots obey ln(d1/d2) = A (r1 - r2) mu + const
            r1, r2 = (-B + np.array([-1.0, 1.0]) * math.sqrt(B * B - 4.0 * A * C)) / (2.0 * A)
            d1, d2 = np.abs(phi - r1), np.abs(phi - r2)
            t = A * (r1 - r2) * (mu - mu[anchor])
            # at d1 or d2 = 0 P vanishes at its peak, so every point sits on
            # that root and the constant would only shift g
            if d1[anchor] != 0.0 and d2[anchor] != 0.0:
                t = t + np.log(d1[anchor] / d2[anchor])
            log_p = math.log(abs(A)) + 2.0 * np.log(np.maximum(d1, d2)) + np.sign(d2 - d1) * t
        else:
            log_p = np.log(np.abs(p))
        if A != 0.0:
            g = lam * (log_p - B * mu) / (2.0 * A) + sigma * mu
        elif B != 0.0:
            g = lam * (phi - C * mu) / B + sigma * mu
        else:
            g = lam * phi * phi / (2.0 * C) + sigma * mu
        if rho != 0.0 and C != 0.0:
            g = g + rho * (np.log(np.abs(phi)) - 0.5 * log_p - 0.5 * B * mu) / C
        elif rho != 0.0:
            # B = C = 0 would need b = c = 0, which validate rejects
            g = g - rho * (1.0 / (B * phi) + (A / B) * mu)
        return g

    # -- superpotential and partner potentials -----------------------------

    def fields_of_mu(self, mu, params: Optional[ParamTriple] = None) -> Fields:
        """The mu-side columns at deformation-coordinate points mu.

        The effective pair depends on position only through mu, so a
        caller that already works in the deformation coordinate skips
        the map x -> mu and the profile.
        """
        params = self.params0 if params is None else params
        phi = np.atleast_1d(self.phi_from_mu(mu))
        lam, sigma, rho = params.lam, params.sigma, params.rho
        if rho != 0.0:
            if np.any(np.abs(phi) < PHI_POLE_GUARD):
                raise PoleError("phi vanishes at an evaluation point with rho != 0")
            pole = rho / phi
            slope = lam - rho / (phi * phi)
        else:
            pole = np.zeros_like(phi)
            slope = np.full_like(phi, lam)
        A, B, C = self.ode_coeffs()
        # U W_eff' = (lam - rho/phi^2) P(phi), since U phi' = P(phi)
        uwp_eff = slope * ((A * phi + B) * phi + C)
        return Fields(phi=phi, weff=lam * phi + pole + sigma, uwp_eff=uwp_eff)

    def fields(self, x) -> Fields:
        """Every column at points x: mu is mapped and U, U', U'' are
        evaluated once."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mu = self.mumap.mu_array(x)
        f = self.fields_of_mu(mu)
        return replace(
            f,
            x=x,
            mu=mu,
            u=np.atleast_1d(np.asarray(self.profile.u(x), dtype=float)),
            du=np.atleast_1d(np.asarray(self.profile.du(x), dtype=float)),
            d2u=np.atleast_1d(np.asarray(self.profile.d2u(x), dtype=float)),
        )

    def potential_V1(self, x) -> NDArray:
        """V1 at points x, for callers that take V as a callable."""
        return self.fields(x).v1

    # -- recursion and remainder -------------------------------------------

    def next_params(self, pk: Optional[ParamTriple] = None) -> ParamTriple:
        """One step of the model's parameter recursion.

        On the ``"shift"`` branch rho stays 0 at every step of a chain
        whose start (``params0``) has rho = 0, and otherwise moves by -C,
        also through a step where it passes 0.
        """
        pk = self.params0 if pk is None else pk
        if self.branch == "shift":
            A, B, C = self.ode_coeffs()
            lam1 = pk.lam + A
            if lam1 == 0.0:
                raise ValidationError(["shift step needs lambda + A != 0"])
            # c2 = c_2 = 0, and c1 = 0 fixes sigma1
            sigma1 = (2.0 * pk.lam * pk.sigma + B * (pk.lam + lam1)) / (2.0 * lam1)
            rho1 = 0.0 if self.params0.rho == 0.0 else pk.rho - C
            return ParamTriple(lam=lam1, sigma=sigma1, rho=rho1)
        a, b, c = self._alternating_step()
        return ParamTriple(lam=pk.lam + a, sigma=pk.sigma + b, rho=-(pk.rho + c))

    def _alternating_step(self) -> tuple[float, float, float]:
        """(a', b', c') of the alternating step (lam + a', sigma + b', -(rho + c')):
        :meth:`ode_coeffs`, except that ``morse`` moves sigma by a = -B."""
        A, B, C = self.ode_coeffs()
        return (A, -B if self.family == "morse" else B, C)

    def param_chain(self, n: int) -> list[ParamTriple]:
        """params0 followed by n recursion steps (length n+1)."""
        chain = [self.params0]
        for _ in range(n):
            chain.append(self.next_params(chain[-1]))
        return chain

    def partner_coeffs(
        self, p0: Optional[ParamTriple] = None, p1: Optional[ParamTriple] = None
    ) -> tuple[float, float, float, float, float]:
        """Coefficients (c2, c1, c0, c_1, c_2) of the Laurent polynomial

            V2_eff(p0) - V1_eff(p1) = c2 phi^2 + c1 phi + c0 + c_1/phi + c_2/phi^2,

        exact for any two triples; p1 defaults to the step after p0.
        """
        p0 = self.params0 if p0 is None else p0
        p1 = self.next_params(p0) if p1 is None else p1
        A, B, C = self.ode_coeffs()
        l0, s0, r0 = p0.lam, p0.sigma, p0.rho
        l1, s1, r1 = p1.lam, p1.sigma, p1.rho
        return (
            (l0 + l1) * (l0 - l1 + A),
            2.0 * (l0 * s0 - l1 * s1) + B * (l0 + l1),
            C * (l0 + l1) - A * (r0 + r1) - (s1 * s1 - s0 * s0) - 2.0 * (l1 * r1 - l0 * r0),
            2.0 * (r0 * s0 - r1 * s1) - B * (r0 + r1),
            (r0 + r1) * (r0 - r1 - C),
        )

    def remainder_R(
        self, pk: Optional[ParamTriple] = None, p1: Optional[ParamTriple] = None
    ) -> float:
        """The x-independent remainder of the separation identity.

        This is c0 of :meth:`partner_coeffs`, exact wherever the step is
        shape-invariant; p1 is the step after pk, computed when not given.
        The ``"alternating"`` branch adds 2 A rho_k: its formal source term
        C (lam0 + lam1) - A (rho1 - rho0) exceeds the one in c0 by that much
        for every family.
        """
        pk = self.params0 if pk is None else pk
        r = self.partner_coeffs(pk, p1)[2]
        if self.branch == "alternating":
            r += 2.0 * self.ode_coeffs()[0] * pk.rho
        return r

    # -- residual check ------------------------------------------------------

    def shape_invariance_residual_of_mu(self, mu_grid) -> float:
        """max over deformation-coordinate points of
        |V2_eff(p0) - V1_eff(p1) - R(p0)|, with p1 and R from the model's
        branch.  The effective pair depends on x only through mu."""
        p1 = self.next_params(self.params0)
        v2e0 = self.fields_of_mu(mu_grid).v2_eff
        v1e1 = self.fields_of_mu(mu_grid, p1).v1_eff
        r = self.remainder_R(self.params0)
        return float(np.max(np.abs(v2e0 - v1e1 - r)))
