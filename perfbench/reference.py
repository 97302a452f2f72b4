"""The benchmark's own reference values and output checks.

Nothing here calls ``sip_effmass``.  Mass profiles are rebuilt from
their definitions, the deformation coordinate mu(x) = int dz / U(z) is
integrated with ``scipy.integrate.quad`` on a subsample, and spectra,
level gaps and zero modes come from the paper's formulas written out
again here.  Each check returns the largest relative error it saw,
|value - reference| / max(1, |reference|), and raises ``CheckError``
when an output is malformed or outside its tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

# tolerances, fixed before any run
MU_TOL = 1e-9  # mu(x) against quadrature
FIELD_TOL = 1e-8  # W, V1, V2 and the effective pair against the reference fields
SPECTRUM_TOL = 1e-9  # partial sums and closed forms against the recursion
GAP_TOL = 5e-3  # finite-difference level gaps against the exact gaps
PSI_TOL = 1e-8  # psi0_generic against the normalized psi0_closed
PSI_RATIO_TOL = 1e-7  # CLI zero mode against the reference shape
# The annihilation residual is a 4th-order finite-difference diagnostic: on
# 257-point grids and on the piecewise-cubic tabulated profile it is
# limited by the stencil, not by psi, so it only guards against a broken
# zero mode; PSI_TOL and PSI_RATIO_TOL check psi itself.
RESIDUAL_TOL = 1e-2
SLICE_TOL = 1e-9  # normalized shape-invariance residual on invariant slices
INVERSE_TOL = 1e-8  # mu_inverse(mu(x)) against x


class CheckError(Exception):
    """An output that is malformed or differs from its reference."""


def rel_err(value, ref) -> float:
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        raise CheckError(f"shape {value.shape} differs from reference shape {ref.shape}")
    if not np.all(np.isfinite(value)):
        raise CheckError("output is not finite")
    if value.size == 0:
        return 0.0
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


def _within(err: float, tol: float, what: str) -> float:
    if not err <= tol:
        raise CheckError(f"{what}: relative error {err:.3e} exceeds {tol:.1e}")
    return err


# --------------------------------------------------------------------------
# mass profiles and the deformation coordinate


class Profile:
    """U(x), U'(x) and mu(x) for one profile spec, built from its definition."""

    def __init__(self, spec: dict):
        name = spec["name"]
        self.knots = None
        if name == "tabulated":
            x = np.asarray(spec["x"], dtype=float)
            u = 1.0 / np.sqrt(2.0 * np.asarray(spec["m"], dtype=float))
            interp = PchipInterpolator(x, u, extrapolate=False)
            self.u, self.du, self.d2u = interp, interp.derivative(), interp.derivative(2)
            self.knots = x
            self.default_ref = float(x[0])
            return
        s = math.sqrt(2.0 * spec["m0"])
        self.default_ref = -math.inf if name == "exp_mass" else 0.0
        if name == "constant":
            self.u = lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / s)
            self.du = lambda x: np.zeros_like(np.asarray(x, dtype=float))
            self.d2u = self.du
        elif name == "exp_mass":
            beta = spec["beta"]
            self.u = lambda x: np.exp(-beta * np.asarray(x, dtype=float)) / s
            self.du = lambda x: -beta * np.exp(-beta * np.asarray(x, dtype=float)) / s
            self.d2u = lambda x: beta * beta * np.exp(-beta * np.asarray(x, dtype=float)) / s
        elif name == "asinh_mu":
            al = spec["alpha"]
            self.u = lambda x: np.sqrt(1.0 + (al * np.asarray(x, dtype=float)) ** 2) / s
            self.du = lambda x: al * al * np.asarray(x, dtype=float) / (
                s * np.sqrt(1.0 + (al * np.asarray(x, dtype=float)) ** 2))
            self.d2u = lambda x: al * al / (s * (1.0 + (al * np.asarray(x, dtype=float)) ** 2) ** 1.5)
        elif name == "arctan_mu":
            al = spec["alpha"]
            self.u = lambda x: (1.0 + (al * np.asarray(x, dtype=float)) ** 2) / s
            self.du = lambda x: 2.0 * al * al * np.asarray(x, dtype=float) / s
            self.d2u = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0 * al * al / s)
        else:
            raise ValueError(f"unknown profile {name!r}")

    def _inv_u(self, z: float) -> float:
        with np.errstate(over="ignore"):  # U overflows deep in the exp_mass tail
            return 1.0 / float(self.u(z))

    def _integral(self, a: float, b: float) -> float:
        points = None
        if self.knots is not None:  # split the piecewise cubic at its knots
            lo, hi = min(a, b), max(a, b)
            points = list(self.knots[(self.knots > lo) & (self.knots < hi)]) or None
        val, _ = quad(self._inv_u, a, b, epsabs=1e-14, epsrel=1e-13, limit=1000, points=points)
        return val

    def mu(self, xs, x_ref=None) -> np.ndarray:
        """mu(x) - mu(x_ref) by quadrature; the default anchor is the program's.

        For exp_mass the default anchor is x -> -inf, an improper integral.
        """
        ref = self.default_ref if x_ref is None else float(x_ref)
        return np.array([self._integral(ref, float(x)) if x != ref else 0.0
                         for x in np.atleast_1d(np.asarray(xs, dtype=float))])


# --------------------------------------------------------------------------
# families


def family_triple(fam: dict) -> tuple:
    """(a, b, c) and the starting (lam, sigma, rho) of a family spec."""
    a = fam["a"]
    if fam["tag"] == "coulomb":
        b, l, ze2 = fam["b"], fam["l"], fam["ze2"]
        return (a, b, b * b / (4.0 * a)), (a * (l + 1.0), 0.5 * b * (l + 1.0) + ze2 / (2.0 * (l + 1.0)), 0.0)
    return (a, fam.get("b", 0.0), fam.get("c", 0.0)), (fam["lambda0"], fam["sigma0"], fam["rho0"])


def phi_of_mu(fam: dict, mu):
    """phi solving dphi/dmu = P(phi) for each family."""
    (a, b, c), _ = family_triple(fam)
    mu = np.asarray(mu, dtype=float)
    tag = fam["tag"]
    if tag == "ho":
        return a * mu + b
    if tag == "morse":
        return (b - np.exp(-a * mu)) / a
    if tag == "pt_trig":
        sd = math.sqrt(4.0 * a * c - b * b)
        return (sd / (2.0 * a)) * np.tan(0.5 * sd * mu) - b / (2.0 * a)
    if tag == "pt_hyp":
        sd = math.sqrt(b * b - 4.0 * a * c)
        return -(sd / (2.0 * a)) * np.tanh(0.5 * sd * mu) - b / (2.0 * a)
    return -(2.0 + b * mu) / (2.0 * a * mu)


def dphi_dmu(fam: dict, mu):
    """dphi/dmu, differentiated from the closed forms of ``phi_of_mu``."""
    (a, b, c), _ = family_triple(fam)
    mu = np.asarray(mu, dtype=float)
    tag = fam["tag"]
    if tag == "ho":
        return np.full_like(mu, a)
    if tag == "morse":
        return np.exp(-a * mu)
    if tag == "pt_trig":
        sd = math.sqrt(4.0 * a * c - b * b)
        return (sd * sd / (4.0 * a)) / np.cos(0.5 * sd * mu) ** 2
    if tag == "pt_hyp":
        sd = math.sqrt(b * b - 4.0 * a * c)
        return -(sd * sd / (4.0 * a)) / np.cosh(0.5 * sd * mu) ** 2
    return 1.0 / (a * mu * mu)


def weff_of_mu(fam: dict, mu):
    _, (lam, sig, rho) = family_triple(fam)
    phi = phi_of_mu(fam, mu)
    return lam * phi + rho / phi + sig


def dweff_dmu(fam: dict, mu):
    """dW_eff/dmu = (lam - rho / phi^2) dphi/dmu, which equals U W_eff'."""
    _, (lam, _, rho) = family_triple(fam)
    phi = phi_of_mu(fam, mu)
    return (lam - rho / (phi * phi)) * dphi_dmu(fam, mu)


def _next(tag, coeffs, p):
    a, b, c = coeffs
    lam, sig, rho = p
    if tag == "ho":
        return (lam, sig, -(rho + a))
    if tag == "morse":
        return (lam, sig + a, -(rho + b))
    return (lam + a, sig + b, -(rho + c))


def remainder(tag: str, coeffs: tuple, p: tuple) -> float:
    """R = q - (sigma1^2 - sigma0^2) - 2 (rho1 lam1 - rho0 lam0)."""
    a, b, c = coeffs
    p1 = _next(tag, coeffs, p)
    if tag == "ho":
        q = a * (p1[0] + p[0])
    elif tag == "morse":
        q = b * (p1[0] + p[0])
    else:
        q = c * (p1[0] + p[0]) - a * (p1[2] - p[2])
    return q - (p1[1] ** 2 - p[1] ** 2) - 2.0 * (p1[2] * p1[0] - p[2] * p[0])


def spectrum_levels(fam: dict, n_rows: int) -> list:
    """E_0 .. E_{n_rows - 1} as partial sums of R over the recursion."""
    tag = fam["tag"]
    if tag == "coulomb":
        b, l, ze2 = fam["b"], fam["l"], fam["ze2"]
        return [-(b * b * n * (n - 1) + n * ze2 * b / (l + 1.0)) for n in range(n_rows)]
    coeffs, p = family_triple(fam)
    levels = [0.0]
    for _ in range(n_rows - 1):
        levels.append(levels[-1] + remainder(tag, coeffs, p))
        p = _next(tag, coeffs, p)
    return levels


def exact_gaps(kind: str, fam: dict, k: int) -> list:
    """E_j - E_0 of the operator -d^2/dmu^2 + V1_eff, j < k."""
    (a, b, c), (lam, sig, rho) = family_triple(fam)
    if kind == "morse_reduced":  # sigma^2 - (sigma + a n)^2 with sigma > 0
        return [sig * sig - (sig + a * n) ** 2 for n in range(k)]
    if kind == "ho_line":  # oscillator with omega = 2 a lam on the whole line
        return [2.0 * a * lam * n for n in range(k)]
    if kind == "pt_trig_half":  # odd states of k^2 nu (nu - 1) sec^2(k mu)
        kk, nu = a * c, lam / a
        levels = [kk * (nu + 2 * j + 1) ** 2 for j in range(k)]
        return [e - levels[0] for e in levels]
    if kind == "coulomb":  # hydrogen in mu: -ze2/mu + l (l + 1)/mu^2
        l, ze2 = fam["l"], fam["ze2"]
        levels = [-(ze2 * ze2) / (4.0 * (n_r + l + 1.0) ** 2) for n_r in range(k)]
        return [e - levels[0] for e in levels]
    raise ValueError(f"no reference for {kind!r}")


def n_bound_levels(fam: dict, n_levels: int) -> int:
    """Levels the reduced-Morse comparison solves for (n < sigma0/|a|)."""
    sig, a = abs(fam["sigma0"]), abs(fam["a"])
    return min(max(sum(1 for n in range(n_levels + 1) if n < sig / a), 1), 12)


# --------------------------------------------------------------------------
# artifact parsing


def read_csv(path: Path, title: str, columns: list) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 4 or lines[0] != f"# sip-effmass {title}" or not lines[1].startswith("# units"):
        raise CheckError(f"{path.name}: missing header")
    if lines[2] != ",".join(columns):
        raise CheckError(f"{path.name}: columns {lines[2]!r}")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
    except ValueError as exc:
        raise CheckError(f"{path.name}: malformed row ({exc})") from None
    if rows.ndim != 2 or rows.shape[1] != len(columns):
        raise CheckError(f"{path.name}: ragged rows")
    return rows


def read_json(path: Path, title: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{Path(path).name}: unreadable ({exc})") from None
    if doc.get("tool") != f"sip-effmass {title}":
        raise CheckError(f"{Path(path).name}: wrong tool field")
    return doc


def _subsample(n: int, count: int = 8) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, count).round().astype(int))


def _grid_of(argv: list) -> tuple:
    vals = dict(a[2:].split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    return float(vals["x-lo"]), float(vals["x-hi"]), int(vals["n-points"])


# --------------------------------------------------------------------------
# checks per task kind


class Checker:
    """Checks task outputs for one plan; caches the reference profiles."""

    def __init__(self, plan):
        self.profiles = {k: Profile(v) for k, v in plan.profiles.items()}

    def cli(self, task, out: Path) -> float:
        command = task.argv[0]
        return getattr(self, f"_{command}")(task.spec, task.argv, Path(out))

    # spectra ---------------------------------------------------------------

    def _spectrum_rows(self, fam: dict, n: int, path: Path) -> float:
        rows = read_csv(path, "spectrum", ["n", "E_partial_sum", "E_closed", "diff"])
        if rows.shape[0] != n or list(rows[:, 0]) != list(range(n)):
            raise CheckError(f"expected rows n = 0..{n - 1}")
        ref = spectrum_levels(fam, n)
        err = _within(rel_err(rows[:, 1], ref), SPECTRUM_TOL, "partial sums")
        return max(err, _within(rel_err(rows[:, 2], ref), SPECTRUM_TOL, "closed forms"))

    def _spectrum(self, spec, argv, out) -> float:
        return self._spectrum_rows(spec["family"], spec["n"], out / "spectrum.csv")

    def _sweep(self, spec, argv, out) -> float:
        doc = read_json(out / "manifest.json", "sweep")
        points = doc.get("points", [])
        expected = math.prod(len(v) for v in spec["sweep"].values())
        if len(points) != expected:
            raise CheckError(f"manifest lists {len(points)} points, expected {expected}")
        err = 0.0
        for entry in points:
            if entry.get("status") != "ok":
                raise CheckError(f"sweep point {entry.get('index')}: {entry.get('error')}")
            fam, n = dict(spec["family"]), 4
            for key, value in entry["overrides"].items():
                if key == "n":
                    n = int(value)
                else:
                    fam[key.split(".", 1)[1]] = float(value)
            err = max(err, self._spectrum_rows(fam, n, out / entry["dir"] / "spectrum.csv"))
        return err

    # grids -----------------------------------------------------------------

    def _grid_rows(self, argv, rows) -> np.ndarray:
        x_lo, x_hi, n = _grid_of(argv)
        if rows.shape[0] != n:
            raise CheckError(f"{rows.shape[0]} rows, expected {n}")
        x = rows[:, 0]
        if rel_err(x, np.linspace(x_lo, x_hi, n)) > 1e-14:
            raise CheckError("x column differs from the requested grid")
        return x

    def _potential(self, spec, argv, out) -> float:
        cols = ["x", "mu", "W", "V1", "V2", "V1eff", "V2eff"]
        rows = read_csv(out / "potential.csv", "potential", cols)
        x = self._grid_rows(argv, rows)
        if not np.all(np.isfinite(rows)):
            raise CheckError("potential.csv holds non-finite values")
        prof = self.profiles[spec["profile"]]
        idx = _subsample(x.size)
        mu = prof.mu(x[idx], spec["x_ref"])
        err = _within(rel_err(rows[idx, 1], mu), MU_TOL, "mu against quadrature")
        fam, xs = spec["family"], x[idx]
        weff, uwp_eff = weff_of_mu(fam, mu), dweff_dmu(fam, mu)
        du = prof.du(xs)
        w = weff + 0.5 * du
        # V1 = W^2 - (U W)' with U W' = U W_eff' + U U''/2; V2 = V1 + 2 U W_eff';
        # V1_eff, V2_eff = W_eff^2 -+ U W_eff'
        v1 = w * w - du * w - uwp_eff - 0.5 * prof.u(xs) * prof.d2u(xs)
        refs = {"W": w, "V1": v1, "V2": v1 + 2.0 * uwp_eff,
                "V1eff": weff * weff - uwp_eff, "V2eff": weff * weff + uwp_eff}
        for col, (name, ref) in enumerate(refs.items(), start=2):
            err = max(err, _within(rel_err(rows[idx, col], ref), FIELD_TOL, name))
        return err

    def _groundstate(self, spec, argv, out) -> float:
        rows = read_csv(out / "groundstate.csv", "groundstate", ["x", "psi", "residual"])
        x = self._grid_rows(argv, rows)
        psi, resid = rows[:, 1], rows[:, 2]
        if not np.all(np.isfinite(psi)) or not np.all(np.isnan(resid[[0, 1, -2, -1]])):
            raise CheckError("groundstate.csv: psi not finite or residual ends not nan")
        if not np.all(np.isfinite(resid[2:-2])):
            raise CheckError("groundstate.csv: residual not finite")
        _within(float(np.max(resid[2:-2])), RESIDUAL_TOL, "annihilation residual")
        norm = float(np.trapezoid(psi * psi, x))
        err = _within(abs(norm - 1.0), 1e-12, "normalization")
        # shape: psi(x_i)/psi(x_j) = sqrt(U_j/U_i) exp(-int_{mu_j}^{mu_i} W_eff dmu)
        prof = self.profiles[spec["profile"]]
        j = int(np.argmax(np.abs(psi)))
        idx = np.array([i for i in _subsample(x.size, 9) if abs(psi[i]) >= 1e-3 * abs(psi[j])])
        mu = prof.mu(np.concatenate([[x[j]], x[idx]]), spec["x_ref"])
        fam = spec["family"]
        ints = np.array([quad(lambda m: float(weff_of_mu(fam, m)), mu[0], m_i,
                              epsabs=1e-14, epsrel=1e-13, limit=500)[0] for m_i in mu[1:]])
        u = prof.u(np.concatenate([[x[j]], x[idx]]))
        ratio = np.sqrt(u[0] / u[1:]) * np.exp(-ints)
        err = max(err, _within(rel_err(psi[idx] / psi[j], ratio), PSI_RATIO_TOL, "psi shape"))
        return err

    def _shapecheck(self, spec, argv, out) -> float:
        doc = read_json(out / "shapecheck.json", "shapecheck")
        keys = ("max_residual", "normalized_residual", "potential_scale", "remainder")
        vals = [doc.get(k) for k in keys]
        if not all(isinstance(v, float) and math.isfinite(v) for v in vals):
            raise CheckError(f"shapecheck.json: non-finite or missing values {vals}")
        x_lo, x_hi, n = _grid_of(argv)
        if doc.get("grid") != {"x_lo": x_lo, "x_hi": x_hi, "n_points": n}:
            raise CheckError("shapecheck.json: grid differs from the request")
        if not spec["invariant"]:
            return 0.0
        fam = spec["family"]
        coeffs, p = family_triple(fam)
        err = rel_err(doc["remainder"], remainder(fam["tag"], coeffs, p))
        _within(err, SPECTRUM_TOL, "remainder")
        return max(err, _within(doc["normalized_residual"], SLICE_TOL, "invariant-slice residual"))

    def _verify(self, spec, argv, out) -> float:
        doc = read_json(out / "verify.json", "verify")
        flags = doc.get("flags", [])
        if "mismatch" in flags:
            raise CheckError(f"verify flags a mismatch: {flags}")
        fam, kind, n = spec["family"], spec["reference"], spec["n_levels"]
        k = n_bound_levels(fam, n) if kind == "morse_reduced" else n + 1
        gaps = doc.get("gaps", [])
        if len(gaps) != k:
            raise CheckError(f"{len(gaps)} gaps, expected {k}")
        return _within(rel_err(gaps, exact_gaps(kind, fam, k)), GAP_TOL, "level gaps")

    # library tasks ---------------------------------------------------------

    def coulomb_fd(self, spec, result) -> float:
        eigs = np.asarray(result.eigenvalues)
        ref = exact_gaps("coulomb", spec["family"], spec["k"])
        return _within(rel_err(eigs - eigs[0], ref), GAP_TOL, "radial level gaps")

    def zeromode(self, spec, result) -> float:
        generic, closed_raw, residual = result
        raw = np.asarray(closed_raw, dtype=float)
        scaled = raw / np.max(np.abs(raw))
        closed = scaled / math.sqrt(float(np.trapezoid(scaled * scaled, generic.x)))
        err = float(np.max(np.abs(generic.psi - closed)))
        _within(err, PSI_TOL, "psi0_generic against psi0_closed")
        _within(residual, RESIDUAL_TOL, "annihilation residual")
        return err

    def mu_inverse(self, spec, result) -> float:
        return _within(rel_err(result, spec["xs"]), INVERSE_TOL, "mu_inverse round trip")
