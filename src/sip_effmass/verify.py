"""Independent numerical verification of the algebraic predictions.

The Hamiltonian -d/dx U^2 d/dx + V1 is discretized in flux form on a
uniform Dirichlet grid (exactly symmetric tridiagonal).  Its lowest
eigenvalues come from LAPACK's bisection routine (stebz, through
``scipy.linalg.eigh_tridiagonal``); each eigenpair's residual comes
from seeded inverse iteration, so the report is reproducible.

Because the alternating parameter recursion produces algebraic levels
that need not correspond to normalizable eigenstates (degenerate pairs
cannot coexist as distinct 1-D bound states), the comparison report
marks such levels as diagnostics rather than failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg import LinAlgError
from numpy.typing import NDArray

from .errors import ConfigError, NumericalError
from .families import FamilyModel
from .massprofile import MassProfile
from .spectra import SpectrumTable, morse_reduced_spectrum, spectrum_sum

__all__ = [
    "GridSpec",
    "GridEigenResult",
    "discretize",
    "discretize_model",
    "lowest_eigenvalues",
    "rayleigh_quotient",
    "compare",
    "morse_reduced_compare",
]

# Largest grid accepted: 1e6 intervals.  Checked before any node is allocated.
MAX_GRID_POINTS = 1_000_001
# Most eigenvalues one solve returns.
MAX_LEVELS = 12
# Absolute width to which stebz brackets each eigenvalue.
EIG_ABSTOL = 1e-12

# scipy.linalg.eigh_tridiagonal, bound by the first solve: importing
# scipy.linalg adds about 0.3 s to a cold start that never solves.
eigh_tridiagonal = None


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with Dirichlet boundaries at both ends.

    ``n_points`` counts all nodes including the two boundary nodes; the
    eigenproblem unknowns live on the n_points - 2 interior nodes.  The
    potential is never evaluated at the boundary nodes, so a singular
    endpoint (e.g. a radial origin) may sit exactly on the boundary.
    """

    x_lo: float
    x_hi: float
    n_points: int

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ConfigError("grid requires x_lo < x_hi")
        if self.n_points < 64:
            raise ConfigError("grid requires at least 64 points")
        if self.n_points > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid allows at most {MAX_GRID_POINTS} points, got {self.n_points}"
            )

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_points - 1)

    def nodes(self) -> NDArray:
        return np.linspace(self.x_lo, self.x_hi, self.n_points)

    def interior(self) -> NDArray:
        return self.nodes()[1:-1]

    def halved(self) -> "GridSpec":
        return GridSpec(self.x_lo, self.x_hi, max(self.n_points // 2, 64))

    def as_dict(self) -> dict:
        return {"x_lo": self.x_lo, "x_hi": self.x_hi, "n_points": self.n_points}


@dataclass(frozen=True)
class GridEigenResult:
    grid: Optional[GridSpec]  # the grid the matrix was discretized on, if given
    eigenvalues: NDArray  # sorted ascending
    residuals: NDArray  # per eigenpair ||H v - e v|| / ||v||

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def gaps(self) -> NDArray:
        return self.eigenvalues - self.eigenvalues[0]


def discretize(
    profile: MassProfile, potential: Callable[[NDArray], NDArray], grid: GridSpec
) -> tuple[NDArray, NDArray]:
    """Flux-form 3-point stencil; returns (diag, offdiag).

    Row i: off-diagonals -U^2_{i +- 1/2} / h^2 (midpoint evaluation) and
    diagonal (U^2_{i+1/2} + U^2_{i-1/2}) / h^2 + V(x_i).  The matrix is
    exactly symmetric by construction.
    """
    x = grid.nodes()
    h = grid.h
    xm = 0.5 * (x[:-1] + x[1:])
    u2m = np.asarray(profile.u(xm), dtype=float) ** 2
    v = np.asarray(potential(x[1:-1]), dtype=float)
    diag = (u2m[:-1] + u2m[1:]) / h**2 + v
    off = -u2m[1:-1] / h**2
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NumericalError(
            "discretized Hamiltonian is not finite on the grid "
            "(pole inside grid, or U^2 overflows?)"
        )
    return diag, off


def discretize_model(model: FamilyModel, grid: GridSpec) -> tuple[NDArray, NDArray]:
    return discretize(model.profile, model.potential_V1, grid)


def _tridiag_matvec(diag: NDArray, off: NDArray, v: NDArray) -> NDArray:
    """H v for the symmetric tridiagonal H = (diag, off)."""
    hv = diag * v
    hv[:-1] += off * v[1:]
    hv[1:] += off * v[:-1]
    return hv


def lowest_eigenvalues(
    diag: NDArray, off: NDArray, k: int, grid: Optional[GridSpec] = None
) -> GridEigenResult:
    """Lowest k eigenvalues by LAPACK bisection, residuals by inverse iteration."""
    global eigh_tridiagonal
    if eigh_tridiagonal is None:
        from scipy.linalg import eigh_tridiagonal
    from scipy.linalg import solve_banded

    if not 1 <= k <= MAX_LEVELS:
        raise ConfigError(f"k must be between 1 and {MAX_LEVELS}")
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size
    if k >= n:
        raise ConfigError("k must be smaller than the matrix dimension")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NumericalError("tridiagonal matrix has non-finite entries")
    try:
        eigs = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, k - 1), tol=EIG_ABSTOL
        )
    except LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolve failed: {exc}") from exc

    # Residuals from inverse iteration, not from LAPACK's stein vectors: on a
    # 4001-point particle in a box stein leaves 1e-8 to 4e-8 per pair,
    # inverse iteration at most 5e-9.
    scale = float(np.max(np.abs(diag)) + 2.0 * (np.max(np.abs(off)) if off.size else 0.0))
    residuals = np.empty(k)
    rng = np.random.default_rng(0)
    ab = np.zeros((3, n))
    for j in range(k):
        shift = eigs[j] + 1e-11 * max(scale, 1.0)
        ab[0, 1:] = off
        ab[1, :] = diag - shift
        ab[2, :-1] = off
        v = rng.standard_normal(n)
        for _ in range(3):
            v = solve_banded((1, 1), ab, v)
            v /= np.linalg.norm(v)
        residuals[j] = float(np.linalg.norm(_tridiag_matvec(diag, off, v) - eigs[j] * v))
    return GridEigenResult(grid=grid, eigenvalues=eigs, residuals=residuals)


def rayleigh_quotient(diag: NDArray, off: NDArray, v: NDArray) -> float:
    """(v, H v)/(v, v) for the symmetric tridiagonal operator."""
    v = np.asarray(v, dtype=float)
    return float(np.dot(v, _tridiag_matvec(diag, off, v)) / np.dot(v, v))


def _eigensolve_with_refinement(
    profile: MassProfile,
    potential: Callable[[NDArray], NDArray],
    grid: GridSpec,
    k: int,
    tol: float,
) -> GridEigenResult:
    """Solve on the grid and Richardson-check the ground level at half resolution."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be finite and positive, got {tol!r}")
    diag, off = discretize(profile, potential, grid)
    fine = lowest_eigenvalues(diag, off, k, grid=grid)
    coarse_grid = grid.halved()
    dc, oc = discretize(profile, potential, coarse_grid)
    coarse = lowest_eigenvalues(dc, oc, k, grid=coarse_grid)
    # 2nd-order stencil: error(h) ~ (error(2h) - error(h)) / 3
    err_est = float(np.max(np.abs(fine.eigenvalues - coarse.eigenvalues)) / 3.0)
    scale = max(1.0, float(np.max(np.abs(fine.eigenvalues))))
    if err_est > tol * scale:
        raise NumericalError(
            f"estimated discretization error {err_est:.3e} exceeds tolerance "
            f"{tol * scale:.3e}; refine the grid"
        )
    return fine


def _check_level_count(n_levels: int):
    """Levels 0..n_levels must fit in the MAX_LEVELS the eigensolver finds."""
    if n_levels > MAX_LEVELS - 1:
        raise ConfigError(
            f"verify solves at most {MAX_LEVELS} levels: --n (the highest level index) "
            f"must be <= {MAX_LEVELS - 1}, got {n_levels}"
        )


def compare(
    model: FamilyModel,
    grid: GridSpec,
    n_levels: int,
    tol: float = 5e-3,
) -> dict:
    """Eigensolve the discretized Hamiltonian and compare with partial sums.

    Levels whose algebraic prediction is non-monotone or degenerate are
    flagged ``diagnostic`` (the recursion does not guarantee they exist
    as normalizable states); the rest are ``match``/``mismatch`` at the
    given tolerance.
    """
    if n_levels < 1:
        raise ConfigError("n_levels must be >= 1")
    _check_level_count(n_levels)
    algebraic = spectrum_sum(model, n_levels).energies
    k = n_levels + 1
    result = _eigensolve_with_refinement(
        model.profile, model.potential_V1, grid, k, tol
    )
    return _report(result, algebraic, tol, scale_hint=None)


def _report(
    result: GridEigenResult, algebraic: list[float], tol: float, scale_hint
) -> dict:
    gaps = result.gaps
    n_cmp = min(len(algebraic), gaps.size)
    diffs, rels, flags = [], [], []
    degenerate = any(
        math.isclose(e1, e2, rel_tol=1e-9, abs_tol=1e-12)
        for e1, e2 in zip(algebraic, algebraic[1:])
    )
    nonmonotone = any(e2 < e1 for e1, e2 in zip(algebraic, algebraic[1:]))
    diagnostic = degenerate or nonmonotone
    scale = scale_hint or max(1.0, max(abs(e) for e in algebraic) if algebraic else 1.0)
    for n in range(n_cmp):
        d = float(gaps[n] - algebraic[n])
        diffs.append(d)
        rels.append(abs(d) / max(abs(algebraic[n]), 1e-30))
        if diagnostic:
            flags.append("diagnostic")
        elif abs(d) <= tol * scale:
            flags.append("match")
        else:
            flags.append("mismatch")
    return {
        "grid": result.grid.as_dict(),
        "ground_energy": result.ground_energy,
        "eigenvalues": [float(e) for e in result.eigenvalues],
        "gaps": [float(g) for g in gaps],
        "algebraic_levels": [float(e) for e in algebraic],
        "abs_diff": diffs,
        "rel_diff": rels,
        "flags": flags,
        "residuals": [float(r) for r in result.residuals],
        "diagnostic_only": diagnostic,
    }


def morse_reduced_compare(
    a: float,
    sigma0: float,
    profile: MassProfile,
    mumap,
    grid: GridSpec,
    n_levels: int,
    lambda0: float = 1.0,
    tol: float = 5e-3,
) -> dict:
    """Compare the single-exponential well against its closed spectrum.

    The closed levels sigma0^2 - (sigma0 + a n)^2 (a < 0, sigma0 > 0)
    are realized by the potential built with the *normalizable*
    orientation sigma_model = -sigma0 (the zero-mode decay at the flat
    end of the well needs sigma_model < 0); the level values are
    identical because the formula is invariant under
    (sigma0, a) -> (-sigma0, -a).
    """
    table: SpectrumTable = morse_reduced_spectrum(a, sigma0, n_levels)
    model = FamilyModel.morse_reduced(
        a=a, lambda0=lambda0, sigma0=-sigma0, profile=profile, mumap=mumap
    )
    n_bound = sum(table.flags["bound"])
    k = min(max(n_bound, 1), MAX_LEVELS)
    result = _eigensolve_with_refinement(
        profile, model.potential_V1, grid, k, tol
    )
    algebraic = [e for (n, e) in table.levels[:k]]
    report = _report(result, algebraic, tol, scale_hint=1.0)
    report["bound_flags"] = table.flags["bound"][:k]
    return report
