#!/usr/bin/env python3
"""Grid-refinement study of the finite-difference eigensolver.

Solves the single-exponential well on a sequence of grids and reports
the error of the first two gaps against the algebraic values 4 and 6,
confirming the expected O(h^2) convergence of the flux-form stencil.
"""

import argparse

from sip_effmass import (
    FamilyModel,
    GridSpec,
    MuMap,
    discretize,
    lowest_eigenvalues,
    registry_get,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x-lo", type=float, default=-15.0)
    parser.add_argument("--x-hi", type=float, default=5.0)
    parser.add_argument(
        "--points",
        type=int,
        nargs="+",
        default=[500, 1000, 2000, 4000, 8000],
        help="grid sizes to scan",
    )
    args = parser.parse_args()

    profile = registry_get("constant", m0=0.5)
    mumap = MuMap(profile)
    model = FamilyModel.morse_reduced(
        a=-1.0, lambda0=1.0, sigma0=-2.5, profile=profile, mumap=mumap
    )
    exact_gaps = (4.0, 6.0)

    print(f"{'n_points':>9} {'h':>12} {'err(gap1)':>14} {'err(gap2)':>14} {'ratio1':>8}")
    prev_err = None
    for n in args.points:
        grid = GridSpec(args.x_lo, args.x_hi, n)
        diag, off = discretize(model.profile, model.potential_V1, grid)
        res = lowest_eigenvalues(diag, off, 3, grid=grid)
        gaps = res.eigenvalues - res.eigenvalues[0]
        errs = [abs(gaps[i + 1] - exact_gaps[i]) for i in range(2)]
        ratio = f"{prev_err / errs[0]:8.2f}" if prev_err else " " * 8
        print(f"{n:>9} {grid.h:>12.3e} {errs[0]:>14.3e} {errs[1]:>14.3e} {ratio}")
        prev_err = errs[0]

    print("\nratio ~ 4 per halving of h confirms second-order convergence")


if __name__ == "__main__":
    main()
