#!/usr/bin/env python3
"""How well the speed factor of ``speed.py`` tracks different kinds of code.

Run from the root of a checkout:

    python3 perfbench/track.py --rounds 40

Times four kernels, one after another in every round, each as one
interval under the same in-interval sampler and boundary samples as the
tasks of ``run.py``: two of the program's interpreted paths and two
compiled kernels that later versions of the program may move time into.
For each kernel it prints the median raw time, the quartile spread
(IQR / median) of the raw and of the scaled times over the rounds, and
the slope of log(raw time) against log(local calibration-loop time): 1
when a kernel slows down exactly as the loop does, so the factor
cancels the machine's drift; below 1 when the factor over-corrects it.
The full figures go to ``perfbench/out/track.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

TARGET_S = 0.15  # each interval repeats its kernel to last about this long


def kernels(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    import sip_effmass
    from sip_effmass import verify

    prof = sip_effmass.registry_get("asinh_mu", m0=0.5, alpha=0.1)
    mumap = sip_effmass.MuMap(prof)
    xs = np.linspace(-20.0, 20.0, 257)
    d, e = 2.0 + np.linspace(0.0, 1.0, 1001), -np.ones(1000)
    d4, e4 = 2.0 + np.linspace(0.0, 1.0, 4001), -np.ones(4000)
    a = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)
    return {
        "interpreted.lowest_eigenvalues_1001": lambda: verify.lowest_eigenvalues(d, e, 4),
        "interpreted.mu_array_257": lambda: mumap.mu_array(xs),
        "lapack.eigh_tridiagonal_4001": lambda: eigh_tridiagonal(
            d4, e4, eigvals_only=True, select="i", select_range=(0, 3)),
        "blas.matmul_300": lambda: a @ a,
    }


def repeats(fn) -> int:
    t0 = time.perf_counter()
    fn()
    return max(1, round(TARGET_S / (time.perf_counter() - t0)))


def slope(xs: list, ys: list) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var if var else math.nan


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sip_effmass" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/sip_effmass", file=sys.stderr)
        return 2
    run.pin_threads()
    ks = kernels(root)
    reps = {name: repeats(fn) for name, fn in ks.items()}
    sampler = speed.SpeedSampler(speed.numpy_loop)
    cals, inner, raw, names = [speed.numpy_loop(run.CALIBRATION_LOOPS)], [], [], []
    for _ in range(args.rounds):
        for name, fn in ks.items():
            t0 = time.perf_counter()
            with sampler:
                for _ in range(reps[name]):
                    fn()
            raw.append(time.perf_counter() - t0 - sampler.spent)
            inner.append(list(sampler.samples))
            names.append(name)
            cals.append(speed.numpy_loop(run.CALIBRATION_LOOPS))
    factors = speed.scale_factors(cals, inner)
    doc = {"provenance": {"nproc": run.nproc(), "repeats": reps, "rounds": args.rounds},
           "kernels": {}}
    for name in ks:
        idx = [i for i, n in enumerate(names) if n == name]
        r = [raw[i] for i in idx]
        s = [raw[i] * factors[i] for i in idx]
        loop = [speed.NOMINAL_NUMPY_LOOP_S / factors[i] for i in idx]
        row = {"raw_median_s": statistics.median(r), "raw_spread": spread(r),
               "scaled_spread": spread(s),
               "slope": slope([math.log(v) for v in loop], [math.log(v) for v in r]),
               "loop_range": max(loop) / min(loop), "raw_s": r, "scaled_s": s}
        doc["kernels"][name] = row
        print(f"{name}: raw median {row['raw_median_s']:.4g} s, spread raw {row['raw_spread']:.3f}"
              f" scaled {row['scaled_spread']:.3f}, slope {row['slope']:.2f}"
              f" (loop time range x{row['loop_range']:.2f})", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "track.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
