"""Seeded task lists for the sip-effmass benchmark.

Everything here is standard-library Python, so that a fresh interpreter
can build a plan before ``sip_effmass`` (and with it numpy and scipy) is
imported and timed.  The program under test only ever sees what this
module produces: CLI argument lists, config files and the tabulated mass
table, all written into the run's own work directory.

Each workload is a fixed *pass*: a list of task slots whose kind, mass
profile, family slice and grid size never change.  The seed only draws
the continuous parameters (masses, profile shapes, family coefficients,
targets) from ranges a user would run, so every seed asks for the same
amount of work and a parent commit and a change always do the same work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("verify_fd", "fields_groundstate", "algebra_sweep")

PROFILE_NAMES = ("constant", "exp_mass", "asinh_mu", "arctan_mu", "tabulated")
FAMILY_NAMES = ("ho", "morse", "pt_trig", "pt_hyp", "coulomb")

# The tabulated profile is sampled on [-TABLE_SPAN, TABLE_SPAN].
TABLE_SPAN = 20.0
TABLE_STEP = 0.25


@dataclass
class Task:
    """One unit of client work.

    ``kind`` is ``cli`` (``argv`` is passed to ``cli.main`` with an
    ``--out`` directory appended) or a library call (``zeromode``,
    ``mu_inverse``, ``coulomb_fd``) whose inputs are in ``spec``.
    ``spec`` also carries what the output check needs.  ``points`` is
    the number of grid points the task asks for.
    """

    label: str
    kind: str
    spec: dict
    points: int = 0
    argv: Optional[list] = None


@dataclass
class Plan:
    workload: str
    seed: int
    profiles: dict  # profile key -> profile spec
    mumaps: list  # (profile key, x_ref or None), built at set-up
    tasks: list = field(default_factory=list)

    def setup_spec(self) -> dict:
        """What a set-up needs: the profiles and the MuMaps to build."""
        return {"profiles": self.profiles, "mumaps": self.mumaps}


# --------------------------------------------------------------------------
# mass profiles


def draw_profiles(seed: int, workdir: Path) -> dict:
    """The five registry profiles for a seed; writes the tabulated CSV."""
    rng = random.Random(f"profiles/{seed}")
    profiles = {
        "constant": {"name": "constant", "m0": rng.uniform(0.45, 0.55)},
        "exp_mass": {"name": "exp_mass", "m0": rng.uniform(0.45, 0.55), "beta": rng.uniform(0.4, 0.6)},
        "asinh_mu": {"name": "asinh_mu", "m0": rng.uniform(0.45, 0.55), "alpha": rng.uniform(0.08, 0.12)},
        "arctan_mu": {"name": "arctan_mu", "m0": rng.uniform(0.45, 0.55), "alpha": rng.uniform(0.025, 0.035)},
    }
    # a smooth positive mass with +-13% ripple around m0
    m0 = rng.uniform(0.45, 0.55)
    k1, k2 = rng.uniform(0.3, 0.4), rng.uniform(0.8, 1.0)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    n = int(round(2.0 * TABLE_SPAN / TABLE_STEP)) + 1
    xs = [-TABLE_SPAN + i * TABLE_STEP for i in range(n)]
    ms = [m0 * math.exp(0.08 * math.sin(k1 * x + p1) + 0.05 * math.sin(k2 * x + p2)) for x in xs]
    path = Path(workdir) / "mass_table.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ["# seeded tabulated mass profile", "x,m"]
    rows += [f"{x!r},{m!r}" for x, m in zip(xs, ms)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    profiles["tabulated"] = {"name": "tabulated", "path": str(path), "x": xs, "m": ms}
    return profiles


def _s(p: dict) -> float:
    return math.sqrt(2.0 * p["m0"])


def _s_bounds(p: dict) -> tuple:
    """Lower and upper bound of 1/U = sqrt(2 m) over a tabulated profile."""
    vals = [math.sqrt(2.0 * m) for m in p["m"]]
    return min(vals), max(vals)


def x_of_mu(p: dict, mu: float, x_ref: Optional[float] = None) -> float:
    """Closed-form inverse of the deformation coordinate, for grid ranges.

    Used only to place grids; the checks compute mu by quadrature.  For
    ``tabulated`` the bound is conservative: the returned x has
    |mu(x)| >= |mu| (mu measured from ``x_ref``).
    """
    name = p["name"]
    if name == "tabulated":
        s_min, _ = _s_bounds(p)
        return x_ref + mu / s_min
    s = _s(p)
    if name == "constant":
        return (0.0 if x_ref is None else x_ref) + mu / s
    if name == "exp_mass":
        beta = p["beta"]
        base = 0.0 if x_ref is None else math.exp(beta * x_ref)
        return math.log(base + beta * mu / s) / beta
    alpha = p["alpha"]
    if name == "asinh_mu":
        base = 0.0 if x_ref is None else math.asinh(alpha * x_ref)
        return math.sinh(alpha * mu / s + base) / alpha
    base = 0.0 if x_ref is None else math.atan(alpha * x_ref)
    return math.tan(alpha * mu / s + base) / alpha


def exp_mass_shift(p: dict, mu_floor: float) -> float:
    """x_ref that moves the exp_mass range (0, inf) to (mu_floor, inf).

    This lets a full-line well sit inside the exponential-mass coordinate,
    where U stays of order one instead of blowing up at the left edge.
    """
    return math.log(-mu_floor * p["beta"] / _s(p)) / p["beta"]


# --------------------------------------------------------------------------
# argument lists


def _num(v) -> str:
    return repr(int(v)) if isinstance(v, int) else repr(float(v))


def profile_flags(p: dict, x_ref: Optional[float] = None) -> list:
    flags = [f"--profile={p['name']}"]
    if p["name"] == "tabulated":
        flags.append(f"--table={p['path']}")
    else:
        flags.append(f"--m0={_num(p['m0'])}")
        for key in ("alpha", "beta"):
            if key in p:
                flags.append(f"--{key}={_num(p[key])}")
    if x_ref is not None:
        flags.append(f"--x-ref={_num(x_ref)}")
    return flags


_FAMILY_KEYS = ("a", "b", "c", "lambda0", "sigma0", "rho0", "l", "ze2")


def family_flags(fam: dict) -> list:
    flags = [f"--family={fam['tag']}"]
    for key in _FAMILY_KEYS:
        if key in fam:
            flags.append(f"--{key}={_num(fam[key])}")
    return flags


def grid_flags(x_lo: float, x_hi: float, n: int) -> list:
    return [f"--x-lo={_num(x_lo)}", f"--x-hi={_num(x_hi)}", f"--n-points={n}"]


def config_section(p: dict) -> dict:
    """The ``profile`` section of a CLI config file."""
    keys = ("path",) if p["name"] == "tabulated" else ("m0", "alpha", "beta")
    return {"name": p["name"], **{k: p[k] for k in keys if k in p}}


# --------------------------------------------------------------------------
# family parameter draws


def draw_family(rng: random.Random, tag: str) -> dict:
    """A valid starting point anywhere in a family (used for spectra)."""
    lam, sig, rho = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    if tag == "ho":
        return {"tag": "ho", "a": rng.uniform(0.2, 2.0), "b": rng.uniform(0.0, 1.0),
                "lambda0": lam, "sigma0": sig, "rho0": rho}
    if tag == "morse":
        return {"tag": "morse", "a": -rng.uniform(0.2, 2.0), "b": rng.uniform(0.2, 0.95),
                "lambda0": lam, "sigma0": sig, "rho0": rho}
    if tag in ("pt_trig", "pt_hyp"):
        a, b = rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5)
        disc = 4.0 * rng.uniform(0.2, 2.0) * (1.0 if tag == "pt_trig" else -1.0)
        return {"tag": tag, "a": a, "b": b, "c": (b * b + disc) / (4.0 * a),
                "lambda0": lam, "sigma0": sig, "rho0": rho}
    return {"tag": "coulomb", "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.2, 1.0),
            "l": rng.randint(0, 2), "ze2": rng.uniform(0.5, 2.0)}


def morse_reduced(rng, sigma_sign: float, sigma_ratio: tuple) -> dict:
    """Single-exponential well (b = rho0 = 0); sigma0 = sign * |a| * ratio."""
    a = -rng.uniform(0.9, 1.1)
    return {"tag": "morse", "a": a, "b": 0.0, "lambda0": rng.uniform(0.8, 1.2),
            "sigma0": sigma_sign * abs(a) * rng.uniform(*sigma_ratio), "rho0": 0.0}


def ho_slice(rng, l_range: Optional[tuple] = None) -> dict:
    """Oscillator with b = sigma0 = 0; rho0 = -a l for a half-line zero mode."""
    a = rng.uniform(0.8, 1.2)
    rho = -a * rng.uniform(*l_range) if l_range else 0.0
    return {"tag": "ho", "a": a, "b": 0.0, "lambda0": rng.uniform(0.8, 1.2),
            "sigma0": 0.0, "rho0": rho}


def pt_slice(rng, tag: str, lam_over_a: tuple, rho_over_c: Optional[tuple]) -> dict:
    """Quadratic family with b = sigma0 = 0, |c| drawn independently of a."""
    a = rng.uniform(0.8, 1.2)
    c = rng.uniform(0.8, 1.2) * (1.0 if tag == "pt_trig" else -1.0)
    rho = c * rng.uniform(*rho_over_c) if rho_over_c else 0.0
    return {"tag": tag, "a": a, "b": 0.0, "c": c, "lambda0": a * rng.uniform(*lam_over_a),
            "sigma0": 0.0, "rho0": rho}


def coulomb(rng, l: int, ze2: tuple) -> dict:
    return {"tag": "coulomb", "a": rng.uniform(0.8, 1.2), "b": rng.uniform(0.3, 0.8),
            "l": l, "ze2": rng.uniform(*ze2)}


# --------------------------------------------------------------------------
# verify_fd


def _verify(plan, rng, prof, kind, n_points, n_levels):
    p = plan.profiles[prof]
    x_ref = None
    if kind == "morse_reduced":
        fam = morse_reduced(rng, 1.0, (2.5, 2.8))
        mu_lo, mu_hi = -20.0, 5.0
    elif kind == "ho_line":
        fam = ho_slice(rng)
        mu_lo, mu_hi = -8.0, 8.0
    else:  # pt_trig half well: mu in (0, pi / (2 sqrt(ac)))
        fam = pt_slice(rng, "pt_trig", (2.0, 3.0), None)
        mu_lo, mu_hi = 0.0, math.pi / (2.0 * math.sqrt(fam["a"] * fam["c"]))
    if prof == "exp_mass":
        x_ref = exp_mass_shift(p, -30.0)
    elif prof == "tabulated":
        x_ref = 4.0
    x_lo, x_hi = x_of_mu(p, mu_lo, x_ref), x_of_mu(p, mu_hi, x_ref)
    argv = ["verify", *profile_flags(p, x_ref), *family_flags(fam),
            *grid_flags(x_lo, x_hi, n_points), f"--n={n_levels}"]
    spec = {"profile": prof, "x_ref": x_ref, "family": fam, "reference": kind,
            "n_levels": n_levels}
    plan.tasks.append(Task(f"verify/{kind}/{prof}/{n_points}", "cli", spec, n_points, argv))


def _coulomb_fd(plan, rng, prof, l, ze2, mu_hi, n_points):
    p = plan.profiles[prof]
    x_ref = {"constant": None, "exp_mass": 0.0, "tabulated": -19.0}[prof]
    fam = coulomb(rng, l, ze2)
    x_lo = 0.0 if x_ref is None else x_ref
    grid = [x_lo, x_of_mu(p, mu_hi, x_ref), n_points]
    spec = {"profile": prof, "x_ref": x_ref, "family": fam, "grid": grid, "k": 3}
    if (prof, x_ref) not in plan.mumaps:
        plan.mumaps.append((prof, x_ref))
    plan.tasks.append(Task(f"coulomb_fd/{prof}/{n_points}", "coulomb_fd", spec, n_points))


def _plan_verify_fd(plan, rng):
    # Seven of the twelve tasks are 1001-point solves, so the median task
    # is one of them; the 1501-4001 point tasks weigh on throughput.
    _verify(plan, rng, "constant", "morse_reduced", 4001, 3)
    _coulomb_fd(plan, rng, "constant", 0, (1.8, 2.2), 40.0, 1001)
    _verify(plan, rng, "exp_mass", "morse_reduced", 1001, 3)
    _verify(plan, rng, "asinh_mu", "ho_line", 2001, 3)
    _coulomb_fd(plan, rng, "exp_mass", 1, (1.8, 2.2), 60.0, 1001)
    _verify(plan, rng, "tabulated", "morse_reduced", 2001, 3)
    _verify(plan, rng, "arctan_mu", "morse_reduced", 1001, 4)
    _coulomb_fd(plan, rng, "tabulated", 0, (2.7, 3.3), 30.0, 1501)
    _verify(plan, rng, "exp_mass", "ho_line", 1001, 3)
    _verify(plan, rng, "constant", "pt_trig_half", 1501, 3)
    _verify(plan, rng, "constant", "ho_line", 1001, 4)
    _verify(plan, rng, "asinh_mu", "morse_reduced", 1001, 3)


# --------------------------------------------------------------------------
# fields_groundstate


def _cli_grid(plan, command, prof, fam, x_ref, mu_lo, mu_hi, n_points, extra=None):
    p = plan.profiles[prof]
    x_lo, x_hi = x_of_mu(p, mu_lo, x_ref), x_of_mu(p, mu_hi, x_ref)
    argv = [command, *profile_flags(p, x_ref), *family_flags(fam),
            *grid_flags(x_lo, x_hi, n_points)]
    spec = {"profile": prof, "x_ref": x_ref, "family": fam, **(extra or {})}
    plan.tasks.append(Task(f"{command}/{fam['tag']}/{prof}/{n_points}", "cli", spec,
                           n_points, argv))


def _tabulated_window(p: dict, x_ref: float, mu_lo: float, mu_hi: float) -> tuple:
    """Grid ends on a tabulated profile with mu inside [mu_lo, mu_hi]."""
    s_min, s_max = _s_bounds(p)
    return x_ref + mu_lo / s_min, x_ref + mu_hi / s_max


def _zeromode(plan, prof, fam, mu_lo, mu_hi, n_points):
    p = plan.profiles[prof]
    if prof == "tabulated":
        x_lo, x_hi = p["x"][0] + 0.1, 10.0
    else:
        x_lo, x_hi = x_of_mu(p, mu_lo), x_of_mu(p, mu_hi)
    spec = {"profile": prof, "x_ref": None, "family": fam, "grid": [x_lo, x_hi, n_points]}
    plan.tasks.append(Task(f"zeromode/{fam['tag']}/{prof}/{n_points}", "zeromode", spec,
                           n_points))


def _mu_inverse(plan, rng, prof, inside, outside):
    xs = [rng.uniform(*inside) for _ in range(8)]
    for lo, hi in outside:
        xs.append(rng.uniform(lo, hi))
    spec = {"profile": prof, "x_ref": None, "xs": xs}
    plan.tasks.append(Task(f"mu_inverse/{prof}/{len(xs)}", "mu_inverse", spec))


def _plan_fields_groundstate(plan, rng):
    P = plan.profiles
    # potential: every profile, families off their invariant slices
    ho = {"tag": "ho", "a": rng.uniform(0.8, 1.2), "b": rng.uniform(0.1, 0.5),
          "lambda0": rng.uniform(0.8, 1.2), "sigma0": rng.uniform(-0.5, 0.5), "rho0": rng.uniform(0.2, 0.8)}
    _cli_grid(plan, "potential", "constant", ho, None, 0.05, 6.0, 2001)
    morse = {"tag": "morse", "a": -rng.uniform(0.8, 1.2), "b": rng.uniform(0.3, 0.8),
             "lambda0": rng.uniform(0.8, 1.2), "sigma0": rng.uniform(-1.0, 1.0), "rho0": rng.uniform(-0.5, 0.5)}
    _cli_grid(plan, "potential", "asinh_mu", morse, None, 0.1, 5.0, 1001)
    hyp = {"tag": "pt_hyp", "a": rng.uniform(0.8, 1.2), "b": 0.0, "c": -rng.uniform(0.8, 1.2),
           "lambda0": -rng.uniform(1.0, 2.0), "sigma0": rng.uniform(-0.5, 0.5), "rho0": rng.uniform(0.2, 0.8)}
    _cli_grid(plan, "potential", "arctan_mu", hyp, None, 0.2, 8.0, 513)
    _cli_grid(plan, "potential", "exp_mass", coulomb(rng, rng.randint(0, 2), (0.8, 1.2)),
              None, 0.05, 30.0, 257)
    trig = {"tag": "pt_trig", "a": rng.uniform(0.8, 1.2), "b": 0.0, "c": rng.uniform(0.8, 1.2),
            "lambda0": rng.uniform(1.0, 2.0), "sigma0": rng.uniform(0.2, 0.8), "rho0": rng.uniform(0.2, 0.8)}
    x_ref = -10.0
    x_lo, x_hi = _tabulated_window(P["tabulated"], x_ref, 0.05,
                                   0.9 * math.pi / (2.0 * math.sqrt(trig["a"] * trig["c"])))
    argv = ["potential", *profile_flags(P["tabulated"], x_ref), *family_flags(trig),
            *grid_flags(x_lo, x_hi, 1001)]
    plan.tasks.append(Task("potential/pt_trig/tabulated/1001", "cli",
                           {"profile": "tabulated", "x_ref": x_ref, "family": trig},
                           1001, argv))

    # groundstate: closed-form slices, so the benchmark knows psi up to a constant
    _cli_grid(plan, "groundstate", "constant", morse_reduced(rng, -1.0, (2.0, 2.6)), None,
              -20.0, 5.0, 4001)
    _cli_grid(plan, "groundstate", "asinh_mu", ho_slice(rng, (1.0, 2.0)), None, 0.05, 7.0, 2001)
    _cli_grid(plan, "groundstate", "exp_mass", coulomb(rng, rng.randint(0, 1), (0.8, 1.2)),
              None, 0.05, 40.0, 1001)
    _cli_grid(plan, "groundstate", "tabulated", morse_reduced(rng, -1.0, (2.0, 2.6)), 4.0,
              -16.0, 4.0, 513)
    _cli_grid(plan, "groundstate", "arctan_mu", pt_slice(rng, "pt_hyp", (-2.5, -1.5), None),
              None, -10.0, 10.0, 257)

    # shapecheck: two invariant slices (residual ~ 0) and one general point
    # rho flips to -a after one step, so the next partner has a pole at mu = 0
    _cli_grid(plan, "shapecheck", "constant", ho_slice(rng), None, 0.05, 6.0, 1001,
              {"invariant": True})
    _cli_grid(plan, "shapecheck", "asinh_mu", dict(morse, sigma0=rng.uniform(-1.0, 1.0)), None,
              0.1, 5.0, 513, {"invariant": False})
    hyp_slice = pt_slice(rng, "pt_hyp", (-2.5, -1.5), None)
    argv = ["shapecheck", *profile_flags(P["tabulated"]), *family_flags(hyp_slice),
            *grid_flags(-19.0, 10.0, 257)]
    plan.tasks.append(Task("shapecheck/pt_hyp/tabulated/257", "cli",
                           {"profile": "tabulated", "x_ref": None, "family": hyp_slice,
                            "invariant": True}, 257, argv))

    # library zero modes: generic vs closed form on the set-up MuMaps
    trig = pt_slice(rng, "pt_trig", (1.5, 2.5), (-1.5, -0.5))
    k = math.sqrt(trig["a"] * trig["c"])
    _zeromode(plan, "constant", trig, 0.02, math.pi / (2.0 * k) - 0.02, 2001)
    # the coulomb zero mode grows like mu^(l+1) from the pole at mu = 0; the
    # grid starts at mu = 0.2, where its 0.03 steps resolve that growth
    _zeromode(plan, "asinh_mu", coulomb(rng, rng.randint(0, 1), (0.8, 1.2)), 0.2, 30.0, 1001)
    # exp_mass maps a uniform x grid to a geometric one in mu, fine near the pole
    _zeromode(plan, "exp_mass", ho_slice(rng, (1.0, 2.0)), 0.05, 7.0, 513)
    a = -rng.uniform(0.8, 1.2)
    half = {"tag": "morse", "a": a, "b": 0.0, "lambda0": rng.uniform(0.8, 1.2),
            "sigma0": 0.5 * a, "rho0": 0.0}
    _zeromode(plan, "arctan_mu", half, -30.0, 5.0, 1001)
    _zeromode(plan, "tabulated", pt_slice(rng, "pt_hyp", (-2.5, -1.5), (-1.0, -0.3)),
              None, None, 257)

    # inverse map, including targets beyond the 257-anchor window (|x| > 40)
    _mu_inverse(plan, rng, "asinh_mu", (-35.0, 35.0), [(50, 70), (-70, -50), (80, 120), (-120, -80)])
    _mu_inverse(plan, rng, "arctan_mu", (-35.0, 35.0), [(50, 80), (-80, -50), (100, 150), (-150, -100)])
    _mu_inverse(plan, rng, "exp_mass", (-10.0, 30.0), [(45, 52), (52, 60)])
    _mu_inverse(plan, rng, "tabulated", (-19.0, 19.0), [])
    _mu_inverse(plan, rng, "constant", (-35.0, 35.0), [(50, 90), (-90, -50), (100, 150), (-150, -100)])


# --------------------------------------------------------------------------
# algebra_sweep

SPECTRUM_TASKS = 96
SWEEP_TASKS = 8
SWEEP_EVERY = 13  # one sweep after every 12 spectra: 104 tasks per pass


def _spectrum_config(plan, rng, index, prof, tag) -> Task:
    fam = draw_family(rng, tag)
    n = rng.randint(3, 8)
    p = plan.profiles[prof]
    argv = ["spectrum", *profile_flags(p), *family_flags(fam), f"--n={n}"]
    spec = {"profile": prof, "family": fam, "n": n}
    return Task(f"spectrum/{tag}/{prof}/{index}", "cli", spec, 0, argv)


def _sweep_config(plan, rng, index, prof, tag, workdir: Path) -> Task:
    fam = draw_family(rng, tag)
    key = "family.ze2" if tag == "coulomb" else "family.lambda0"
    lo = 0.5 if tag == "coulomb" else 0.2
    values = sorted(rng.uniform(lo, 2.0) for _ in range(4))
    cfg = {"profile": config_section(plan.profiles[prof]), "family": fam, "n": 4,
           "outputs": ["spectrum"], "sweep": {key: values, "n": [3, 6]}}
    path = Path(workdir) / f"sweep_{index:03d}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    spec = {"profile": prof, "family": fam, "sweep": cfg["sweep"]}
    return Task(f"sweep/{tag}/{prof}/{index}", "cli", spec, 0, ["sweep", f"--config={path}"])


def _plan_algebra_sweep(plan, rng, workdir):
    n_spec = n_sweep = 0
    for i in range(SPECTRUM_TASKS + SWEEP_TASKS):
        if i % SWEEP_EVERY == SWEEP_EVERY - 1:
            # Sweeps pair profile and family differently from the spectra.  They
            # are timed without in-task speed samples (see run.py), so they use
            # the four analytic profiles, whose MuMaps build in tens of ms; the
            # tabulated profile's 250 ms builds stay in the spectrum tasks.
            prof = PROFILE_NAMES[n_sweep % 4]
            tag = FAMILY_NAMES[(n_sweep + 2) % 5]
            plan.tasks.append(_sweep_config(plan, rng, i, prof, tag, workdir))
            n_sweep += 1
        else:
            # all 25 (family, profile) pairs, four times per pass
            tag = FAMILY_NAMES[n_spec % 5]
            prof = PROFILE_NAMES[(n_spec // 5 + n_spec) % 5]
            plan.tasks.append(_spectrum_config(plan, rng, i, prof, tag))
            n_spec += 1


def generate(workload: str, seed: int, workdir) -> Plan:
    """The fixed pass for a workload, drawn from ``seed``.

    Writes the tabulated mass table and any sweep configs into
    ``workdir``; the same seed and directory give identical files and
    tasks.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = Path(workdir)
    # every set-up builds the five profiles with their default MuMaps;
    # library tasks that need another anchor add theirs
    plan = Plan(workload, seed, draw_profiles(seed, workdir),
                [(prof, None) for prof in PROFILE_NAMES])
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify_fd":
        _plan_verify_fd(plan, rng)
    elif workload == "fields_groundstate":
        _plan_fields_groundstate(plan, rng)
    else:
        _plan_algebra_sweep(plan, rng, workdir)
    return plan
