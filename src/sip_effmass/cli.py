"""Command-line front end: configuration, batch execution, serialization.

Subcommands: spectrum, potential, groundstate, verify, shapecheck,
sweep.  Outputs are deterministic (fixed float formatting at 17
significant digits): identical configs produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError, SipEffmassError, ValidationError
from .families import FamilyCoeffs, FamilyModel, ParamTriple, canonical_family
from .groundstate import _annihilation_pointwise, _psi0_generic
from .massprofile import MassProfile, MuMap, registry_get
from .spectra import (
    CoulombParams,
    coulomb_closed_level,
    coulomb_spectrum_sum,
    spectrum_closed,
    spectrum_sum,
)
from .verify import GridSpec, compare, morse_reduced_compare

HEADER_COMMENT = "# units: hbar = 1, e2 = 1"


def _fmt(value) -> str:
    """Fixed 17-significant-digit rendering for floats."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return format(value, ".17g")
    return str(value)


def _json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return _fmt(obj)
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"unserializable value of type {type(obj)!r}")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, title: str, columns: list[str], rows):
    lines = [f"# sip-effmass {title}", HEADER_COMMENT, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, title: str, payload: dict):
    doc = {"tool": f"sip-effmass {title}", "units": {"hbar": 1.0, "e2": 1.0}, **payload}
    _write_text(path, _json_dumps(doc) + "\n")


# --------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    command: str
    profile: dict = field(default_factory=dict)
    family: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    n: int = 4
    tol: float = 5e-3
    out: str = "."
    sweep: dict = field(default_factory=dict)
    outputs: list = field(default_factory=lambda: ["spectrum"])


_PROFILE_KEYS = ("m0", "alpha", "beta", "path", "x_ref")
_FAMILY_KEYS = ("tag", "a", "b", "c", "lambda0", "sigma0", "rho0", "l", "ze2")


def _family_tag(fcfg: dict) -> str:
    """Family tag from a config section; 'tag' and 'name' are synonyms."""
    return canonical_family(str(fcfg.get("tag", fcfg.get("name", ""))))


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")

    cfg = RunConfig(
        command=args.command,
        profile=dict(raw.get("profile", {})),
        family=dict(raw.get("family", {})),
        grid=dict(raw.get("grid", {})),
        n=int(raw.get("n", 4)),
        tol=float(raw.get("tol", 5e-3)),
        out=str(raw.get("out", ".")),
        sweep=dict(raw.get("sweep", {})),
        outputs=list(raw.get("outputs", ["spectrum"])),
    )

    # command-line flags override file fields
    if getattr(args, "profile", None):
        cfg.profile["name"] = args.profile
    for key in _PROFILE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg.profile[key] = val
    if getattr(args, "family", None):
        cfg.family["tag"] = args.family
    for key in _FAMILY_KEYS[1:]:
        val = getattr(args, key, None)
        if val is not None:
            cfg.family[key] = val
    for key, attr in (("x_lo", "x_lo"), ("x_hi", "x_hi"), ("n_points", "n_points")):
        val = getattr(args, attr, None)
        if val is not None:
            cfg.grid[key] = val
    if getattr(args, "n", None) is not None:
        cfg.n = args.n
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    return cfg


def build_profile(cfg: RunConfig) -> tuple[MassProfile, MuMap]:
    pcfg = dict(cfg.profile)
    name = pcfg.pop("name", "constant")
    x_ref = pcfg.pop("x_ref", None)
    pcfg.setdefault("m0", 0.5)
    if name != "tabulated":
        pcfg.pop("path", None)
    if name in ("constant", "tabulated"):
        pcfg = {k: v for k, v in pcfg.items() if k in ("m0", "path", "data")}
        if name == "tabulated":
            pcfg.pop("m0", None)
    profile = registry_get(name, **pcfg)
    mumap = MuMap(profile, x_ref=x_ref)
    return profile, mumap


def build_model(cfg: RunConfig, profile: MassProfile, mumap: MuMap) -> FamilyModel:
    fcfg = cfg.family
    tag = _family_tag(fcfg)
    a = float(fcfg.get("a", 1.0))
    b = float(fcfg.get("b", 0.0))
    if tag == "coulomb":
        return FamilyModel.coulomb(
            a=a,
            b=float(fcfg.get("b", 1.0)),
            l=int(fcfg.get("l", 0)),
            ze2=float(fcfg.get("ze2", 1.0)),
            profile=profile,
            mumap=mumap,
        )
    params0 = ParamTriple(
        lam=float(fcfg.get("lambda0", 1.0)),
        sigma=float(fcfg.get("sigma0", 0.0)),
        rho=float(fcfg.get("rho0", 0.0)),
    )
    coeffs = FamilyCoeffs(a=a, b=b, c=float(fcfg.get("c", 0.0)))
    if tag == "morse" and b == 0.0:
        # the reduced (single-exponential) slice is accepted as a formal limit
        return FamilyModel(
            family=tag,
            coeffs=coeffs,
            params0=params0,
            profile=profile,
            mumap=mumap,
            formal_limit=True,
        )
    return FamilyModel(
        family=tag, coeffs=coeffs, params0=params0, profile=profile, mumap=mumap
    )


def build_grid(cfg: RunConfig) -> GridSpec:
    g = cfg.grid
    return GridSpec(
        x_lo=float(g.get("x_lo", -10.0)),
        x_hi=float(g.get("x_hi", 10.0)),
        n_points=int(g.get("n_points", 1001)),
    )


# --------------------------------------------------------------------------
# artifact writers


def run_spectrum(cfg: RunConfig, out_dir: Path):
    profile, mumap = build_profile(cfg)
    if cfg.n < 1:
        raise ConfigError("need at least one level (--n >= 1)")
    n_max = cfg.n - 1
    tag = _family_tag(cfg.family)
    if tag == "coulomb":
        cp = CoulombParams(
            z=float(cfg.family.get("ze2", 1.0)),
            l=int(cfg.family.get("l", 0)),
            b=float(cfg.family.get("b", 1.0)),
        )
        sums = coulomb_spectrum_sum(cp, 2 * n_max)
        closed = [coulomb_closed_level(cp, 2 * n) for n, _ in sums.levels]
    else:
        model = build_model(cfg, profile, mumap)
        sums = spectrum_sum(model, n_max)
        closed = spectrum_closed(model, n_max).energies
    rows = [(n, e, c, c - e) for (n, e), c in zip(sums.levels, closed)]
    _write_csv(out_dir / "spectrum.csv", "spectrum", ["n", "E_partial_sum", "E_closed", "diff"], rows)


def run_potential(cfg: RunConfig, out_dir: Path):
    profile, mumap = build_profile(cfg)
    model = build_model(cfg, profile, mumap)
    f = model.fields(build_grid(cfg).nodes())
    names = ["x", "mu", "W", "V1", "V2", "V1eff", "V2eff"]
    columns = [f.x, f.mu, f.w, f.v1, f.v2, f.v1_eff, f.v2_eff]
    bad = [name for name, col in zip(names, columns) if not np.all(np.isfinite(col))]
    if bad:
        raise NumericalError(f"potential column(s) {', '.join(bad)} not finite on the grid")
    _write_csv(out_dir / "potential.csv", "potential", names, zip(*(c.tolist() for c in columns)))


def run_groundstate(cfg: RunConfig, out_dir: Path):
    profile, mumap = build_profile(cfg)
    model = build_model(cfg, profile, mumap)
    x = build_grid(cfg).nodes()
    table, mu, u = _psi0_generic(model, x)
    resid = np.full(x.size, float("nan"))
    weff = model.fields_of_mu(mu[2:-2]).weff
    resid[2:-2] = np.abs(_annihilation_pointwise(table, u, weff)) / np.max(np.abs(table.psi))
    rows = ((float(a), float(b), float(c)) for a, b, c in zip(x, table.psi, resid))
    _write_csv(out_dir / "groundstate.csv", "groundstate", ["x", "psi", "residual"], rows)


def run_verify(cfg: RunConfig, out_dir: Path):
    profile, mumap = build_profile(cfg)
    grid = build_grid(cfg)
    tag = _family_tag(cfg.family)
    if tag == "morse" and float(cfg.family.get("b", 0.0)) == 0.0:
        sigma0 = float(cfg.family.get("sigma0", 0.0))
        report = morse_reduced_compare(
            a=float(cfg.family.get("a", -1.0)),
            sigma0=abs(sigma0),
            profile=profile,
            mumap=mumap,
            grid=grid,
            n_levels=cfg.n,
            lambda0=float(cfg.family.get("lambda0", 1.0)),
            tol=cfg.tol,
        )
    else:
        model = build_model(cfg, profile, mumap)
        report = compare(model, grid, cfg.n, tol=cfg.tol)
    _write_json(out_dir / "verify.json", "verify", report)


def run_shapecheck(cfg: RunConfig, out_dir: Path):
    profile, mumap = build_profile(cfg)
    model = build_model(cfg, profile, mumap)
    grid = build_grid(cfg)
    f = model.fields(grid.interior())
    residual = model.shape_invariance_residual_of_mu(f.mu)
    scale = max(1.0, float(np.max(np.abs(f.v1_eff))), float(np.max(np.abs(f.v2_eff))))
    payload = {
        "max_residual": residual,
        "normalized_residual": residual / scale,
        "potential_scale": scale,
        "remainder": model.remainder_R(),
        "grid": grid.as_dict(),
    }
    _write_json(out_dir / "shapecheck.json", "shapecheck", payload)


_RUNNERS = {
    "spectrum": run_spectrum,
    "potential": run_potential,
    "groundstate": run_groundstate,
    "verify": run_verify,
    "shapecheck": run_shapecheck,
}


def _apply_override(cfg: RunConfig, dotted: str, value):
    section, _, key = dotted.partition(".")
    if not key:
        setattr(cfg, section, value)
        return
    target = getattr(cfg, section, None)
    if not isinstance(target, dict):
        raise ConfigError(f"unknown sweep target '{dotted}'")
    target[key] = value


def run_sweep(cfg: RunConfig, out_dir: Path):
    if not cfg.sweep:
        _write_json(out_dir / "manifest.json", "sweep", {"points": []})
        return
    keys = sorted(cfg.sweep)
    ranges = []
    for key in keys:
        vals = cfg.sweep[key]
        if not isinstance(vals, (list, tuple)):
            raise ConfigError(f"sweep values for '{key}' must be a list")
        ranges.append(list(vals))
    points = list(itertools.product(*ranges))
    outputs = [o for o in cfg.outputs if o in _RUNNERS]
    if not outputs:
        raise ConfigError("sweep needs at least one output kind in 'outputs'")

    entries = []
    for index, values in enumerate(points):
        sub = Path(out_dir) / f"point_{index:04d}"
        entry = {
            "index": index,
            "dir": sub.name,
            "overrides": {k: v for k, v in zip(keys, values)},
        }
        try:
            local = RunConfig(
                command=cfg.command,
                profile=dict(cfg.profile),
                family=dict(cfg.family),
                grid=dict(cfg.grid),
                n=cfg.n,
                tol=cfg.tol,
                out=str(sub),
            )
            for key, value in zip(keys, values):
                _apply_override(local, key, value)
            sub.mkdir(parents=True, exist_ok=True)
            for kind in outputs:
                _RUNNERS[kind](local, sub)
            entry["status"] = "ok"
        except SipEffmassError as exc:
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        entries.append(entry)
    _write_json(
        out_dir / "manifest.json",
        "sweep",
        {"points": entries, "parameters": {k: list(cfg.sweep[k]) for k in keys}},
    )


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--out", help="output directory (default '.')")
    sub.add_argument("--profile", help="mass profile name from the registry")
    sub.add_argument("--m0", type=float, help="mass scale m0 > 0")
    sub.add_argument("--alpha", type=float, help="profile shape parameter")
    sub.add_argument("--beta", type=float, help="exponential mass rate (> 0)")
    sub.add_argument("--table", dest="path", help="CSV path for the tabulated profile")
    sub.add_argument("--x-ref", dest="x_ref", type=float, help="anchor with mu(x_ref) = 0")
    sub.add_argument("--family", help="family tag: ho, morse, pt_trig, pt_hyp, coulomb")
    sub.add_argument("--a", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--lambda0", type=float)
    sub.add_argument("--sigma0", type=float)
    sub.add_argument("--rho0", type=float)
    sub.add_argument("--l", type=int, help="angular momentum (coulomb family)")
    sub.add_argument("--ze2", type=float, help="coupling Z e^2 (coulomb family)")
    sub.add_argument("--x-lo", dest="x_lo", type=float)
    sub.add_argument("--x-hi", dest="x_hi", type=float)
    sub.add_argument("--n-points", dest="n_points", type=int)
    sub.add_argument("--n", type=int, help="number of levels")
    sub.add_argument("--tol", type=float, help="comparison tolerance")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sip-effmass",
        description="Shape-invariant potentials for position-dependent effective mass",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "algebraic levels: partial sums vs closed forms"),
        ("potential", "sample mu, W, V1, V2 and the effective pair on a grid"),
        ("groundstate", "generic zero mode with pointwise annihilation residual"),
        ("verify", "finite-difference eigensolve vs algebraic levels"),
        ("shapecheck", "partner-potential residual against the remainder"),
        ("sweep", "run a cartesian parameter sweep"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # overflow is reported by the finiteness checks as exit 3, so numpy's
        # warnings would only put text ahead of the JSON error record
        with np.errstate(all="ignore"):
            if args.command == "sweep":
                run_sweep(cfg, out_dir)
            else:
                _RUNNERS[args.command](cfg, out_dir)
    except (ConfigError, ValidationError) as exc:
        record = {"error_type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            record["violations"] = exc.violations
        print(_json_dumps(record), file=sys.stderr)
        return 2
    except SipEffmassError as exc:
        record = {"error_type": type(exc).__name__, "message": str(exc)}
        print(_json_dumps(record), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
