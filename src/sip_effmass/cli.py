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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericalError, SipEffmassError, ValidationError
from .families import FamilyCoeffs, FamilyModel, ParamTriple, canonical_family
from .groundstate import _annihilation_pointwise, _psi0_generic
from .massprofile import MuMap, registry_get
from .spectra import coulomb_closed_level, coulomb_spectrum_sum, spectrum_closed, spectrum_sum
from .verify import GridSpec, _check_level_count, compare, morse_reduced_compare

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
    profile: dict = field(default_factory=dict)
    family: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    n: int = 4
    tol: float = 5e-3
    out: str = "."
    sweep: dict = field(default_factory=dict)
    outputs: list = field(default_factory=lambda: ["spectrum"])


# (flag, RunConfig key, type, help): everything a flag, a config-file field
# or a sweep key can set.  Rows without a flag are config-file only.
_KEYS = (
    ("--out", "out", str, "output directory (default '.')"),
    ("--profile", "profile.name", str, "mass profile name from the registry"),
    ("--m0", "profile.m0", float, "mass scale m0 > 0"),
    ("--alpha", "profile.alpha", float, "profile shape parameter"),
    ("--beta", "profile.beta", float, "exponential mass rate (> 0)"),
    ("--table", "profile.path", str, "CSV path for the tabulated profile"),
    (None, "profile.data", list, None),
    ("--x-ref", "profile.x_ref", float, "anchor with mu(x_ref) = 0"),
    ("--family", "family.tag", str, "family tag: ho, morse, pt_trig, pt_hyp, coulomb"),
    (None, "family.name", str, None),
    ("--a", "family.a", float, None),
    ("--b", "family.b", float, None),
    ("--c", "family.c", float, None),
    ("--lambda0", "family.lambda0", float, None),
    ("--sigma0", "family.sigma0", float, None),
    ("--rho0", "family.rho0", float, None),
    ("--l", "family.l", int, "angular momentum (coulomb family)"),
    ("--ze2", "family.ze2", float, "coupling Z e^2 (coulomb family)"),
    ("--x-lo", "grid.x_lo", float, None),
    ("--x-hi", "grid.x_hi", float, None),
    ("--n-points", "grid.n_points", int, None),
    ("--n", "n", int, "spectrum: number of levels; verify: highest level index"),
    ("--tol", "tol", float, "comparison tolerance"),
)
_KEY_TYPES = {key: typ for _, key, typ, _ in _KEYS}


def _key_type(dotted: str) -> type:
    if dotted not in _KEY_TYPES:
        raise ConfigError(f"unknown key '{dotted}'; known keys: {', '.join(_KEY_TYPES)}")
    return _KEY_TYPES[dotted]


def _apply_override(cfg: RunConfig, dotted: str, value):
    """Set one key of the table on cfg, converted with the key's type."""
    typ = _key_type(dotted)
    try:
        typed = typ(value) if typ in (int, float) else value
    except (TypeError, ValueError, OverflowError):
        typed = None
    # str and list keys take only their own type; an int key takes no fraction
    if not isinstance(typed, typ) or (typ is int and isinstance(value, float) and typed != value):
        raise ConfigError(f"'{dotted}' takes a value of type {typ.__name__}, got {value!r}")
    section, _, key = dotted.partition(".")
    if key:
        getattr(cfg, section)[key] = typed
    else:
        setattr(cfg, section, typed)


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8 text
            raise ConfigError(f"unreadable config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")

    sweep_only = [name for name in ("sweep", "outputs") if name in raw]
    if sweep_only and args.command != "sweep":
        raise ConfigError(f"config {' and '.join(sweep_only)} read only by the sweep command")
    cfg = RunConfig(sweep=raw.pop("sweep", {}), outputs=raw.pop("outputs", ["spectrum"]))
    if not (isinstance(cfg.sweep, dict) and isinstance(cfg.outputs, list)):
        raise ConfigError("config 'sweep' must be a JSON object and 'outputs' a list")
    unknown = [o for o in cfg.outputs if not isinstance(o, str) or o not in _RUNNERS]
    if unknown:
        raise ConfigError(f"unknown sweep output(s) {unknown!r}; known: {', '.join(_RUNNERS)}")
    if not cfg.outputs:
        raise ConfigError("sweep needs at least one output kind in 'outputs'")
    for name, value in raw.items():
        if name not in ("profile", "family", "grid"):
            _apply_override(cfg, name, value)
        elif not isinstance(value, dict):
            raise ConfigError(f"config section '{name}' must be a JSON object")
        else:
            for key, item in value.items():
                _apply_override(cfg, f"{name}.{key}", item)
    # command-line flags override file fields
    flags = vars(args)
    for key in _KEY_TYPES:
        if flags.get(key) is not None:
            _apply_override(cfg, key, flags[key])
    return cfg


# family keys that cannot take effect: coulomb derives (c, lambda0, sigma0,
# rho0) from (a, b, l, ze2), and ho and morse have no c.  The profile
# builders name their own keys (registry_get rejects the others).
_DEAD_KEYS = {
    "coulomb": ("c", "lambda0", "sigma0", "rho0"),
    "ho": ("c", "l", "ze2"),
    "morse": ("c", "l", "ze2"),
    "pt_trig": ("l", "ze2"),
    "pt_hyp": ("l", "ze2"),
}


def build_profile(cfg: RunConfig) -> MuMap:
    """The configured profile's mu map; the profile is ``mumap.profile``."""
    pcfg = dict(cfg.profile)
    name = pcfg.pop("name", "constant")
    x_ref = pcfg.pop("x_ref", None)
    profile = registry_get(name, **pcfg)
    try:
        return MuMap(profile, x_ref=x_ref)
    except (DomainError, NumericalError) as exc:  # raised only for x_ref
        raise ConfigError(f"bad x_ref: {exc}") from exc


def build_model(cfg: RunConfig) -> FamilyModel:
    mumap = build_profile(cfg)
    fcfg = cfg.family
    if "tag" in fcfg and "name" in fcfg:
        raise ConfigError("family 'tag' and 'name' are synonyms: give one of them")
    tag = canonical_family(fcfg.get("tag", fcfg.get("name", "")))
    dead = [key for key in _DEAD_KEYS[tag] if key in fcfg]
    if dead:
        raise ConfigError(f"family '{tag}' does not take {', '.join(dead)}")
    a = fcfg.get("a", 1.0)
    if tag == "coulomb":
        return FamilyModel.coulomb(
            a=a,
            b=fcfg.get("b", 1.0),
            l=fcfg.get("l", 0),
            ze2=fcfg.get("ze2", 1.0),
            profile=mumap.profile,
            mumap=mumap,
        )
    params0 = ParamTriple(
        lam=fcfg.get("lambda0", 1.0), sigma=fcfg.get("sigma0", 0.0), rho=fcfg.get("rho0", 0.0)
    )
    coeffs = FamilyCoeffs(a=a, b=fcfg.get("b", 0.0), c=fcfg.get("c", 0.0))
    return FamilyModel(
        family=tag, coeffs=coeffs, params0=params0, profile=mumap.profile, mumap=mumap
    )


def build_grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(**{"x_lo": -10.0, "x_hi": 10.0, "n_points": 1001, **cfg.grid})


# --------------------------------------------------------------------------
# artifact writers


def run_spectrum(cfg: RunConfig, out_dir: Path):
    if cfg.n < 1:
        raise ConfigError("need at least one level (--n >= 1)")
    n_max = cfg.n - 1
    model = build_model(cfg)
    if model.family == "coulomb":
        sums = coulomb_spectrum_sum(model, 2 * n_max)
        closed = [0.0] + [coulomb_closed_level(model, 2 * n) for n in range(1, n_max + 1)]
    else:
        sums = spectrum_sum(model, n_max)
        closed = spectrum_closed(model, n_max).energies
    rows = [(n, e, c, c - e) for (n, e), c in zip(sums.levels, closed)]
    _write_csv(out_dir / "spectrum.csv", "spectrum", ["n", "E_partial_sum", "E_closed", "diff"], rows)


def run_potential(cfg: RunConfig, out_dir: Path):
    model = build_model(cfg)
    f = model.fields(build_grid(cfg).nodes())
    names = ["x", "mu", "W", "V1", "V2", "V1eff", "V2eff"]
    columns = [f.x, f.mu, f.w, f.v1, f.v2, f.v1_eff, f.v2_eff]
    bad = [name for name, col in zip(names, columns) if not np.all(np.isfinite(col))]
    if bad:
        raise NumericalError(f"potential column(s) {', '.join(bad)} not finite on the grid")
    _write_csv(out_dir / "potential.csv", "potential", names, zip(*(c.tolist() for c in columns)))


def run_groundstate(cfg: RunConfig, out_dir: Path):
    model = build_model(cfg)
    x = build_grid(cfg).nodes()
    table, mu, u = _psi0_generic(model, x)
    resid = np.full(x.size, float("nan"))
    weff = model.fields_of_mu(mu[2:-2]).weff
    resid[2:-2] = np.abs(_annihilation_pointwise(table, u, weff)) / np.max(np.abs(table.psi))
    rows = ((float(a), float(b), float(c)) for a, b, c in zip(x, table.psi, resid))
    _write_csv(out_dir / "groundstate.csv", "groundstate", ["x", "psi", "residual"], rows)


def run_verify(cfg: RunConfig, out_dir: Path):
    _check_level_count(cfg.n)
    model = build_model(cfg)
    grid = build_grid(cfg)
    if model.family == "morse" and model.coeffs.b == 0.0:
        # the reduced well is compared at rho0 = 0, so another rho0 is not checked
        if model.params0.rho != 0.0:
            raise ConfigError(
                f"verify on the morse b = 0 slice takes rho0 = 0, got {model.params0.rho!r}"
            )
        report = morse_reduced_compare(
            a=model.coeffs.a,
            sigma0=abs(model.params0.sigma),
            profile=model.profile,
            mumap=model.mumap,
            grid=grid,
            n_levels=cfg.n,
            lambda0=model.params0.lam,
            tol=cfg.tol,
        )
    else:
        report = compare(model, grid, cfg.n, tol=cfg.tol)
    _write_json(out_dir / "verify.json", "verify", report)


def run_shapecheck(cfg: RunConfig, out_dir: Path):
    model = build_model(cfg)
    grid = build_grid(cfg)
    mu = model.mumap.mu_array(grid.interior())
    f = model.fields_of_mu(mu)
    residual = model.shape_invariance_residual_of_mu(mu)
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


def run_sweep(cfg: RunConfig, out_dir: Path):
    if not cfg.sweep:
        _write_json(out_dir / "manifest.json", "sweep", {"points": []})
        return
    keys = sorted(cfg.sweep)
    ranges = []
    for key in keys:
        _key_type(key)  # an unknown key fails the sweep before any point runs
        vals = cfg.sweep[key]
        if not isinstance(vals, (list, tuple)):
            raise ConfigError(f"sweep values for '{key}' must be a list")
        ranges.append(list(vals))
    points = list(itertools.product(*ranges))

    entries = []
    for index, values in enumerate(points):
        sub = Path(out_dir) / f"point_{index:04d}"
        entry = {
            "index": index,
            "dir": sub.name,
            "overrides": {k: v for k, v in zip(keys, values)},
        }
        try:
            local = replace(
                cfg,
                profile=dict(cfg.profile),
                family=dict(cfg.family),
                grid=dict(cfg.grid),
                out=str(sub),
            )
            for key, value in zip(keys, values):
                _apply_override(local, key, value)
            sub.mkdir(parents=True, exist_ok=True)
            for kind in cfg.outputs:
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
    # values stay strings here: load_config types them with the table
    for flag, key, _, helptext in _KEYS:
        if flag:
            sub.add_argument(flag, dest=key, metavar=key.rpartition(".")[2].upper(), help=helptext)


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
