"""Command-line interface: outputs, determinism, exit codes, sweeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sip_effmass.cli import main
from sip_effmass.massprofile import MuMap
from sip_effmass.spectra import MAX_TABLE_LEVELS

GOLDEN = Path(__file__).parent / "golden"
ASINH_ARGS = ["--profile", "asinh_mu", "--m0", "0.5", "--alpha", "0.5"]

HO_ARGS = [
    "--family", "ho", "--a", "1", "--lambda0", "1", "--sigma0", "0",
    "--rho0", "0", "--n", "5",
]
MORSE_ARGS = [
    "--family", "morse", "--a", "-1", "--b", "1", "--lambda0", "1",
    "--sigma0", "2.5", "--rho0", "0", "--n", "4",
]
PT_ARGS = [
    "--family", "pt_trig", "--a", "1", "--b", "0", "--c", "1",
    "--lambda0", "2", "--sigma0", "0", "--rho0", "1", "--n", "3",
]


def read(path):
    return path.read_bytes()


def test_spectrum_worked_rows(tmp_path):
    assert main(["spectrum", *MORSE_ARGS, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[2] == "n,E_partial_sum,E_closed,diff"
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert [float(r[1]) for r in rows] == [0.0, 8.0, 10.0, 14.0]
    assert [float(r[3]) for r in rows] == [0.0, 0.0, 0.0, 0.0]


def test_spectrum_byte_determinism(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["spectrum", *PT_ARGS, "--out", str(d)]) == 0
    assert read(d1 / "spectrum.csv") == read(d2 / "spectrum.csv")


def test_coulomb_spectrum_path(tmp_path):
    args = [
        "spectrum", "--family", "coulomb", "--b", "0.5", "--l", "0",
        "--ze2", "1", "--n", "3", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[3:]]
    # partial sums and the closed form agree exactly for dyadic parameters
    assert all(float(r[3]) == 0.0 for r in rows)


def test_potential_output(tmp_path):
    args = [
        "potential", *HO_ARGS, "--x-lo", "0.1", "--x-hi", "4.0",
        "--n-points", "101", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    lines = (tmp_path / "potential.csv").read_text().splitlines()
    assert lines[2] == "x,mu,W,V1,V2,V1eff,V2eff"
    assert len(lines) == 3 + 101
    first = [float(v) for v in lines[3].split(",")]
    # constant mass, default m0 = 0.5: mu = x and V1 = x^2 - 1
    assert first[1] == pytest.approx(first[0], abs=1e-10)
    assert first[3] == pytest.approx(first[0] ** 2 - 1.0, abs=1e-10)


def test_groundstate_output(tmp_path):
    args = [
        "groundstate", "--family", "morse", "--a", "-1", "--b", "0",
        "--lambda0", "1", "--sigma0", "-2.5", "--rho0", "0",
        "--x-lo", "-15", "--x-hi", "5", "--n-points", "801", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    lines = (tmp_path / "groundstate.csv").read_text().splitlines()
    assert lines[2] == "x,psi,residual"
    body = [line.split(",") for line in lines[3:]]
    assert body[0][2] == "nan" and body[-1][2] == "nan"
    interior = [float(r[2]) for r in body[2:-2]]
    assert max(interior) < 1e-5


def test_verify_output(tmp_path):
    args = [
        "verify", "--family", "morse", "--a", "-1", "--b", "0",
        "--lambda0", "1", "--sigma0", "2.5", "--rho0", "0",
        "--x-lo", "-15", "--x-hi", "5", "--n-points", "2001", "--n", "3",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert abs(doc["gaps"][1] - 4.0) < 5e-3
    assert abs(doc["gaps"][2] - 6.0) < 5e-3
    assert doc["flags"][:3] == ["match", "match", "match"]


def test_shapecheck_output(tmp_path):
    args = [
        "shapecheck", "--family", "ho", "--a", "1", "--lambda0", "1",
        "--sigma0", "0", "--rho0", "0", "--x-lo", "0.05", "--x-hi", "6",
        "--n-points", "401", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    doc = json.loads((tmp_path / "shapecheck.json").read_text())
    assert doc["normalized_residual"] < 1e-10
    assert doc["remainder"] == pytest.approx(4.0)


def test_exit_code_2_on_invalid_parameters(tmp_path, capsys):
    code = main(["spectrum", "--family", "morse", "--a", "1", "--b", "1",
                 "--lambda0", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValidationError"
    assert "a < 0" in err["violations"]


def test_exit_code_2_on_unknown_family(tmp_path, capsys):
    assert main(["spectrum", "--family", "nope", "--out", str(tmp_path)]) == 2


def test_exit_code_2_on_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2


MORSE_REDUCED_ARGS = [
    "--family", "morse", "--a", "-1", "--b", "0", "--lambda0", "1",
    "--sigma0", "2.5", "--x-lo", "-15", "--x-hi", "5", "--n-points", "65",
]


@pytest.mark.parametrize("tol", ["nan", "-1"])
@pytest.mark.parametrize("family_args", [HO_ARGS, MORSE_REDUCED_ARGS], ids=["ho", "morse_b0"])
def test_exit_code_2_on_bad_tol(tmp_path, capsys, family_args, tol):
    args = ["verify", *family_args, "--n", "2", f"--tol={tol}", "--out", str(tmp_path)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError" and "tol" in err["message"]


def test_level_count_is_capped(tmp_path, capsys):
    n = str(MAX_TABLE_LEVELS + 1)
    coulomb = ["--family", "coulomb", "--b", "0.5", "--l", "0", "--ze2", "1"]
    for args in (
        ["spectrum", *HO_ARGS, "--n", n],
        ["spectrum", *coulomb, "--n", n],
        ["verify", *HO_ARGS, "--n", n],
        ["verify", *MORSE_REDUCED_ARGS, "--n", n],
    ):
        assert main([*args, "--out", str(tmp_path)]) == 2, args
        err = json.loads(capsys.readouterr().err)
        assert err["error_type"] == "ConfigError"
        assert str(MAX_TABLE_LEVELS - 1) in err["message"]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"name": "ho", "a": 1.0, "lambda0": 1.0},
        "sweep": {"n": [3, MAX_TABLE_LEVELS + 1]},
        "outputs": ["spectrum"],
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert [p["status"] for p in points] == ["ok", "error"]
    assert points[1]["error"]["type"] == "ConfigError"


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    # refinement guard: a coarse grid cannot reach tol = 1e-9
    args = [
        "verify", "--family", "morse", "--a", "-1", "--b", "0",
        "--lambda0", "1", "--sigma0", "2.5", "--rho0", "0",
        "--x-lo", "-15", "--x-hi", "5", "--n-points", "130", "--n", "2",
        "--tol", "1e-9", "--out", str(tmp_path),
    ]
    assert main(args) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "NumericalError"


def test_potential_rejects_non_finite_columns(tmp_path, capsys):
    # exp_mass far in its left tail: U overflows and V1, V2 turn NaN
    args = [
        "potential", "--profile", "exp_mass", "--beta", "1",
        "--family", "morse", "--a=-1", "--b", "1", "--lambda0", "1",
        "--sigma0", "2.5", "--x-lo=-700", "--x-hi", "0", "--n-points", "201",
        "--out", str(tmp_path),
    ]
    assert main(args) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "NumericalError"
    assert not (tmp_path / "potential.csv").exists()


def test_stderr_is_one_json_document(tmp_path):
    # numpy overflow warnings must not precede the error record
    args = [
        "verify", "--profile", "exp_mass", "--beta", "1",
        "--family", "morse", "--a=-1", "--b", "0", "--lambda0", "1",
        "--sigma0", "2.5", "--x-lo=-1600", "--x-hi", "0", "--n-points", "2001",
        "--n", "2", "--out", str(tmp_path),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "sip_effmass.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error_type"] == "NumericalError"


def test_exit_code_2_on_oversized_grid(tmp_path, capsys):
    # rejected by GridSpec before any node is allocated
    args = [
        "potential", *HO_ARGS, "--x-lo", "0.1", "--x-hi", "4.0",
        "--n-points", "1000002", "--out", str(tmp_path),
    ]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError"
    assert err["message"] == "grid allows at most 1000001 points, got 1000002"
    assert not (tmp_path / "potential.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"name": "morse", "a": -1.0, "b": 1.0, "lambda0": 1.0,
                   "sigma0": 2.5, "rho0": 0.0},
        "profile": {"name": "constant", "m0": 0.5},
        "n": 4,
    }))
    d1, d2 = tmp_path / "base", tmp_path / "override"
    assert main(["spectrum", "--config", str(cfg), "--out", str(d1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--n", "2", "--out", str(d2)]) == 0
    n_rows_1 = len((d1 / "spectrum.csv").read_text().splitlines()) - 3
    n_rows_2 = len((d2 / "spectrum.csv").read_text().splitlines()) - 3
    assert (n_rows_1, n_rows_2) == (4, 2)


def test_sweep_manifest(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"name": "morse", "a": -1.0, "b": 1.0, "lambda0": 1.0,
                   "sigma0": 2.5, "rho0": 0.0},
        "n": 4,
        "sweep": {"family.lambda0": [1.0, 2.0], "family.sigma0": [2.5, 3.0]},
        "outputs": ["spectrum"],
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["points"]) == 4
    assert all(p["status"] == "ok" for p in manifest["points"])
    for p in manifest["points"]:
        assert (out / p["dir"] / "spectrum.csv").exists()


def test_sweep_isolates_invalid_points(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"name": "morse", "b": 1.0, "lambda0": 1.0,
                   "sigma0": 2.5, "rho0": 0.0},
        "n": 4,
        "sweep": {"family.a": [-1.0, 1.0]},  # a = 1 violates a < 0
        "outputs": ["spectrum"],
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {p["overrides"]["family.a"]: p["status"] for p in manifest["points"]}
    assert statuses[-1.0] == "ok"
    assert statuses[1.0] == "error"


def test_empty_sweep_writes_empty_manifest(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["points"] == []


def test_sweep_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"name": "ho", "a": 1.0, "lambda0": 1.0, "sigma0": 0.0,
                   "rho0": 0.0},
        "n": 5,
        "sweep": {"family.lambda0": [1.0, 2.0, 3.0]},
        "outputs": ["spectrum"],
    }))
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for sub in ("point_0000", "point_0001", "point_0002"):
        assert read(outs[0] / sub / "spectrum.csv") == read(outs[1] / sub / "spectrum.csv")
    assert read(outs[0] / "manifest.json") == read(outs[1] / "manifest.json")


GOLDEN_ARGS = {
    "ho_asinh_potential.csv": [
        "potential", *ASINH_ARGS, "--family", "ho", "--a", "1", "--lambda0", "1",
        "--x-lo", "0.1", "--x-hi", "5", "--n-points", "501",
    ],
    "ho_asinh_shapecheck.json": [
        "shapecheck", *ASINH_ARGS, "--family", "ho", "--a", "1", "--lambda0", "1",
        "--x-lo", "0.05", "--x-hi", "6",
    ],
    "morse_asinh_groundstate.csv": [
        "groundstate", *ASINH_ARGS, "--family", "morse", "--a=-1", "--b", "0",
        "--lambda0", "1", "--sigma0=-2.5", "--x-lo=-15", "--x-hi", "5",
        "--n-points", "2001",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_field_artifacts_match_goldens(tmp_path, name):
    assert main([*GOLDEN_ARGS[name], "--out", str(tmp_path)]) == 0
    artifact = name.split("_")[-1]
    assert read(tmp_path / artifact) == read(GOLDEN / name)


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_field_artifacts_map_mu_once(tmp_path, monkeypatch, name):
    calls = []
    mu_array = MuMap.mu_array

    def counted(self, xs):
        calls.append(len(xs))
        return mu_array(self, xs)

    monkeypatch.setattr(MuMap, "mu_array", counted)
    assert main([*GOLDEN_ARGS[name], "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
