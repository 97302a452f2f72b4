"""Command-line interface: outputs, determinism, exit codes, sweeps."""

import json
import math
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

from sip_effmass import cli
from sip_effmass.cli import main
from sip_effmass.massprofile import _BUILDERS, MuMap
from sip_effmass.spectra import MAX_TABLE_LEVELS
from sip_effmass.verify import MAX_LEVELS

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

PT_HYP_ARGS = [
    "--family", "pt_hyp", "--a", "1", "--b", "0", "--c=-1",
    "--lambda0", "2", "--sigma0", "0", "--rho0", "0", "--n", "3",
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
    # verify solves at most MAX_LEVELS levels, so its own cap comes first
    for args, cap in (
        (["spectrum", *HO_ARGS, "--n", n], MAX_TABLE_LEVELS - 1),
        (["spectrum", *coulomb, "--n", n], MAX_TABLE_LEVELS - 1),
        (["verify", *HO_ARGS, "--n", n], MAX_LEVELS - 1),
        (["verify", *MORSE_REDUCED_ARGS, "--n", n], MAX_LEVELS - 1),
    ):
        assert main([*args, "--out", str(tmp_path)]) == 2, args
        err = json.loads(capsys.readouterr().err)
        assert err["error_type"] == "ConfigError"
        assert str(cap) in err["message"]

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


@pytest.mark.parametrize("family_args", [
    [*HO_ARGS, "--x-lo=-8", "--x-hi", "8", "--n-points", "2001"],
    [*MORSE_REDUCED_ARGS, "--n-points", "2001"],
], ids=["ho", "morse_b0"])
def test_verify_n_is_the_highest_solved_level(tmp_path, capsys, monkeypatch, family_args):
    assert main(["verify", *family_args, "--n", str(MAX_LEVELS - 1), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert len(doc["algebraic_levels"]) <= len(doc["eigenvalues"]) <= MAX_LEVELS

    # one past the cap exits 2 before a profile is built
    def no_build(cfg):
        raise AssertionError("profile built")

    monkeypatch.setattr(cli, "build_profile", no_build)
    out = tmp_path / "over"
    assert main(["verify", *family_args, "--n", str(MAX_LEVELS), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError"
    assert f"must be <= {MAX_LEVELS - 1}, got {MAX_LEVELS}" in err["message"]
    assert not (out / "verify.json").exists()


def test_n_help_says_count_and_index(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "spectrum: number of levels; verify: highest level index" in help_text


COULOMB_ARGS = ["--family", "coulomb", "--a", "1", "--b", "0.5", "--l", "0", "--ze2", "1"]
# (family flags, dead key, value): coulomb derives c, lambda0, sigma0 and rho0,
# only coulomb reads l and ze2, and ho and morse have no c
DEAD_FLAGS = [
    *((COULOMB_ARGS, key, "0.5") for key in ("lambda0", "sigma0", "rho0", "c")),
    *((args, key, value) for args in (HO_ARGS, MORSE_ARGS, PT_ARGS, PT_HYP_ARGS)
      for key, value in (("l", "1"), ("ze2", "1"))),
    (HO_ARGS, "c", "1"),
    (MORSE_ARGS, "c", "1"),
]


def _dead_flag_id(case):
    return f"{case[0][1]}-{case[1]}"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("case", DEAD_FLAGS, ids=map(_dead_flag_id, DEAD_FLAGS))
def test_dead_family_keys_exit_2(tmp_path, capsys, case, source):
    family_args, key, value = case
    args = ["spectrum", *family_args, "--out", str(tmp_path)]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {key: float(value)}}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError"
    assert err["message"] == f"family '{family_args[1]}' does not take {key}"
    assert not (tmp_path / "spectrum.csv").exists()


TABLE_ROWS = [[0.0, 0.5], [1.0, 0.6], [2.0, 0.7], [3.0, 0.8]]
# (profile flags, dead key, flag or None, file value): each profile reads only
# its own shape keys, and tabulated takes its table from path or data alone
DEAD_PROFILE_KEYS = [
    *((["--profile", "constant"], key, flag, value) for key, flag, value in (
        ("alpha", "--alpha", 1.0), ("beta", "--beta", 1.0), ("path", "--table", "m.csv"),
        ("data", None, TABLE_ROWS))),
    *((["--profile", "exp_mass", "--beta", "1"], key, flag, value) for key, flag, value in (
        ("alpha", "--alpha", 1.0), ("path", "--table", "m.csv"), ("data", None, TABLE_ROWS))),
    *((["--profile", name, "--alpha", "0.5"], key, flag, value)
      for name in ("asinh_mu", "arctan_mu") for key, flag, value in (
        ("beta", "--beta", 1.0), ("path", "--table", "m.csv"), ("data", None, TABLE_ROWS))),
    *((["--profile", "tabulated", "--table", "m.csv"], key, f"--{key}", 1.0)
      for key in ("m0", "alpha", "beta")),
]
DEAD_PROFILE_CASES = [
    (case, source) for case in DEAD_PROFILE_KEYS
    for source in (("flag", "config") if case[2] else ("config",))
]


@pytest.mark.parametrize("case, source", DEAD_PROFILE_CASES,
                         ids=[f"{c[0][1]}-{c[1]}-{src}" for c, src in DEAD_PROFILE_CASES])
def test_dead_profile_keys_exit_2(tmp_path, capsys, case, source):
    profile_args, key, flag, value = case
    args = ["spectrum", *profile_args, *HO_ARGS, "--out", str(tmp_path)]
    if source == "flag":
        args += [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {key: value}}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError"
    assert err["message"] == f"profile '{profile_args[1]}' does not take {key}"
    assert not (tmp_path / "spectrum.csv").exists()


def test_profile_keys_are_the_builders_keywords():
    # a builder keyword the CLI cannot set, or a CLI key no builder reads, fails here
    builder_keys = {key for b in _BUILDERS.values() for key in signature(b).parameters}
    cli_keys = {key.partition(".")[2] for _, key, _, _ in cli._KEYS if key.startswith("profile.")}
    assert builder_keys == cli_keys - {"name", "x_ref"}


def test_tabulated_takes_path_or_data(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"name": "tabulated", "data": TABLE_ROWS}}))
    args = ["spectrum", "--config", str(cfg), "--table", "m.csv", *HO_ARGS, "--out", str(tmp_path)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "profile 'tabulated' takes path or data, not both"


@pytest.mark.parametrize("x_ref,table", [("inf", False), ("nan", False), ("5", True)],
                         ids=["inf", "nan", "outside_table"])
def test_bad_x_ref_exits_2(tmp_path, capsys, x_ref, table):
    # mu(x_ref) must be finite and x_ref inside the profile's domain
    args = ["spectrum", *HO_ARGS, f"--x-ref={x_ref}", "--out", str(tmp_path)]
    if table:  # TABLE_ROWS spans x in [0, 3]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"name": "tabulated", "data": TABLE_ROWS}}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)  # one JSON document and nothing else
    assert err["error_type"] == "ConfigError"
    assert err["message"].startswith("bad x_ref: ")
    assert not (tmp_path / "spectrum.csv").exists()


def test_verify_morse_b_zero_rejects_rho0(tmp_path, capsys):
    # the reduced well is compared at rho0 = 0, so --rho0 1 would go unchecked
    args = ["verify", *MORSE_REDUCED_ARGS, "--rho0", "1", "--n", "2", "--out", str(tmp_path)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError"
    assert err["message"] == "verify on the morse b = 0 slice takes rho0 = 0, got 1.0"
    assert not (tmp_path / "verify.json").exists()


# (command, flags, config file or None): every one exits 2 with one JSON record
MALFORMED = {
    "n_not_a_number": ("spectrum", [], {"n": "abc"}),
    "tol_not_a_number": ("verify", [], {"tol": "x"}),
    "profile_not_a_section": ("spectrum", [], {"profile": "constant"}),
    "family_not_a_section": ("spectrum", [], {"family": [1, 2]}),
    "unknown_family_key": ("spectrum", [], {"family": {"tag": "ho", "sigmaa": 1}}),
    "n_fraction_in_file": ("spectrum", [], {"n": 3.7}),
    "n_fraction_flag": ("spectrum", ["--n", "3.7"], None),
    "a_not_a_number_flag": ("spectrum", ["--a", "x"], None),
    "unknown_sweep_key": ("sweep", [], {"family": {"tag": "ho"}, "sweep": {"nn": [3]}}),
    "unknown_sweep_family_key": (
        "sweep", [], {"family": {"tag": "ho"}, "sweep": {"family.sigmaa": [1.0]}}),
    "dead_profile_flags": ("spectrum", ["--profile", "constant", "--alpha", "3", "--beta", "9"], None),
    "n_zero": ("spectrum", ["--n", "0"], None),
    "config_not_an_object": ("spectrum", [], [{"family": {"tag": "ho"}}]),
    "sweep_not_an_object": ("sweep", [], {"sweep": []}),
    "sweep_values_not_a_list": ("sweep", [], {"sweep": {"n": 3}}),
    "sweep_on_spectrum": ("spectrum", [], {"family": {"tag": "ho"}, "sweep": {"nn": [1]}}),
    "outputs_on_spectrum": ("spectrum", [], {"outputs": ["spectrum"]}),
    "unknown_output": ("sweep", [], {"outputs": ["spectrum", "potentail"], "sweep": {"n": [3]}}),
    "unknown_output_empty_sweep": ("sweep", [], {"outputs": ["potentail"]}),
    "missing_table": ("spectrum", ["--profile", "tabulated", "--table", "no-such-table.csv"], None),
    "family_pttrig": ("spectrum", ["--family", "pttrig"], None),
    "asinh_mu_without_alpha": ("spectrum", ["--profile", "asinh_mu"], None),
    "x_hi_inf": ("potential", ["--x-hi=inf"], None),
    "x_lo_minus_inf": ("potential", ["--x-lo=-inf"], None),
    "x_hi_nan_in_file": ("potential", [], {"grid": {"x_hi": "nan"}}),
    "m0_inf": ("spectrum", ["--m0=inf"], None),
    "alpha_inf": ("spectrum", ["--profile", "asinh_mu", "--alpha=inf"], None),
    "beta_inf": ("spectrum", ["--profile", "exp_mass", "--beta=inf"], None),
    "family_tag_and_name": (
        "spectrum", [], {"family": {"tag": "ho", "name": "morse", "a": 1.0, "lambda0": 1.0}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, name):
    command, flags, config = MALFORMED[name]
    args = [command, "--family", "ho", *flags, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)  # one JSON document and nothing else
    assert err["error_type"] == "ConfigError"
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize(
    "flag,data,message",
    [
        ("--table", b"x,m\n0,1\n1,oops\n", "malformed table row"),
        ("--table", b"0,1\n1,1\n", "header must be 'x,m'"),
        ("--table", b"# only a comment\n", "no 'x,m' header"),
        ("--table", b"x,m\n\xd0\xff,1\n", "unreadable table file"),
        ("--config", b'{"n": "\xd0\xff"}', "unreadable config file"),
    ],
    ids=["malformed_row", "data_before_header", "no_header", "table_not_utf8", "config_not_utf8"],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, flag, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    args = ["spectrum", "--family", "ho", "--profile", "tabulated", flag, str(path)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ConfigError" and message in err["message"]
    assert not any((tmp_path / "out").glob("*"))


def test_bad_sweep_value_is_that_points_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"tag": "ho"}, "sweep": {"family.a": ["x", 2.0]}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert [p["status"] for p in points] == ["error", "ok"]
    assert points[0]["error"] == {
        "type": "ConfigError", "message": "'family.a' takes a value of type float, got 'x'"}


def test_flags_config_and_sweep_set_the_same_model(tmp_path):
    flags = [
        *ASINH_ARGS, "--family", "morse", "--a=-1", "--b", "1", "--lambda0", "1",
        "--sigma0", "2.5", "--x-lo=-4", "--x-hi", "5", "--n-points", "201", "--n", "4",
    ]
    section = {
        "profile": {"name": "asinh_mu", "m0": 0.5, "alpha": 0.5},
        "family": {"tag": "morse", "a": -1, "b": 1, "lambda0": 1},
        "grid": {"x_lo": -4, "x_hi": 5, "n_points": 201},
    }
    by_file, by_sweep = tmp_path / "file.json", tmp_path / "sweep.json"
    by_file.write_text(json.dumps({**section, "family": {**section["family"], "sigma0": 2.5}, "n": 4}))
    # a whole-number float for an int key is that int, on every path
    by_sweep.write_text(json.dumps({
        **section, "outputs": ["spectrum", "potential"],
        "sweep": {"family.sigma0": [2.5], "n": [4.0]},
    }))
    dirs = [tmp_path / "flags", tmp_path / "file", tmp_path / "sweep" / "point_0000"]
    for command in ("spectrum", "potential"):
        assert main([command, *flags, "--out", str(dirs[0])]) == 0
        assert main([command, "--config", str(by_file), "--out", str(dirs[1])]) == 0
    assert main(["sweep", "--config", str(by_sweep), "--out", str(tmp_path / "sweep")]) == 0
    for artifact in ("spectrum.csv", "potential.csv"):
        assert read(dirs[0] / artifact) == read(dirs[1] / artifact) == read(dirs[2] / artifact)


FLAGS = [
    "--config", "--out", "--profile", "--m0", "--alpha", "--beta", "--table", "--x-ref",
    "--family", "--a", "--b", "--c", "--lambda0", "--sigma0", "--rho0", "--l", "--ze2",
    "--x-lo", "--x-hi", "--n-points", "--n", "--tol",
]


@pytest.mark.parametrize(
    "command", ["spectrum", "potential", "groundstate", "verify", "shapecheck", "sweep"])
def test_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    words = capsys.readouterr().out.replace("[", " ").replace("]", " ").split()
    assert set(FLAGS) <= set(words)


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


def test_groundstate_rejects_a_grid_across_a_pole(tmp_path, capsys):
    # rho/phi has a pole at x = 0 that no node or quadrature point comes near
    args = [
        "groundstate", "--family", "ho", "--a", "1", "--lambda0", "1", "--sigma0", "0",
        "--rho0=-1", "--x-lo=-2.71", "--x-hi=3.13", "--n-points=777", "--out", str(tmp_path),
    ]
    assert main(args) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "DomainError"
    assert not (tmp_path / "groundstate.csv").exists()


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


def test_coulomb_spectrum_row0_prints_zero(tmp_path):
    args = [
        "spectrum", "--family", "coulomb", "--b", "0.5", "--l", "0",
        "--ze2", "1", "--n", "3", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    assert (tmp_path / "spectrum.csv").read_bytes().splitlines()[3] == b"0,0,0,0"


SUBCOMMANDS = ["spectrum", "potential", "groundstate", "verify", "shapecheck"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_coulomb_a_zero_exits_2_everywhere(tmp_path, capsys, command):
    args = [
        command, "--family", "coulomb", "--a", "0", "--b", "1",
        "--x-lo", "0.1", "--x-hi", "5", "--n-points", "65", "--n", "2",
    ]
    assert main([*args, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValidationError" and "a != 0" in err["violations"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_morse_b_zero_takes_the_default_a_everywhere(tmp_path, capsys, command):
    # without --a the model gets a = 1, which the linear family rejects
    args = [
        command, "--family", "morse", "--b", "0", "--lambda0", "1", "--sigma0", "2.5",
        "--x-lo=-15", "--x-hi", "5", "--n-points", "65", "--n", "2",
    ]
    assert main([*args, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_type"] == "ValidationError" and "a < 0" in err["violations"]


@pytest.mark.parametrize("profile", ["analytic", "tabulated"])
def test_cold_spectrum_loads_no_scipy(tmp_path, profile):
    # scipy.linalg loads on the first eigensolve; nothing else loads scipy
    if profile == "analytic":
        runs = [["spectrum", "--family", "ho", "--a", "1", "--lambda0", "1", "--n", "4"]]
    else:
        table = tmp_path / "mass.csv"
        rows = [f"{0.25 * k!r},{0.5 + 0.1 * math.tanh(0.25 * k)!r}" for k in range(-12, 13)]
        table.write_text("x,m\n" + "\n".join(rows) + "\n")
        tab = ["--profile", "tabulated", "--table", str(table)]
        runs = [
            ["spectrum", *tab, *HO_ARGS],
            ["potential", *tab, *HO_ARGS, "--x-lo=-2", "--x-hi", "2", "--n-points", "65"],
        ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import sys\n"
        "from sip_effmass.cli import main\n"
        f"codes = [main([*argv, '--out', {str(tmp_path)!r}]) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout.strip() == f"{[0] * len(runs)} []", proc.stderr


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
