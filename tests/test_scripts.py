"""The example scripts under scripts/ run to completion on the public API."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name", ["convergence_study.py", "residual_scan.py", "worked_examples.py"]
)
def test_script_runs(monkeypatch, capsys, name):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
