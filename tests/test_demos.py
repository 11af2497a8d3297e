"""Smoke runs of every demo at small arguments: each must finish and
print its summary."""
import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script, args, last", [
    ("angle_survey.py", ["--n", "6", "--angles", "8"], "floor"),
    ("good_angle_pieces.py", ["--n", "8", "--angles", "16"], "aggregate goodness"),
    ("good_angle_pieces.py", ["--n", "6", "--angles", "16"], "aggregate goodness"),
    ("doubling_checks.py", ["--cases", "2", "--n", "8", "--cells", "16", "--span", "64"],
     "0 violations"),
    ("energy_pruning.py", ["--n", "8", "--seeds", "1"], "prune at K=1.0"),
    ("expansion_contrast.py", ["--n", "8", "--xres", "4"], "ratio=3.00"),
    ("translate_hunt.py", ["--dim", "2"], "eliminated coordinate"),
    ("window_renormalization.py", ["--n", "8"], "direct search on the raw set"),
])
def test_demo_runs(script, args, last, monkeypatch, capsys):
    path = os.path.join(DEMOS, script)
    monkeypatch.setattr(sys, "argv", [path] + args)
    runpy.run_path(path, run_name="__main__")
    lines = capsys.readouterr().out.strip().splitlines()
    if script == "expansion_contrast.py":  # it ends with its wall time
        lines = [line for line in lines if line.startswith("progression")]
    assert last in lines[-1]
