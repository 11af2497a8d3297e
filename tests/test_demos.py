"""Smoke runs of the demos that call the projection kernel, at small
arguments: each must finish and print its summary."""
import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script, args, last", [
    ("angle_survey.py", ["--n", "6", "--angles", "8"], "floor"),
    ("good_angle_pieces.py", ["--n", "8", "--angles", "16"], "aggregate goodness"),
    ("good_angle_pieces.py", ["--n", "6", "--angles", "16"], "aggregate goodness"),
])
def test_demo_runs(script, args, last, monkeypatch, capsys):
    path = os.path.join(DEMOS, script)
    monkeypatch.setattr(sys, "argv", [path] + args)
    runpy.run_path(path, run_name="__main__")
    assert last in capsys.readouterr().out.strip().splitlines()[-1]
