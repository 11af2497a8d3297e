"""Output check behind the benchmark's failed-op count.

A command's output is its exit code, its printed lines and the data rows
of its CSV report.  The ``#`` config-echo line of a report is skipped,
because it echoes run parameters (file paths, unset fields) rather than
results.  Lines and CSV cells are split into numbers and text:

* integers and rationals (``1023/512``) must match exactly,
* floats must match within ``FLOAT_RTOL`` relative (``FLOAT_ATOL`` near 0),
* the text between numbers must match exactly.

Against the recorded reference (default seed only) every row is compared
this way.  On every seed, each repetition's raw bytes must equal the first
repetition's bytes.
"""
from __future__ import annotations

import csv
import io
import math
import re

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

_NUMBER = re.compile(r"(-?\d+/\d+|-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


def capture(code: int, stdout: str, csv_bytes: bytes | None) -> dict:
    """Comparable form of one command's output."""
    rows = None
    if csv_bytes is not None:
        lines = csv_bytes.decode("utf-8").splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(body))))
    return {"exit": code, "stdout": stdout.splitlines(), "csv": rows}


def _tokens(text: str):
    parts = _NUMBER.split(text)
    # split() alternates text, number, text, ...
    return parts[0::2], parts[1::2]


def _num_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    if "/" in a or "/" in b:
        return False
    exact = not any(c in a + b for c in ".eEna")
    if exact:
        return False
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return False
    return math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)


def field_equal(got: str, want: str) -> bool:
    """True when two lines or cells agree under the rules above."""
    if got == want:
        return True
    gt, gn = _tokens(got)
    wt, wn = _tokens(want)
    return gt == wt and len(gn) == len(wn) and all(map(_num_equal, gn, wn))


def _row_equal(got, want) -> bool:
    return len(got) == len(want) and all(map(field_equal, got, want))


def failed_ops(got: dict, want: dict, ops: int, rows_are_ops: bool) -> int:
    """Ops of one command that fail against a reference capture.

    A non-zero exit, a printed line that differs, or a report whose shape
    differs fails every op of the command.  Otherwise, when each data row
    is one op, each differing row fails one op; else any differing row
    fails them all.
    """
    if got["exit"] != 0 or got["exit"] != want["exit"]:
        return ops
    if len(got["stdout"]) != len(want["stdout"]) or not all(
            map(field_equal, got["stdout"], want["stdout"])):
        return ops
    g, w = got["csv"], want["csv"]
    if g is None and w is None:
        return 0
    if g is None or w is None or len(g) != len(w) or g[:1] != w[:1]:
        return ops
    bad = sum(1 for a, b in zip(g[1:], w[1:]) if not _row_equal(a, b))
    if not rows_are_ops:
        return ops if bad else 0
    return min(bad, ops)
