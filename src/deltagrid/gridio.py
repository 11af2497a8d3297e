"""Text file formats for grid sets and measures, plus CSV report output.

Three line-oriented formats, all plain ASCII so outputs diff cleanly and
parse anywhere:

GS1 (1D set)              GS2 (2D set)              DM1 (1D measure)
  GS1 v1                    GS2 v1                    DM1 v1
  n=12                      n=2                       n=12
  offset=5                  offset=0,0                offset=5
  5-9                       rows=4                    5 0.25
  12-12                     row=0:0-3                 7 0.75
                            row=1:0-3
                            ...

Runs `a-b` are inclusive cell indices.  GS2 is row-major: `row=<j>:` gives
the absolute second coordinate, the run spans first coordinates, and
`rows=` is the bounding-box height.  DM1 weights are renormalized on load;
drift beyond 1e-9 draws a warning.  Round-trips are lossless on canonical
(trimmed) forms.
"""
from __future__ import annotations

import csv
import itertools
import json
import re
import warnings
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .errors import PreconditionError
from .grid import MAX_INDEX, MAX_SPAN, GridSet1, GridSet2, Scale, _require
from .measure import DyadicMeasure1

TOOL_VERSION = "deltagrid 0.1.0"

_RUN_RE = re.compile(r"(-?\d+)-(-?\d+)")
_ROW_RE = re.compile(r"row=(-?\d+):(-?\d+)-(-?\d+)")
_OFFSET2_RE = re.compile(r"offset=(-?\d+),(-?\d+)")
# Whole bodies, each line ended by '\n'; no capture groups, which halves
# the matching time.
_GS1_BODY_RE = re.compile(r"(?:-?\d+--?\d+\n)*")
_GS2_BODY_RE = re.compile(r"(?:row=-?\d+:-?\d+--?\d+\n)*")
_DRIFT_WARN = 1e-9


def _parse_error(path, lineno: int, msg: str) -> PreconditionError:
    return PreconditionError(f"{path}:{lineno}: {msg}")


def _runs(bits: np.ndarray, base: int) -> List[Tuple[int, int]]:
    """Maximal runs of True as inclusive (first, last) absolute indices."""
    idx = np.flatnonzero(bits)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(base + int(idx[s]), base + int(idx[e])) for s, e in zip(starts, ends)]


def write_gridset(S: Union[GridSet1, GridSet2], path) -> None:
    lines = []
    if isinstance(S, GridSet1):
        lines.append("GS1 v1")
        lines.append(f"n={S.scale.n}")
        lines.append(f"offset={S.offset}")
        for a, b in _runs(S.bits, S.offset):
            lines.append(f"{a}-{b}")
    elif isinstance(S, GridSet2):
        lines.append("GS2 v1")
        lines.append(f"n={S.scale.n}")
        ox, oy = S.offset
        lines.append(f"offset={ox},{oy}")
        lines.append(f"rows={S.bits.shape[0]}")
        for jr in range(S.bits.shape[0]):
            for a, b in _runs(S.bits[jr], ox):
                lines.append(f"row={oy + jr}:{a}-{b}")
    else:
        raise PreconditionError(f"cannot serialize {type(S).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_int(lines, lineno: int, key: str, path) -> int:
    # lineno is 1-based; header lines are mandatory and positional.
    if lineno > len(lines):
        raise _parse_error(path, lineno, f"missing '{key}=' header line")
    line = lines[lineno - 1]
    if not line.startswith(key + "="):
        raise _parse_error(path, lineno, f"expected '{key}=<int>', got {line!r}")
    try:
        return int(line[len(key) + 1:])
    except ValueError:
        raise _parse_error(path, lineno, f"bad integer in '{line}'") from None


def _scan_body(path, lines, first: int, line_re: re.Pattern, expected: str) -> List[tuple]:
    """Check the body line by line, raising at the first faulty line."""
    out = []
    total = 0
    for lineno in range(first, len(lines) + 1):
        line = lines[lineno - 1]
        m = line_re.fullmatch(line)
        if not m:
            raise _parse_error(path, lineno, f"expected {expected}, got {line!r}")
        vals = tuple(int(g) for g in m.groups())
        a, b = vals[-2:]
        if b < a:
            raise _parse_error(path, lineno, f"descending run {a}-{b}")
        total += b - a + 1
        if total > MAX_SPAN:
            raise _parse_error(path, lineno, f"more than {MAX_SPAN} cells")
        for v in vals:
            if not -MAX_INDEX < v < MAX_INDEX:
                raise _parse_error(path, lineno, f"index {v} outside the guarded range "
                                                 f"(-{MAX_INDEX}, {MAX_INDEX})")
        out.append(vals)
    return out


def _read_body(path, lines, first: int, line_re: re.Pattern, body_re: re.Pattern,
               expected: str) -> np.ndarray:
    """Body lines from 1-based line `first` on, one int64 row of line_re's
    numbers per line.  Each line must match line_re and hold an ascending
    run `a-b` (the last two numbers), all numbers inside (-MAX_INDEX,
    MAX_INDEX), and the runs together at most MAX_SPAN cells.

    The whole body is checked at once; only when that check fails does a
    line-by-line scan run, to name the first faulty line.
    """
    k = line_re.groups
    if len(lines) < first:
        return np.zeros((0, k), dtype=np.int64)
    body = "\n".join(lines[first - 1:]) + "\n"
    if body_re.fullmatch(body):
        flat = itertools.chain.from_iterable(line_re.findall(body))
        try:
            vals = np.fromiter(map(int, flat), dtype=np.int64).reshape(-1, k)
        except OverflowError:  # a number beyond int64: the scan names its line
            pass
        else:
            a, b = vals[:, -2], vals[:, -1]
            # Once |a|, |b| < 2**62, b - a + 1 cannot wrap; clipping each
            # run keeps the sum small however many lines there are.
            if (bool(((vals > -MAX_INDEX) & (vals < MAX_INDEX)).all())
                    and bool((b >= a).all())
                    and int(np.minimum(b - a + 1, MAX_SPAN + 1).sum()) <= MAX_SPAN):
                return vals
    return np.array(_scan_body(path, lines, first, line_re, expected),
                    dtype=np.int64).reshape(-1, k)


def _expand_runs(a: np.ndarray, b: np.ndarray):
    """Cell indices of the inclusive runs a[r]-b[r] in order, and each run's length."""
    lens = b - a + 1
    starts = np.cumsum(lens) - lens
    cells = np.repeat(a - starts, lens)
    cells += np.arange(cells.size, dtype=np.int64)
    return cells, lens


def _read_gs1(path, lines) -> GridSet1:
    scale = Scale(_header_int(lines, 2, "n", path))
    offset = _header_int(lines, 3, "offset", path)
    runs = _read_body(path, lines, 4, _RUN_RE, _GS1_BODY_RE, "run 'a-b'")
    if not runs.size:
        return GridSet1.empty(scale)
    first = int(runs[:, 0].min())
    if offset != first:
        raise _parse_error(path, 3, f"offset={offset} but first occupied cell is {first}")
    return GridSet1.from_indices(scale, _expand_runs(runs[:, 0], runs[:, 1])[0])


def _read_gs2(path, lines) -> GridSet2:
    scale = Scale(_header_int(lines, 2, "n", path))
    off_line = lines[2] if len(lines) >= 3 else ""
    m = _OFFSET2_RE.fullmatch(off_line)
    if not m:
        raise _parse_error(path, 3, f"expected 'offset=<int>,<int>', got {off_line!r}")
    ox, oy = int(m.group(1)), int(m.group(2))
    rows = _header_int(lines, 4, "rows", path)
    runs = _read_body(path, lines, 5, _ROW_RE, _GS2_BODY_RE, "'row=<j>:a-b'")
    if not runs.size:
        if rows != 0:
            raise _parse_error(path, 4, f"rows={rows} but no row lines follow")
        return GridSet2.empty(scale)
    j, a, b = runs[:, 0], runs[:, 1], runs[:, 2]
    x0, y0 = int(a.min()), int(j.min())
    # Bounding-box guard before expanding runs into cells: two far-apart
    # cells must not provoke a huge allocation.
    w = int(b.max()) - x0 + 1
    h = int(j.max()) - y0 + 1
    if w * h > MAX_SPAN:
        raise _parse_error(path, 5, f"bounding box {w}x{h} exceeds {MAX_SPAN} cells")
    if (ox, oy) != (x0, y0):
        raise _parse_error(path, 3, f"offset={ox},{oy} but occupied corner is {x0},{y0}")
    if rows != h:
        raise _parse_error(path, 4, f"rows={rows} but occupied rows span {h}")
    x, lens = _expand_runs(a, b)
    return GridSet2.from_indices(scale, np.stack([x, np.repeat(j, lens)], axis=1))


def read_gridset(path) -> Union[GridSet1, GridSet2]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _parse_error(path, 1, "empty file")
    if lines[0] == "GS1 v1":
        return _read_gs1(path, lines)
    if lines[0] == "GS2 v1":
        return _read_gs2(path, lines)
    raise _parse_error(path, 1, f"unknown format line {lines[0]!r}")


def write_measure(mu: DyadicMeasure1, path) -> None:
    _require(isinstance(mu, DyadicMeasure1), "DM1 stores 1D measures")
    nz = np.flatnonzero(mu.weights)
    lines = ["DM1 v1", f"n={mu.scale.n}", f"offset={mu.offset}"]
    for t in nz:
        lines.append(f"{mu.offset + int(t)} {float(mu.weights[t])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measure(path) -> DyadicMeasure1:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "DM1 v1":
        raise _parse_error(path, 1, "expected 'DM1 v1'")
    scale = Scale(_header_int(lines, 2, "n", path))
    offset = _header_int(lines, 3, "offset", path)
    idx, wts = [], []
    seen = set()
    for lineno in range(4, len(lines) + 1):
        parts = lines[lineno - 1].split()
        if len(parts) != 2:
            raise _parse_error(path, lineno, f"expected '<index> <weight>', got {lines[lineno - 1]!r}")
        try:
            i = int(parts[0])
            w = float(parts[1])
        except ValueError:
            raise _parse_error(path, lineno, f"bad number in {lines[lineno - 1]!r}") from None
        if i in seen:
            raise _parse_error(path, lineno, f"duplicate index {i}")
        if not (w >= 0) or not np.isfinite(w):
            raise _parse_error(path, lineno, f"weight {w!r} must be finite and nonnegative")
        seen.add(i)
        idx.append(i)
        wts.append(w)
    if not idx:
        raise _parse_error(path, 4, "a measure needs at least one weight line")
    lo, hi = min(idx), max(idx)
    if offset != lo:
        raise _parse_error(path, 3, f"offset={offset} but first index is {lo}")
    span = hi - lo + 1
    if span > MAX_SPAN:
        raise _parse_error(path, 4, f"cell span {span} exceeds {MAX_SPAN}")
    dense = np.zeros(span, dtype=np.float64)
    dense[np.asarray(idx) - lo] = wts
    total = float(dense.sum())
    if total <= 0:
        raise _parse_error(path, 4, "weights sum to zero")
    if abs(total - 1.0) > _DRIFT_WARN:
        warnings.warn(f"{path}: weights sum to {total!r}; renormalizing", stacklevel=2)
    dense /= total
    dense /= dense.sum()
    return DyadicMeasure1.from_weights(scale, lo, dense)


def _format_value(v) -> str:
    """Deterministic cell formatting: shortest round-trip for floats."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], config: dict) -> None:
    """CSV report: '#'-prefixed JSON config echo (sorted keys, with the
    tool version), then a header row, then the data rows."""
    payload = dict(config)
    payload["version"] = TOOL_VERSION
    echo = "# " + json.dumps(payload, sort_keys=True, default=str)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(echo + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_format_value(v) for v in row])
