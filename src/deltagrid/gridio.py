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

Set files are read as bytes: one numpy pass finds the body's digit runs,
checks the grammar on their edges (the separators between numbers, the
signs, one final '\n') and parses the numbers.  A GS2 body's rows are
the set's row runs (`GridSet2.from_runs`); no per-cell pairs are built.
A file this parse does not take goes to a line-by-line text scan that
names the first faulty line.  A GS2 file is written a block of runs at a
time (`grid._run_blocks`): from the runs a set read from a file holds, or
as `grid._box_runs` scans the box of a set built from one.
"""
from __future__ import annotations

import csv
import json
import re
import warnings
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import PreconditionError
from .grid import MAX_INDEX, MAX_SPAN, GridSet1, GridSet2, Scale, _require, _run_blocks
from .measure import DyadicMeasure1

TOOL_VERSION = "deltagrid 0.1.0"

_RUN_RE = re.compile(r"(-?\d+)-(-?\d+)")
_ROW_RE = re.compile(r"row=(-?\d+):(-?\d+)-(-?\d+)")
_OFFSET2_RE = re.compile(r"offset=(-?\d+),(-?\d+)")
# The bytes before each number of a body line, the first one's with the
# line break before it; each may be followed by one '-', the number's sign.
_GS1_SEPS = (b"\n", b"-")
_GS2_SEPS = (b"\nrow=", b":", b"-")
# The ASCII line breaks other than '\n' that str.splitlines honours.
_OTHER_BREAKS_RE = re.compile(rb"[\r\x0b\x0c\x1c-\x1e]")
_DRIFT_WARN = 1e-9


def _parse_error(path, lineno: int, msg: str) -> PreconditionError:
    return PreconditionError(f"{path}:{lineno}: {msg}")


def write_gridset(S: Union[GridSet1, GridSet2], path) -> None:
    """S as a GS1 or GS2 file, its run lines written a block at a time:
    GS1 from `S.runs` in one block, GS2 as `_run_blocks` gives them."""
    if isinstance(S, GridSet1):
        head = f"GS1 v1\nn={S.scale.n}\noffset={S.offset}\n"
        blocks = ([f"{a}-{b}\n" for a, b in zip(*S.runs.tolist())],)
    elif isinstance(S, GridSet2):
        head = "GS2 v1\nn={}\noffset={},{}\nrows={}\n".format(S.scale.n, *S.offset, S.shape[0])
        blocks = ([f"row={y}:{a}-{b}\n" for y, a, b in block.tolist()]
                  for block in _run_blocks(S))
    else:
        raise PreconditionError(f"cannot serialize {type(S).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for lines in blocks:
            fh.write("".join(lines))


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


def _scan_body(path, lines, first: int, line_re: re.Pattern, expected: str) -> np.ndarray:
    """Body lines from 1-based line `first` on, one int64 row of line_re's
    numbers per line.  Each line must match line_re and hold an ascending
    run `a-b` (the last two numbers), all numbers inside (-MAX_INDEX,
    MAX_INDEX), and the runs together at most MAX_SPAN cells; the first
    faulty line is named."""
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
    return np.array(out, dtype=np.int64).reshape(-1, line_re.groups)


def _parse_fast(raw: bytes, first: int, seps: tuple):
    """(header lines, body numbers) of a grid-set file's bytes: the lines
    before 1-based line `first`, and one int64 row of len(seps) numbers per
    body line, exactly as _scan_body reads them from the text.  None sends
    the file to the text path: a header line not ASCII or holding a line
    break other than '\\n', a body that is not lines of ASCII numbers with
    `seps` before them, a number of more than 18 digits, or a body that
    fails _scan_body's checks.

    The grammar is checked on the edges of the digit runs: between one
    number's end and the next one's start lie exactly the next separator
    and at most one '-', and one '\\n' follows the last number."""
    *head, body = raw.split(b"\n", first - 1)
    text = raw[:len(raw) - len(body)]
    if len(head) < first - 1 or not text.isascii() or _OTHER_BREAKS_RE.search(text):
        return None
    # The leading '\n' is the line break before the first number.
    buf = np.frombuffer(b"\n" + body, dtype=np.uint8)
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    k = len(seps)
    if (edges.size % (2 * k) or buf.size != (edges[-1] if edges.size else 0) + 1
            or buf[-1] != ord("\n")):
        return None  # a number count not a multiple of k, or not one '\n' at the end
    starts, ends = edges.reshape(-1, 2).T.copy()  # each number's digits: [start, end)
    at = np.concatenate(([0], ends))[:-1].reshape(-1, k)  # each separator's first byte
    sign = (starts.reshape(-1, k) - at - [len(sep) for sep in seps]).ravel()  # 1: a '-' too
    if not (((sign == 0) | (sign == 1)).all() and (buf[starts[sign == 1] - 1] == ord("-")).all()
            and all((buf[at[:, t] + q] == byte).all()
                    for t, sep in enumerate(seps) for q, byte in enumerate(sep))):
        return None
    width = int((ends - starts).max(initial=0))
    if width > 18:  # 18 digits always fit int64
        return None
    dig = (buf - ord("0")) * digit  # uint8, 0 at non-digits
    vals = np.zeros(starts.size, dtype=np.int64)
    for p in range(width, 0, -1):  # Horner's rule on the p-th digit from each end
        pos = ends - p
        np.maximum(pos, starts - 1, out=pos)  # 0 left of a number
        vals *= 10
        vals += dig[pos]
    vals = np.where(sign == 1, -vals, vals).reshape(-1, k)
    a, b = vals[:, -2], vals[:, -1]
    # Once |a|, |b| < 2**62, b - a + 1 cannot wrap; clipping each run keeps
    # the sum small however many lines there are.
    if (bool(((vals > -MAX_INDEX) & (vals < MAX_INDEX)).all())
            and bool((b >= a).all())
            and int(np.minimum(b - a + 1, MAX_SPAN + 1).sum()) <= MAX_SPAN):
        return [h.decode("ascii") for h in head], vals
    return None


def _read_gs1(path, lines, runs) -> GridSet1:
    scale = Scale(_header_int(lines, 2, "n", path))
    offset = _header_int(lines, 3, "offset", path)
    if runs is None:
        runs = _scan_body(path, lines, 4, _RUN_RE, "run 'a-b'")
    if not runs.size:
        return GridSet1.empty(scale)
    first = int(runs[:, 0].min())
    if offset != first:
        raise _parse_error(path, 3, f"offset={offset} but first occupied cell is {first}")
    return GridSet1.from_ranges(scale, runs[:, 0], runs[:, 1])


def _read_gs2(path, lines, runs) -> GridSet2:
    scale = Scale(_header_int(lines, 2, "n", path))
    off_line = lines[2] if len(lines) >= 3 else ""
    m = _OFFSET2_RE.fullmatch(off_line)
    if not m:
        raise _parse_error(path, 3, f"expected 'offset=<int>,<int>', got {off_line!r}")
    ox, oy = int(m.group(1)), int(m.group(2))
    rows = _header_int(lines, 4, "rows", path)
    if runs is None:
        runs = _scan_body(path, lines, 5, _ROW_RE, "'row=<j>:a-b'")
    if not runs.size:
        if rows != 0:
            raise _parse_error(path, 4, f"rows={rows} but no row lines follow")
        return GridSet2.empty(scale)
    j, a, b = runs.T
    x0, y0 = int(a.min()), int(j.min())
    # Bounding-box guard before painting the runs: two far-apart cells
    # must not provoke a huge allocation.
    w, h = int(b.max()) - x0 + 1, int(j.max()) - y0 + 1
    if w * h > MAX_SPAN:
        raise _parse_error(path, 5, f"bounding box {w}x{h} exceeds {MAX_SPAN} cells")
    if (ox, oy) != (x0, y0):
        raise _parse_error(path, 3, f"offset={ox},{oy} but occupied corner is {x0},{y0}")
    if rows != h:
        raise _parse_error(path, 4, f"rows={rows} but occupied rows span {h}")
    return GridSet2.from_runs(scale, runs)


def read_gridset(path) -> Union[GridSet1, GridSet2]:
    """The set in a GS1 or GS2 file, read once as bytes.  A file the bytes
    parse does not take is decoded and scanned line by line, which names
    the first faulty line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fast = (_parse_fast(raw, 4, _GS1_SEPS) if raw.startswith(b"GS1 v1\n") else
            _parse_fast(raw, 5, _GS2_SEPS) if raw.startswith(b"GS2 v1\n") else None)
    lines, runs = fast or (raw.decode("utf-8").splitlines(), None)
    if not lines:
        raise _parse_error(path, 1, "empty file")
    if lines[0] == "GS1 v1":
        return _read_gs1(path, lines, runs)
    if lines[0] == "GS2 v1":
        return _read_gs2(path, lines, runs)
    raise _parse_error(path, 1, f"unknown format line {lines[0]!r}")


def write_measure(mu: DyadicMeasure1, path) -> None:
    _require(isinstance(mu, DyadicMeasure1), "DM1 stores 1D measures")
    (cells,), w = mu._support
    lines = ["DM1 v1", f"n={mu.scale.n}", f"offset={mu.offset}"]
    for t, v in zip(cells, w):
        lines.append(f"{mu.offset + int(t)} {float(v)!r}")
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
        if not -MAX_INDEX < i < MAX_INDEX:
            raise _parse_error(path, lineno, f"index {i} outside the guarded range "
                                             f"(-{MAX_INDEX}, {MAX_INDEX})")
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
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        total = float(dense.sum())
    if total <= 0:
        raise _parse_error(path, 4, "weights sum to zero")
    if not np.isfinite(total):
        raise _parse_error(path, 4, "weights sum to a non-finite value")
    if abs(total - 1.0) > _DRIFT_WARN:
        warnings.warn(f"{path}: weights sum to {total!r}; renormalizing", stacklevel=2)
    dense /= total
    dense /= dense.sum()
    return DyadicMeasure1.from_weights(scale, lo, dense)


def _format_value(v) -> str:
    """Deterministic cell formatting: shortest round-trip for floats."""
    if isinstance(v, (int, np.integer)):  # bools too
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
