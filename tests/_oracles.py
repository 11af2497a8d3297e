"""Test oracles: the direct computations behind the package's fast paths,
kept beside the frozen values of `_baselines.py` so that tests compare
against them.

`naive_sumset` and `naive_diffset` are double loops over cell pairs, for
`setcalc.sumset` and `setcalc.diffset`.  `merged_projection_measure` is a
Python merge of sorted interval lists, for `lattice._exact_projection_measure`.
`_scan_frostman_1d` and `_scan_frostman_2d` are the two radius loops that
`measure.frostman_constant` replaced, the 1D one over a prefix sum of the
whole span: each returns (constant, witness center, radius).
`_energy_direct` is the direct energy sum that builds each block's pair
arrays whole, which `measure._energy_direct` replaced with one block buffer.
`whole_cube_slab` and `whole_square_disc` build the whole bounding raster of
a slab or a disc and filter it at once, for `lattice._filtered_raster`;
`unique_rows` and `residue_histogram` are the `np.unique(axis=0)` passes
that `lattice._sorted_rows` replaced.  `blocked_bits` is the blocked scatter
of run cells that painted a run-held 2D set's box before `grid._painted`.
`unique_cube_masses` is the per-level `np.unique` of `measure._cube_masses`,
and `write_measure_lines` the DM1 writer that built one list of every line.
"""
import math
from fractions import Fraction

import numpy as np

from deltagrid import DyadicMeasure1, DyadicMeasure2, GridSet1, SumSemantics
from deltagrid.grid import _SCAN_CELLS, _require, _run_cells
from deltagrid.lattice import _MAX_RASTER, _raster
from deltagrid.measure import _block_rows


def naive_sumset(A, B, semantics=SumSemantics.INDEX):
    """A + B: {i + j}, and under COVER also {i + j + 1}."""
    out = {int(i) + int(j) for i in A.indices for j in B.indices}
    if semantics is SumSemantics.COVER:
        out |= {v + 1 for v in out}
    return GridSet1.from_indices(A.scale, sorted(out))


def naive_diffset(A, B, semantics=SumSemantics.INDEX):
    """A - B: {i - j}, and under COVER also {i - j - 1}."""
    out = {int(i) - int(j) for i in A.indices for j in B.indices}
    if semantics is SumSemantics.COVER:
        out |= {v - 1 for v in out}
    return GridSet1.from_indices(A.scale, sorted(out))


def merged_projection_measure(A, v):
    """Lebesgue measure of sum_i v_i * A: with v_i = p_i/q, each partial sum
    of the runs [p_i*a, p_i*(b+1)] (units of delta/q) is sorted and merged
    in a Python loop, touching intervals joined."""
    ratios = [float(x).as_integer_ratio() for x in v]
    q = max(d for _, d in ratios)
    starts, ends = A.runs
    a_runs = list(zip(starts.tolist(), (ends + 1).tolist()))
    runs = [(0, 0)]
    for p, d in ratios:
        p *= q // d
        sums = sorted((lo + p * a, hi + p * b) for lo, hi in runs for a, b in a_runs)
        runs = [sums[0]]
        for lo, hi in sums[1:]:
            if lo > runs[-1][1]:
                runs.append((lo, hi))
            elif hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
    return Fraction(sum(hi - lo for lo, hi in runs), q << A.scale.n)


def _dyadic_radii(span_cells: int):
    """Cell radii 1, 2, 4, ... up to the first covering the span."""
    radii = [1]
    while radii[-1] < span_cells:
        radii.append(radii[-1] * 2)
    return radii


def _scan_frostman_1d(mu: DyadicMeasure1, kappa: float):
    w, offset, delta = mu.weights, mu.offset, mu.scale.delta
    L = w.size
    P = np.concatenate(([0.0], np.cumsum(w)))
    (sup,), _ = mu._support
    best = (-1.0, 0, 0.0)  # (constant, center_abs, radius)
    for k in _dyadic_radii(L):
        inner = P[np.clip(sup + k, 0, L)] - P[np.clip(sup - k + 1, 0, L)]
        lo_edge = sup - k
        hi_edge = sup + k
        edge = np.where((lo_edge >= 0) & (lo_edge < L), w[np.clip(lo_edge, 0, L - 1)], 0.0)
        edge = edge + np.where((hi_edge >= 0) & (hi_edge < L), w[np.clip(hi_edge, 0, L - 1)], 0.0)
        mass = inner + 0.5 * edge
        r = k * delta
        cand = mass / r ** kappa
        p = int(np.argmax(cand))
        if cand[p] > best[0]:
            best = (float(cand[p]), offset + int(sup[p]), r)
    return best


def _rect_sum(P: np.ndarray, y0, y1, x0, x1):
    """Sum of w over inclusive index windows, clamped; 0 when empty."""
    H = P.shape[0] - 1
    W = P.shape[1] - 1
    y0c = np.clip(y0, 0, H)
    y1c = np.clip(y1, -1, H - 1)
    x0c = np.clip(x0, 0, W)
    x1c = np.clip(x1, -1, W - 1)
    valid = (y0c <= y1c) & (x0c <= x1c)
    out = P[y1c + 1, x1c + 1] - P[y0c, x1c + 1] - P[y1c + 1, x0c] + P[y0c, x0c]
    return np.where(valid, out, 0.0)


def _scan_frostman_2d(mu: DyadicMeasure2, kappa: float):
    w, offset, delta = mu.weights, mu.offset, mu.scale.delta
    H, W = w.shape
    P = np.zeros((H + 1, W + 1))
    np.cumsum(np.cumsum(w, axis=0), axis=1, out=P[1:, 1:])
    (jr, ir), _ = mu._support
    best = (-1.0, (0, 0), 0.0)
    for k in _dyadic_radii(max(H, W)):
        y0, y1, x0, x1 = jr - k, jr + k, ir - k, ir + k
        full = _rect_sum(P, y0, y1, x0, x1)
        row0 = _rect_sum(P, y0, y0, x0, x1)
        row1 = _rect_sum(P, y1, y1, x0, x1)
        col0 = _rect_sum(P, y0, y1, x0, x0)
        col1 = _rect_sum(P, y0, y1, x1, x1)
        c00 = _rect_sum(P, y0, y0, x0, x0)
        c01 = _rect_sum(P, y0, y0, x1, x1)
        c10 = _rect_sum(P, y1, y1, x0, x0)
        c11 = _rect_sum(P, y1, y1, x1, x1)
        # Cell weight factors: interior 2x2 quarter-cells, boundary rows/
        # columns half, corners quarter (sup-norm ball edge through centers).
        mass = (4.0 * full - 2.0 * (row0 + row1 + col0 + col1) + c00 + c01 + c10 + c11) / 4.0
        r = k * delta
        cand = mass / r ** kappa
        p = int(np.argmax(cand))
        if cand[p] > best[0]:
            best = (float(cand[p]), (offset[0] + int(ir[p]), offset[1] + int(jr[p])), r)
    return best


def _energy_direct(cells: tuple, w: np.ndarray, delta: float, s: float) -> float:
    """Direct pair sum over the cells `cells` (a measure's support view:
    one position array per array axis) with weights `w`, in blocks of rows."""
    centers = [(c.astype(np.float64) + 0.5) * delta for c in cells[::-1]]  # x first in 2D
    distance = np.abs if len(centers) == 1 else np.hypot
    parts = []
    step = _block_rows(w.size)
    for lo in range(0, w.size, step):
        hi = min(lo + step, w.size)
        d = distance(*(c[lo:hi, None] - c[None, :] for c in centers))
        np.maximum(d, delta, out=d)
        parts.append(np.sum((w[lo:hi, None] * w[None, :]) * d ** -s))
    return float(np.sum(parts))


def whole_cube_slab(scale, u: np.ndarray, R: float) -> np.ndarray:
    """Rows of the cells meeting the slab {|<p,u>| <= 1, |p - <p,u>u| <= R},
    filtered from the whole cube around it at once."""
    n = u.size
    delta = scale.delta
    h = math.sqrt(n) * delta / 2
    reach = math.sqrt(R * R + 1.0) + 2 * h
    side = 2 * math.ceil(reach / delta) + 1 if reach < math.inf else math.inf
    _require(side ** n <= _MAX_RASTER, "slab raster too large")
    axis = np.arange(-(side // 2), side // 2 + 1, dtype=np.int64)
    idx = _raster([axis] * n)
    centers = (idx + 0.5) * delta
    t = centers @ u
    radial2 = np.sum(centers * centers, axis=1) - t * t
    return idx[(np.abs(t) <= 1.0 + h) & (radial2 <= (R + h) ** 2)]


def whole_square_disc(scale, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """Rows of the cells meeting the closed disc, filtered from the whole
    square around it at once."""
    delta = scale.delta
    cx, cy = float(center[0]), float(center[1])
    k = int(math.ceil((radius + delta) / delta)) + 1
    i0, j0 = int(math.floor(cx / delta)), int(math.floor(cy / delta))
    rows = _raster((np.arange(i0 - k, i0 + k + 1, dtype=np.int64),
                    np.arange(j0 - k, j0 + k + 1, dtype=np.int64)))
    dx = np.maximum(np.abs(cx - (rows[:, 0] + 0.5) * delta) - 0.5 * delta, 0.0)
    dy = np.maximum(np.abs(cy - (rows[:, 1] + 0.5) * delta) - 0.5 * delta, 0.0)
    return rows[dx * dx + dy * dy <= radius * radius]


def unique_rows(rows) -> np.ndarray:
    """Distinct rows of an (m, dim) int64 array, lex-sorted, by np.unique."""
    return np.unique(np.asarray(rows, dtype=np.int64), axis=0)


def residue_histogram(rows: np.ndarray, k: int):
    """(residue row, count) of the most common row of rows mod k, the
    lexicographically smallest among ties, by np.unique's counts."""
    uniq, counts = np.unique(np.mod(rows, k), axis=0, return_counts=True)
    best = int(np.argmax(counts))
    return tuple(int(r) for r in uniq[best]), int(counts[best])


def blocked_bits(E) -> np.ndarray:
    """The box of a 2D set painted from its runs: their int64 cell
    positions scattered a block of at most 16 * _SCAN_CELLS cells at a
    time, a longer run in one slice."""
    (h, w), (ox, oy) = E.shape, E.offset
    y, x0, x1 = E.runs.T
    lens = x1 - x0 + 1
    bits = np.zeros(h * w, dtype=bool)
    starts, ends, block, t = (y - oy) * w + (x0 - ox), np.cumsum(lens), 16 * _SCAN_CELLS, 0
    while t < lens.size:
        if lens[t] > block:
            bits[starts[t]:starts[t] + lens[t]] = True
            t += 1
        else:  # the runs from t whose cells fit in one block
            u = int(np.searchsorted(ends, ends[t] - lens[t] + block, side="right"))
            bits[_run_cells(starts[t:u], lens[t:u])] = True
            t = u
    return bits.reshape(h, w)


def unique_cube_masses(idx: np.ndarray, w: np.ndarray, n: int, levels):
    """(j, cubes, each cell's position among them, masses) per level j, by
    np.unique's sort of the keys idx >> (n - j)."""
    for j in levels:
        uniq, inv = np.unique(idx >> (n - j), return_inverse=True)
        yield j, uniq, inv, np.bincount(inv, weights=w)


def write_measure_lines(mu: DyadicMeasure1, path) -> None:
    """A DM1 file from one list of all its lines, joined once."""
    (cells,), w = mu._support
    lines = ["DM1 v1", f"n={mu.scale.n}", f"offset={mu.offset}"]
    for t, v in zip(cells, w):
        lines.append(f"{mu.offset + int(t)} {float(v)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
