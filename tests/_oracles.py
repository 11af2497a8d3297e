"""Test oracles: the direct computations behind the package's fast paths,
kept beside the frozen values of `_baselines.py` so that tests compare
against them.

`naive_sumset` and `naive_diffset` are double loops over cell pairs, for
`setcalc.sumset` and `setcalc.diffset`.  `merged_projection_measure` is a
Python merge of sorted interval lists, for `lattice._exact_projection_measure`.
`_scan_frostman_1d` and `_scan_frostman_2d` are the two radius loops that
`measure.frostman_constant` replaced, the 1D one over a prefix sum of the
whole span: each returns (constant, witness center, radius).
"""
from fractions import Fraction

import numpy as np

from deltagrid import DyadicMeasure1, DyadicMeasure2, GridSet1, SumSemantics


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
