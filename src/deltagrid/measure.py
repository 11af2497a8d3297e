"""Dyadic cell measures: Frostman scans, Riesz energies, pruning,
conditioning, pushforward, and maximal-interval renormalization.

A measure is a nonnegative weight per cell, summing to 1 within 2**-40
relative tolerance, interpreted as uniform density on each cell.  That
interpretation makes ball masses exact: a closed ball of dyadic radius
centered at a cell center cuts boundary cells exactly in half, so every
scan below works in integer half-cell (1D) or quarter-cell (2D) units
with no rounding ambiguity.

Energy convention: pair distance is max(delta, |center - center|), so
the diagonal contributes delta**-s and single-cell measures have finite
energy.  On the lattice the energy is delta**-s * sum_d acorr(w)[d] *
max(1, |d|)**-s, with acorr the autocorrelation of the weight grid and
d a displacement in cells, so one zero-padded FFT autocorrelation gives
it exactly in O(M log M), M the padded grid size.  A uniform measure on
a product set A x B has as autocorrelation the outer product of the
autocorrelations of A and B, and its energy needs no 2D FFT at all.
The default path takes whichever of the direct O(N^2) sum, the FFT
kernel (up to 2**22 padded cells) and that product path costs least
(see riesz_energy).  Above the padded cap, 2D falls back to the direct
sum, in blocks of at most 2**21 pairs, and 1D, for more than 4096
cells, to a dyadic-annulus binned path that rounds each pair distance
down to its annulus floor 2**t * delta, over-estimating by at most 2**s
relative (one-sided: direct <= binned <= 2**s * direct).

Heavy-cube pruning removes, for each level j = 0..n-1, the dyadic
cubes carrying mass above K*L*2**(-j*s/2) (strictly above by default;
a flag switches to >=).  The removed mass is provably at most
I_s(mu)/(K*L) * sum_j 2**(-j*s/2) with constant 1 in 1D, and that is
checked on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import (FrostmanReport, GridSet1, GridSet2, MAX_INDEX, MAX_SPAN, Scale,
                   as_fraction, make_interval, _require)

MASS_RTOL = 2.0 ** -40
DIRECT_ENERGY_CAP = 4096
_FFT_CELL_CAP = 1 << 22
_FFT_CELL_COST = 4
_ENERGY_CHUNK = 512
_BLOCK_CELLS = _ENERGY_CHUNK * DIRECT_ENERGY_CAP  # 16 MB per float64 block temporary


def _validate_weights(w: np.ndarray) -> None:
    _require(np.all(w >= 0), "weights must be nonnegative")
    _require(np.all(np.isfinite(w)), "weights must be finite")
    total = float(np.sum(w))
    _require(abs(total - 1.0) <= MASS_RTOL, f"weights sum to {total!r}, not 1 within 2**-40")


@dataclass(frozen=True, eq=False)
class DyadicMeasure1:
    """Probability measure with weights on 1D cells, trimmed support."""

    scale: Scale
    offset: int
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        _require(isinstance(w, np.ndarray) and w.dtype == np.float64 and w.ndim == 1,
                 "weights must be a 1D float64 array")
        _require(w.size > 0, "a probability measure needs support")
        _require(w.size <= MAX_SPAN, f"cell span {w.size} exceeds dense-representation cap {MAX_SPAN}")
        _require(w[0] > 0 and w[-1] > 0, "weights must be trimmed (nonzero first and last)")
        _validate_weights(w)
        object.__setattr__(self, "offset", int(self.offset))
        _require(abs(self.offset) + w.size <= MAX_INDEX, "cell indices out of guarded range")
        w.setflags(write=False)

    @classmethod
    def from_weights(cls, scale: Scale, offset: int, weights) -> "DyadicMeasure1":
        w = np.array(weights, dtype=np.float64, copy=True).reshape(-1)
        nz = np.flatnonzero(w > 0)
        _require(nz.size > 0, "a probability measure needs support")
        return cls(scale, int(offset) + int(nz[0]), w[nz[0]:nz[-1] + 1])

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def support(self) -> GridSet1:
        return GridSet1.from_bits(self.scale, self.offset, self.weights > 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicMeasure1):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and np.array_equal(self.weights, other.weights))

    def __repr__(self) -> str:
        return (f"DyadicMeasure1(n={self.scale.n}, support={int(np.count_nonzero(self.weights))}, "
                f"offset={self.offset})")


@dataclass(frozen=True, eq=False)
class DyadicMeasure2:
    """Probability measure with weights on 2D cells (rows along y)."""

    scale: Scale
    offset: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        _require(isinstance(w, np.ndarray) and w.dtype == np.float64 and w.ndim == 2,
                 "weights must be a 2D float64 array")
        _require(w.size > 0, "a probability measure needs support")
        _require(w.size <= MAX_SPAN, f"cell span {w.size} exceeds dense-representation cap {MAX_SPAN}")
        _require(w[0].any() and w[-1].any() and w[:, 0].any() and w[:, -1].any(),
                 "weights must be trimmed (no zero border row/column)")
        _validate_weights(w)
        ox, oy = self.offset
        object.__setattr__(self, "offset", (int(ox), int(oy)))
        w.setflags(write=False)

    @classmethod
    def from_weights(cls, scale: Scale, offset, weights) -> "DyadicMeasure2":
        w = np.array(weights, dtype=np.float64, copy=True)
        _require(w.ndim == 2, "weights must be a 2D array")
        rows = np.flatnonzero(w.any(axis=1))
        _require(rows.size > 0, "a probability measure needs support")
        cols = np.flatnonzero(w.any(axis=0))
        sub = w[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        return cls(scale, (int(offset[0]) + int(cols[0]), int(offset[1]) + int(rows[0])), sub)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def support(self) -> GridSet2:
        return GridSet2.from_bits(self.scale, self.offset, self.weights > 0)

    @property
    def _centers(self):
        """(x, y, w) over the positive cells in row-major order: cell-center
        coordinates in cell units from `offset` (the local frame of the
        projection kernel) and the weights; computed once, read-only."""
        out = self.__dict__.get("_centers_cache")
        if out is None:
            jr, ir = np.nonzero(self.weights > 0)
            out = (ir + 0.5, jr + 0.5, self.weights[jr, ir])
            for a in out:
                a.setflags(write=False)
            object.__setattr__(self, "_centers_cache", out)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicMeasure2):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and np.array_equal(self.weights, other.weights))

    def __repr__(self) -> str:
        return (f"DyadicMeasure2(n={self.scale.n}, support={int(np.count_nonzero(self.weights))}, "
                f"offset={self.offset})")


@dataclass(frozen=True)
class MaximalIntervalResult:
    """Best dyadic interval under m(I) = mu(I) / r(I)**(kappa/2).

    level/index identify I = [index * 2**-level, (index+1) * 2**-level);
    x0 is the left endpoint, r0 the length, mass its mu-mass.
    """

    level: int
    index: int
    r0: Fraction
    x0: Fraction
    m_value: float
    mass: float


def uniform_on(S):
    """Uniform probability measure on a nonempty cell set."""
    _require(not S.is_empty, "uniform measure needs a nonempty set")
    if isinstance(S, GridSet1):
        w = S.bits.astype(np.float64) / S.count
        return DyadicMeasure1(S.scale, S.offset, w)
    if isinstance(S, GridSet2):
        w = S.bits.astype(np.float64) / S.count
        return DyadicMeasure2(S.scale, S.offset, w)
    raise PreconditionError(f"unsupported operand type {type(S).__name__}")


# ---------------------------------------------------------------------------
# Frostman scan engine


def _dyadic_radii(span_cells: int):
    """Cell radii 1, 2, 4, ... up to the first covering the span."""
    radii = [1]
    while radii[-1] < span_cells:
        radii.append(radii[-1] * 2)
    return radii


def _scan_frostman_1d(w: np.ndarray, offset: int, scale: Scale, kappa: float):
    L = w.size
    P = np.concatenate(([0.0], np.cumsum(w)))
    sup = np.flatnonzero(w > 0)
    delta = scale.delta
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


def _scan_frostman_2d(w: np.ndarray, offset, scale: Scale, kappa: float):
    H, W = w.shape
    P = np.zeros((H + 1, W + 1))
    np.cumsum(np.cumsum(w, axis=0), axis=1, out=P[1:, 1:])
    jr, ir = np.nonzero(w > 0)
    delta = scale.delta
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


def frostman_constant(mu, kappa: float) -> FrostmanReport:
    """Least C with mu(B(x, r)) <= C * r**kappa over the scan family.

    Scans closed balls (sup-norm squares in 2D) centered at support
    cell centers, dyadic radii delta * 2**t up to the first radius
    covering the support span.  Exact overlap mass; convention
    "measure" (no normalization beyond mu being a probability measure).
    """
    _require(np.isfinite(kappa), "kappa must be finite")
    if isinstance(mu, DyadicMeasure1):
        c, center, r = _scan_frostman_1d(mu.weights, mu.offset, mu.scale, kappa)
    elif isinstance(mu, DyadicMeasure2):
        c, center, r = _scan_frostman_2d(mu.weights, mu.offset, mu.scale, kappa)
    else:
        raise PreconditionError(f"unsupported operand type {type(mu).__name__}")
    return FrostmanReport(kappa=float(kappa), constant=c, witness_center=center,
                          witness_radius=r, convention="measure")


def nonconcentration_constant(S, kappa: float) -> FrostmanReport:
    """Least C with |S intersect B(x, r)| <= C * r**kappa * |S| over the scan family.

    Scanned over closed balls centered at occupied cell centers and
    dyadic radii from delta up to the first radius >= diameter.  Mass is
    exact Lebesgue overlap, normalized by the total measure of S
    (convention "set").
    """
    _require(not S.is_empty, "non-concentration scan needs a nonempty set")
    mu = uniform_on(S)
    rep = frostman_constant(mu, kappa)
    return FrostmanReport(kappa=rep.kappa, constant=rep.constant,
                          witness_center=rep.witness_center,
                          witness_radius=rep.witness_radius, convention="set")


# ---------------------------------------------------------------------------
# Riesz energy


def _block_rows(width: int) -> int:
    """Rows per block of a pairwise or kernel array `width` wide: at most
    _ENERGY_CHUNK rows and _BLOCK_CELLS cells, at least one row."""
    return max(1, min(_ENERGY_CHUNK, _BLOCK_CELLS // width))


def _energy_direct_1d(idx: np.ndarray, w: np.ndarray, delta: float, s: float) -> float:
    centers = (idx + 0.5) * delta
    parts = []
    step = _block_rows(idx.size)
    for lo in range(0, idx.size, step):
        hi = min(lo + step, idx.size)
        d = np.abs(centers[lo:hi, None] - centers[None, :])
        np.maximum(d, delta, out=d)
        parts.append(np.sum((w[lo:hi, None] * w[None, :]) * d ** -s))
    return float(np.sum(parts))


def _energy_direct_2d(pts: np.ndarray, w: np.ndarray, delta: float, s: float) -> float:
    cx = (pts[:, 0] + 0.5) * delta
    cy = (pts[:, 1] + 0.5) * delta
    parts = []
    step = _block_rows(w.size)
    for lo in range(0, w.size, step):
        hi = min(lo + step, w.size)
        d = np.hypot(cx[lo:hi, None] - cx[None, :], cy[lo:hi, None] - cy[None, :])
        np.maximum(d, delta, out=d)
        parts.append(np.sum((w[lo:hi, None] * w[None, :]) * d ** -s))
    return float(np.sum(parts))


def _energy_binned_1d(w: np.ndarray, delta: float, s: float) -> float:
    """Annulus-binned energy, rounding pair distances down to 2**t cells.

    Over-estimates: direct <= binned <= 2**s * direct, because every
    distance in [2**t, 2**(t+1)) cells is replaced by 2**t cells.
    """
    L = w.size
    P = np.concatenate(([0.0], np.cumsum(w)))
    total = float(np.sum(w * w))  # distance-zero pairs, d := delta
    p = np.arange(L)
    t = 0
    while (1 << t) < L:
        k0, k1 = 1 << t, 1 << (t + 1)
        right = P[np.clip(p + k1, 0, L)] - P[np.clip(p + k0, 0, L)]
        left = P[np.clip(p - k0 + 1, 0, L)] - P[np.clip(p - k1 + 1, 0, L)]
        total += float(np.sum(w * (right + left))) * float(k0) ** -s
        t += 1
    return total * delta ** -s


def _fft_shape(shape) -> tuple:
    """Per-axis power of two >= 2*len - 1: room for every displacement."""
    return tuple(1 << (2 * L - 2).bit_length() for L in shape)


def _displacement_kernel(s: float, *disp: np.ndarray) -> np.ndarray:
    """max(1, |d|)**-s on the outer grid of per-axis displacements d (cells)."""
    d2 = disp[0].astype(np.float64) ** 2
    if len(disp) == 2:
        d2 = np.add.outer(d2, disp[1].astype(np.float64) ** 2)
    np.maximum(d2, 1.0, out=d2)
    np.power(d2, -s / 2, out=d2)
    return d2


def _folded_acorr(w: np.ndarray) -> np.ndarray:
    """Autocorrelation of a 1D or 2D grid folded onto |d_k| < len_k, d_k >= 0.

    acorr[d] = sum_p w[p] * w[p + d], read from the zero-padded circular
    autocorrelation, where displacement -d_k sits at padded index P_k - d_k;
    the result adds the entries of +-d_k on every axis.
    """
    shape = _fft_shape(w.shape)
    axes = tuple(range(w.ndim))
    f = np.fft.rfftn(w, s=shape, axes=axes)
    acorr = np.fft.irfftn(f.real ** 2 + f.imag ** 2, s=shape, axes=axes)
    del f  # the spectrum is as large as the grid; free it before folding
    for axis, (L, P) in enumerate(zip(w.shape, shape)):
        a = np.moveaxis(acorr, axis, 0)
        out = a[:L].copy()
        out[1:] += a[P - 1:P - L:-1]
        acorr = np.moveaxis(out, 0, axis)
    return acorr


def _energy_fft(w: np.ndarray, delta: float, s: float) -> float:
    """Exact energy of a dense 1D or 2D weight grid by FFT autocorrelation."""
    folded = _folded_acorr(w)
    kernel = _displacement_kernel(s, *(np.arange(L) for L in w.shape))
    return float(np.vdot(folded, kernel)) * delta ** -s


def _product_shadows(w: np.ndarray, support: int):
    """(rows, cols, v) when the 2D weight grid is v * outer(rows, cols),
    one weight v on the product of its row and column shadows; else None.

    The support always lies in the product of its shadows, so it equals
    that product exactly when the cell counts agree.
    """
    rows, cols = w.any(axis=1), w.any(axis=0)
    if support != np.count_nonzero(rows) * np.count_nonzero(cols):
        return None
    v = float(w.max())
    if np.count_nonzero(w == v) != support:
        return None
    return rows, cols, v


def _energy_product(rows: np.ndarray, cols: np.ndarray, v: float, delta: float,
                    s: float) -> float:
    """Exact energy of the weight grid v * outer(rows, cols).

    Its autocorrelation is v**2 times the outer product of the two shadows'
    autocorrelations, which count cell pairs and so are read exactly as
    integers (the FFT's rounding error, about 2**-52 * span * log2(span),
    stays far below 1/2 for spans up to MAX_SPAN).  Folded onto d >= 0,
    the energy is a_y @ K @ a_x with K the H x W displacement kernel,
    built in blocks of _block_rows(W) rows.
    """
    ay = np.rint(_folded_acorr(rows.astype(np.float64)))
    ax = np.rint(_folded_acorr(cols.astype(np.float64)))
    dx = np.arange(cols.size)
    total = 0.0
    step = _block_rows(cols.size)
    for lo in range(0, rows.size, step):
        hi = min(lo + step, rows.size)
        total += float(ay[lo:hi] @ _displacement_kernel(s, np.arange(lo, hi), dx) @ ax)
    return total * v * v * delta ** -s


def riesz_energy(mu, s: float, method: str = "auto") -> float:
    """s-energy: sum of w_p * w_q * d(p, q)**-s with d = max(delta, |centers|).

    method "auto" is exact below the padded-grid cap and takes the
    cheapest of three paths, by a cost counted in direct pair terms from
    the support size N, the padded FFT grid size M and the box H x W:

    - the direct sum, N**2;
    - the FFT autocorrelation, _FFT_CELL_COST * M, while M <= 2**22;
    - for a 2D grid with one weight on the product of its row and column
      shadows (uniform_on(cartesian_product(A, B))), the separable product
      path, H * W, while each padded shadow has at most 2**22 cells: the
      autocorrelation is the outer product of two 1D ones and the energy
      one pass over the H x W displacement kernel.  A tie in cost goes to
      this path.

    _FFT_CELL_COST = 4 is the one constant of the rule.  Measured on a
    2-vCPU host (Python 3.11.7, numpy 2.4.6), a direct pair term costs
    13-16 ns in 1D and 26-27 ns in 2D, and a padded FFT cell 50-115 ns,
    so a cell costs 2 to 8.5 pair terms; a product-kernel cell costs
    under one.  At the calibration points the rule picks the faster path
    (times from two or three separate runs):

    - Kaufman projections of two 10,404-cell sets at 64 angles each, N
      203-723 in spans up to 723 (M <= 2048): direct 0.50-0.54 s, FFT
      0.011-0.012 s in all; FFT (N**2 / M >= 50).
    - 2073 cells in a 960,711-cell span at n=20 (M = 2**21): direct
      48-58 ms, FFT 159-241 ms; direct (N**2 / M = 2.05).
    - The 1024-cell n=10 base-4 square (M = 2**22): direct 20-27 ms, FFT
      220-300 ms, product 9-24 ms; product (H * W = N**2, a tie).
    - The 10,404-cell n=9 Cantor square, 512 x 512 box: FFT 36-53 ms,
      product 1.9-2.2 ms; product.
    - A 10,404-cell Frostman product in a 499 x 183 box: FFT 14-35 ms,
      product 0.6-0.9 ms; product.

    Above the padded cap (and with no product path), 2D takes the blocked
    direct sum, and 1D with N > DIRECT_ENERGY_CAP the annulus-binned path
    (up to 2**s high).  "direct" and "binned" (1D only) force a path.
    """
    _require(s > 0, "energy exponent must be positive")
    _require(method in ("auto", "direct", "binned"), f"unknown method {method!r}")
    if not isinstance(mu, (DyadicMeasure1, DyadicMeasure2)):
        raise PreconditionError(f"unsupported operand type {type(mu).__name__}")
    w, delta = mu.weights, mu.scale.delta
    _require(w.ndim == 1 or method != "binned", "binned path is 1D only; 2D energies are exact")
    if method == "auto":
        support = np.count_nonzero(w)
        padded = _fft_shape(w.shape)
        fft_cells = math.prod(padded)
        fft_cost = _FFT_CELL_COST * fft_cells if fft_cells <= _FFT_CELL_CAP else math.inf
        if (w.ndim == 2 and max(padded) <= _FFT_CELL_CAP
                and w.size <= min(support ** 2, fft_cost)):
            shadows = _product_shadows(w, support)
            if shadows is not None:
                return _energy_product(*shadows, delta, s)
        if fft_cost < support ** 2:
            return _energy_fft(w, delta, s)
        if w.ndim == 1 and support > DIRECT_ENERGY_CAP and fft_cells > _FFT_CELL_CAP:
            method = "binned"
    if method == "binned":
        return _energy_binned_1d(w, delta, s)
    if w.ndim == 1:
        nz = np.flatnonzero(w > 0)
        return _energy_direct_1d(nz.astype(np.float64), w[nz], delta, s)
    jr, ir = np.nonzero(w > 0)
    pts = np.stack([ir, jr], axis=1).astype(np.float64)
    return _energy_direct_2d(pts, w[jr, ir], delta, s)


def energy_bound_constant(t: float, kappa: float) -> float:
    """c(t, kappa) = 2 * 2**kappa * sum_j 2**(j(t - kappa)), the explicit
    constant with riesz_energy(uniform_on(A), t) <= c(t, kappa) * C for
    every set whose uniform measure is (kappa, C)-non-concentrated.

    The geometric series is summed in closed form; it requires t < kappa.
    """
    _require(t < kappa, f"energy exponent t={t} must be below kappa={kappa}")
    return 2.0 * 2.0 ** kappa / (1.0 - 2.0 ** (t - kappa))


# ---------------------------------------------------------------------------
# Heavy-cube pruning (energy -> Frostman)


def prune_heavy_cubes(mu: DyadicMeasure1, s: float, K: float, L: float,
                      strict: bool = True):
    """Remove dyadic cubes with mass above K*L*2**(-j*s/2), j = 0..n-1.

    strict=True removes only strictly heavier cubes (boundary cubes are
    kept); strict=False removes at >= as well.  Returns (kept support,
    removed mass).  The removed mass is checked against the provable
    bound I_s(mu)/(K*L) * sum_j 2**(-j*s/2) (constant 1 in 1D: pairs in
    a level-j cube sit at distance <= 2**-j, clamp included).
    """
    _require(s > 0, "energy exponent must be positive")
    _require(K >= 1 and L >= 1, "K and L must be at least 1")
    n = mu.scale.n
    nz = np.flatnonzero(mu.weights > 0)
    idx = nz.astype(np.int64) + mu.offset
    w = mu.weights[nz]
    removed = np.zeros(idx.size, dtype=bool)
    for j in range(n):
        keys = idx >> (n - j)
        uniq, inv = np.unique(keys, return_inverse=True)
        masses = np.bincount(inv, weights=w)
        thr = K * L * 2.0 ** (-j * s / 2.0)
        heavy = masses > thr if strict else masses >= thr
        if heavy.any():
            removed |= heavy[inv]
    removed_mass = float(np.sum(w[removed]))
    kept = GridSet1.from_indices(mu.scale, idx[~removed])
    energy = riesz_energy(mu, s)
    geom = sum(2.0 ** (-j * s / 2.0) for j in range(n)) if n else 0.0
    bound = energy / (K * L) * geom
    if n and removed_mass > bound * (1 + 1e-9) + 1e-12:
        raise InternalCheckError(
            f"pruned mass {removed_mass} exceeds energy bound {bound} (c=1); bug")
    return kept, removed_mass


# ---------------------------------------------------------------------------
# Conditioning and pushforward


def condition(mu, S):
    """mu restricted to S and renormalized; requires mu(S) > 0."""
    if isinstance(mu, DyadicMeasure1):
        _require(isinstance(S, GridSet1), "conditioning set must be a GridSet1")
        _require(mu.scale == S.scale, "operands must share one scale")
        w = np.zeros_like(mu.weights)
        if not S.is_empty:
            lo = max(mu.offset, S.offset)
            hi = min(mu.offset + mu.weights.size, S.offset + S.bits.size)
            if lo < hi:
                mask = S.bits[lo - S.offset:hi - S.offset]
                w[lo - mu.offset:hi - mu.offset] = mu.weights[lo - mu.offset:hi - mu.offset] * mask
        kept = float(np.sum(w))
        _require(kept > 0, "conditioning set carries no mass")
        return DyadicMeasure1.from_weights(mu.scale, mu.offset, w / kept)
    if isinstance(mu, DyadicMeasure2):
        _require(isinstance(S, GridSet2), "conditioning set must be a GridSet2")
        _require(mu.scale == S.scale, "operands must share one scale")
        w = np.zeros_like(mu.weights)
        if not S.is_empty:
            x0 = max(mu.offset[0], S.offset[0])
            x1 = min(mu.offset[0] + mu.weights.shape[1], S.offset[0] + S.width)
            y0 = max(mu.offset[1], S.offset[1])
            y1 = min(mu.offset[1] + mu.weights.shape[0], S.offset[1] + S.height)
            if x0 < x1 and y0 < y1:
                mask = S.bits[y0 - S.offset[1]:y1 - S.offset[1], x0 - S.offset[0]:x1 - S.offset[0]]
                w[y0 - mu.offset[1]:y1 - mu.offset[1], x0 - mu.offset[0]:x1 - mu.offset[0]] = \
                    mu.weights[y0 - mu.offset[1]:y1 - mu.offset[1],
                               x0 - mu.offset[0]:x1 - mu.offset[0]] * mask
        kept = float(np.sum(w))
        _require(kept > 0, "conditioning set carries no mass")
        return DyadicMeasure2.from_weights(mu.scale, mu.offset, w / kept)
    raise PreconditionError(f"unsupported operand type {type(mu).__name__}")


def pushforward_affine(mu: DyadicMeasure1, a, b) -> DyadicMeasure1:
    """Image of mu under t -> a*t + b, cells mapped through their centers.

    The target cell of source cell i is floor(a*(i + 1/2) + b*2**n),
    computed in exact integer arithmetic.  Mass is preserved exactly up
    to float addition reordering (within the 2**-40 invariant).
    """
    fa, fb = as_fraction(a), as_fraction(b)
    _require(fa != 0, "affine scale factor must be zero-free")
    n = mu.scale.n
    pa, qa = fa.numerator, fa.denominator
    pb, qb = fb.numerator, fb.denominator
    nz = np.flatnonzero(mu.weights > 0)
    src = nz.astype(object) + mu.offset
    # target = floor( (pa*(2i+1)*qb + pb*qa*2^(n+1)) / (2*qa*qb) ), exact.
    num = [pa * (2 * int(i) + 1) * qb + pb * qa * (2 << n) for i in src]
    den = 2 * qa * qb
    tgt = np.asarray([v // den for v in num], dtype=np.int64)
    _require(int(np.abs(tgt).max()) < (1 << 48), "pushforward target cells out of guarded range")
    lo = int(tgt.min())
    span = int(tgt.max()) - lo + 1
    _require(span <= MAX_SPAN, f"cell span {span} exceeds dense-representation cap {MAX_SPAN}")
    w = np.bincount(tgt - lo, weights=mu.weights[nz])
    return DyadicMeasure1.from_weights(mu.scale, lo, w)


def rescale_to_unit(mu: DyadicMeasure1, level: int, index: int) -> DyadicMeasure1:
    """Pushforward of mu restricted to I = [index*2**-level, (index+1)*2**-level)
    under t -> (t - x0)/r0, represented at its natural scale n - level.

    The zoom maps each source cell onto exactly one target cell, so the
    result is the exact pushforward with no center-rounding convention;
    keeping scale n instead would shatter the measure into atoms spaced
    2**level cells apart and destroy its ball-mass profile.
    """
    n = mu.scale.n
    _require(0 <= level <= n, f"level must lie in [0, {n}]")
    I = make_interval(mu.scale, Fraction(index, 1 << level),
                      Fraction(index + 1, 1 << level))
    restricted = condition(mu, I)
    base = index << (n - level)
    nz = np.flatnonzero(restricted.weights > 0)
    rel = nz + restricted.offset - base
    w = np.zeros(1 << (n - level)) if n > level else np.zeros(1)
    w[rel] = restricted.weights[nz]
    return DyadicMeasure1.from_weights(Scale(n - level), 0, w)


# ---------------------------------------------------------------------------
# Maximal-interval renormalization


def maximal_interval(mu: DyadicMeasure1, kappa: float) -> MaximalIntervalResult:
    """Maximizer of m(I) = mu(I) / r(I)**(kappa/2) over dyadic I.

    Scans levels j = 0..n (interval lengths 2**-j).  Ties break toward
    larger r, then smaller left endpoint: the scan walks coarse to fine
    and replaces only on strict improvement, taking the first argmax
    within a level.
    """
    n = mu.scale.n
    _require(mu.offset >= 0 and mu.offset + mu.weights.size <= (1 << n),
             "measure must be supported in [0, 1)")
    nz = np.flatnonzero(mu.weights > 0)
    idx = nz.astype(np.int64) + mu.offset
    w = mu.weights[nz]
    best = None
    for j in range(n + 1):
        keys = idx >> (n - j)
        uniq, inv = np.unique(keys, return_inverse=True)
        masses = np.bincount(inv, weights=w)
        mvals = masses * 2.0 ** (j * kappa / 2.0)
        p = int(np.argmax(mvals))
        if best is None or mvals[p] > best[0]:
            best = (float(mvals[p]), j, int(uniq[p]), float(masses[p]))
    m_value, j, k, mass = best
    return MaximalIntervalResult(level=j, index=k, r0=Fraction(1, 1 << j),
                                 x0=Fraction(k, 1 << j), m_value=m_value, mass=mass)
