"""Dyadic cell measures: Frostman scans, Riesz energies, pruning,
conditioning, pushforward, and maximal-interval renormalization.

A measure is a nonnegative weight per cell, summing to 1 within 2**-40
relative tolerance, interpreted as uniform density on each cell.  That
interpretation makes ball masses exact: a closed ball of dyadic radius
centered at a cell center cuts boundary cells exactly in half, so every
scan below works in integer half-cell (1D) or quarter-cell (2D) units
with no rounding ambiguity.  Each measure finds its positive cells in one
flat scan of its weights, on first use, and every tool below reads them
from that view (`_support`, a `grid._view` like a set's `indices`);
`uniform_on` hands a set's cells over as it, with no scan at all.

Non-concentration scans probe closed balls centered at occupied cell
centers, at dyadic radii delta, 2*delta, 4*delta, ... up to the first
radius reaching the diameter.  In 2D the ball is the sup-norm square of
half-side r (constants versus Euclidean balls differ by at most
sqrt(2)**kappa).

Two normalization conventions coexist for "the" non-concentration
constant: the set-relative one (ball mass divided by total mass of the
set, then by r**kappa, from `nonconcentration_constant`) and the raw
measure one (mass of a probability measure divided by r**kappa, from
`frostman_constant`).  FrostmanReport records which convention produced
it.  They coincide for uniform measure on a set, and the single shared
scan engine guarantees that exactly.

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
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import (GridSet1, GridSet2, MAX_INDEX, Scale, as_fraction,
                   _check_cells, _crop, _digest, _offset, _origin, _overlap_box, _require,
                   _require_span, _run_cells, _seed, _view)

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


class _CellMeasure:
    """Validation, construction and comparison shared by DyadicMeasure1
    and DyadicMeasure2: a probability measure with float64 weights on the
    cells of a trimmed array placed at `offset`, as in GridSet1/GridSet2."""

    def __post_init__(self):
        w, nd = self.weights, self._ndim
        _require(isinstance(w, np.ndarray) and w.dtype == np.float64 and w.ndim == nd,
                 f"weights must be a {nd}D float64 array")
        _require(w.size > 0, "a probability measure needs support")
        origin = _origin(self.offset, nd)
        _check_cells(origin, w, "weights")
        _validate_weights(w)
        object.__setattr__(self, "offset", _offset(origin))
        w.setflags(write=False)

    @classmethod
    def from_weights(cls, scale: Scale, offset, weights):
        """The measure of `weights` placed at `offset`, trimmed to the box
        of its nonzero weights, of which it keeps a copy."""
        w = np.asarray(weights, dtype=np.float64)
        if cls._ndim == 1:
            w = w.reshape(-1)
        _require(w.ndim == cls._ndim, f"weights must be a {cls._ndim}D array")
        cropped = _crop(_origin(offset, w.ndim), w, w != 0)
        _require(cropped is not None, "a probability measure needs support")
        return cls(scale, _offset(cropped[0]), cropped[1])

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and np.array_equal(self.weights, other.weights))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.scale.n}, "
                f"support={self._support[1].size}, offset={self.offset})")

    @_view
    def _support(self):
        """(cells, w) over the positive cells in row-major order: one int64
        position array per axis, from the first cell of the weights box, as
        np.nonzero(weights > 0) gives them, and the weights there.  The one
        scan of the weights for their support."""
        flat = np.flatnonzero(self.weights > 0)
        cells = (flat,) if self._ndim == 1 else np.divmod(flat, self.weights.shape[1])
        return cells, self.weights[cells]


@dataclass(frozen=True, eq=False, repr=False)
class DyadicMeasure1(_CellMeasure):
    """Probability measure with weights on 1D cells, trimmed support."""

    scale: Scale
    offset: int
    weights: np.ndarray
    _ndim = 1


@dataclass(frozen=True, eq=False, repr=False)
class DyadicMeasure2(_CellMeasure):
    """Probability measure with weights on 2D cells (rows along y)."""

    scale: Scale
    offset: tuple
    weights: np.ndarray
    _ndim = 2


@dataclass(frozen=True)
class FrostmanReport:
    """Outcome of a non-concentration scan.

    constant is the worst (largest) ratio found; witness_center is the
    cell index (int, or (i, j) pair in 2D) and witness_radius the dyadic
    radius where it occurred.  convention is "set" when mass was
    normalized by the total mass of the set, "measure" when the raw
    measure was used.
    """

    kappa: float
    constant: float
    witness_center: object
    witness_radius: float
    convention: str


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
    """Uniform probability measure on a nonempty cell set.  The set's
    cells, less its offset, are the measure's support, handed over unscanned:
    expanded from its runs, so the set keeps no `indices` for them."""
    cls = {GridSet1: DyadicMeasure1, GridSet2: DyadicMeasure2}.get(type(S))
    _require(cls is not None, f"unsupported operand type {type(S).__name__}")
    _require(not S.is_empty, "uniform measure needs a nonempty set")
    *ys, x0, x1 = S.runs if S._ndim == 1 else S.runs.T  # a 2D run's row y
    *oy, ox = _origin(S.offset, S._ndim)
    lens = x1 - x0 + 1
    cells = (*(np.repeat(y - o, lens) for y, o in zip(ys, oy)), _run_cells(x0 - ox, lens))
    return _seed(cls(S.scale, S.offset, S.bits.astype(np.float64) / S.count),
                 _support=(cells, np.full(S.count, 1 / S.count)))


# ---------------------------------------------------------------------------
# Frostman scan engine


def _dyadic_radii(span_cells: int):
    """Cell radii 1, 2, 4, ... up to the first covering the span."""
    return [1 << t for t in range((span_cells - 1).bit_length() + 1)]


def _ball_masses_1d(mu: DyadicMeasure1):
    """k -> mass of the closed ball of k cells about each support cell, from
    the support alone: `np.cumsum` adds in order and adding 0.0 is exact, so
    its prefix at a support rank is the whole span's prefix at that cell."""
    (s,), w = mu._support
    P = np.concatenate(([0.0], np.cumsum(w)))

    def masses(k):
        lo = np.searchsorted(s, s - k, "left")  # first support cell from the left edge on
        hi = np.searchsorted(s, s + k, "right") - 1  # last support cell up to the right edge
        at_lo, at_hi = s[lo] == s - k, s[hi] == s + k
        inner = P[hi + 1 - at_hi] - P[lo + at_lo]
        edge = np.where(at_lo, w[lo], 0.0) + np.where(at_hi, w[hi], 0.0)
        return inner + 0.5 * edge
    return masses


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


def _ball_masses_2d(mu: DyadicMeasure2):
    """k -> mass of the sup-norm square of half-side k about each support cell."""
    w = mu.weights
    P = np.zeros((w.shape[0] + 1, w.shape[1] + 1))
    np.cumsum(np.cumsum(w, axis=0), axis=1, out=P[1:, 1:])
    (jr, ir), _ = mu._support

    def masses(k):
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
        return (4.0 * full - 2.0 * (row0 + row1 + col0 + col1) + c00 + c01 + c10 + c11) / 4.0
    return masses


def frostman_constant(mu, kappa: float) -> FrostmanReport:
    """Least C with mu(B(x, r)) <= C * r**kappa over the scan family.

    Scans closed balls (sup-norm squares in 2D) centered at support
    cell centers, dyadic radii delta * 2**t up to the first radius
    covering the support span.  Exact overlap mass; convention
    "measure" (no normalization beyond mu being a probability measure).

    kappa lies in [-32, 32]: every radius scanned lies in [2**-30, 2**26]
    (n <= 30, spans up to MAX_SPAN), so r**kappa lies in [2**-960, 2**960]
    and the constant, at most 2**960 for a mass of at most 1, is finite.
    """
    _require(abs(kappa) <= 32, "kappa must be finite, in [-32, 32]")
    _require(isinstance(mu, _CellMeasure), f"unsupported operand type {type(mu).__name__}")
    masses = (_ball_masses_1d if mu._ndim == 1 else _ball_masses_2d)(mu)
    best = (-1.0, 0, 0.0)  # (constant, support rank, radius)
    for k in _dyadic_radii(max(mu.weights.shape)):
        r = k * mu.scale.delta
        cand = masses(k) / r ** kappa
        p = int(np.argmax(cand))
        if cand[p] > best[0]:
            best = (float(cand[p]), p, r)
    c, p, r = best
    cells, _ = mu._support
    center = _offset(tuple(o + int(a[p]) for o, a in zip(_origin(mu.offset, mu._ndim), cells)))
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
    return replace(frostman_constant(uniform_on(S), kappa), convention="set")


# ---------------------------------------------------------------------------
# Riesz energy


def _block_rows(width: int) -> int:
    """Rows per block of a pairwise or kernel array `width` wide: at most
    _ENERGY_CHUNK rows and _BLOCK_CELLS cells, at least one row."""
    return max(1, min(_ENERGY_CHUNK, _BLOCK_CELLS // width))


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

    s lies in (0, 32]: at n <= 30, delta**-s <= 2**960, and the energy of a
    probability measure is at most delta**-s (2**s times that when binned).
    """
    _require(0 < s <= 32, "energy exponent must be positive, at most 32")
    _require(method in ("auto", "direct", "binned"), f"unknown method {method!r}")
    if not isinstance(mu, (DyadicMeasure1, DyadicMeasure2)):
        raise PreconditionError(f"unsupported operand type {type(mu).__name__}")
    w, delta = mu.weights, mu.scale.delta
    _require(w.ndim == 1 or method != "binned", "binned path is 1D only; 2D energies are exact")
    if method == "auto":
        support = mu._support[1].size
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
    return _energy_direct(*mu._support, delta, s)


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


def _cube_masses(idx: np.ndarray, w: np.ndarray, n: int, levels):
    """For each level j in `levels`: j, the level-j dyadic cubes meeting the
    cells idx (ascending), each cell's position among them, and their masses
    under the weights w."""
    for j in levels:
        uniq, inv = np.unique(idx >> (n - j), return_inverse=True)
        yield j, uniq, inv, np.bincount(inv, weights=w)


def prune_heavy_cubes(mu: DyadicMeasure1, s: float, K: float, L: float,
                      strict: bool = True):
    """Remove dyadic cubes with mass above K*L*2**(-j*s/2), j = 0..n-1.

    strict=True removes only strictly heavier cubes (boundary cubes are
    kept); strict=False removes at >= as well.  Returns (kept support,
    removed mass).  The removed mass is checked against the provable
    bound I_s(mu)/(K*L) * sum_j 2**(-j*s/2) (constant 1 in 1D: pairs in
    a level-j cube sit at distance <= 2**-j, clamp included).  s lies in
    (0, 32], the domain of riesz_energy.
    """
    _require(0 < s <= 32, "energy exponent must be positive, at most 32")
    _require(K >= 1 and L >= 1, "K and L must be at least 1")
    n = mu.scale.n
    (idx,), w = mu._support
    removed = np.zeros(idx.size, dtype=bool)
    for j, _, inv, masses in _cube_masses(idx + mu.offset, w, n, range(n)):
        thr = K * L * 2.0 ** (-j * s / 2.0)
        heavy = masses > thr if strict else masses >= thr
        if heavy.any():
            removed |= heavy[inv]
    removed_mass = float(np.sum(w[removed]))
    kept = GridSet1.from_indices(mu.scale, idx[~removed] + mu.offset)
    energy = riesz_energy(mu, s)
    geom = sum(2.0 ** (-j * s / 2.0) for j in range(n)) if n else 0.0
    bound = energy / (K * L) * geom
    if n and removed_mass > bound * (1 + 1e-9) + 1e-12:
        raise InternalCheckError(
            f"pruned mass {removed_mass} exceeds energy bound {bound} (c=1) "
            f"(inputs {_digest(mu, s, K, L, strict)}); bug")
    return kept, removed_mass


# ---------------------------------------------------------------------------
# Conditioning and pushforward


def condition(mu, S):
    """mu restricted to S and renormalized; requires mu(S) > 0."""
    set_type = {DyadicMeasure1: GridSet1, DyadicMeasure2: GridSet2}.get(type(mu))
    _require(set_type is not None, f"unsupported operand type {type(mu).__name__}")
    _require(isinstance(S, set_type), f"conditioning set must be a {set_type.__name__}")
    _require(mu.scale == S.scale, "operands must share one scale")
    w = np.zeros_like(mu.weights)
    box = None if S.is_empty else _overlap_box(_origin(mu.offset, w.ndim), w.shape,
                                               _origin(S.offset, w.ndim), S.bits.shape)
    if box is not None:
        _, here, there = box
        w[here] = mu.weights[here] * S.bits[there]
    kept = float(np.sum(w))
    _require(kept > 0, "conditioning set carries no mass")
    return type(mu).from_weights(mu.scale, mu.offset, w / kept)


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
    (src,), weights = mu._support
    # target = floor( (pa*(2i+1)*qb + pb*qa*2^(n+1)) / (2*qa*qb) ), exact.
    num = [pa * (2 * int(i) + 1) * qb + pb * qa * (2 << n) for i in src + mu.offset]
    den = 2 * qa * qb
    tgt = [v // den for v in num]
    lo, hi = min(tgt), max(tgt)
    _require(max(abs(lo), abs(hi)) < MAX_INDEX, "pushforward target cells out of guarded range")
    _require_span(hi - lo + 1)
    w = np.bincount(np.asarray(tgt, dtype=np.int64) - lo, weights=weights)
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
    first = int(index) << (n - level)  # I's first cell, the zoomed measure's cell 0
    # mu on I's cells, renormalized with the same sum and division as `condition`
    w = np.zeros_like(mu.weights)
    a, b = (min(max(t - mu.offset, 0), w.size) for t in (first, first + (1 << (n - level))))
    w[a:b] = mu.weights[a:b]
    kept = float(np.sum(w))
    _require(kept > 0, "conditioning set carries no mass")
    return DyadicMeasure1.from_weights(Scale(n - level), mu.offset - first, w / kept)


# ---------------------------------------------------------------------------
# Maximal-interval renormalization


def maximal_interval(mu: DyadicMeasure1, kappa: float) -> MaximalIntervalResult:
    """Maximizer of m(I) = mu(I) / r(I)**(kappa/2) over dyadic I.

    Scans levels j = 0..n (interval lengths 2**-j).  Ties break toward
    larger r, then smaller left endpoint: the scan walks coarse to fine
    and replaces only on strict improvement, taking the first argmax
    within a level.  kappa lies in [-32, 32], so at j <= n <= 30 the
    factor 2**(j*kappa/2) lies in [2**-480, 2**480].
    """
    n = mu.scale.n
    _require(mu.offset >= 0 and mu.offset + mu.weights.size <= (1 << n),
             "measure must be supported in [0, 1)")
    _require(abs(kappa) <= 32, "kappa must be finite, in [-32, 32]")
    best = None
    (idx,), w = mu._support
    for j, uniq, _, masses in _cube_masses(idx + mu.offset, w, n, range(n + 1)):
        mvals = masses * 2.0 ** (j * kappa / 2.0)
        p = int(np.argmax(mvals))
        if best is None or mvals[p] > best[0]:
            best = (float(mvals[p]), j, int(uniq[p]), float(masses[p]))
    m_value, j, k, mass = best
    return MaximalIntervalResult(level=j, index=k, r0=Fraction(1, 1 << j),
                                 x0=Fraction(k, 1 << j), m_value=m_value, mass=mass)
