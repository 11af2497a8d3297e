"""Dyadic grid sets in one and two dimensions.

Everything in this package lives on the grid of half-open cells
[i*delta, (i+1)*delta) with delta = 2**-n, n <= 30.  A set is a finite
union of cells, stored as a trimmed boolean occupancy array plus the
integer index of its leftmost cell.  Half-open cells make translation
and index arithmetic exact: no point belongs to two cells, so counts
never double.

Covering numbers are occupied-cell counts.  The cell count agrees with
the least number of delta-balls needed to cover the set up to a factor
of 2 per dimension, and every inequality exercised downstream tolerates
absolute constants, so the exact count is the more useful convention.

Non-concentration scans probe closed balls centered at occupied cell
centers, at dyadic radii delta, 2*delta, 4*delta, ... up to the first
radius reaching the diameter.  Ball mass is the exact Lebesgue overlap
with the cell union; since ball edges land on cell centers, boundary
cells contribute exactly half and everything stays in integer half-cell
units.  In 2D the ball is the sup-norm square of half-side r (constants
versus Euclidean balls differ by at most sqrt(2)**kappa).

Two normalization conventions coexist for "the" non-concentration
constant: the set-relative one (ball mass divided by total mass of the
set, then by r**kappa) and the raw measure one (mass of a probability
measure divided by r**kappa).  Both are exposed; FrostmanReport records
which convention produced it.  They coincide for uniform measure on a
set, and the single shared scan engine guarantees that exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError

MAX_DEPTH = 30
# Dense occupancy arrays: refuse spans that stop being desk-sized.
MAX_SPAN = 1 << 26
# Cell indices passing through int64 arithmetic stay clear of overflow.
MAX_INDEX = 1 << 62


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionError(msg)


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, str like '1/3', or float.

    Floats are accepted verbatim: every binary64 value is a dyadic
    rational, so Fraction(float) is exact, not a re-parse.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise PreconditionError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Scale:
    """Grid resolution delta = 2**-n."""

    n: int

    def __post_init__(self):
        _require(isinstance(self.n, (int, np.integer)), "scale depth must be an integer")
        object.__setattr__(self, "n", int(self.n))
        _require(0 <= self.n <= MAX_DEPTH, f"scale depth must be in [0, {MAX_DEPTH}], got {self.n}")

    @property
    def delta(self) -> float:
        return 2.0 ** -self.n


def _int64_indices(indices) -> np.ndarray:
    """indices as a fresh int64 array, never a view of the caller's buffer;
    values no int64 holds are refused, where a cast would wrap unsigned
    ones silently."""
    try:
        raw = np.asarray(indices)
        if raw.dtype.kind == "u" and raw.size and int(raw.max()) > np.iinfo(np.int64).max:
            raise OverflowError
        return np.array(raw, dtype=np.int64)
    except OverflowError:
        raise PreconditionError("cell indices out of guarded range") from None


def _trim1(bits: np.ndarray, offset: int):
    raw = bits.tobytes()  # numpy booleans are the bytes 0 and 1
    first = raw.find(1)
    if first < 0:
        return np.zeros(0, dtype=bool), 0
    return bits[first:raw.rfind(1) + 1], offset + first


def _trim2(bits: np.ndarray, offset):
    ox, oy = offset
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return np.zeros((0, 0), dtype=bool), (0, 0)
    cols = np.flatnonzero(bits.any(axis=0))
    sub = bits[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    return sub, (ox + int(cols[0]), oy + int(rows[0]))


@dataclass(frozen=True, eq=False)
class GridSet1:
    """Union of half-open cells [i*delta, (i+1)*delta) on the line.

    bits[t] says whether cell offset+t is occupied.  Canonical form is
    trimmed: empty array, or first and last entries set.  Build through
    the factories; the raw constructor validates and rejects anything
    non-canonical.
    """

    scale: Scale
    offset: int
    bits: np.ndarray

    def __post_init__(self):
        b = self.bits
        _require(isinstance(b, np.ndarray) and b.dtype == np.bool_ and b.ndim == 1,
                 "bits must be a 1D boolean array")
        _require(b.size <= MAX_SPAN, f"cell span {b.size} exceeds dense-representation cap {MAX_SPAN}")
        if b.size:
            _require(bool(b[0]) and bool(b[-1]), "bits must be trimmed (first and last cells occupied)")
        else:
            _require(self.offset == 0, "empty set uses offset 0")
        object.__setattr__(self, "offset", int(self.offset))
        _require(abs(self.offset) + b.size <= MAX_INDEX, "cell indices out of guarded range")
        b.setflags(write=False)

    @classmethod
    def from_bits(cls, scale: Scale, offset: int, bits) -> "GridSet1":
        arr, off = _trim1(np.asarray(bits, dtype=bool).reshape(-1), int(offset))
        return cls(scale, off, arr.copy())

    @classmethod
    def from_indices(cls, scale: Scale, indices) -> "GridSet1":
        """Cells from integer indices in any order, duplicates allowed."""
        idx = _int64_indices(indices).reshape(-1)
        if idx.size == 0:
            return cls.empty(scale)
        lo = int(idx.min())
        span = int(idx.max()) - lo + 1
        _require(span <= MAX_SPAN, f"cell span {span} exceeds dense-representation cap {MAX_SPAN}")
        bits = np.zeros(span, dtype=bool)
        bits[idx - lo] = True  # repeated indices just set a bit again
        return cls(scale, lo, bits)

    @classmethod
    def empty(cls, scale: Scale) -> "GridSet1":
        return cls(scale, 0, np.zeros(0, dtype=bool))

    @property
    def count(self) -> int:
        """Occupied cells; computed once."""
        c = self.__dict__.get("_count")
        if c is None:
            c = int(np.count_nonzero(self.bits))
            object.__setattr__(self, "_count", c)
        return c

    @property
    def is_empty(self) -> bool:
        return self.bits.size == 0

    @property
    def measure(self) -> float:
        return self.count * self.scale.delta

    @property
    def indices(self) -> np.ndarray:
        """Ascending absolute cell indices; computed once, read-only."""
        idx = self.__dict__.get("_indices")
        if idx is None:
            idx = np.flatnonzero(self.bits).astype(np.int64) + self.offset
            idx.setflags(write=False)
            object.__setattr__(self, "_indices", idx)
        return idx

    @property
    def min_index(self) -> int:
        _require(not self.is_empty, "empty set has no cells")
        return self.offset

    @property
    def max_index(self) -> int:
        _require(not self.is_empty, "empty set has no cells")
        return self.offset + self.bits.size - 1

    @property
    def diameter(self) -> float:
        """sup-distance across the cell union: (span in cells) * delta."""
        _require(not self.is_empty, "empty set has no diameter")
        return self.bits.size * self.scale.delta

    def to_mask(self) -> int:
        if self.is_empty:
            return 0
        return int.from_bytes(np.packbits(self.bits, bitorder="little").tobytes(), "little")

    def contains_index(self, i: int) -> bool:
        t = int(i) - self.offset
        return 0 <= t < self.bits.size and bool(self.bits[t])

    def translate(self, k: int) -> "GridSet1":
        if self.is_empty:
            return self
        return GridSet1(self.scale, self.offset + int(k), self.bits)

    def _aligned(self, other: "GridSet1"):
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty or other.is_empty:
            return None
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.bits.size, other.offset + other.bits.size)
        a = np.zeros(hi - lo, dtype=bool)
        b = np.zeros(hi - lo, dtype=bool)
        a[self.offset - lo:self.offset - lo + self.bits.size] = self.bits
        b[other.offset - lo:other.offset - lo + other.bits.size] = other.bits
        return lo, a, b

    def union(self, other: "GridSet1") -> "GridSet1":
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo, a, b = self._aligned(other)
        return GridSet1.from_bits(self.scale, lo, a | b)

    def intersect(self, other: "GridSet1") -> "GridSet1":
        al = self._aligned(other)
        if al is None:
            return GridSet1.empty(self.scale)
        lo, a, b = al
        return GridSet1.from_bits(self.scale, lo, a & b)

    def difference(self, other: "GridSet1") -> "GridSet1":
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty or other.is_empty:
            return self
        lo, a, b = self._aligned(other)
        return GridSet1.from_bits(self.scale, lo, a & ~b)

    def subset_of(self, other: "GridSet1") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        al = self._aligned(other)
        lo, a, b = al
        return bool(np.all(b[a]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet1):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return f"GridSet1(n={self.scale.n}, count={self.count}, offset={self.offset}, span={self.bits.size})"


@dataclass(frozen=True, eq=False)
class GridSet2:
    """Union of half-open delta-squares in the plane.

    Cell (i, j) is [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta).
    bits[jr, ir] covers cell (offset[0]+ir, offset[1]+jr): rows run
    along y, columns along x.  Canonical form trims empty border rows
    and columns.
    """

    scale: Scale
    offset: tuple
    bits: np.ndarray

    def __post_init__(self):
        b = self.bits
        _require(isinstance(b, np.ndarray) and b.dtype == np.bool_ and b.ndim == 2,
                 "bits must be a 2D boolean array")
        _require(b.size <= MAX_SPAN, f"cell span {b.size} exceeds dense-representation cap {MAX_SPAN}")
        ox, oy = self.offset
        object.__setattr__(self, "offset", (int(ox), int(oy)))
        if b.size:
            _require(b[0].any() and b[-1].any() and b[:, 0].any() and b[:, -1].any(),
                     "bits must be trimmed (no empty border row/column)")
        else:
            _require(self.offset == (0, 0), "empty set uses offset (0, 0)")
            _require(b.shape == (0, 0), "empty set uses a (0, 0) bits array")
        _require(max(abs(self.offset[0]), abs(self.offset[1])) + max(b.shape, default=0) <= MAX_INDEX,
                 "cell indices out of guarded range")
        b.setflags(write=False)

    @classmethod
    def from_bits(cls, scale: Scale, offset, bits) -> "GridSet2":
        arr = np.array(bits, dtype=bool, copy=True)
        _require(arr.ndim == 2, "bits must be a 2D boolean array")
        arr, off = _trim2(arr, (int(offset[0]), int(offset[1])))
        return cls(scale, off, arr)

    @classmethod
    def from_indices(cls, scale: Scale, indices) -> "GridSet2":
        """indices: (m, 2) array or iterable of (i, j) cell pairs, in any
        order, duplicates allowed.  Pairs strictly ascending in (j, i) are
        already the `indices` list and seed that cache."""
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        try:
            raw = np.asarray(indices)
        except ValueError:  # ragged input
            raise PreconditionError("indices must be (i, j) pairs") from None
        pts = _int64_indices(raw)
        _require(pts.shape == (0,) or (pts.ndim == 2 and pts.shape[1] == 2),
                 f"indices must be (i, j) pairs, got shape {pts.shape}")
        if pts.size == 0:
            return cls.empty(scale)
        ox, oy = int(pts[:, 0].min()), int(pts[:, 1].min())
        w = int(pts[:, 0].max()) - ox + 1
        h = int(pts[:, 1].max()) - oy + 1
        _require(w * h <= MAX_SPAN, f"cell span {w * h} exceeds dense-representation cap {MAX_SPAN}")
        # row-major positions in the box: ascending exactly when pts is in (j, i)
        flat = (pts[:, 1] - oy) * w + (pts[:, 0] - ox)
        bits = np.zeros(h * w, dtype=bool)
        bits[flat] = True
        E = cls(scale, (ox, oy), bits.reshape(h, w))
        if bool(np.all(flat[1:] > flat[:-1])):
            pts.setflags(write=False)  # a fresh array, already the `indices` list
            object.__setattr__(E, "_indices", pts)
            object.__setattr__(E, "_count", len(pts))
        return E

    @classmethod
    def empty(cls, scale: Scale) -> "GridSet2":
        return cls(scale, (0, 0), np.zeros((0, 0), dtype=bool))

    @property
    def count(self) -> int:
        """Occupied cells; computed once."""
        c = self.__dict__.get("_count")
        if c is None:
            c = int(np.count_nonzero(self.bits))
            object.__setattr__(self, "_count", c)
        return c

    @property
    def is_empty(self) -> bool:
        return self.bits.size == 0

    @property
    def measure(self) -> float:
        return self.count * self.scale.delta ** 2

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def indices(self) -> np.ndarray:
        """(m, 2) array of absolute (i, j) cell pairs, lexicographic in (j, i);
        computed once, read-only."""
        out = self.__dict__.get("_indices")
        if out is None:
            jr, ir = np.nonzero(self.bits)
            out = np.empty((jr.size, 2), dtype=np.int64)
            out[:, 0] = ir + self.offset[0]
            out[:, 1] = jr + self.offset[1]
            out.setflags(write=False)
            object.__setattr__(self, "_indices", out)
        return out

    def _aligned(self, other: "GridSet2"):
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty or other.is_empty:
            return None
        ox = min(self.offset[0], other.offset[0])
        oy = min(self.offset[1], other.offset[1])
        hx = max(self.offset[0] + self.width, other.offset[0] + other.width)
        hy = max(self.offset[1] + self.height, other.offset[1] + other.height)
        a = np.zeros((hy - oy, hx - ox), dtype=bool)
        b = np.zeros((hy - oy, hx - ox), dtype=bool)
        a[self.offset[1] - oy:self.offset[1] - oy + self.height,
          self.offset[0] - ox:self.offset[0] - ox + self.width] = self.bits
        b[other.offset[1] - oy:other.offset[1] - oy + other.height,
          other.offset[0] - ox:other.offset[0] - ox + other.width] = other.bits
        return (ox, oy), a, b

    def union(self, other: "GridSet2") -> "GridSet2":
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        off, a, b = self._aligned(other)
        return GridSet2.from_bits(self.scale, off, a | b)

    def intersect(self, other: "GridSet2") -> "GridSet2":
        al = self._aligned(other)
        if al is None:
            return GridSet2.empty(self.scale)
        off, a, b = al
        return GridSet2.from_bits(self.scale, off, a & b)

    def difference(self, other: "GridSet2") -> "GridSet2":
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty or other.is_empty:
            return self
        off, a, b = self._aligned(other)
        return GridSet2.from_bits(self.scale, off, a & ~b)

    def subset_of(self, other: "GridSet2") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        off, a, b = self._aligned(other)
        return bool(np.all(b[a]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet2):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return (f"GridSet2(n={self.scale.n}, count={self.count}, offset={self.offset}, "
                f"shape={self.bits.shape})")


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


def make_interval(scale: Scale, lo, hi) -> GridSet1:
    """Cells covering [lo, hi) for delta-aligned rational endpoints."""
    flo, fhi = as_fraction(lo), as_fraction(hi)
    u = 1 << scale.n
    for name, f in (("lo", flo), ("hi", fhi)):
        _require((f * u).denominator == 1,
                 f"endpoint {name}={f} is not a multiple of delta=2**-{scale.n}")
    ilo, ihi = int(flo * u), int(fhi * u)
    _require(ilo < ihi, f"empty interval [{flo}, {fhi})")
    _require(max(abs(ilo), abs(ihi)) < MAX_INDEX, "interval endpoints out of guarded range")
    return GridSet1(scale, ilo, np.ones(ihi - ilo, dtype=bool))


def gen_cantor(scale: Scale, base: int, digits: Iterable[int], levels: int) -> GridSet1:
    """Exact delta-cell cover of a base-`base` digit-restricted Cantor set.

    The level-`levels` construction is the union of |digits|**levels
    intervals [m/base**levels, (m+1)/base**levels) indexed by the digit
    strings; the cover of each is computed in integer arithmetic, so no
    rounding enters even when base is not a power of two.  Requires the
    construction to be no finer than the grid (base**levels <= 2**n);
    when base**levels divides 2**n the cover is the construction itself.
    """
    base = int(base)
    levels = int(levels)
    dig = sorted({int(d) for d in digits})
    _require(base >= 2, "base must be at least 2")
    _require(levels >= 0, "levels must be nonnegative")
    _require(len(dig) > 0, "digit set must be nonempty")
    _require(all(0 <= d < base for d in dig), f"digits must lie in [0, {base})")
    _require(len(dig) ** levels <= (1 << 22), "digit-string count exceeds desk-scale cap 2**22")
    bl = base ** levels
    _require(bl <= (1 << scale.n),
             f"misaligned scale: construction intervals (width {base}**-{levels}) are finer than "
             f"delta=2**-{scale.n}; deepen the scale or lower `levels`")
    ms = np.zeros(1, dtype=np.int64)
    darr = np.asarray(dig, dtype=np.int64)
    for _ in range(levels):
        ms = (ms[:, None] * base + darr).reshape(-1)
    u = 1 << scale.n
    k_lo = (ms * u) // bl
    k_hi = ((ms + 1) * u - 1) // bl
    # ms ascending -> both endpoints nondecreasing; merge touching runs.
    breaks = np.flatnonzero(k_lo[1:] > k_hi[:-1] + 1)
    starts = np.concatenate(([k_lo[0]], k_lo[1:][breaks]))
    ends = np.concatenate((k_hi[:-1][breaks], [k_hi[-1]]))
    span = int(ends[-1] - starts[0] + 1)
    _require(span <= MAX_SPAN, f"cell span {span} exceeds dense-representation cap {MAX_SPAN}")
    bits = np.zeros(span, dtype=bool)
    for s, e in zip(starts, ends):
        bits[int(s - starts[0]):int(e - starts[0]) + 1] = True
    return GridSet1(scale, int(starts[0]), bits)


def gen_random_frostman(scale: Scale, kappa: float, seed: int) -> GridSet1:
    """Random dyadic branching set of expected dimension kappa in [0, 1).

    Starting from [0, 1), each cell splits in two and each child
    survives independently with probability 2**(kappa-1), so the
    expected cell count at depth j is 2**(j*kappa).  The construction
    restarts (continuing the same generator stream) if every branch
    dies; kappa > 0 makes the branching supercritical, so restarts
    terminate.  Deterministic for a fixed seed.
    """
    _require(0 < kappa <= 1, "kappa must lie in (0, 1]")
    p = 2.0 ** (kappa - 1.0)
    rng = np.random.default_rng(seed)
    for _attempt in range(10_000):
        cur = np.zeros(1, dtype=np.int64)
        for _depth in range(scale.n):
            children = np.concatenate((2 * cur, 2 * cur + 1))
            children.sort()
            keep = rng.random(children.size) < p
            cur = children[keep]
            if cur.size == 0:
                break
        if cur.size:
            return GridSet1.from_indices(scale, cur)
    raise PreconditionError("branching construction failed to survive; kappa too small")


def covering_number(S) -> int:
    """Number of delta-cells needed to cover S: its occupied-cell count."""
    return S.count


def neighborhood(S, r) -> "GridSet1 | GridSet2":
    """Closed r-neighborhood of S as a cell union, r a multiple of delta.

    1D: every cell within k = r/delta cells of an occupied cell.  2D:
    sup-norm version (square structuring element), consistent with the
    package's 2D ball convention.
    """
    fr = as_fraction(r)
    _require(fr >= 0, "radius must be nonnegative")
    k_f = fr * (1 << S.scale.n)
    _require(k_f.denominator == 1, f"radius {fr} is not a multiple of delta=2**-{S.scale.n}")
    k = int(k_f)
    if S.is_empty or k == 0:
        return S
    if isinstance(S, GridSet1):
        ext = np.zeros(S.bits.size + 2 * k, dtype=np.int64)
        ext[k:k + S.bits.size] = S.bits
        P = np.concatenate(([0], np.cumsum(ext)))
        i = np.arange(ext.size)
        out = (P[np.minimum(i + k + 1, ext.size)] - P[np.maximum(i - k, 0)]) > 0
        return GridSet1.from_bits(S.scale, S.offset - k, out)
    if isinstance(S, GridSet2):
        grown = _dilate_axis(S.bits.astype(np.int64), k, axis=1)
        grown = _dilate_axis(grown, k, axis=0)
        return GridSet2.from_bits(S.scale, (S.offset[0] - k, S.offset[1] - k), grown > 0)
    raise PreconditionError(f"unsupported operand type {type(S).__name__}")


def _dilate_axis(arr: np.ndarray, k: int, axis: int) -> np.ndarray:
    if axis == 0:
        return _dilate_axis(arr.T, k, axis=1).T
    h, w = arr.shape
    ext = np.zeros((h, w + 2 * k), dtype=np.int64)
    ext[:, k:k + w] = arr
    P = np.concatenate((np.zeros((h, 1), dtype=np.int64), np.cumsum(ext, axis=1)), axis=1)
    i = np.arange(ext.shape[1])
    return P[:, np.minimum(i + k + 1, ext.shape[1])] - P[:, np.maximum(i - k, 0)]


def nonconcentration_constant(S, kappa: float) -> FrostmanReport:
    """Least C with |S intersect B(x, r)| <= C * r**kappa * |S| over the scan family.

    Scanned over closed balls centered at occupied cell centers and
    dyadic radii from delta up to the first radius >= diameter.  Mass is
    exact Lebesgue overlap, normalized by the total measure of S
    (convention "set").
    """
    from . import measure as _measure

    _require(not S.is_empty, "non-concentration scan needs a nonempty set")
    mu = _measure.uniform_on(S)
    rep = _measure.frostman_constant(mu, kappa)
    return FrostmanReport(kappa=rep.kappa, constant=rep.constant,
                          witness_center=rep.witness_center,
                          witness_radius=rep.witness_radius, convention="set")


def cartesian_product(A: GridSet1, B: GridSet1) -> GridSet2:
    """A x B as a planar cell union (A along x, B along y)."""
    _require(A.scale == B.scale, "operands must share one scale")
    if A.is_empty or B.is_empty:
        return GridSet2.empty(A.scale)
    bits = np.outer(B.bits, A.bits)
    return GridSet2(A.scale, (A.offset, B.offset), bits)
