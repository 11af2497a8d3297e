"""Dyadic grid sets in one and two dimensions.

Everything in this package lives on the grid of half-open cells
[i*delta, (i+1)*delta) with delta = 2**-n, n <= 30.  A set is a finite
union of cells, stored as a trimmed boolean occupancy array plus the
integer index of its leftmost cell.  Half-open cells make translation
and index arithmetic exact: no point belongs to two cells, so counts
never double.

A set's `count`, cells (`indices`) and maximal `runs` are `_view`s of its
array: built on first use, frozen and kept, unless a constructor that
holds one hands it over (`_seed`).  A 2D set is held by its box shape and
either its box or its maximal row runs, and the other is a view too: a set
read from runs paints its box (`bits`) only when asked, and a set built
from a box scans its row runs off it once, a block of rows at a time
(`_box_runs`).  Its cells are expanded from its runs.

One painter, `_painted`, turns runs into a box in either dimension: one
byte per box cell, each written once, with no temporary per cell.  A
sparse set in a wide box pays for the whole box.

Covering numbers are occupied-cell counts.  The cell count agrees with
the least number of delta-balls needed to cover the set up to a factor
of 2 per dimension, and every inequality exercised downstream tolerates
absolute constants, so the exact count is the more useful convention.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import PreconditionError

MAX_DEPTH = 30
# Dense occupancy arrays: refuse spans that stop being desk-sized.
MAX_SPAN = 1 << 26
# Cell indices passing through int64 arithmetic stay clear of overflow.
MAX_INDEX = 1 << 62
# Box cells one block of a 2D row-run scan reads (`_box_runs`).
_SCAN_CELLS = 1 << 16
# Span cells per range past which `from_ranges` sorts unsorted ranges
# rather than count them over the span.  Best of 7 for 10**3, 10**4 and
# 10**5 random ranges of 1-4 cells, difference array against sort and
# paint: 0.09 / 0.15, 1.6 / 1.7 and 11 / 16 ms at 16 cells per range,
# 0.32 / 0.18, 2.4 / 1.7 and 20 / 18 ms at 24, 3.5 / 0.19, 20 / 1.5 and
# 233 / 20 ms at 256 (2-vCPU x86 VM, Python 3.11, numpy 2.4).
_SORT_SPAN = 16


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionError(msg)


def _require_span(span: int) -> None:
    _require(span <= MAX_SPAN, f"cell span {span} exceeds dense-representation cap {MAX_SPAN}")


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, str like '1/3', or float.

    Floats are accepted verbatim: every binary64 value is a dyadic
    rational, so Fraction(float) is exact, not a re-parse.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (str, float)):
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


def _box(mask: np.ndarray):
    """Slices, one per axis, of the smallest box holding every set entry
    of a 1D or 2D boolean array; None when no entry is set."""
    if mask.ndim == 1:
        raw = mask.tobytes()  # numpy booleans are the bytes 0 and 1
        first = raw.find(1)
        return None if first < 0 else (slice(first, raw.rfind(1) + 1),)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _origin(offset, ndim: int) -> tuple:
    """A container's offset (cell index in 1D, (x, y) pair in 2D) as ints
    in array-axis order: (i,) in 1D, (y, x) in 2D."""
    if ndim == 1:
        return (int(offset),)
    ox, oy = offset
    return int(oy), int(ox)


def _offset(origin: tuple):
    """The offset whose _origin is `origin`."""
    return origin[0] if len(origin) == 1 else origin[::-1]


def _crop(origin: tuple, arr: np.ndarray, mask: np.ndarray):
    """(origin, copy) of the smallest box of `arr` (placed at `origin`)
    holding every set entry of `mask`; the copy owns that box only.  None
    when no entry is set."""
    box = _box(mask)
    if box is None:
        return None
    return tuple(o + b.start for o, b in zip(origin, box)), arr[box].copy()


def _window(frame: tuple, origin: tuple, shape: tuple) -> tuple:
    """Slices that select, in an array whose first cell is at `frame`, the
    box of `shape` cells whose first cell is at `origin`."""
    return tuple(slice(o - f, o - f + n) for f, o, n in zip(frame, origin, shape))


def _overlap_box(origin_a: tuple, shape_a: tuple, origin_b: tuple, shape_b: tuple):
    """(frame, here_a, here_b) for two arrays placed at `origin_a` and
    `origin_b`: the first cell of the box where their boxes overlap and
    the slices selecting that box in each array; None when the boxes are
    disjoint."""
    frame = tuple(map(max, origin_a, origin_b))
    shape = tuple(min(p + m, q + n) - f for f, p, q, m, n
                  in zip(frame, origin_a, origin_b, shape_a, shape_b))
    if min(shape) <= 0:
        return None
    return frame, _window(origin_a, frame, shape), _window(origin_b, frame, shape)


def _check_cells(origin: tuple, arr: np.ndarray, name: str) -> None:
    """Constructor checks shared by sets and measures: at most MAX_SPAN
    cells, a nonzero entry on every border of a nonempty array (both ends
    in 1D, the first and last row and column in 2D), and `_require_indices`."""
    _require_span(arr.size)
    if arr.size:
        ends = ((arr[0], arr[-1]) if arr.ndim == 1 else
                (arr[0].any(), arr[-1].any(), arr[:, 0].any(), arr[:, -1].any()))
        _require(all(ends), f"{name} must be trimmed (a nonzero entry on every border)")
    _require_indices(origin, arr.shape)


def _require_indices(origin: tuple, shape: tuple) -> None:
    """Every cell index of the box of `shape` cells at `origin` inside
    (-MAX_INDEX, MAX_INDEX) on each axis.  Any sum of two such indices, and
    of one with a cell span, fits int64."""
    _require(all(-MAX_INDEX < o and o + m <= MAX_INDEX for o, m in zip(origin, shape)),
             "cell indices out of guarded range")


def _check_set(offset, bits, nd: int) -> tuple:
    """The _origin of a set's box `bits` placed at `offset`, once the box
    passes the constructor checks: an nD boolean array, empty only at the
    zero offset, and `_check_cells`."""
    _require(isinstance(bits, np.ndarray) and bits.dtype == np.bool_ and bits.ndim == nd,
             f"bits must be a {nd}D boolean array")
    origin = _origin(offset, nd)
    _require(bits.size or (origin == (0,) * nd and bits.shape == (0,) * nd),
             "empty set uses offset 0 (1D) or (0, 0) (2D) and no cells")
    _check_cells(origin, bits, "bits")
    return origin


def _runs(bits: np.ndarray) -> np.ndarray:
    """Maximal runs of set entries of a trimmed 1D boolean array (empty, or
    first and last entries set): row 0 their starts, row 1 their inclusive
    ends.  A run opens at 0, then each flip alternately closes and opens one."""
    if not bits.size:
        return np.zeros((2, 0), dtype=np.int64)
    edges = np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1, [bits.size]))
    edges[1::2] -= 1
    return edges.reshape(-1, 2).T


def _digest(*objs) -> str:
    """16 hex digits naming the inputs of a failed check, the same in every
    run: a grid set by its scale, offset and cells, a measure by its scale,
    offset and weights, a cell cloud by its scale and index rows, anything
    else by its str."""
    h = hashlib.sha256()
    for obj in objs:
        if isinstance(obj, GridSet1):
            h.update(b"G1")
            h.update(str((obj.scale.n, obj.offset)).encode())
            h.update(np.packbits(obj.bits).tobytes())
        elif isinstance(obj, GridSet2):
            h.update(b"G2")
            h.update(str((obj.scale.n, obj.offset, obj.shape)).encode())
            h.update(np.packbits(obj.bits.ravel()).tobytes())
        elif isinstance(getattr(obj, "weights", None), np.ndarray):  # a measure
            h.update(b"DM")
            h.update(str((obj.scale.n, obj.offset, obj.weights.shape)).encode())
            h.update(obj.weights.tobytes())
        elif isinstance(getattr(obj, "indices", None), np.ndarray):  # a cell cloud
            h.update(b"CC")
            h.update(str((obj.scale.n, obj.indices.shape)).encode())
            h.update(obj.indices.tobytes())
        else:
            h.update(str(obj).encode())
    return h.hexdigest()[:16]


def _view(build):
    """A property computed by `build` on first use and kept by `_seed` under
    "_" + build's name, unless a constructor has handed it over there.  Its
    getter called as `fget(obj, False)` returns the view only if it is kept,
    else None, and builds nothing."""
    key = "_" + build.__name__

    @functools.wraps(build)
    def view(self, make: bool = True):
        if key not in self.__dict__:
            if not make:
                return None
            _seed(self, **{build.__name__: build(self)})
        return self.__dict__[key]

    return property(view)


def _seed(obj, **views):
    """obj, holding each view under its `_view`'s key, every array in it
    (through nested tuples) made read-only."""
    for name, view in views.items():
        parts = [view]
        for part in parts:  # grows by the items of nested tuples
            if isinstance(part, tuple):
                parts.extend(part)
            elif isinstance(part, np.ndarray):
                part.setflags(write=False)
        object.__setattr__(obj, "_" + name, view)
    return obj


class _CellSet:
    """Set algebra shared by GridSet1 and GridSet2.

    The set's cells are the set entries of `bits`, whose array shape is
    `shape`: the entry at array position p is the cell at
    _origin(offset) + p, both in array-axis order ((i,) in 1D, (y, x) in 2D).
    """

    @classmethod
    def from_bits(cls, scale: Scale, offset, bits):
        """The set entries of `bits` (flattened in 1D) placed at `offset`,
        trimmed to their box, of which the set keeps a copy."""
        b = np.asarray(bits, dtype=bool)
        if cls._ndim == 1:
            b = b.reshape(-1)
        _require(b.ndim == cls._ndim, f"bits must be a {cls._ndim}D boolean array")
        return cls._at(scale, _origin(offset, b.ndim), b)

    @classmethod
    def _at(cls, scale: Scale, origin: tuple, bits: np.ndarray):
        """The set entries of `bits`, placed at `origin`, as a trimmed set."""
        cropped = _crop(origin, bits, bits)
        if cropped is None:
            return cls.empty(scale)
        return cls(scale, _offset(cropped[0]), cropped[1])

    @_view
    def count(self) -> int:
        """Occupied cells."""
        return int(np.count_nonzero(self.bits))

    @property
    def is_empty(self) -> bool:
        return self.shape[0] == 0

    @property
    def measure(self) -> float:
        return self.count * self.scale.delta ** self._ndim

    def _overlap(self, other):
        """(frame, a, b): views of both operands' bits over the box where
        their boxes overlap, whose first cell is at `frame`; None when
        either operand is empty or the boxes are disjoint."""
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty or other.is_empty:
            return None
        box = _overlap_box(_origin(self.offset, self._ndim), self.shape,
                           _origin(other.offset, other._ndim), other.shape)
        if box is None:
            return None
        frame, here, there = box
        return frame, self.bits[here], other.bits[there]

    def union(self, other):
        _require(self.scale == other.scale, "operands must share one scale")
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        mine, theirs = _origin(self.offset, self._ndim), _origin(other.offset, other._ndim)
        frame = tuple(map(min, mine, theirs))
        shape = tuple(max(p + m, q + n) - f for f, p, q, m, n
                      in zip(frame, mine, theirs, self.shape, other.shape))
        _require_span(math.prod(shape))  # the joint box, before it is made
        bits = np.zeros(shape, dtype=bool)
        bits[_window(frame, mine, self.shape)] = self.bits
        bits[_window(frame, theirs, other.shape)] |= other.bits
        return self._at(self.scale, frame, bits)

    def intersect(self, other):
        ov = self._overlap(other)
        if ov is None:
            return self.empty(self.scale)
        frame, a, b = ov
        return self._at(self.scale, frame, a & b)

    def difference(self, other):
        ov = self._overlap(other)
        if ov is None:
            return self
        frame, a, b = ov
        mine = _origin(self.offset, self._ndim)
        bits = self.bits.copy()
        bits[_window(mine, frame, a.shape)] &= ~b
        return self._at(self.scale, mine, bits)

    def subset_of(self, other) -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        ov = self._overlap(other)
        # Every cell of self lies inside other's box, and in other there.
        return ov is not None and int(np.count_nonzero(ov[1] & ov[2])) == self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.scale == other.scale and self.offset == other.offset
                and self.shape == other.shape and np.array_equal(self.bits, other.bits))


@dataclass(frozen=True, eq=False)
class GridSet1(_CellSet):
    """Union of half-open cells [i*delta, (i+1)*delta) on the line.

    bits[t] says whether cell offset+t is occupied.  Canonical form is
    trimmed: empty array, or first and last entries set.  Build through
    the factories; the raw constructor validates and rejects anything
    non-canonical.
    """

    scale: Scale
    offset: int
    bits: np.ndarray
    _ndim = 1

    def __post_init__(self):
        object.__setattr__(self, "offset", _offset(_check_set(self.offset, self.bits, 1)))
        self.bits.setflags(write=False)

    @property
    def shape(self) -> tuple:
        return self.bits.shape

    @classmethod
    def from_indices(cls, scale: Scale, indices) -> "GridSet1":
        """Cells from integer indices in any order, duplicates allowed."""
        idx = _int64_indices(indices).reshape(-1)
        if idx.size == 0:
            return cls.empty(scale)
        lo = int(idx.min())
        span = int(idx.max()) - lo + 1
        _require_span(span)
        bits = np.zeros(span, dtype=bool)
        bits[idx - lo] = True  # repeated indices just set a bit again
        return cls(scale, lo, bits)

    @classmethod
    def from_ranges(cls, scale: Scale, k_first: np.ndarray, k_last: np.ndarray) -> "GridSet1":
        """Union of the inclusive int64 index ranges [k_first[t], k_last[t]]:
        at least one range, each with k_first[t] <= k_last[t].

        Ranges with monotone starts (the Cantor intervals', a set's
        neighbourhoods) merge into maximal runs in one pass (`_merged`),
        which `_from_runs` paints.  Unsorted ranges over more than
        _SORT_SPAN span cells each (wide product covers and graph sums) are
        sorted first and go the same way.  Denser unsorted ranges (every
        projection the benchmark makes) are counted in an int64 difference
        array over the span, about 32 bytes per span cell, which costs less
        than sorting them.
        """
        lo = int(k_first.min())
        hi = int(k_last.max())
        span = hi - lo + 1
        _require_span(span)
        runs = _merged(k_first, k_last)
        if runs is None and span > _SORT_SPAN * k_first.size:
            order = np.argsort(k_first, kind="stable")
            runs = _merged(k_first[order], k_last[order])
        if runs is not None:
            return cls._from_runs(scale, *runs)
        diff = (np.bincount(k_first - lo, minlength=span + 1)
                - np.bincount(k_last - lo + 1, minlength=span + 1))
        return cls(scale, lo, np.cumsum(diff)[:-1] > 0)

    @classmethod
    def _from_runs(cls, scale: Scale, first: np.ndarray, last: np.ndarray) -> "GridSet1":
        """The set whose maximal runs are [first[t], last[t]], ascending and
        separated by gaps, as `_merged` returns them, painted by `_painted`.
        The caller has checked the span."""
        lo = int(first[0])
        return _seed(cls(scale, lo, _painted(int(last[-1]) - lo + 1, first - lo, last - first + 1)),
                     runs=np.stack((first, last)))

    @classmethod
    def empty(cls, scale: Scale) -> "GridSet1":
        return cls(scale, 0, np.zeros(0, dtype=bool))

    @_view
    def indices(self) -> np.ndarray:
        """Ascending absolute cell indices."""
        idx = np.flatnonzero(self.bits)
        idx += self.offset
        return idx

    @_view
    def runs(self) -> np.ndarray:
        """The maximal runs of cells, ascending: row 0 their first and row 1
        their last absolute cell index."""
        return _runs(self.bits) + self.offset

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

    def __repr__(self) -> str:
        return f"GridSet1(n={self.scale.n}, count={self.count}, offset={self.offset}, span={self.bits.size})"


@dataclass(frozen=True, eq=False, init=False)
class GridSet2(_CellSet):
    """Union of half-open delta-squares in the plane.

    Cell (i, j) is [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta).
    bits[jr, ir] covers cell (offset[0]+ir, offset[1]+jr): rows run
    along y, columns along x.  Canonical form trims empty border rows
    and columns.

    A set holds its scale, offset and box shape (h, w), and either its box
    or its maximal row runs: the raw constructor and every constructor
    that starts from a box hand the box over, `from_runs` the runs.  The
    other one is a view built on first use, so a set read from a file
    paints its box only when `bits` is read.
    """

    scale: Scale
    offset: tuple
    shape: tuple
    _ndim = 2

    def __init__(self, scale: Scale, offset, bits: np.ndarray):
        """The set entries of the box `bits` placed at `offset`.  The raw
        constructor validates and rejects anything non-canonical."""
        self._place(scale, _check_set(offset, bits, 2), bits.shape)
        _seed(self, bits=bits)

    def _place(self, scale: Scale, origin: tuple, shape: tuple) -> None:
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", _offset(origin))
        object.__setattr__(self, "shape", tuple(shape))

    @classmethod
    def from_indices(cls, scale: Scale, indices) -> "GridSet2":
        """indices: (m, 2) array or iterable of (i, j) cell pairs, in any
        order, duplicates allowed.  Pairs strictly ascending in (j, i) are
        already the `indices` list and are handed over as it."""
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
        _require_span(w * h)
        # row-major positions in the box: ascending exactly when pts is in (j, i)
        flat = (pts[:, 1] - oy) * w + (pts[:, 0] - ox)
        bits = np.zeros(h * w, dtype=bool)
        bits[flat] = True
        E = cls(scale, (ox, oy), bits.reshape(h, w))
        return _seed(E, indices=pts, count=len(pts)) if bool(np.all(flat[1:] > flat[:-1])) else E

    @classmethod
    def empty(cls, scale: Scale) -> "GridSet2":
        return cls(scale, (0, 0), np.zeros((0, 0), dtype=bool))

    @classmethod
    def from_runs(cls, scale: Scale, runs: np.ndarray) -> "GridSet2":
        """Union of the row runs (y, x0, x1), the cells (x0..x1, y): an
        (m, 3) int64 array of at least one run, each with x0 <= x1, in any
        order, overlaps allowed.  The set holds its maximal runs, and the
        count, and is checked from them: its box is the one their ends
        reach, so it is trimmed.  Nothing is painted."""
        y, x0, x1 = runs.T
        ox, oy = int(x0.min()), int(y.min())
        w = int(x1.max()) - ox + 1
        h = int(y.max()) - oy + 1
        _require_span(w * h)
        _require_indices((oy, ox), (h, w))
        # positions in the box with one spare column, so no two rows' runs abut
        row = (y - oy) * (w + 1) - ox
        first, last = row + x0, row + x1
        merged = _merged(first, last)
        if merged is None:
            order = np.argsort(first, kind="stable")
            merged = _merged(first[order], last[order])
        first, last = merged
        yr, xr = np.divmod(first, w + 1)
        lens = last - first + 1
        E = cls.__new__(cls)
        E._place(scale, (oy, ox), (h, w))
        return _seed(E, count=int(lens.sum()),
                     runs=np.stack((yr + oy, xr + ox, xr + ox + lens - 1), axis=1))

    @_view
    def bits(self) -> np.ndarray:
        """The occupancy box, painted from `runs` by `_painted` when none was
        handed over: one byte written per box cell, so a sparse set in a
        wide box pays for its whole box."""
        (h, w), (ox, oy) = self.shape, self.offset
        y, x0, x1 = self.runs.T
        return _painted(h * w, (y - oy) * w + (x0 - ox), x1 - x0 + 1).reshape(h, w)

    @_view
    def indices(self) -> np.ndarray:
        """(m, 2) array of absolute (i, j) cell pairs, lexicographic in (j, i):
        expanded from `runs`."""
        y, x0, x1 = self.runs.T
        lens = x1 - x0 + 1
        out = np.empty((int(lens.sum()), 2), dtype=np.int64)
        out[:, 0] = _run_cells(x0, lens)
        out[:, 1] = np.repeat(y, lens)
        return out

    @_view
    def runs(self) -> np.ndarray:
        """(m, 3) array of the maximal row runs (y, x0, x1), absolute and
        ascending in (y, x0): handed over by `from_runs` or scanned off the
        box (`_box_runs`)."""
        return np.concatenate((np.empty((0, 3), dtype=np.int64), *_box_runs(self)))

    def __repr__(self) -> str:
        return (f"GridSet2(n={self.scale.n}, count={self.count}, offset={self.offset}, "
                f"shape={self.shape})")


def _box_runs(E: GridSet2):
    """The maximal row runs of E, as `GridSet2.runs` holds them, in (k, 3)
    blocks of consecutive rows.  A block is laid into one flat buffer of
    at most _SCAN_CELLS box cells (or one row), each row after a spare
    empty column and one empty entry after the last, so runs open and
    close on alternate flips of one flip scan."""
    (h, w), (ox, oy) = E.shape, E.offset
    rows = max(1, _SCAN_CELLS // (w + 1))
    buf = np.zeros(rows * (w + 1) + 1, dtype=bool)
    for r0 in range(0, h, rows):
        block = E.bits[r0:r0 + rows]
        buf[:-1].reshape(rows, w + 1)[:len(block), 1:] = block
        flat = buf[:len(block) * (w + 1) + 1]  # ends on the next row's spare entry
        flips = np.flatnonzero(flat[1:] != flat[:-1])  # a run's cells: (opening, closing]
        y, x0 = np.divmod(flips[0::2], w + 1)
        yield np.stack((y + (oy + r0), x0 + ox, flips[1::2] - y * (w + 1) + (ox - 1)), axis=1)


def _run_blocks(E: GridSet2):
    """The maximal row runs of E in (k, 3) blocks, ascending, for a writer
    that streams them: slices of _SCAN_CELLS // 64 (or one) of its `runs`
    when it holds them, else as `_box_runs` scans its box, so neither form
    of the set is converted whole into the other."""
    runs = type(E).runs.fget(E, False)
    if runs is None:
        yield from _box_runs(E)
        return
    step = max(1, _SCAN_CELLS // 64)
    for t in range(0, len(runs), step):
        yield runs[t:t + step]


def _run_cells(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The int64 values first[t] .. first[t] + lens[t] - 1 of every run t
    (lens >= 1), concatenated in run order."""
    ends = np.cumsum(lens)
    out = np.repeat(first - (ends - lens), lens)
    out += np.arange(out.size, dtype=np.int64)
    return out


def _painted(size: int, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The flat boolean array of `size` entries with the runs [starts[t],
    starts[t] + lens[t]) set: ascending, disjoint, lens >= 1.  One np.repeat
    lays out the gap before each run, the run, and the gap after the last,
    writing every entry once; a scatter of the runs' cells would leave the
    pages of empty stretches untouched, but it costs an int64 per cell."""
    edges = np.concatenate(([0], np.stack((starts, starts + lens), axis=1).reshape(-1), [size]))
    return np.repeat(np.arange(edges.size - 1) % 2 == 1, np.diff(edges))


def _merged(k_first: np.ndarray, k_last: np.ndarray):
    """(first, last): the maximal runs, ascending, of the union of the
    inclusive ranges [k_first[t], k_last[t]] when their starts are monotone
    (either way), in one pass with no temporary per cell; None when the
    starts are not monotone."""
    if (k_first[1:] <= k_first[:-1]).all():
        k_first, k_last = k_first[::-1], k_last[::-1]
    if not (k_first[1:] >= k_first[:-1]).all():
        return None
    reach = np.maximum.accumulate(k_last)
    # range t opens a new run unless it overlaps or abuts the cells so far
    opens = np.flatnonzero(k_first[1:] > reach[:-1] + 1) + 1
    return (k_first[np.concatenate(([0], opens))],
            reach[np.concatenate((opens - 1, [reach.size - 1]))])


def _cover(lo, hi, q: int, closed):
    """(k_first, k_last): the first and last cells meeting intervals of
    positive length from lo to hi, in delta/q units (cell k is
    [k*q, (k+1)*q)).  The last one holds hi where the supremum is attained
    (`closed`, bool or bool array), else hi - 1."""
    return lo // q, np.where(closed, hi, hi - 1) // q


def make_interval(scale: Scale, lo, hi) -> GridSet1:
    """Cells covering [lo, hi) for delta-aligned rational endpoints."""
    flo, fhi = as_fraction(lo), as_fraction(hi)
    u = 1 << scale.n
    for name, f in (("lo", flo), ("hi", fhi)):
        _require((f * u).denominator == 1,
                 f"endpoint {name}={f} is not a multiple of delta=2**-{scale.n}")
    ilo, ihi = int(flo * u), int(fhi * u)
    _require(ilo < ihi, f"empty interval [{flo}, {fhi})")
    _require(-MAX_INDEX < ilo and ihi <= MAX_INDEX, "interval endpoints out of guarded range")
    _require_span(ihi - ilo)
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
    # a cap fails past 22 levels (of two digits or more) or past n levels,
    # before any power of so many levels is taken
    _require(len(dig) == 1 or (levels <= 22 and len(dig) ** levels <= (1 << 22)),
             "digit-string count exceeds desk-scale cap 2**22")
    _require(levels <= scale.n and base ** levels <= (1 << scale.n),
             f"misaligned scale: construction intervals (width {base}**-{levels}) are finer than "
             f"delta=2**-{scale.n}; deepen the scale or lower `levels`")
    bl = base ** levels
    ms = np.zeros(1, dtype=np.int64)
    darr = np.asarray(dig, dtype=np.int64)
    for _ in range(levels):
        ms = (ms[:, None] * base + darr).reshape(-1)
    u = 1 << scale.n
    # ms ascending -> both endpoints nondecreasing; touching covers merge
    return GridSet1.from_ranges(scale, *_cover(ms * u, (ms + 1) * u, bl, False))


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
            children = (2 * cur[:, None] + np.arange(2)).ravel()  # ascending
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
    # the grown box, checked before any array of its size is made
    _require_span(math.prod(m + 2 * k for m in S.shape))
    if isinstance(S, GridSet1):
        return GridSet1.from_ranges(S.scale, S.runs[0] - k, S.runs[1] + k)
    if isinstance(S, GridSet2):
        h, w = S.shape
        grown = np.zeros((h + 2 * k, w + 2 * k), dtype=bool)
        grown[k:k + h, k:k + w] = S.bits
        _grow(grown[k:k + h], k)  # only the set's rows meet it along x
        _grow(grown.T, k)
        return GridSet2(S.scale, (S.offset[0] - k, S.offset[1] - k), grown)
    raise PreconditionError(f"unsupported operand type {type(S).__name__}")


def _grow(bits: np.ndarray, k: int) -> None:
    """ORs into each entry of a 2D boolean array, in place, those within k
    along its rows: once each holds its window of radius r, shifts by
    s <= r + 1 each way widen it to r + s with no gap."""
    r = 0
    while r < k:
        s = min(r + 1, k - r)
        bits[:, s:] |= bits[:, :-s]  # numpy buffers the overlapping operand
        bits[:, :-s] |= bits[:, s:]
        r += s


def cartesian_product(A: GridSet1, B: GridSet1) -> GridSet2:
    """A x B as a planar cell union (A along x, B along y)."""
    _require(A.scale == B.scale, "operands must share one scale")
    if A.is_empty or B.is_empty:
        return GridSet2.empty(A.scale)
    _require_span(A.bits.size * B.bits.size)
    return _seed(GridSet2(A.scale, (A.offset, B.offset), np.outer(B.bits, A.bits)),
                 count=A.count * B.count)
