"""Lattice translate search by averaging, and the slab-collision
construction that trades one coordinate of a product set for a
projection collision.

blichfeldt_translate scans translations of the scaled integer lattice
s*Z^n over the fundamental domain [0, s)^n.  Because the region is a
cell union and s is a multiple of delta, the lattice-point count is
constant on delta-cells of shift space, and counting reduces to a
residue histogram of occupied cells mod k = s/delta.  The average
count over shifts equals |V|/s^n exactly, so the maximum is at least
its ceiling; failing that is a bug, not a data condition.

slab_collision places M translates of the n-fold product A^n at
lattice points of (2 diam A)*Z^n inside a rotated slab
B^(n-1)(0, R) x [-1, 1] (last factor along v/|v|), chosen by
blichfeldt_translate.  The projection x -> <x, v> maps the slab onto
an interval of length 2|v| independent of R, while each translate
projects onto a congruent copy of pi(A^n) of measure lambda, computed
here exactly in integers: each v_i is p_i/q over one power of two q, so
every interval end is an integer in units of delta/q.  Taking
M = ceil(2(n diam A + 2 sqrt(n)) / lambda) + 1 makes the projections
overspill the window strictly, so two translates must overlap in
positive measure and a center pair within tolerance 2*delta*|v|_1
exists.  Not finding one is an internal error.

Boxes, discs and slabs are rasters of a product of ascending axes, so
their rows are canonical (unique, lex-sorted) as built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import (MAX_INDEX, GridSet1, GridSet2, Scale, _digest, _merged, _require,
                   as_fraction)

_MAX_RASTER = 4_000_000
_MAX_PI_POINTS = 2_000_000
_MAX_RUN_PAIRS = 4_000_000
_MAX_TRANSLATES = 100_000


def _raster(axes) -> np.ndarray:
    """Rows of the product of ascending int64 axes, in lexicographic order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _on_lattice(rows: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows lying in r + k*Z^dim."""
    return np.all(np.mod(rows - r, k) == 0, axis=1)


@dataclass(frozen=True, eq=False)
class CellCloud:
    """Sparse cell union in dimension 1..3: unique lex-sorted index rows."""

    scale: Scale
    indices: np.ndarray

    def __post_init__(self):
        idx = self.indices
        _require(isinstance(idx, np.ndarray) and idx.dtype == np.int64 and idx.ndim == 2,
                 "indices must be an (m, dim) int64 array")
        _require(1 <= idx.shape[1] <= 3, "dimension must be 1, 2, or 3")
        _require(idx.shape[0] > 0, "cell cloud must be nonempty")
        idx.setflags(write=False)

    @classmethod
    def from_indices(cls, scale: Scale, rows) -> "CellCloud":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[:, None]
        _require(arr.ndim == 2, "indices must be an (m, dim) array")
        return cls(scale, np.unique(arr, axis=0))

    @classmethod
    def from_gridset(cls, S) -> "CellCloud":
        if isinstance(S, (GridSet1, GridSet2)):
            return cls.from_indices(S.scale, S.indices)
        raise PreconditionError(f"unsupported operand type {type(S).__name__}")

    @classmethod
    def box(cls, scale: Scale, lows, highs) -> "CellCloud":
        """Half-open box with delta-aligned rational corners."""
        lows = [as_fraction(v) for v in np.atleast_1d(lows)]
        highs = [as_fraction(v) for v in np.atleast_1d(highs)]
        _require(len(lows) == len(highs), "corner dimension mismatch")
        u = 1 << scale.n
        axes = []
        total = 1
        for lo, hi in zip(lows, highs):
            klo, khi = lo * u, hi * u
            _require(klo.denominator == 1 and khi.denominator == 1,
                     f"box corners must be delta-aligned, got [{lo}, {hi})")
            _require(klo < khi, f"empty box side [{lo}, {hi})")
            axes.append(np.arange(int(klo), int(khi), dtype=np.int64))
            total *= int(khi - klo)
            _require(total <= _MAX_RASTER, f"box raster has {total} cells; too large")
        return cls(scale, _raster(axes))

    @classmethod
    def disc(cls, scale: Scale, radius: float, center=(0.0, 0.0)) -> "CellCloud":
        """2D cells intersecting the closed disc (conservative raster)."""
        _require(radius > 0, "radius must be positive")
        delta = scale.delta
        cx, cy = float(center[0]), float(center[1])
        k = int(math.ceil((radius + delta) / delta)) + 1
        i0, j0 = int(math.floor(cx / delta)), int(math.floor(cy / delta))
        rows = _raster((np.arange(i0 - k, i0 + k + 1, dtype=np.int64),
                        np.arange(j0 - k, j0 + k + 1, dtype=np.int64)))
        # nearest point of the closed cell to the disc center
        dx = np.maximum(np.abs(cx - (rows[:, 0] + 0.5) * delta) - 0.5 * delta, 0.0)
        dy = np.maximum(np.abs(cy - (rows[:, 1] + 0.5) * delta) - 0.5 * delta, 0.0)
        return cls(scale, rows[dx * dx + dy * dy <= radius * radius])

    @property
    def dim(self) -> int:
        return int(self.indices.shape[1])

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def measure(self) -> float:
        return self.count * self.scale.delta ** self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellCloud):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"CellCloud(n={self.scale.n}, dim={self.dim}, count={self.count})"


@dataclass(frozen=True)
class LatticeSearchResult:
    """Best translate of s*Z^n: shift (dyadic rationals), its lattice-point
    count, the averaging bound |V|/s^n, and the size of the shift space."""

    translation: tuple
    count: int
    bound: float
    examined_shifts: int


@dataclass(frozen=True)
class CollisionWitness:
    """Projection collision between two slab translates of a product set.

    x and y lie in translate pair_indices[0]; z = y + spacing*ell lies
    in translate pair_indices[1]; |pi(x) - pi(z)| <= tolerance.
    eliminated is the coordinate axis with ell != 0 along which z and x
    are far apart (at least diam(A) - 2*delta).
    """

    pair_indices: tuple
    ell: tuple
    x: tuple
    y: tuple
    z: tuple
    eliminated: int
    tolerance: float
    projection_gap: float


def _cloud(V) -> CellCloud:
    return V if isinstance(V, CellCloud) else CellCloud.from_gridset(V)


def blichfeldt_translate(V, s) -> LatticeSearchResult:
    """Shift of s*Z^n holding at least |V|/s^n lattice points inside V.

    Exhaustive over the delta-grid of [0, s)^n via the residue
    histogram; ties break to the lexicographically smallest shift.  s is
    a positive multiple of delta of at most MAX_INDEX cells, so residues
    are int64 work.
    """
    V = _cloud(V)
    fs = as_fraction(s)
    _require(fs > 0, "lattice spacing must be positive")
    kf = fs * (1 << V.scale.n)
    _require(kf.denominator == 1, f"spacing {fs} is not a multiple of delta=2**-{V.scale.n}")
    k = int(kf)
    _require(k <= MAX_INDEX, f"spacing exceeds 2**62 cells of delta=2**-{V.scale.n}")
    res = np.mod(V.indices, k)
    uniq, counts = np.unique(res, axis=0, return_counts=True)
    best = int(np.argmax(counts))  # uniq rows are lex-sorted: first argmax wins
    count = int(counts[best])
    bound = V.count / float(k) ** V.dim
    if count < math.ceil(bound - 1e-9):
        raise InternalCheckError(
            f"translate search found max count {count} below averaging bound "
            f"{bound} (|V|={V.count} cells, k={k}, dim={V.dim}) (inputs {_digest(V, fs)}); bug")
    shift = tuple(Fraction(int(r), 1 << V.scale.n) for r in uniq[best])
    return LatticeSearchResult(translation=shift, count=count, bound=bound,
                               examined_shifts=k ** V.dim)


def count_lattice_points(V, s, translation) -> int:
    """Direct recount of (translation + s*Z^n) inside V, for cross-checks."""
    V = _cloud(V)
    k = int(as_fraction(s) * (1 << V.scale.n))
    r = np.array([int(as_fraction(t) * (1 << V.scale.n)) for t in translation], dtype=np.int64)
    _require(r.size == V.dim, "translation dimension mismatch")
    return int(np.count_nonzero(_on_lattice(V.indices, r, k)))


# ---------------------------------------------------------------------------
# Slab collision


def _exact_projection_measure(A: GridSet1, v) -> Fraction:
    """Lebesgue measure of sum_i v_i * A, exact over binary64 rationals.

    With v_i = p_i/q > 0, the runs of A scale to disjoint integer intervals
    [p_i*a, p_i*(b+1)) in units of delta/q, held as inclusive cell ranges.
    Each partial sum merges into runs by `grid._merged`, on Python ints,
    since p_i*a can pass 2**63."""
    ratios = [float(x).as_integer_ratio() for x in v]
    q = max(d for _, d in ratios)
    starts, ends = A.runs.astype(object)
    first, last = np.zeros(1, dtype=object), np.full(1, -1, dtype=object)  # the point 0
    for p, d in ratios:
        p *= q // d
        _require(first.size * starts.size <= _MAX_RUN_PAIRS, "projection interval count exploded")
        lo = (first[:, None] + p * starts).ravel()
        order = np.argsort(lo, kind="stable")
        first, last = _merged(lo[order], (last[:, None] + p * (ends + 1)).ravel()[order])
    return Fraction(int(np.sum(last + 1 - first)), q << A.scale.n)


def _raster_slab(scale: Scale, u: np.ndarray, R: float) -> CellCloud:
    """Cells meeting the slab {|<p,u>| <= 1, |p - <p,u>u| <= R} (outer).

    The constraint form equals the image of B^(n-1)(0,R) x [-1,1]
    under the reflection sending e_n to u; no matrix is materialized
    because the set does not depend on the stabilizer choice.
    """
    n = u.size
    delta = scale.delta
    h = math.sqrt(n) * delta / 2  # cell circumradius
    reach = math.sqrt(R * R + 1.0) + 2 * h  # inf once R * R overflows
    side = 2 * math.ceil(reach / delta) + 1 if reach < math.inf else math.inf
    _require(side ** n <= _MAX_RASTER,
             f"slab raster would need {side}**{n} cells; reduce R or the scale depth")
    axis = np.arange(-(side // 2), side // 2 + 1, dtype=np.int64)
    idx = _raster([axis] * n)
    centers = (idx + 0.5) * delta
    t = centers @ u
    radial2 = np.sum(centers * centers, axis=1) - t * t
    keep = (np.abs(t) <= 1.0 + h) & (radial2 <= (R + h) ** 2)
    _require(bool(keep.any()), "slab raster came out empty; bug in extents")
    return CellCloud(scale, idx[keep])


def slab_collision(A: GridSet1, v, n: int, R: float) -> CollisionWitness:
    """Find two slab-packed translates of A^n whose <.,v>-projections
    collide within tolerance 2*delta*|v|_1.

    v must lie in [1/2, 1]^n, n in {2, 3}.  Translates sit at lattice
    points of (2 diam A)*Z^n inside the rasterized rotated slab, the
    shift chosen by blichfeldt_translate; the first collision in
    lexicographic pair order is returned.
    """
    _require(n in (2, 3), "dimension must be 2 or 3")
    v = np.asarray([float(x) for x in np.atleast_1d(v)], dtype=np.float64)
    _require(v.size == n, f"direction must have {n} coordinates")
    _require(np.all(v >= 0.5) and np.all(v <= 1.0), "direction must lie in [1/2, 1]^n")
    _require(0 < R < math.inf, "slab radius must be positive and finite")
    _require(A.count >= 2, "need at least two cells to separate a coordinate")
    _require(float(A.count) ** n <= _MAX_PI_POINTS,
             f"product set has {A.count}**{n} points; too many for the pair scan")

    def bug(what: str) -> InternalCheckError:
        return InternalCheckError(f"{what} (inputs {_digest(A, tuple(v.tolist()), n, R)}); bug")

    scale = A.scale
    delta = scale.delta
    span = A.max_index - A.min_index + 1
    diam = span * delta
    spacing_cells = 2 * span
    spacing = spacing_cells * delta

    V = _raster_slab(scale, v / float(np.linalg.norm(v)), R)
    kmod = spacing_cells
    bound = V.count / float(kmod) ** n
    need = 2.0 * (n * diam + 2.0 * math.sqrt(n))

    def room_for(M: int) -> None:
        _require(bound >= M,
                 f"slab too small: averaging bound {bound:.2f} < required translates {M}; "
                 f"increase R (need |V| >= M*(2 diam A)^n)")

    # The measure is at most |v|_1 * diam A, and rounding is monotone, so M
    # is at least this; a slab too small for it is refused before measuring.
    most = float(sum(Fraction(x) for x in v.tolist()) * Fraction(diam))
    room_for(int(math.ceil(need / most)) + 1)
    lam = float(_exact_projection_measure(A, v))
    _require(lam > 0, "projection of the product set has zero measure")
    M = int(math.ceil(need / lam)) + 1
    _require(M <= _MAX_TRANSLATES,
             f"need {M} translates (projection measure {lam}); too small a set for this demo")
    room_for(M)

    search = blichfeldt_translate(V, spacing)
    r = np.array([int(t * (1 << scale.n)) for t in search.translation], dtype=np.int64)
    rows = V.indices
    taus = (rows[_on_lattice(rows, r, kmod)] - r) // kmod  # lex-sorted since rows are
    if taus.shape[0] < M:
        raise bug(f"translate count {taus.shape[0]} fell below required {M} (bound {bound})")
    taus = taus[:M]
    base = (r + taus * kmod) * delta  # lattice points, exact binary64

    centers = (_raster([A.indices.astype(np.int64)] * n) + 0.5) * delta
    pvals = centers @ v
    order = np.argsort(pvals, kind="stable")
    psort = pvals[order]

    tol = 2.0 * delta * float(np.sum(v))
    base_p = base @ v
    for i in range(M - 1):
        for j in range(i + 1, M):
            D = base_p[j] - base_p[i]
            lo = np.searchsorted(psort, pvals - D - tol, side="left")
            hi = np.searchsorted(psort, pvals - D + tol, side="right")
            hit = np.flatnonzero(hi > lo)
            if hit.size == 0:
                continue
            a_flat = int(hit[0])
            b_flat = int(order[lo[a_flat]])
            ell = taus[j] - taus[i]
            x = base[i] + centers[a_flat]
            y = base[i] + centers[b_flat]
            z = base[j] + centers[b_flat]
            gap = abs(float(x @ v) - float(z @ v))
            if gap > tol * (1 + 1e-9):
                raise bug(f"witness gap {gap} exceeds tolerance {tol}")
            nz = np.flatnonzero(ell != 0)
            if nz.size == 0:
                raise bug("collision with zero lattice vector")
            elim = int(nz[-1])
            if abs(float(z[elim] - x[elim])) < diam - 2 * delta:
                raise bug(f"eliminated coordinate moved only {abs(float(z[elim] - x[elim]))}, "
                          f"below diam - 2*delta = {diam - 2 * delta}")
            return CollisionWitness(
                pair_indices=(i, j), ell=tuple(int(e) for e in ell),
                x=tuple(float(t) for t in x), y=tuple(float(t) for t in y),
                z=tuple(float(t) for t in z), eliminated=elim,
                tolerance=tol, projection_gap=gap)
    raise bug(f"no collision among {M} translates despite projection measure {lam}; "
              f"theory guarantees one")
