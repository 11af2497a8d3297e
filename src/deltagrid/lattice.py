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
here exactly by interval arithmetic on rational endpoints.  Taking
M = ceil(2(n diam A + 2 sqrt(n)) / lambda) + 1 makes the projections
overspill the window strictly, so two translates must overlap in
positive measure and a center pair within tolerance 2*delta*|v|_1
exists.  Not finding one is an internal error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import GridSet1, GridSet2, Scale, _require, _runs, as_fraction

_MAX_RASTER = 4_000_000
_MAX_PI_POINTS = 2_000_000
_MAX_RUN_PAIRS = 4_000_000
_MAX_TRANSLATES = 100_000


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
        grids = np.meshgrid(*axes, indexing="ij")
        return cls.from_indices(scale, np.stack([g.ravel() for g in grids], axis=1))

    @classmethod
    def disc(cls, scale: Scale, radius: float, center=(0.0, 0.0)) -> "CellCloud":
        """2D cells intersecting the closed disc (conservative raster)."""
        _require(radius > 0, "radius must be positive")
        delta = scale.delta
        cx, cy = float(center[0]), float(center[1])
        k = int(math.ceil((radius + delta) / delta)) + 1
        i0, j0 = int(math.floor(cx / delta)), int(math.floor(cy / delta))
        ii, jj = np.meshgrid(np.arange(i0 - k, i0 + k + 1, dtype=np.int64),
                             np.arange(j0 - k, j0 + k + 1, dtype=np.int64), indexing="ij")
        # nearest point of the closed cell to the disc center
        dx = np.maximum(np.abs(cx - (ii + 0.5) * delta) - 0.5 * delta, 0.0)
        dy = np.maximum(np.abs(cy - (jj + 0.5) * delta) - 0.5 * delta, 0.0)
        keep = dx * dx + dy * dy <= radius * radius
        return cls.from_indices(scale, np.stack([ii[keep], jj[keep]], axis=1))

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
    histogram; ties break to the lexicographically smallest shift.
    """
    V = _cloud(V)
    fs = as_fraction(s)
    _require(fs > 0, "lattice spacing must be positive")
    kf = fs * (1 << V.scale.n)
    _require(kf.denominator == 1, f"spacing {fs} is not a multiple of delta=2**-{V.scale.n}")
    k = int(kf)
    res = np.mod(V.indices, k)
    uniq, inv = np.unique(res, axis=0, return_inverse=True)
    counts = np.bincount(inv.ravel(), minlength=uniq.shape[0])
    best = int(np.argmax(counts))  # uniq rows are lex-sorted: first argmax wins
    count = int(counts[best])
    bound = V.count / float(k) ** V.dim
    if count < math.ceil(bound - 1e-9):
        raise InternalCheckError(
            f"translate search found max count {count} below averaging bound "
            f"{bound} (|V|={V.count} cells, k={k}, dim={V.dim}); bug")
    shift = tuple(Fraction(int(r), 1 << V.scale.n) for r in uniq[best])
    return LatticeSearchResult(translation=shift, count=count, bound=bound,
                               examined_shifts=k ** V.dim)


def count_lattice_points(V, s, translation) -> int:
    """Direct recount of (translation + s*Z^n) inside V, for cross-checks."""
    V = _cloud(V)
    k = int(as_fraction(s) * (1 << V.scale.n))
    r = np.array([int(as_fraction(t) * (1 << V.scale.n)) for t in translation], dtype=np.int64)
    _require(r.size == V.dim, "translation dimension mismatch")
    hit = np.all(np.mod(V.indices - r, k) == 0, axis=1)
    return int(np.count_nonzero(hit))


# ---------------------------------------------------------------------------
# Slab collision


def _interval_union_minkowski(runs_a, runs_b):
    """Minkowski sum of two sorted disjoint interval unions; Fractions."""
    sums = []
    for (a0, a1) in runs_a:
        for (b0, b1) in runs_b:
            sums.append((a0 + b0, a1 + b1))
    _require(len(sums) <= _MAX_RUN_PAIRS, "projection interval count exploded")
    sums.sort()
    merged = [list(sums[0])]
    for lo, hi in sums[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _scaled_runs(A: GridSet1, factor: Fraction):
    """Closed-form intervals of factor * A (union of scaled runs)."""
    delta = Fraction(1, 1 << A.scale.n)
    starts, ends = _runs(A.indices)
    out = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        lo = factor * a * delta
        hi = factor * (b + 1) * delta
        if factor < 0:
            lo, hi = hi, lo
        out.append((lo, hi))
    out.sort()
    return out


def _exact_projection_measure(A: GridSet1, v) -> Fraction:
    """Lebesgue measure of sum_i v_i * A, exact over binary64 rationals."""
    runs = _scaled_runs(A, as_fraction(v[0]))
    for vi in v[1:]:
        runs = _interval_union_minkowski(runs, _scaled_runs(A, as_fraction(vi)))
    return sum((hi - lo for lo, hi in runs), Fraction(0))


def _raster_slab(scale: Scale, u: np.ndarray, R: float) -> CellCloud:
    """Cells meeting the slab {|<p,u>| <= 1, |p - <p,u>u| <= R} (outer).

    The constraint form equals the image of B^(n-1)(0,R) x [-1,1]
    under the reflection sending e_n to u; no matrix is materialized
    because the set does not depend on the stabilizer choice.
    """
    n = u.size
    delta = scale.delta
    h = math.sqrt(n) * delta / 2  # cell circumradius
    reach = math.sqrt(R * R + 1.0) + 2 * h
    k = int(math.ceil(reach / delta))
    axis = np.arange(-k, k + 1, dtype=np.int64)
    _require(float(axis.size) ** n <= _MAX_RASTER,
             f"slab raster would need {axis.size}**{n} cells; reduce R or the scale depth")
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    centers = (idx + 0.5) * delta
    t = centers @ u
    radial2 = np.sum(centers * centers, axis=1) - t * t
    keep = (np.abs(t) <= 1.0 + h) & (radial2 <= (R + h) ** 2)
    _require(bool(keep.any()), "slab raster came out empty; bug in extents")
    return CellCloud.from_indices(scale, idx[keep])


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
    _require(R > 0, "slab radius must be positive")
    _require(A.count >= 2, "need at least two cells to separate a coordinate")
    scale = A.scale
    delta = scale.delta
    span = A.max_index - A.min_index + 1
    diam = span * delta
    spacing_cells = 2 * span
    spacing = spacing_cells * delta

    lam = float(_exact_projection_measure(A, v))
    _require(lam > 0, "projection of the product set has zero measure")
    need = 2.0 * (n * diam + 2.0 * math.sqrt(n))
    M = int(math.ceil(need / lam)) + 1
    _require(M <= _MAX_TRANSLATES,
             f"need {M} translates (projection measure {lam}); too small a set for this demo")

    vnorm = float(np.linalg.norm(v))
    u = v / vnorm
    V = _raster_slab(scale, u, R)
    kmod = spacing_cells
    bound = V.count / float(kmod) ** n
    _require(bound >= M,
             f"slab too small: averaging bound {bound:.2f} < required translates {M}; "
             f"increase R (need |V| >= M*(2 diam A)^n)")

    search = blichfeldt_translate(V, spacing)
    r = np.array([int(t * (1 << scale.n)) for t in search.translation], dtype=np.int64)
    rows = V.indices
    sel = np.all(np.mod(rows - r, kmod) == 0, axis=1)
    taus = (rows[sel] - r) // kmod  # lex-sorted since rows are
    if taus.shape[0] < M:
        raise InternalCheckError(
            f"translate count {taus.shape[0]} fell below required {M} "
            f"(bound {bound}); bug")
    taus = taus[:M]
    base = (r + taus * kmod) * delta  # lattice points, exact binary64

    a_idx = A.indices.astype(np.int64)
    _require(float(a_idx.size) ** n <= _MAX_PI_POINTS,
             f"product set has {a_idx.size}**{n} points; too many for the pair scan")
    grids = np.meshgrid(*([a_idx] * n), indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=1)
    centers = (tuples + 0.5) * delta
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
                raise InternalCheckError(f"witness gap {gap} exceeds tolerance {tol}; bug")
            nz = np.flatnonzero(ell != 0)
            if nz.size == 0:
                raise InternalCheckError("collision with zero lattice vector; bug")
            elim = int(nz[-1])
            if abs(float(z[elim] - x[elim])) < diam - 2 * delta:
                raise InternalCheckError(
                    f"eliminated coordinate moved only {abs(float(z[elim] - x[elim]))}, "
                    f"below diam - 2*delta = {diam - 2 * delta}; bug")
            return CollisionWitness(
                pair_indices=(i, j), ell=tuple(int(e) for e in ell),
                x=tuple(float(t) for t in x), y=tuple(float(t) for t in y),
                z=tuple(float(t) for t in z), eliminated=elim,
                tolerance=tol, projection_gap=gap)
    raise InternalCheckError(
        f"no collision among {M} translates despite projection measure {lam}; "
        f"theory guarantees one; bug")
