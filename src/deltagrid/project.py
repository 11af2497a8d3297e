"""Orthogonal projections of planar cell sets and measures, angle
averages, and exact adversarial dense-subset projection minimization.

pi_theta(x, y) = x*cos(theta) + y*sin(theta), theta in [0, pi).

One kernel projects cells in the set's local frame, with an error bound
that does not grow with the offset and exact arithmetic near integers.
project_set gives a conservative cover, each square's range rounded
outward one ulp (at most a cell more at either end), the side lower-bound
experiments need.  Projections leaving +-MAX_INDEX raise PreconditionError.

project_measure and the adversarial minimizer use the center
convention instead: each square's mass, or the square itself, belongs
to the single 1D cell containing the projection of its center (its
"fiber"); fiber keys are exact.  Fiber count <= project_set count
always, since a square's center projection lands inside its projection
interval.

The adversary quantifies over subsets G holding at least a lambda
fraction of the cells.  Restricted to fiber unions, the exact optimum
is greedy: to capture mass with the fewest projected cells, take
heaviest fibers first.  (Arbitrary G changes counts by at most one
cell per fiber.)  The tests cross-check the greedy optimum exhaustively
against all fiber sub-unions on small instances.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalCheckError
from .grid import GridSet1, GridSet2, Scale, _require
from .measure import DyadicMeasure1, DyadicMeasure2, riesz_energy, uniform_on


@dataclass(frozen=True)
class Direction:
    """Projection direction theta, normalized mod pi to [0, pi)."""

    theta: float

    def __post_init__(self):
        t = float(self.theta)
        _require(np.isfinite(t), "theta must be finite")
        t = math.fmod(t, math.pi)
        if t < 0:
            t += math.pi
        if t >= math.pi:  # fmod rounding at the seam
            t = 0.0
        object.__setattr__(self, "theta", t)

    @property
    def vector(self) -> tuple:
        """(cos theta, sin theta), snapped exactly onto the axes when
        within 2**-40 (so theta = pi/2 gives a true vertical)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        if abs(c) < 2.0 ** -40:
            return (0.0, 1.0)
        if abs(s) < 2.0 ** -40:
            return (math.copysign(1.0, c), 0.0)
        return (c, s)


def _as_direction(d) -> Direction:
    return d if isinstance(d, Direction) else Direction(float(d))


@dataclass(frozen=True)
class AngleMeasure:
    """Measure on directions: weights on [0,1) cells, t identified with
    angle 2*pi*t (so theta/(2*pi) recovers the cell coordinate)."""

    measure: DyadicMeasure1

    def __post_init__(self):
        mu = self.measure
        n = mu.scale.n
        _require(mu.offset >= 0 and mu.offset + mu.weights.size <= (1 << n),
                 "angle measure must be supported in [0, 1)")

    @classmethod
    def uniform(cls, scale: Scale) -> "AngleMeasure":
        w = np.full(1 << scale.n, 1.0 / (1 << scale.n))
        return cls(DyadicMeasure1(scale, 0, w))

    @classmethod
    def point(cls, scale: Scale, theta: float) -> "AngleMeasure":
        t = (theta / (2 * math.pi)) % 1.0
        cell = min(int(t * (1 << scale.n)), (1 << scale.n) - 1)
        return cls(DyadicMeasure1(scale, cell, np.ones(1)))

    def thetas(self) -> np.ndarray:
        """Angles at support cell centers, in radians."""
        nz = np.flatnonzero(self.measure.weights > 0)
        centers = (nz + self.measure.offset + 0.5) * self.measure.scale.delta
        return 2 * math.pi * centers

    def weights(self) -> np.ndarray:
        w = self.measure.weights
        return w[w > 0]

    def quantile_angles(self, M: int) -> np.ndarray:
        """M angles at mass quantiles (t + 1/2)/M, each carrying 1/M.

        Returns the cell-center angles of the cells the quantiles land
        in, in quantile order (repeats possible for concentrated mass).
        """
        _require(M >= 1, "need at least one sample")
        w = self.measure.weights
        cum = np.cumsum(w)
        q = (np.arange(M) + 0.5) / M * cum[-1]
        cells = np.searchsorted(cum, q, side="left")
        cells = np.minimum(cells, w.size - 1)
        centers = (cells + self.measure.offset + 0.5) * self.measure.scale.delta
        return 2 * math.pi * centers


@dataclass(frozen=True)
class ProjectionRecord:
    """One angle's results in a sweep; energy is None when not requested."""

    theta: float
    projection_count: int
    adversarial_count: int
    energy: float | None = None


@dataclass(frozen=True)
class SweepReport:
    """Per-angle sweep records plus count quantiles.

    Every record satisfies adversarial_count <= projection_count (the
    adversary only shrinks the shadow); violation is an internal error.
    """

    fraction: float
    records: tuple
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        for r in self.records:
            if r.adversarial_count > r.projection_count:
                raise InternalCheckError(
                    f"adversarial count {r.adversarial_count} exceeds projection "
                    f"count {r.projection_count} at theta={r.theta}; bug")

    @classmethod
    def build(cls, fraction: float, records) -> "SweepReport":
        recs = tuple(records)
        counts = np.array([r.projection_count for r in recs], dtype=np.float64)
        adv = np.array([r.adversarial_count for r in recs], dtype=np.float64)
        summary = {}
        if recs:
            for name, arr in (("projection", counts), ("adversarial", adv)):
                summary[name] = {
                    "min": float(np.min(arr)),
                    "q25": float(np.quantile(arr, 0.25)),
                    "median": float(np.median(arr)),
                    "q75": float(np.quantile(arr, 0.75)),
                    "max": float(np.max(arr)),
                }
        return cls(fraction=fraction, records=recs, summary=summary)


@dataclass(frozen=True)
class MarstrandStats:
    """Projection-length statistics over an equispaced angle grid."""

    angles: int
    mean: float
    median: float
    min: float
    energy_i1: float
    thetas: np.ndarray
    measures: np.ndarray


def _project_local(x, y, offset, extent: int, d: Direction):
    """The projection kernel.  Returns (K, v, err, exact) for the points
    offset + (x, y), x, y >= 0 float64 integers or half-integers with
    x + y <= extent.  c*ox + s*oy (c, s binary64) is split exactly into
    an integer K and f = r/q in [0, 1), and v = x*c + y*s + f.  v, and v
    plus c and s, take at most seven roundings of at most 2**-53 times
    extent + 3, so each lies within err of its exact value.  exact(x, y,
    up) is the exact floor (up: ceiling less one) of c*x + s*y + f."""
    c, s = d.vector
    (a, qa), (b, qb) = c.as_integer_ratio(), s.as_integer_ratio()
    q = max(qa, qb)
    a, b = a * (q // qa), b * (q // qb)  # c = a/q, s = b/q
    K, r = divmod(a * offset[0] + b * offset[1], q)

    def exact(x, y, up=False):
        u, w = ((2 * z).astype(np.int64).astype(object) for z in (x, y))
        return ((a * u + b * w + (2 * r - up)) // (2 * q)).astype(np.int64)

    v = x * c
    v += y * s
    if r:
        v += r / q
    return K, v, (extent + 4) * 2.0 ** -50, exact


def _local(E: GridSet2, half: float):
    """Cell coordinates of E less its offset, plus half, as float64."""
    i, j = E.indices.T
    return (i - E.offset[0]) + half, (j - E.offset[1]) + half


def _center_keys(x, y, offset, extent: int, d: Direction):
    """(K, keys): K + keys[t] is the exact floor of pi_theta of point t."""
    K, v, err, exact = _project_local(x, y, offset, extent, d)
    keys = np.floor(v)
    v -= keys
    v -= 0.5
    near = np.abs(v, out=v) >= 0.5 - err
    keys = keys.astype(np.int64)
    if near.any():
        keys[near] = exact(x[near], y[near])
    return K, keys


def project_set(E: GridSet2, d) -> GridSet1:
    """Conservative cover of pi_theta(E) at the scale of E: every 1D cell
    some occupied square's projection meets, at any offset.

    Axis directions (sin or cos exactly zero after snapping) give the
    exact column or row shadow.  Otherwise each square's range is its
    binary64 projection interval [lo, hi] rounded outward one ulp, the
    cells ceil(lo) - 1 .. floor(hi), widened to the exact floor of lo or
    ceiling of hi less one where that end is within err of an integer.
    """
    _require(not E.is_empty, "projection needs a nonempty set")
    d = _as_direction(d)
    c, s = d.vector
    if s == 0.0 or c == 0.0:
        axis = 0 if s == 0.0 else 1  # c == 0 means (c, s) = (0, 1)
        shadow = E.bits.any(axis=axis)
        if c >= 0:
            return GridSet1.from_bits(E.scale, E.offset[axis], shadow)
        # x -> -x sends column i to (-(i+1), -i], two cells
        cols = np.flatnonzero(shadow) + E.offset[0]
        return GridSet1.from_ranges(E.scale, -cols - 1, -cols)
    x, y = _local(E, 0.0)
    K, v, err, exact = _project_local(x, y, E.offset, sum(E.bits.shape), d)
    hi = v + max(0.0, c) + s  # s > 0 here
    v += min(0.0, c)  # v is lo now
    k0, k1 = np.ceil(v), np.floor(hi)
    np.subtract(k0, v, out=v)  # in [0, 1)
    hi -= k1  # in [0, 1)
    # an end falls short only if lo is within err above k0 - 1 or hi below k1 + 1
    near = np.flatnonzero(np.maximum(v, hi, out=v) >= 1 - err)
    k0 = np.add(k0, K - 1, dtype=np.int64, casting="unsafe")
    k1 = np.add(k1, K, dtype=np.int64, casting="unsafe")
    if near.size:
        xn, yn = x[near], y[near]
        k0[near] = np.minimum(k0[near], K + exact(xn + (c < 0), yn))
        k1[near] = np.maximum(k1[near], K + exact(xn + (c > 0), yn + 1, up=True))
    return GridSet1.from_ranges(E.scale, k0, k1)


def project_measure(mu: DyadicMeasure2, d) -> DyadicMeasure1:
    """Pushforward under pi_theta, each square's mass to its center's cell."""
    x, y, weights = mu._centers
    K, keys = _center_keys(x, y, mu.offset, sum(mu.weights.shape), _as_direction(d))
    lo = int(keys.min())
    return DyadicMeasure1.from_weights(mu.scale, K + lo,
                                       np.bincount(keys - lo, weights=weights))


def _fibers(E: GridSet2, d, fraction: float):
    """(keys, counts, take): fiber keys from 0 in indices order, cells per
    key over the key span, and how many heaviest fibers hold the fraction."""
    _require(0 < fraction <= 1, f"fraction must lie in (0, 1], got {fraction}")
    _require(not E.is_empty, "projection needs a nonempty set")
    x, y = _local(E, 0.5)
    _, keys = _center_keys(x, y, E.offset, sum(E.bits.shape), _as_direction(d))
    keys -= keys.min()
    counts = np.bincount(keys)
    cum = np.cumsum(np.sort(counts)[::-1])
    return keys, counts, int(np.searchsorted(cum, fraction * E.count)) + 1


def adversarial_count(E: GridSet2, d, fraction: float) -> int:
    """Fewest projected cells any fiber-union G with >= fraction of the
    cells of E can achieve.

    Greedy on fibers sorted by cell count descending is exactly optimal
    here; the count does not depend on the order of equal fibers.
    """
    return _fibers(E, d, fraction)[2]


def adversarial_projection(E: GridSet2, d, fraction: float):
    """adversarial_count together with a witness G; returns (count, G).

    Ties between equal-count fibers break toward the smaller projected
    index, so the witness is deterministic.
    """
    keys, counts, take = _fibers(E, d, fraction)
    chosen = np.zeros(counts.size, dtype=bool)
    chosen[np.argsort(-counts, kind="stable")[:take]] = True
    return take, GridSet2.from_indices(E.scale, E.indices[chosen[keys]])


def marstrand_average(E: GridSet2, angles: int) -> MarstrandStats:
    """Mean/median/min of measure(pi_theta(E)) over M equispaced angles
    (0 included, pi excluded), with the 1-energy of uniform measure on
    E for the average-projection lower bound."""
    _require(angles >= 2, "need at least two angles")
    thetas = np.arange(angles) * math.pi / angles
    measures = np.array([project_set(E, float(t)).measure for t in thetas])
    return MarstrandStats(angles=angles, mean=float(measures.mean()),
                          median=float(np.median(measures)), min=float(measures.min()),
                          energy_i1=riesz_energy(uniform_on(E), 1.0),
                          thetas=thetas, measures=measures)


def kaufman_average(mu: DyadicMeasure2, nu: AngleMeasure, kappa: float) -> float:
    """nu-weighted average of the kappa-energy of pi_theta(mu) over the
    support cells of nu, integrand evaluated at cell-center angles."""
    _require(kappa < 1, "kappa must be below 1")
    _require(kappa > 0, "kappa must be positive")
    thetas = nu.thetas()
    weights = nu.weights()
    acc = 0.0
    for t, w in zip(thetas, weights):
        acc += w * riesz_energy(project_measure(mu, float(t)), kappa)
    return acc


def sweep(E: GridSet2, thetas, fraction: float, mu: DyadicMeasure2 | None = None,
          kappa: float | None = None, threads: int = 1) -> SweepReport:
    """Per-angle projection and adversarial counts; energies when mu and
    kappa are given.  Parallel over angles, merged in angle order."""
    _require(0 < fraction <= 1, f"fraction must lie in (0, 1], got {fraction}")
    thetas = [float(t) for t in thetas]

    def one(t: float) -> ProjectionRecord:
        pc = project_set(E, t).count
        ac = adversarial_count(E, t, fraction)
        en = None
        if mu is not None and kappa is not None:
            en = riesz_energy(project_measure(mu, t), kappa)
        return ProjectionRecord(theta=t, projection_count=pc,
                                adversarial_count=ac, energy=en)

    if threads > 1 and len(thetas) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            records = list(ex.map(one, thetas))
    else:
        records = [one(t) for t in thetas]
    return SweepReport.build(fraction, records)
