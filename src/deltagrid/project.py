"""Orthogonal projections of planar cell sets and measures, angle
averages, and exact adversarial dense-subset projection minimization.

pi_theta(x, y) = x*cos(theta) + y*sin(theta), theta in [0, pi).

project_set over-covers: the projection interval of each square gets
its binary64 endpoints rounded outward by one ulp before covering, so
a cell touched by the true projection is never missed.  Conservative
in the direction lower-bound experiments need.

project_measure and the adversarial minimizer use the center
convention instead: each square's mass, or the square itself, belongs
to the single 1D cell containing the projection of its center (its
"fiber").  Fiber count <= project_set count always, since a square's
center projection lands inside its projection interval.

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

from .errors import InternalCheckError, PreconditionError
from .grid import GridSet1, GridSet2, Scale, _require
from .measure import DyadicMeasure1, DyadicMeasure2, riesz_energy, uniform_on
from .setcalc import reflect


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


def project_set(E: GridSet2, d) -> GridSet1:
    """Exact conservative cover of pi_theta(E) at the scale of E.

    A 1D cell is occupied iff some occupied square's half-open
    projection interval meets it.  Axis directions (sin or cos exactly
    zero after snapping) reduce to exact column/row shadows; all other
    endpoints are computed in binary64 and rounded outward one ulp, so
    the cover errs on the large side only.
    """
    _require(not E.is_empty, "projection needs a nonempty set")
    d = _as_direction(d)
    c, s = d.vector
    if s == 0.0:
        shadow = GridSet1.from_bits(E.scale, E.offset[0], E.bits.any(axis=0))
        if c > 0:
            return shadow
        # x -> -x sends cell i to (-(i+1)d, -i*d]: two cells, right one
        # holding only the attained endpoint.
        r = reflect(shadow)
        return r.union(r.translate(-1))
    if c == 0.0:
        return GridSet1.from_bits(E.scale, E.offset[1], E.bits.any(axis=1))
    ij = E.indices.astype(np.float64)
    base = ij[:, 0] * c + ij[:, 1] * s
    lo = np.nextafter(base + min(0.0, c) + min(0.0, s), -np.inf)
    hi = np.nextafter(base + max(0.0, c) + max(0.0, s), np.inf)
    k0 = np.floor(lo).astype(np.int64)
    k1 = np.ceil(hi).astype(np.int64) - 1  # last cell starting below hi
    off = int(k0.min())
    span = int(k1.max()) - off + 1
    bits = (np.bincount(k0 - off, minlength=span + 1)
            - np.bincount(k1 - off + 1, minlength=span + 1))
    return GridSet1.from_bits(E.scale, off, np.cumsum(bits[:-1]) > 0)


def _fiber_keys(E: GridSet2, d: Direction) -> np.ndarray:
    """Center-projection fiber key of each cell of E, in indices order."""
    c, s = d.vector
    ij = E.indices.astype(np.float64)
    return np.floor((ij[:, 0] + 0.5) * c + (ij[:, 1] + 0.5) * s).astype(np.int64)


def project_measure(mu: DyadicMeasure2, d) -> DyadicMeasure1:
    """Pushforward under pi_theta, each square's mass to its center's cell."""
    d = _as_direction(d)
    c, s = d.vector
    x, y, weights = mu._centers
    keys = np.floor(x * c + y * s).astype(np.int64)
    lo = int(keys.min())
    w = np.bincount(keys - lo, weights=weights)
    return DyadicMeasure1.from_weights(mu.scale, lo, w)


def _greedy_take(counts: np.ndarray, target: float) -> int:
    """Number of heaviest fibers needed to hold >= target cells."""
    cum = np.cumsum(np.sort(counts)[::-1])
    take = int(np.searchsorted(cum, target, side="left")) + 1
    return min(take, counts.size)


def adversarial_count(E: GridSet2, d, fraction: float) -> int:
    """Fewest projected cells any fiber-union G with >= fraction of the
    cells of E can achieve.

    Greedy on fibers sorted by cell count descending is exactly optimal
    here; the count does not depend on the order of equal fibers.
    """
    _require(0 < fraction <= 1, f"fraction must lie in (0, 1], got {fraction}")
    _require(not E.is_empty, "projection needs a nonempty set")
    _, counts = np.unique(_fiber_keys(E, _as_direction(d)), return_counts=True)
    return _greedy_take(counts, fraction * E.count)


def adversarial_projection(E: GridSet2, d, fraction: float):
    """adversarial_count together with a witness G; returns (count, G).

    Ties between equal-count fibers break toward the smaller projected
    index, so the witness is deterministic.
    """
    _require(0 < fraction <= 1, f"fraction must lie in (0, 1], got {fraction}")
    _require(not E.is_empty, "projection needs a nonempty set")
    uniq, inv, counts = np.unique(_fiber_keys(E, _as_direction(d)),
                                  return_inverse=True, return_counts=True)
    take = _greedy_take(counts, fraction * E.count)
    chosen = np.lexsort((uniq, -counts))[:take]
    witness = GridSet2.from_indices(E.scale, E.indices[np.isin(inv, chosen)])
    return take, witness


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
