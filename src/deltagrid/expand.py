"""Experiment drivers: N-fold sum-product expansion curves, expander
candidate sweeps with maximal-interval renormalization, projection
sweeps against the dense-subset adversary, and the exhaustion loop
that decomposes a planar set into well-projecting pieces.

All sweeps report measured ratios and exponents against stored
first-run regression baselines; none of the underlying constants are
effective, so the experiments never compare against theory-derived
numbers, only against their own calibrated history.
"""

from __future__ import annotations

import math
# Unused here since the candidate sweep runs on the calling thread; the
# benchmark's tracer (perfbench/tracing.py) rebinds this name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import GridSet1, GridSet2, _digest, _require
from .measure import (DyadicMeasure1, FrostmanReport, frostman_constant,
                      maximal_interval, nonconcentration_constant, rescale_to_unit)
from .project import AngleMeasure, SweepReport, sweep
from .setcalc import (SumSemantics, _product_cover_pairs, diffset_count, dilated_sum_counts,
                      nfold_sum)


@dataclass(frozen=True)
class ExpanderRecord:
    """One candidate: x, the covering ratio |A + xA| / |A|, and the
    exponent log(ratio) / log(1/delta)."""

    x: Fraction
    ratio: float
    exponent: float


@dataclass(frozen=True)
class ExpansionReport:
    """Sweep outcome: per-candidate records, the best (largest-ratio)
    record, and input descriptors.  renorm_records carry the zoomed
    coordinate sweep when renormalization was applied."""

    records: tuple
    best: ExpanderRecord
    kappa: float | None = None
    frostman: FrostmanReport | None = None
    degenerate: bool = False
    renorm_records: tuple = ()


@dataclass(frozen=True)
class ExpansionCurve:
    """measure(NX - NX) for X the N-fold product of K, per N; also the
    first N at which the measure crosses 1/2 (None if never)."""

    records: tuple
    first_crossing: int | None


@dataclass(frozen=True)
class ExhaustionDecomposition:
    """Disjoint pieces with their angle sets, the final residual, the
    piece measures (the weights rho), and the stopping threshold."""

    pieces: tuple
    angle_sets: tuple
    leftover: GridSet2
    weights: tuple
    threshold: float

    def aggregate_goodness(self) -> dict:
        """rho-weighted fraction of pieces calling each angle good."""
        total = sum(self.weights)
        agg: dict = {}
        for w, thetas in zip(self.weights, self.angle_sets):
            for t in np.atleast_1d(thetas):
                agg[float(t)] = agg.get(float(t), 0.0) + w / total
        return agg


@dataclass(frozen=True)
class ProjectionExperiment:
    """Adversarial sweep with the estimated mass of good angles.

    good_mass estimates nu(Theta-hat) with each sampled angle carrying
    weight 1/M; the non-concentration report for E explains failures
    on degenerate inputs (a single column has an enormous constant)."""

    report: SweepReport
    threshold: float
    epsilon: float
    eta: float
    good_mass: float
    good_angles: np.ndarray
    bad_angles: np.ndarray
    nonconcentration: FrostmanReport


def nfold_expansion_curve(K: GridSet1, N_max: int) -> ExpansionCurve:
    """measure(N-fold-sum(X) - N-fold-sum(X)) for X = N-fold-product(K).

    All set arithmetic in COVER semantics.  Monotonicity in N is
    asserted when the cell of the point 1 is in K (padding with 1s
    embeds each stage in the next); otherwise it is only recorded.
    """
    _require(not K.is_empty, "K must be nonempty")
    _require(1 <= N_max <= 5, "N_max must lie in 1..5")
    n = K.scale.n
    lo, hi = K.min_index, K.max_index
    _require(lo >= -(4 << n) and hi < (4 << n), "K must sit inside [-4, 4]")
    has_one = K.contains_index(1 << n)
    records = []
    first = None
    prev = None
    for N in range(1, N_max + 1):
        X = K if N == 1 else _product_cover_pairs(X, K)  # nfold_product(K, N): one more fold
        S = nfold_sum(X, N)
        m = diffset_count(S, S, SumSemantics.COVER) * S.scale.delta  # the difference's measure
        if has_one and prev is not None and m < prev * (1 - 1e-12):
            raise InternalCheckError(
                f"expansion curve decreased at N={N} ({prev} -> {m}) despite "
                f"1 being in K; padding embedding makes this impossible "
                f"(inputs {_digest(K, N_max)}); bug")
        records.append((N, m))
        if first is None and m >= 0.5:
            first = N
        prev = m
    return ExpansionCurve(records=tuple(records), first_crossing=first)


def _sweep_candidates(A: GridSet1, xs):
    """COVER ratios |A + xA| / |A| for each rational x of the list xs, in
    order, from one `dilated_sum_counts` pass."""
    n = A.scale.n
    logd = n * math.log(2.0)
    records = []
    for x, count in zip(xs, dilated_sum_counts(A, xs)):
        ratio = count / A.count
        expo = math.log(ratio) / logd if n > 0 else 0.0
        records.append(ExpanderRecord(x=x, ratio=ratio, exponent=expo))
    return records


def find_expander(A: GridSet1, candidates: GridSet1, threads: int = 1,
                  kappa: float | None = None) -> ExpansionReport:
    """Sweep x over the cell centers of candidates, maximizing the
    covering ratio |A + xA| / |A|, in one `dilated_sum_counts` pass that
    builds A's mask and shifted segments once for all candidates.

    threads is accepted and ignored: the candidates run in order on the
    calling thread, since the big-int and small numpy work of one
    candidate holds the GIL and a pool of threads measured slower.
    """
    _require(not A.is_empty, "A must be nonempty")
    _require(not candidates.is_empty, "candidate set must be nonempty")
    cn = candidates.scale.n
    fr = nonconcentration_constant(A, kappa) if kappa is not None else None
    xs = [Fraction(2 * int(i) + 1, 2 << cn) for i in candidates.indices]
    records = _sweep_candidates(A, xs)
    return ExpansionReport(records=tuple(records), best=max(records, key=lambda r: r.ratio),
                           kappa=kappa, frostman=fr)


def renormalized_find_expander(A: GridSet1, mu: DyadicMeasure1,
                               kappa: float) -> ExpansionReport:
    """Zoom mu to its best interval under m(I) = mu(I)/r**(kappa/2),
    sweep x over the support of the zoomed measure, and report both the
    zoomed-coordinate ratios and the mapped-back ratios for
    x = x0 + r0 * t.

    The zoomed measure is checked to be (kappa/2, <=2)-Frostman except
    in the degenerate single-cell case, which is flagged instead.
    """
    _require(not A.is_empty, "A must be nonempty")
    mi = maximal_interval(mu, kappa)
    nu = rescale_to_unit(mu, mi.level, mi.index)
    (cells,), _ = nu._support
    degenerate = nu.scale.n == 0 or cells.size == 1
    rep = frostman_constant(nu, kappa / 2)
    if not degenerate and rep.constant > 2 + 1e-9:
        raise InternalCheckError(
            f"zoomed measure has ball constant {rep.constant} above 2 at "
            f"exponent {kappa / 2}; maximality of the chosen interval forbids this "
            f"(inputs {_digest(A, mu, kappa)}); bug")
    nun = nu.scale.n
    ts = [Fraction(2 * int(i) + 1, 2 << nun) for i in cells + nu.offset]
    # both sweeps in one pass, so A's segments serve the zoomed and mapped x
    both = _sweep_candidates(A, ts + [mi.x0 + mi.r0 * t for t in ts])
    renorm_records, records = both[:len(ts)], both[len(ts):]
    return ExpansionReport(records=tuple(records), best=max(records, key=lambda r: r.ratio),
                           kappa=kappa, frostman=rep, degenerate=degenerate,
                           renorm_records=tuple(renorm_records))


def projection_theorem_experiment(E: GridSet2, nu: AngleMeasure, epsilon: float,
                                  eta: float, M: int, threads: int = 1) -> ProjectionExperiment:
    """Sample M angles from nu by mass quantiles, run the dense-subset
    adversary at fraction delta**epsilon per angle, and estimate the
    nu-mass of angles whose adversarial count stays above
    delta**(-eta) * sqrt(popcount E).  eta lies in [0, 32], so at n <= 30
    delta**(-eta) <= 2**960 and the threshold is finite."""
    _require(not E.is_empty, "E must be nonempty")
    _require(M >= 16, "need at least 16 sampled angles")
    _require(epsilon >= 0, "epsilon must be nonnegative")
    _require(0 <= eta <= 32, "eta must lie in [0, 32]")
    delta = E.scale.delta
    lam = min(1.0, delta ** epsilon)
    thetas = nu.quantile_angles(M)
    report = sweep(E, thetas, lam, threads=threads)
    threshold = delta ** (-eta) * math.sqrt(E.count)
    counts = np.array([r.adversarial_count for r in report.records], dtype=np.float64)
    good = counts > threshold
    return ProjectionExperiment(
        report=report, threshold=threshold, epsilon=epsilon, eta=eta,
        good_mass=float(np.count_nonzero(good)) / M,
        good_angles=thetas[good], bad_angles=thetas[~good],
        nonconcentration=nonconcentration_constant(E, 1.0))


def exhaust_decompose(E: GridSet2, finder, threshold: float,
                      min_fraction: float = 1.0 / 64.0) -> ExhaustionDecomposition:
    """Repeatedly carve finder's piece out of the residual until at most
    threshold * |E| cells remain.

    finder maps a nonempty GridSet2 to (F, angle set) with F a nonempty
    subset of its input; F must keep at least min_fraction of the
    residual's cells or the loop aborts with its trace.
    """
    _require(not E.is_empty, "E must be nonempty")
    _require(0 < threshold < 1, "threshold must lie in (0, 1)")
    _require(0 < min_fraction <= 1, "min_fraction must lie in (0, 1]")
    residual = E
    pieces = []
    angle_sets = []
    trace = []
    while residual.count > threshold * E.count:
        F, thetas = finder(residual)
        _require(isinstance(F, GridSet2), "finder must return a GridSet2 piece")
        if F.is_empty or not F.subset_of(residual):
            raise PreconditionError(
                f"finder returned an invalid piece at iteration {len(pieces)} "
                f"(empty or escaping the residual); trace: {trace}")
        if F.count < min_fraction * residual.count:
            raise PreconditionError(
                f"finder stalled at iteration {len(pieces)}: piece has {F.count} "
                f"of {residual.count} cells, below fraction {min_fraction}; "
                f"trace: {trace}")
        trace.append((residual.count, F.count))
        pieces.append(F)
        angle_sets.append(np.atleast_1d(np.asarray(thetas, dtype=np.float64)))
        residual = residual.difference(F)

    def bug(what: str) -> InternalCheckError:
        # the finder is code, not data, so the digest names the data it was given
        return InternalCheckError(f"{what} (inputs {_digest(E, threshold, min_fraction)}); bug")

    total = sum(p.count for p in pieces) + residual.count
    if total != E.count:
        raise bug(f"decomposition lost cells: {total} != {E.count}")
    union = residual
    for p in pieces:
        if not union.intersect(p).is_empty:
            raise bug("decomposition pieces overlap")
        union = union.union(p)
    if union != E:
        raise bug("decomposition does not reassemble E")
    return ExhaustionDecomposition(
        pieces=tuple(pieces), angle_sets=tuple(angle_sets), leftover=residual,
        weights=tuple(p.measure for p in pieces), threshold=threshold)
