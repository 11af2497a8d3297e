"""Expansion-experiment tests: N-fold curves, the dilation-sum sweep on
structured and unstructured sets, renormalized sweeps, the adversarial
angle experiment, and the exhaustion loop."""
import math
import re

import numpy as np
import pytest
from fractions import Fraction

from deltagrid import (AngleMeasure, DyadicMeasure1, GridSet1, GridSet2, InternalCheckError,
                       PreconditionError, Scale, SumSemantics, cartesian_product, dilate,
                       exhaust_decompose, find_expander, gen_cantor,
                       gen_random_frostman, make_interval,
                       nfold_expansion_curve, projection_theorem_experiment,
                       renormalized_find_expander, sumset, uniform_on)
from deltagrid import addcomb, expand
from deltagrid.grid import _digest


def test_curve_full_interval():
    c = nfold_expansion_curve(make_interval(Scale(6), 0, 1), 2)
    assert c.records[0][1] == pytest.approx(2.0)  # [0,1)-[0,1) covers [-1,1]
    assert c.first_crossing == 1


def test_curve_cantor_expands():
    K = gen_cantor(Scale(12), 4, (0, 3), 6)
    c = nfold_expansion_curve(K, 3)
    ms = [m for _, m in c.records]
    assert ms == sorted(ms)
    assert ms[2] >= 0.5
    assert c.first_crossing is not None and c.first_crossing <= 3


def test_curve_singleton_control():
    # a single cell never expands: measure stays at delta scale
    K = GridSet1.from_indices(Scale(10), [1 << 10])
    c = nfold_expansion_curve(K, 5)
    d = Scale(10).delta
    for N, m in c.records:
        assert m <= (4 * N * N + 2) * d
    # frozen deterministic values, delta units
    assert [round(m / d) for _, m in c.records] == [2, 10, 26, 50, 82]


def test_curve_rejections():
    with pytest.raises(PreconditionError):
        nfold_expansion_curve(GridSet1.empty(Scale(4)), 2)
    with pytest.raises(PreconditionError):
        nfold_expansion_curve(make_interval(Scale(4), 0, 1), 6)


def test_expander_ap_no_expansion():
    # arithmetic progressions stay flat: |A + xA| <= (1+x)|A| + O(1)
    for k in (4, 8):
        A = GridSet1.from_indices(Scale(12), range(1 << k))
        rep = find_expander(A, make_interval(Scale(6), 1, 2))
        assert rep.best.ratio <= 3.0 + 8.0 / A.count


def test_expander_interval_exact_cover_oracle():
    # A = cells [a, a + m) is one interval, so A + xA is the interval
    # (1 + x)[a, a + m) in delta units and its COVER count is
    # ceil((1 + x)(a + m)) - floor((1 + x) a), exactly, for every x
    X = make_interval(Scale(8), 1, 2)
    reps = {}
    for n, a, m in ((16, 0, 256), (12, 37, 100), (10, -300, 64), (6, 5, 1)):
        A = GridSet1.from_indices(Scale(n), range(a, a + m))
        rep = reps[n] = find_expander(A, X)
        assert len(rep.records) == X.count
        for i, r in zip(X.indices, rep.records):
            x = Fraction(2 * int(i) + 1, 2 << 8)
            assert r.x == x
            cells = math.ceil((1 + x) * (a + m)) - math.floor((1 + x) * a)
            assert r.ratio == cells / m
    # the 256-cell progression: every ratio lies in (2, 3], so every
    # exponent is above 1/16 and none can fall to 0.05
    rep = reps[16]
    assert all(2.0 < r.ratio <= 3.0 for r in rep.records)
    assert min(r.exponent for r in rep.records) > 1 / 16
    assert rep.best.ratio == 3.0


def test_expander_singleton():
    S = GridSet1.from_indices(Scale(10), [700])
    rep = find_expander(S, make_interval(Scale(5), 1, 2))
    assert all(r.ratio <= 4.0 for r in rep.records)  # cover slack only


def test_expander_cantor_expands():
    A = gen_cantor(Scale(16), 4, (0, 3), 8)
    rep = find_expander(A, make_interval(Scale(8), 1, 2))
    assert rep.best.exponent >= 0.1
    assert rep.best.exponent == pytest.approx(
        math.log(rep.best.ratio) / (16 * math.log(2)))


def test_expander_ratio_bounds():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        A = GridSet1.from_indices(Scale(n),
                                  rng.integers(0, 1 << n, size=rng.integers(1, 20)))
        cand = GridSet1.from_indices(Scale(4),
                                     rng.integers(1 << 4, 1 << 5, size=3))
        rep = find_expander(A, cand)
        for r in rep.records:
            assert r.ratio >= 0.5
            # each cell pair covers two target cells under closed sums
            D = dilate(A, r.x)
            assert r.ratio * A.count <= 2 * A.count * D.count + 1e-9


def test_sweeps_match_per_candidate_sums_at_benchmark_size():
    """Every record of both sweeps is |A + xA| / |A| from a fresh COVER sum."""
    cantor = gen_cantor(Scale(16), 4, (0, 3), 8)
    frostman = gen_random_frostman(Scale(13), 0.6, 5)
    assert np.diff(frostman.indices).min() == 1 < np.diff(frostman.indices).max()
    for A in (cantor, frostman):
        reps = (find_expander(A, make_interval(Scale(8), 1, 2)),
                renormalized_find_expander(A, uniform_on(A), 0.5))
        assert len(reps[0].records) == 256
        for records in (reps[0].records, reps[1].records, reps[1].renorm_records):
            assert records
            for r in records:
                assert r.ratio == sumset(A, dilate(A, r.x), SumSemantics.COVER).count / A.count


def test_renorm_uniform_reduces_to_direct():
    A = gen_cantor(Scale(8), 4, (0, 3), 4)
    mu = uniform_on(make_interval(Scale(8), 0, 1))
    rr = renormalized_find_expander(A, mu, 1.0)
    direct = find_expander(A, make_interval(Scale(8), 0, 1))
    assert not rr.degenerate
    assert [(r.x, r.ratio) for r in rr.records] == \
        [(r.x, r.ratio) for r in direct.records]


def test_renorm_point_mass_degenerate():
    A = gen_cantor(Scale(8), 4, (0, 3), 4)
    mu = uniform_on(GridSet1.from_indices(Scale(8), [77]))
    rr = renormalized_find_expander(A, mu, 1.0)
    assert rr.degenerate
    assert len(rr.records) == 1


def test_renorm_cantor_cross_validation():
    A = gen_cantor(Scale(12), 4, (0, 3), 6)
    mu = uniform_on(A)
    rr = renormalized_find_expander(A, mu, 0.5)
    assert not rr.degenerate
    assert rr.frostman.constant <= 2.0 + 1e-9  # zoomed measure stays flat
    direct = find_expander(A, A)
    assert abs(rr.best.exponent - direct.best.exponent) <= 0.05


def test_projection_experiment_cantor():
    C3 = gen_cantor(Scale(12), 3, (0, 2), 7)
    E = cartesian_product(C3, C3)
    ex = projection_theorem_experiment(E, AngleMeasure.uniform(Scale(6)),
                                       0.05, 0.02, 24, threads=2)
    assert ex.good_mass >= 0.9
    assert len(ex.good_angles) + len(ex.bad_angles) == 24


def test_projection_experiment_degenerate_column():
    # a single column collapses along its aligned direction; aim nu there
    pts = [(5, j) for j in range(64)]
    E = GridSet2.from_indices(Scale(6), pts)
    nu = AngleMeasure.point(Scale(10), 0.0)
    ex = projection_theorem_experiment(E, nu, 0.1, 0.0, 16)
    assert ex.good_mass == 0.0
    assert len(ex.bad_angles) == 16
    # the report carries the ball-concentration diagnostic for E
    assert ex.nonconcentration.convention == "set"
    assert ex.nonconcentration.kappa == 1.0


def test_projection_experiment_eta_monotone():
    C3 = gen_cantor(Scale(10), 3, (0, 2), 6)
    E = cartesian_product(C3, C3)
    nu = AngleMeasure.uniform(Scale(5))
    masses = [projection_theorem_experiment(E, nu, 0.05, eta, 16).good_mass
              for eta in (0.0, 0.05, 0.15)]
    assert masses[0] >= masses[1] >= masses[2]


def test_exhaust_whole():
    E = cartesian_product(make_interval(Scale(3), 0, 1),
                          make_interval(Scale(3), 0, 1))
    dec = exhaust_decompose(E, lambda S: (S, [0.0]), 0.5)
    assert len(dec.pieces) == 1
    assert dec.leftover.is_empty
    assert dec.pieces[0] == E


def test_exhaust_halving():
    E = cartesian_product(make_interval(Scale(3), 0, 1),
                          make_interval(Scale(3), 0, 1))

    def left_half(S):
        cols = np.unique(S.indices[:, 0])
        keep = cols[: max(1, cols.size // 2)]
        pts = [(i, j) for i, j in S.indices if i in set(keep.tolist())]
        return GridSet2.from_indices(S.scale, pts), [0.0]

    dec = exhaust_decompose(E, left_half, 1 / 8)
    assert len(dec.pieces) == 3
    assert dec.leftover.count == E.count // 8
    # exact partition
    u = dec.leftover
    for p in dec.pieces:
        assert u.intersect(p).is_empty
        u = u.union(p)
    assert u == E
    assert dec.weights == tuple(p.measure for p in dec.pieces)


def test_exhaust_internal_error_names_an_input_digest(monkeypatch):
    """A difference that drops a cell trips the lost-cells check, whose
    message names the inputs by the digest the addcomb checks use."""
    E = cartesian_product(make_interval(Scale(3), 0, 1), make_interval(Scale(3), 0, 1))
    difference = GridSet2.difference

    def lossy(self, other):
        out = difference(self, other)
        return difference(out, GridSet2.from_indices(out.scale, out.indices[:1]))

    def first_row(S):
        return GridSet2.from_indices(S.scale, S.indices[S.indices[:, 1] == S.indices[0, 1]]), [0.0]

    monkeypatch.setattr(GridSet2, "difference", lossy)
    with pytest.raises(InternalCheckError, match="lost cells") as err:
        exhaust_decompose(E, first_row, 0.5)
    digest = re.search(r"\(inputs ([0-9a-f]{16})\); bug$", str(err.value))
    assert digest and digest.group(1) == _digest(E, 0.5, 1 / 64)
    assert addcomb._digest is expand._digest is _digest
    # a measure is named by all its weights, which its repr abbreviates
    w = np.full(4096, 1 / 4096)
    v = w.copy()
    v[2000:2002] += [1e-6, -1e-6]
    mus = [DyadicMeasure1(Scale(12), 0, w), DyadicMeasure1(Scale(12), 0, v)]
    assert repr(mus[0]) == repr(mus[1]) and _digest(mus[0]) != _digest(mus[1])


def test_exhaust_stall_aborts():
    E = cartesian_product(make_interval(Scale(3), 0, 1),
                          make_interval(Scale(3), 0, 1))

    def one_cell(S):
        i, j = S.indices[0]
        return GridSet2.from_indices(S.scale, [(int(i), int(j))]), [0.0]

    with pytest.raises(PreconditionError):
        exhaust_decompose(E, one_cell, 1 / 64, min_fraction=1 / 4)


def test_exhaust_goodness_aggregation():
    E = cartesian_product(make_interval(Scale(2), 0, 1),
                          make_interval(Scale(2), 0, 1))
    calls = [0]

    def finder(S):
        calls[0] += 1
        half = GridSet2.from_indices(
            S.scale, [tuple(map(int, r)) for r in S.indices[: S.count // 2 or 1]])
        return half, [0.0, 0.1 * calls[0]]

    dec = exhaust_decompose(E, finder, 1 / 4)
    agg = dec.aggregate_goodness()
    assert agg[0.0] == pytest.approx(1.0)  # every piece voted for 0.0
    assert all(0 < v <= 1 + 1e-12 for v in agg.values())
