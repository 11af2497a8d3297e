"""Lattice tests: translate search against the averaging bound with an
independent recount, the slab-collision witness invariants, canonical
rasters, and the integer projection measure against a Fraction oracle."""
import math
from fractions import Fraction

import numpy as np
import pytest

from deltagrid import (CellCloud, GridSet1, PreconditionError, Scale,
                       blichfeldt_translate, count_lattice_points,
                       make_interval, slab_collision)
from deltagrid import lattice
from deltagrid.grid import _digest
from deltagrid.lattice import _exact_projection_measure, _raster_slab

from _oracles import merged_projection_measure


def test_unit_square():
    V = CellCloud.box(Scale(3), (0, 0), (1, 1))
    res = blichfeldt_translate(V, 1)
    assert res.bound == pytest.approx(1.0)
    assert res.count == 1
    assert res.translation == (0, 0)


def test_two_square():
    V = CellCloud.box(Scale(3), (0, 0), (2, 2))
    res = blichfeldt_translate(V, 1)
    assert res.bound == pytest.approx(4.0)
    assert res.count == 4  # {0,1}^2 at shift (0,0)
    assert res.translation == (0, 0)


def test_disc():
    V = CellCloud.disc(Scale(4), 1.5)
    res = blichfeldt_translate(V, 1)
    assert res.bound >= math.pi * 1.5 ** 2 - 1e-9  # outer raster only grows
    assert res.count >= 8


def test_one_dimensional():
    V = CellCloud.from_gridset(GridSet1.from_indices(Scale(3), [0, 1, 4, 5, 6]))
    res = blichfeldt_translate(V, Scale(3).delta * 2)
    assert res.count >= math.ceil(res.bound - 1e-9)
    assert count_lattice_points(V, Scale(3).delta * 2, res.translation) == res.count


def test_rejects_bad_spacing():
    V = CellCloud.box(Scale(2), (0,), (1,))
    with pytest.raises(PreconditionError):
        blichfeldt_translate(V, 0.3)  # not a multiple of delta
    with pytest.raises(PreconditionError):
        blichfeldt_translate(V, 0)


def test_random_regions_never_fail():
    # averaging argument is constructive: every valid region succeeds
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3):
        for _ in range(60):
            n = int(rng.integers(1, 5 if dim == 3 else 7))
            span = 1 << n
            k = int(rng.integers(1, min(40, 4 * span)))
            rows = rng.integers(-span, 2 * span, size=(k, dim))
            V = CellCloud.from_indices(Scale(n), rows)
            s = int(rng.integers(1, span + 1)) * Scale(n).delta
            res = blichfeldt_translate(V, s)
            assert res.count >= math.ceil(res.bound - 1e-9)
            recount = count_lattice_points(V, s, res.translation)
            assert recount == res.count


def test_tie_break_lexicographic():
    # two isolated cells, spacing 2 cells: shifts (0,*) and (1,*) tie at 1
    V = CellCloud.from_indices(Scale(2), [(0, 0), (1, 1)])
    res = blichfeldt_translate(V, 2 * Scale(2).delta)
    assert res.count == 1
    assert res.translation == (0, 0)


def test_slab_two_cell_witness():
    A = GridSet1.from_indices(Scale(2), [0, 3])
    v = (1 / math.sqrt(2), 1 / math.sqrt(2))
    w = slab_collision(A, v, 2, 12.0)
    delta = Scale(2).delta
    diam = 1.0
    assert any(e != 0 for e in w.ell)
    assert w.projection_gap <= w.tolerance * (1 + 1e-9)
    assert abs(w.z[w.eliminated] - w.x[w.eliminated]) >= diam - 2 * delta
    # lattice vector is bounded by slab diameter over translate spacing
    diam_v = 2 * math.hypot(12.0 + delta, 1 + delta)
    assert all(abs(e) <= diam_v / (2 * diam) + 1 for e in w.ell)
    # witness points really project together under v
    assert abs(sum(a * b for a, b in zip(w.x, v)) -
               sum(a * b for a, b in zip(w.z, v))) == pytest.approx(w.projection_gap)


def test_slab_full_interval_tiny():
    F = make_interval(Scale(2), 0, 1)
    w = slab_collision(F, (0.75, 0.9), 2, 8.0)
    assert w.pair_indices[0] < w.pair_indices[1]
    assert w.z[w.eliminated] != pytest.approx(w.x[w.eliminated])


def test_slab_three_dimensional():
    A = GridSet1.from_indices(Scale(1), [0, 1])
    w = slab_collision(A, (0.6, 0.7, 0.8), 3, 6.0)
    assert len(w.ell) == 3 and len(w.x) == 3
    assert w.ell[w.eliminated] != 0


def test_slab_rejections():
    single = GridSet1.from_indices(Scale(3), [2])
    with pytest.raises(PreconditionError):
        slab_collision(single, (0.7, 0.7), 2, 8.0)
    A = GridSet1.from_indices(Scale(2), [0, 3])
    with pytest.raises(PreconditionError):
        slab_collision(A, (0.3, 0.7), 2, 8.0)  # v outside [1/2,1]^n
    with pytest.raises(PreconditionError):
        slab_collision(A, (0.7, 0.7), 4, 8.0)  # dimension
    with pytest.raises(PreconditionError):
        slab_collision(A, (0.7, 0.7), 2, 2.0)  # slab too small for M


def test_cell_clouds_digest_by_their_rows():
    # same scale, dimension and count, so the same repr, but other rows
    a = CellCloud.from_indices(Scale(4), [[0, 0], [1, 2]])
    b = CellCloud.from_indices(Scale(4), [[0, 0], [1, 3]])
    assert repr(a) == repr(b)
    assert _digest(a) != _digest(b)
    assert _digest(a) == _digest(CellCloud.from_indices(Scale(4), [[1, 2], [0, 0]]))
    assert _digest(a) != _digest(CellCloud.from_indices(Scale(5), [[0, 0], [1, 2]]))


def _fraction_projection_measure(A, v):
    """Oracle: measure of sum_i v_i * A by Fraction interval arithmetic,
    merging each sorted Minkowski sum of interval unions."""
    delta = Fraction(1, 1 << A.scale.n)
    starts, ends = A.runs
    runs = [(Fraction(0), Fraction(0))]
    for vi in v:
        f = Fraction(float(vi))
        scaled = [(f * a * delta, f * (b + 1) * delta)
                  for a, b in zip(starts.tolist(), ends.tolist())]
        sums = sorted((a0 + b0, a1 + b1) for a0, a1 in runs for b0, b1 in scaled)
        merged = [list(sums[0])]
        for lo, hi in sums[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        runs = merged
    return sum((hi - lo for lo, hi in runs), Fraction(0))


def test_exact_projection_measure_matches_fraction_oracle():
    rng = np.random.default_rng(17)
    for case in range(300):
        n = int(rng.integers(1, 9))
        span = int(rng.integers(1, min(64, 1 << n) + 1))
        cells = rng.choice(span, size=int(rng.integers(1, min(span, 12) + 1)), replace=False)
        offset = int(rng.integers(-(1 << 40), (1 << 40) + 1))
        A = GridSet1.from_indices(Scale(n), cells + offset)
        dim = 2 + case % 2
        v = [float(x) for x in rng.uniform(0.5, 1.0, size=dim)]
        v[0] = (0.5, 1.0, 0.75, v[0])[case % 4]  # exact ends and a short dyadic
        got = _exact_projection_measure(A, v)
        assert isinstance(got, Fraction)
        assert got == _fraction_projection_measure(A, v), (case, A, v)
        # the bound slab_collision refuses by before measuring
        assert got <= sum(map(Fraction, v)) * Fraction(A.bits.size, 1 << n)


def test_exact_projection_measure_matches_python_merge():
    """Against the Python interval merge the measure was once computed by,
    with binary64 directions whose denominators reach 2**53, so that the
    interval ends pass int64."""
    rng = np.random.default_rng(29)
    past_int64 = 0
    for case in range(60):
        n = int(rng.integers(8, 21))
        cells = rng.choice(1 << n, size=int(rng.integers(1, 40)), replace=False)
        runs = np.concatenate([np.arange(c, min(c + int(rng.integers(1, 5)), 1 << n))
                               for c in cells])
        offset = int(rng.integers(-(1 << 40), (1 << 40) + 1)) * (case % 2)
        A = GridSet1.from_indices(Scale(n), runs + offset)
        v = rng.uniform(0.5, 1.0, size=2 + case % 2).tolist()
        v[0] = (0.5, 1.0, 0.75, v[0])[case % 4]
        q = max(float(x).as_integer_ratio()[1] for x in v)
        past_int64 += q * max(-A.min_index, A.max_index + 1) >= 1 << 63
        assert _exact_projection_measure(A, v) == merged_projection_measure(A, v), (case, A, v)
    assert past_int64 >= 50


def test_exact_projection_measure_refuses_before_pairing():
    # 2,001 runs pair to 4,004,001 intervals, over the 4,000,000 cap
    A = GridSet1.from_indices(Scale(13), np.arange(0, 4002, 2))
    with pytest.raises(PreconditionError, match="interval count"):
        _exact_projection_measure(A, (0.75, 0.75))


def test_slab_too_small_is_refused_before_measuring(monkeypatch):
    # 1,414 isolated cells: the measure would pair 2,000,000 runs, but
    # |v|_1 * diam A already asks for 5 translates and the slab holds 0.05
    def no_measure(*args):
        raise AssertionError("projection measured before the slab check")

    monkeypatch.setattr(lattice, "_exact_projection_measure", no_measure)
    A = GridSet1.from_indices(Scale(9), np.arange(0, 2828, 2))
    with pytest.raises(PreconditionError,
                       match="slab too small: averaging bound 0.05 < required translates 5;"):
        slab_collision(A, (0.75, 0.8), 2, 1.5)


def test_rasters_are_canonical():
    scale = Scale(4)
    clouds = [CellCloud.box(scale, (-1,), (1,)),
              CellCloud.box(scale, (0, -1), (1, 1)),
              CellCloud.box(scale, (0, 0, 0), (1, 1, 1)),
              CellCloud.disc(scale, 0.7, (0.3, -0.2)),
              _raster_slab(scale, np.array([0.6, 0.8]), 2.0),
              _raster_slab(Scale(2), np.array([2.0, 1.0, 2.0]) / 3.0, 3.0)]
    for V in clouds:
        assert V == CellCloud.from_indices(V.scale, V.indices)
