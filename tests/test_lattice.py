"""Lattice tests: translate search against the averaging bound with an
independent recount, the slab-collision witness invariants, canonical
rasters, blocked rasters and the sorted-rows kernel against their
whole-array oracles, and the integer projection measure against a
Fraction oracle."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from deltagrid import (CellCloud, GridSet1, GridSet2, PreconditionError, Scale,
                       blichfeldt_translate, count_lattice_points,
                       make_interval, slab_collision)
from deltagrid import lattice
from deltagrid.grid import _digest
from deltagrid.grid import MAX_INDEX
from deltagrid.lattice import _exact_projection_measure, _raster_slab

from _oracles import (merged_projection_measure, residue_histogram, unique_rows,
                      whole_cube_slab, whole_square_disc)


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
    S = GridSet1.from_indices(Scale(3), [0, 1, 4, 5, 6])
    V = CellCloud.from_indices(S.scale, S.indices)
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


SPACINGS = (1, 2, 3, 7, 32, 1 << 40)


def _same_translates(V, rows):
    """blichfeldt_translate on V against the np.unique residue histogram of
    rows, at every spacing of SPACINGS cells."""
    for k in SPACINGS:
        res = blichfeldt_translate(V, Fraction(k, 1 << V.scale.n))
        shift, count = residue_histogram(rows, k)
        assert res.translation == tuple(Fraction(r, 1 << V.scale.n) for r in shift), k
        assert res.count == count, k
        assert res.examined_shifts == k ** rows.shape[1]


def test_slab_raster_matches_the_whole_cube():
    # directions on the 1/64 grid of the benchmark's collision inputs, and
    # the benchmark's seed-0 input first
    rng = np.random.default_rng(43)
    cases = [(2, 4, 16.0, (0.796875, 0.65625))]
    cases += [(n, depth, R, tuple(0.5 + int(t) / 64 for t in rng.integers(0, 33, size=n)))
              for n in (2, 3) for depth in range(6) for R in (0.25, 1.0, 3.0, 16.0)]
    checked = refused = 0
    for n, depth, R, v in cases:
        u = np.array(v) / float(np.linalg.norm(v))
        try:
            want = whole_cube_slab(Scale(depth), u, R)
        except PreconditionError:
            with pytest.raises(PreconditionError, match="slab raster would need"):
                _raster_slab(Scale(depth), u, R)
            refused += 1
            continue
        V = _raster_slab(Scale(depth), u, R)
        assert np.array_equal(V.indices, want), (n, depth, R, v)
        if want.shape[0] <= 40_000:  # np.unique's histogram is the slow side
            _same_translates(V, want)
            checked += 1
    assert checked >= 35 and refused >= 4


def test_disc_raster_matches_the_whole_square():
    rng = np.random.default_rng(47)
    for case in range(60):
        depth = case % 8
        radius = float(rng.choice([2.0 ** -depth / 3, 0.5, float(rng.uniform(0.01, 3.0))]))
        center = tuple(float(c) for c in rng.uniform(-4.0, 4.0, size=2))
        if case % 5 == 0:
            center = (0.0, 0.0)
        want = whole_square_disc(Scale(depth), radius, center)
        V = CellCloud.disc(Scale(depth), radius, center)
        assert np.array_equal(V.indices, want), (depth, radius, center)
        if case % 4 == 0:
            _same_translates(V, want)


def test_cloud_rows_match_np_unique():
    rng = np.random.default_rng(53)
    for case in range(90):
        dim = 1 + case % 3
        m = int(rng.integers(1, 300))
        hi = int(rng.choice([2, 5, 1 << 20, MAX_INDEX - 1]))
        rows = rng.integers(-hi, hi, size=(m, dim), endpoint=True)
        if case % 2:  # duplicates
            rows = np.concatenate([rows, rows[rng.integers(0, m, size=m)]])
        rng.shuffle(rows)
        want = unique_rows(rows)
        V = CellCloud.from_indices(Scale(3), rows)
        assert np.array_equal(V.indices, want), case
        _same_translates(V, want)


def test_translate_ties_break_to_the_smallest_shift():
    # at 2**40 cells the four residues tie at one each; negative rows
    # wrap to the top of [0, 2**40), so (0, 7) is the smallest
    rows = [(3, -1), (-5, 2), (0, 7), (3, -1), (-5, 2), (9, 9)]
    V = CellCloud.from_indices(Scale(0), rows)
    _same_translates(V, unique_rows(rows))
    res = blichfeldt_translate(V, 1 << 40)
    assert (res.translation, res.count) == ((0, 7), 1)


def test_translate_search_reads_grid_sets_in_place():
    """A grid set's cells are read where they are, in its own order (a
    GridSet2 lists them by row): the search and the recount give what they
    give on the cloud of those cells, and the search what the np.unique
    histogram gives, at every spacing of SPACINGS cells."""
    rng = np.random.default_rng(27)
    for case in range(40):
        n = int(rng.integers(0, 31))
        far = int(rng.choice([0, 1 << 40, (1 << 61) - 64]))
        offset = int(rng.integers(-far - 64, far + 1))
        if case % 2:
            S = GridSet1.from_indices(Scale(n), offset + rng.choice(64, size=24))
            rows = S.indices[:, None]
        else:
            h, w = (int(x) for x in rng.integers(1, 9, size=2))
            S = GridSet2.from_bits(Scale(n), (offset, -offset), rng.random((h, w)) < 0.4)
            if S.is_empty:
                continue
            if case % 4:
                S = GridSet2.from_runs(Scale(n), S.runs)
            rows = S.indices
        V = CellCloud.from_indices(S.scale, S.indices)
        _same_translates(S, unique_rows(rows))
        for k in SPACINGS:
            s = Fraction(k, 1 << n)
            res = blichfeldt_translate(S, s)
            assert res == blichfeldt_translate(V, s), (case, k)
            shifts = [res.translation, tuple(Fraction(int(t), 1 << n) for t in rows[0] - 1)]
            for shift in shifts:
                assert count_lattice_points(S, s, shift) == count_lattice_points(V, s, shift)
            assert count_lattice_points(S, s, res.translation) == res.count


def test_translate_search_refuses_empty_sets_and_non_sets():
    for search in (lambda V: blichfeldt_translate(V, 1),
                   lambda V: count_lattice_points(V, 1, (0,))):
        for E in (GridSet1.empty(Scale(3)), GridSet2.empty(Scale(3))):
            with pytest.raises(PreconditionError, match="^cell cloud must be nonempty$"):
                search(E)
        with pytest.raises(PreconditionError, match="^unsupported operand type list$"):
            search([[0, 1]])


def test_cloud_refuses_indices_out_of_range():
    ok = CellCloud.from_indices(Scale(0), [[MAX_INDEX - 1], [-MAX_INDEX + 1]])
    assert ok.indices.tolist() == [[-MAX_INDEX + 1], [MAX_INDEX - 1]]
    for rows in ([[2 ** 63]], [[2 ** 64, 0]], [[-2 ** 63]], [[0, MAX_INDEX]],
                 [[-MAX_INDEX, 0]], np.array([[2 ** 63 + 5]], dtype=np.uint64)):
        with pytest.raises(PreconditionError, match="cell indices out of guarded range"):
            CellCloud.from_indices(Scale(0), rows)
    with pytest.raises(PreconditionError, match="dimension must be 1, 2, or 3"):
        CellCloud.from_indices(Scale(0), np.zeros((2, 4), dtype=np.int64))
    assert count_lattice_points(ok, 1, (-MAX_INDEX,)) == 2
    # a recount refuses what the search refuses, where it once truncated
    # the spacing or the shift to whole cells, or took residues mod 0
    for s, shift, match in ((1, (MAX_INDEX + 1,), "translation exceeds 2\\*\\*62 cells"),
                            (1, (0.5,), "translation 1/2 is not a multiple"),
                            (0.5, (0,), "spacing 1/2 is not a multiple"),
                            (0, (0,), "lattice spacing must be positive"),
                            (MAX_INDEX + 1, (0,), "spacing exceeds 2\\*\\*62 cells")):
        with pytest.raises(PreconditionError, match=match):
            count_lattice_points(ok, s, shift)


def test_disc_refusals_come_before_the_raster(monkeypatch):
    def no_raster(*args):
        raise AssertionError("disc raster built before its checks")

    monkeypatch.setattr(lattice, "_filtered_raster", no_raster)
    for radius in (math.inf, math.nan, 0.0, -1.0, 1e308):
        with pytest.raises(PreconditionError, match="radius|disc raster"):
            CellCloud.disc(Scale(30), radius)
    # (2k+1)**2 = 4,194,324,000,025 cells, over _MAX_RASTER
    with pytest.raises(PreconditionError, match=r"disc raster would need 2048005\*\*2 cells"):
        CellCloud.disc(Scale(10), 1000.0)
    for center in ((math.inf, 0.0), (0.0, math.nan), (2.0 ** 53, 0.0)):
        with pytest.raises(PreconditionError, match="disc center out of guarded range"):
            CellCloud.disc(Scale(10), 1.0, center)
    # the center cell, the last float below 2**62, is in range, but the
    # 1,205 cells of the raster around it are not
    with pytest.raises(PreconditionError, match="cell indices out of guarded range"):
        CellCloud.disc(Scale(0), 600.0, (float(MAX_INDEX - 512), 0.0))


def test_slab_raster_is_built_a_block_at_a_time():
    # the benchmark's collision input: a 517**2-cell cube keeps 17,158 cells;
    # filtering the whole cube at once traces 16.3 MiB
    v = np.array([0.796875, 0.65625])
    tracemalloc.start()
    try:
        V = _raster_slab(Scale(4), v / float(np.linalg.norm(v)), 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.count == 17158
    assert peak <= 2 << 20, peak


def test_translate_search_counts_a_line_set_from_its_runs():
    """A GridSet1 with no more residues than cells counts them from its
    runs: the modal residue and its count are the np.unique histogram's,
    the smallest residue among ties.  Seeded sets of single cells and of
    runs longer and shorter than k, offsets up to +-2**61, k from 1 to past
    the cell count (where the rows are sorted)."""
    rng = np.random.default_rng(283)
    for case in range(400):
        n = int(rng.integers(0, 31))
        far = int(rng.choice([0, 1 << 40, (1 << 61) - 4096]))
        base = int(rng.integers(-far - 64, far + 1))
        if case % 2:
            cells = rng.choice(600, size=int(rng.integers(1, 60)))
        else:
            starts = np.cumsum(rng.integers(1, 40, size=int(rng.integers(1, 12))))
            cells = np.concatenate([np.arange(s, s + int(rng.integers(1, 30))) for s in starts])
        S = GridSet1.from_indices(Scale(n), base + cells)
        k = int(rng.choice([1, S.count, int(rng.integers(1, S.count + 1)), S.count + 1]))
        res = blichfeldt_translate(S, Fraction(k, 1 << n))
        shift = tuple(int(t * (1 << n)) for t in res.translation)
        assert (shift, res.count) == residue_histogram(S.indices[:, None], k), (case, k)


def test_translate_search_of_a_long_interval_sorts_no_cells():
    # 2**23 cells at k = 2**22: one run, counted into 2**22 + 1 residues;
    # the sorted rows traced 232 MiB
    V = make_interval(Scale(23), 0, 1)
    tracemalloc.start()
    try:
        res = blichfeldt_translate(V, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.translation == (0,) and res.count == 2 and res.examined_shifts == 1 << 22
    assert peak < 100 << 20, peak
