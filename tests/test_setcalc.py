"""Sumset calculus tests: the two semantics, exact covers for dilation
and products, graph sums, and the bitmask kernel against the double-loop
oracles of `_oracles.py`."""
import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from deltagrid import (MAX_INDEX, MAX_SPAN, GridSet1, GridSet2, PreconditionError,
                       Scale, SumSemantics, diffset, dilate, gen_cantor,
                       gen_random_frostman, graph_sum, make_interval, nfold_product,
                       nfold_sum, reflect, renormalized_find_expander, sumset,
                       uniform_on)
from deltagrid import expand, setcalc
from deltagrid.setcalc import diffset_count, dilated_sum_counts, sumset_count

from _oracles import naive_diffset, naive_sumset

IDX = SumSemantics.INDEX
COV = SumSemantics.COVER


def _set(n, idx):
    return GridSet1.from_indices(Scale(n), idx)


def test_sum_examples():
    assert sumset(_set(4, [0, 2]), _set(4, [0, 1]), IDX).indices.tolist() == [0, 1, 2, 3]
    ap = _set(4, range(8))
    assert sumset(ap, ap, IDX).indices.tolist() == list(range(15))
    cantor = _set(4, [0, 3, 12, 15])
    s = sumset(cantor, cantor, IDX)
    assert s.indices.tolist() == [0, 3, 6, 12, 15, 18, 24, 27, 30]
    assert s.count == 9


def test_sum_cover_semantics():
    # COVER adds the i+j+1 cell: true Minkowski cover of half-open cells
    s = sumset(_set(3, [0]), _set(3, [0]), COV)
    assert s.indices.tolist() == [0, 1]
    a = _set(5, [1, 4, 9])
    i = sumset(a, a, IDX)
    c = sumset(a, a, COV)
    assert set(i.indices.tolist()) <= set(c.indices.tolist())
    assert c.count <= 2 * i.count


def test_diff_examples():
    ap = _set(4, range(8))
    assert diffset(ap, ap, IDX).indices.tolist() == list(range(-7, 8))
    assert diffset(_set(4, [5]), _set(4, [2]), IDX).indices.tolist() == [3]
    cantor = _set(4, [0, 3, 12, 15])
    d = diffset(cantor, cantor, IDX)
    assert d.count == 9
    assert d.indices.tolist() == sorted(-v for v in d.indices.tolist())


def test_reflect():
    a = _set(4, [-3, 0, 5])
    assert reflect(a).indices.tolist() == [-5, 0, 3]
    assert reflect(reflect(a)) == a


def test_dilate_examples():
    a = _set(5, [2, 7])
    assert dilate(a, 1) == a
    assert dilate(_set(4, [0, 1]), 2).indices.tolist() == [0, 1, 2, 3]
    # [3d, 4d) / 3 = [d, 4d/3): inside cell 1 only
    assert dilate(_set(4, [3]), Fraction(1, 3)).indices.tolist() == [1]
    with pytest.raises(PreconditionError):
        dilate(a, 0)


def test_dilate_inverse_contains():
    rng = np.random.default_rng(15)
    for _ in range(40):
        a = _set(6, rng.integers(-30, 30, size=rng.integers(1, 12)))
        p = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        back = dilate(dilate(a, p), 1 / p)
        assert set(a.indices.tolist()) <= set(back.indices.tolist())


def _dilate_per_cell(A, x):
    """x*A covered one cell at a time, in delta/q units: the image of cell i
    runs from p*i to p*(i+1), and its top end is attained only for x < 0."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    idx = A.indices
    lo, hi = p * idx, p * (idx + 1)
    if p < 0:
        lo, hi = hi, lo
    k_last = hi // q if p < 0 else (hi - 1) // q
    return GridSet1.from_ranges(A.scale, lo // q, k_last)


def _long_runs_set(n, base, rng):
    """Two to six runs of 1 to 2**12 cells with gaps of 1 to 40 cells."""
    cells, pos = [], base
    for _ in range(int(rng.integers(2, 7))):
        length = int(rng.choice([1, 2, 3, int(rng.integers(4, 1 << 12)), 1 << 12]))
        cells.append(np.arange(pos, pos + length))
        pos += length + int(rng.integers(1, 41))
    return _set(n, np.concatenate(cells))


def test_dilate_exact_cover_oracle():
    # every output cell must intersect x*(some input cell), and every
    # input cell's image must be covered; rational interval arithmetic
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        a = _set(n, rng.integers(-20, 20, size=rng.integers(1, 8)))
        x = Fraction(int(rng.integers(-8, 9)) or 1, int(rng.integers(1, 9)))
        out = set(dilate(a, x).indices.tolist())
        expect = set()
        for i in a.indices.tolist():
            lo, hi = sorted((x * i, x * (i + 1)))
            # image of the half-open cell: [lo, hi) for x>0, (lo, hi] for x<0
            k = lo.numerator // lo.denominator  # floor
            while Fraction(k) <= hi:
                meets_top = Fraction(k) < hi if x > 0 else Fraction(k) <= hi
                if meets_top and k + 1 > lo:
                    expect.add(k)
                k += 1
        assert out == expect
        assert dilate(a, x) == _dilate_per_cell(a, x)
    # runs of up to 2**12 cells, runs across 0, offsets near +-2**40, and
    # factors of either sign with denominators above 1, against the
    # per-cell cover
    for _ in range(40):
        base = int(rng.choice([-(1 << 40), -3000, -5, 0, (1 << 40) - 9000]))
        a = _long_runs_set(20, base + int(rng.integers(-50, 50)), rng)
        x = Fraction(int(rng.integers(-1000, 1001)) or -1, int(rng.integers(2, 1000)))
        for y in (x, -x, 1 / x, Fraction(x.numerator)):
            assert dilate(a, y) == _dilate_per_cell(a, y), (a, y)
    across = make_interval(Scale(12), Fraction(-5, 4), Fraction(3, 2))
    assert across.min_index < 0 < across.max_index
    for y in (Fraction(-7, 3), Fraction(5, 8), Fraction(-1, 4096), 3):
        assert dilate(across, y) == _dilate_per_cell(across, y)


def test_dilate_memory_grows_with_runs_not_cells():
    # one run of 2**22 cells maps to one range: the peak is the 4 MiB input
    # and the 12 MiB result, where int64 arrays per cell took 32 MiB each
    tracemalloc.start()
    try:
        R = dilate(make_interval(Scale(22), 0, 1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R == make_interval(Scale(22), 0, 3)
    assert peak < 64 << 20, peak


def test_nfold_sum():
    a = _set(4, [0, 1])
    assert nfold_sum(a, 1, IDX) == a
    assert nfold_sum(a, 5, IDX).indices.tolist() == list(range(6))
    cantor = _set(4, [0, 3, 12, 15])
    brute = {x + y + z for x in (0, 3, 12, 15) for y in (0, 3, 12, 15)
             for z in (0, 3, 12, 15)}
    got = nfold_sum(cantor, 3, IDX)
    assert got.indices.tolist() == sorted(brute)
    assert got.count == 16


def test_nfold_product():
    a = _set(4, [16])  # the cell [1, 1+d) at n=4
    assert nfold_product(a, 1) == a
    # [1, (1+d)^2) = [1, 1+2d+d^2): cells 16, 17, 18
    assert nfold_product(a, 2).indices.tolist() == [16, 17, 18]
    zero = _set(4, [0])
    assert nfold_product(zero, 2).indices.tolist() == [0]


def _product_cover_per_cell(P, A):
    """Cover of the pointwise product of P and A, one pair of cells at a
    time, in delta**2 units: corner 0 (both factors at their closed left
    ends) is the only corner attained."""
    ii = np.repeat(P.indices, A.count)
    jj = np.tile(A.indices, P.count)
    c = np.stack((ii * jj, ii * (jj + 1), (ii + 1) * jj, (ii + 1) * (jj + 1)))
    lo, hi = c.min(axis=0), c.max(axis=0)
    u = 1 << P.scale.n
    k_last = np.where(hi == c[0], hi // u, (hi - 1) // u)
    return GridSet1.from_ranges(P.scale, lo // u, k_last)


def test_nfold_product_interval_oracle(monkeypatch):
    # folded product of the cover of [1,2) against rational intervals
    for n in (3, 5, 8):
        A = make_interval(Scale(n), 1, 2)
        acc = A
        for N in (2, 3):
            got = nfold_product(A, N)
            acc = _product_cover_per_cell(acc, A)
            assert got == acc
            # [1, 2^N) exactly: products of N values in [1,2)
            expect = make_interval(Scale(n), 1, 2 ** N)
            # product cover may shave the open top endpoint's cell
            assert set(got.indices.tolist()) <= set(expect.indices.tolist())
            assert got.min_index == expect.min_index
            assert got.count >= expect.count - 1
    # runs of up to 2**12 cells, runs across 0, factors of either sign and
    # one factor near +-2**40 against small ones, against the per-cell cover
    rng = np.random.default_rng(9)
    across = make_interval(Scale(6), Fraction(-5, 4), Fraction(3, 2))
    assert across.min_index < 0 < across.max_index
    for A in (across, _set(6, [-3, -1, 0, 2, 5]), reflect(across)):
        assert nfold_product(A, 2) == _product_cover_per_cell(A, A)
        assert nfold_product(A, 3) == _product_cover_per_cell(_product_cover_per_cell(A, A), A)
    for _ in range(20):
        base = int(rng.choice([-(1 << 40), -3000, -5, 0, (1 << 40) - 9000]))
        # at n = 30 a factor near 2**40 scales the small one by about 2**10
        n = 30 if abs(base) > 1 << 20 else int(rng.integers(0, 13))
        P = _long_runs_set(n, base + int(rng.integers(-50, 50)), rng)
        A = _set(n, rng.integers(-12, 12, size=int(rng.integers(1, 8))))
        for X, Y in ((P, A), (A, P), (reflect(P), A)):
            want = _product_cover_per_cell(X, Y)
            # the pairs at once, and in blocks of one run pair, of part of a
            # row, and of several rows
            for block in (1 << 20, 1, 3, 7):
                monkeypatch.setattr(setcalc, "_PAIR_BLOCK", block)
                assert setcalc._product_cover_pairs(X, Y) == want
            monkeypatch.undo()
    # a top cell that only the bound from the extreme corners reaches is
    # cropped, and a span over the cap is named exactly, in one block or many
    u = 1 << 6
    P, A = _set(6, [u, u + 2]), make_interval(Scale(6), 1, 2)
    far = _set(0, [1, 9000])
    with pytest.raises(PreconditionError, match="cell span") as want:
        _product_cover_per_cell(far, far)
    for block in (1 << 20, 1):
        monkeypatch.setattr(setcalc, "_PAIR_BLOCK", block)
        got = setcalc._product_cover_pairs(P, A)
        assert got == _product_cover_per_cell(P, A) and got.max_index == 2 * u + 5
        with pytest.raises(PreconditionError) as err:
            setcalc._product_cover_pairs(far, far)
        assert str(err.value) == str(want.value)


def test_graph_sum_examples():
    g1 = GridSet2.from_indices(Scale(4), [(0, 0)])
    assert graph_sum(g1, 1, COV).indices.tolist() == [0, 1]
    assert graph_sum(g1, 1, IDX).indices.tolist() == [0]
    full = GridSet2.from_indices(Scale(4), [(i, j) for i in range(4) for j in range(4)])
    assert graph_sum(full, 1, IDX).indices.tolist() == list(range(7))
    diag = GridSet2.from_indices(Scale(4), [(i, i) for i in range(4)])
    assert graph_sum(diag, 1, IDX).indices.tolist() == [0, 2, 4, 6]


def test_graph_sum_rational():
    # a + x*b cover against direct rational enumeration
    rng = np.random.default_rng(21)
    for _ in range(30):
        pts = rng.integers(-6, 7, size=(rng.integers(1, 10), 2))
        G = GridSet2.from_indices(Scale(5), pts)
        x = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        out = set(graph_sum(G, x, COV).indices.tolist())
        for a, b in G.indices.tolist():
            lo = a + x * b
            hi = a + 1 + x * (b + 1)
            k = lo.numerator // lo.denominator
            covered = set(range(k, -((-hi.numerator) // hi.denominator) + 1))
            # the exact cover of [lo, hi) must be present
            want = {c for c in covered if c < hi and c + 1 > lo}
            assert want <= out


def _graph_sum_oracle(pairs, x, semantics):
    """Python-int and Fraction enumeration of a graph sum."""
    if semantics is IDX:
        return sorted({a + int(x) * b for a, b in pairs})
    out = set()
    for a, b in pairs:
        ends = (a + x * b, a + x * (b + 1))
        lo, hi = min(ends), max(ends) + 1
        # the supremum is never attained, the infimum only for x > 0
        out.update(range(math.floor(lo), math.ceil(hi)))
    return sorted(out)


def test_graph_sum_wide_indices_raise():
    # both cases used to wrap int64 silently: {0, 1} and {0} came back
    G = GridSet2.from_indices(Scale(30), [(2 ** 40, 2 ** 40)])
    with pytest.raises(PreconditionError):
        graph_sum(G, Fraction(1, 2 ** 30 - 1), COV)
    G = GridSet2.from_indices(Scale(30), [(0, 2 ** 40)])
    with pytest.raises(PreconditionError):
        graph_sum(G, 2 ** 30, IDX)


def test_graph_sum_in_range_matches_python_int_oracle():
    rng = np.random.default_rng(26)
    for _ in range(40):
        base = int(rng.integers(-2 ** 20, 2 ** 20))
        pts = rng.integers(0, 1 << 6, size=(int(rng.integers(1, 12)), 2)) + base
        G = GridSet2.from_indices(Scale(30), pts)
        pairs = G.indices.tolist()
        xi = int(rng.integers(-2 ** 20, 2 ** 20))
        assert graph_sum(G, xi, IDX).indices.tolist() == _graph_sum_oracle(pairs, xi, IDX)
        x = Fraction(int(rng.integers(-2 ** 30, 2 ** 30)) or 1, int(rng.integers(1, 2 ** 30)))
        assert graph_sum(G, x, COV).indices.tolist() == _graph_sum_oracle(pairs, x, COV)


def test_paint_ranges_matches_set_union():
    rng = np.random.default_rng(27)
    for _ in range(30):
        k_first = rng.integers(-500, 500, size=int(rng.integers(1, 40)))
        k_last = k_first + rng.integers(0, 30, size=k_first.size)
        want = sorted({k for a, b in zip(k_first.tolist(), k_last.tolist())
                       for k in range(a, b + 1)})
        assert GridSet1.from_ranges(Scale(10), k_first, k_last).indices.tolist() == want
    # monotone starts (the merge paint) in both directions, and the same
    # ranges unsorted (the difference-array paint), with abutting,
    # overlapping, nested and gapped neighbours, plus single ranges
    for _ in range(60):
        k_first, k_last = _monotone_ranges(rng, int(rng.integers(1, 40)))
        want = sorted({k for a, b in zip(k_first.tolist(), k_last.tolist())
                       for k in range(a, b + 1)})
        order = rng.permutation(k_first.size)
        for f, l in ((k_first, k_last), (k_first[::-1], k_last[::-1]),
                     (k_first[order], k_last[order])):
            assert GridSet1.from_ranges(Scale(10), f, l).indices.tolist() == want
    for f, l in ((7, 7), (-3, 40), (0, 0)):
        got = GridSet1.from_ranges(Scale(10), np.array([f]), np.array([l]))
        assert got.indices.tolist() == list(range(f, l + 1))
    adjacent = GridSet1.from_ranges(Scale(10), np.array([0, 4, 9]), np.array([3, 7, 9]))
    assert adjacent.indices.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 9]


def _monotone_ranges(rng, m):
    """m ranges with ascending starts: each abuts the cells so far, leaves
    a gap, or overlaps or nests in the previous range."""
    firsts = [int(rng.integers(-500, 500))]
    lasts = [firsts[0] + int(rng.integers(0, 30))]
    for _ in range(m - 1):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            f = max(lasts) + 1
        elif kind == 1:
            f = max(lasts) + 2 + int(rng.integers(0, 5))
        else:
            f = firsts[-1] + int(rng.integers(0, 3))
        firsts.append(f)
        lasts.append(f + int(rng.integers(0, 30)))
    return np.array(firsts, dtype=np.int64), np.array(lasts, dtype=np.int64)


def test_index_size_bounds():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = _set(6, rng.integers(0, 60, size=rng.integers(1, 20)))
        b = _set(6, rng.integers(0, 60, size=rng.integers(1, 20)))
        s = sumset(a, b, IDX)
        assert max(a.count, b.count) <= s.count <= a.count * b.count


def test_commutative_associative():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = _set(5, rng.integers(0, 30, size=rng.integers(1, 10)))
        b = _set(5, rng.integers(0, 30, size=rng.integers(1, 10)))
        c = _set(5, rng.integers(0, 30, size=rng.integers(1, 10)))
        assert sumset(a, b, IDX) == sumset(b, a, IDX)
        assert sumset(sumset(a, b, IDX), c, IDX) == sumset(a, sumset(b, c, IDX), IDX)


def test_bitmask_matches_naive(monkeypatch):
    rng = np.random.default_rng(100)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = _set(n, rng.integers(-40, 40, size=rng.integers(1, 24)))
        b = _set(n, rng.integers(-40, 40, size=rng.integers(1, 24)))
        for sem in (IDX, COV):
            assert sumset(a, b, sem) == naive_sumset(a, b, sem)
            assert diffset(a, b, sem) == naive_diffset(a, b, sem)
    # wide spans (up to about 3000 cells) at negative and positive offsets,
    # where the sparser operand has runs up to 300 cells long starting at
    # every residue mod 8; the kernel shifts whole bytes plus start % 8
    for case in range(10):
        base = int(rng.integers(-6000, 3000))
        runs = _runs_set(12, base, rng, [0, *rng.permutation(np.arange(1, 8))])
        rel = runs.indices - runs.offset
        starts = rel[np.concatenate(([0], np.flatnonzero(np.diff(rel) > 1) + 1))]
        assert sorted((starts % 8).tolist()) == list(range(8))
        wide = _set(12, base + 17 - 1000 * (case % 2)
                    + rng.choice(3000, runs.count + int(rng.integers(0, 150)), replace=False))
        assert runs.count <= wide.count
        for a, b in ((runs, wide), (wide, runs), (runs, runs)):
            for sem in (IDX, COV):
                assert sumset(a, b, sem) == naive_sumset(a, b, sem)
                assert diffset(a, b, sem) == naive_diffset(a, b, sem)
    # single-cell operands, alone and against wide sets
    for a in (_set(12, [-5]), _set(12, [8]), _set(12, [2999])):
        for b in (a, _set(12, [-1003]), _runs_set(12, -70, rng, range(8)), wide):
            for sem in (IDX, COV):
                assert sumset(a, b, sem) == naive_sumset(a, b, sem)
                assert sumset(b, a, sem) == naive_sumset(b, a, sem)
                assert diffset(a, b, sem) == naive_diffset(a, b, sem)
                assert diffset(b, a, sem) == naive_diffset(b, a, sem)
    # kernel bits (the operands' spans added) just below, at and just above
    # the accumulator threshold, so INDEX and COVER results span up to it
    # exactly; then small sums forced through either accumulator
    T = setcalc._INT_SUM_BITS
    for nbits in (T - 1, T, T + 1):
        sa = int(rng.integers(1, nbits))
        a = _set(16, [0, sa - 1, *rng.integers(0, sa, size=6)])
        b = _set(16, np.array([0, nbits - sa - 1, *rng.integers(0, nbits - sa, size=6)]) - 5000)
        assert a.bits.size + b.bits.size == nbits
        for sem in (IDX, COV):
            assert sumset(a, b, sem) == naive_sumset(a, b, sem)
            assert diffset(b, a, sem) == naive_diffset(b, a, sem)
    for threshold in (0, 1 << 30):
        monkeypatch.setattr(setcalc, "_INT_SUM_BITS", threshold)
        for _ in range(20):
            a = _set(8, rng.integers(-40, 40, size=rng.integers(1, 24)))
            b = _set(8, rng.integers(-40, 40, size=rng.integers(1, 24)))
            for sem in (IDX, COV):
                assert sumset(a, b, sem) == naive_sumset(a, b, sem)
                assert diffset(a, b, sem) == naive_diffset(a, b, sem)


def _runs_set(n, base, rng, residues):
    """Maximal runs, one per residue (the first must be 0), each starting
    at that residue mod 8 relative to the first cell; one run is 100 to
    300 cells long."""
    long_run = int(rng.integers(0, len(residues)))
    cells, pos = [], 0
    for t, r in enumerate(residues):
        pos += (int(r) - pos) % 8 + 8 * int(rng.integers(0, 3))
        length = (int(rng.integers(100, 301)) if t == long_run
                  else int(rng.choice([1, 2, 3, 7, 8, 9, 17])))
        cells.extend(range(pos, pos + length))
        pos += length + 1
    return _set(n, np.array(cells) + base)


def test_scale_mismatch_rejected():
    with pytest.raises(PreconditionError):
        sumset(_set(3, [0]), _set(4, [0]), IDX)


def _counts_by_sumset(A, xs, add=sumset):
    return [add(A, dilate(A, x), COV).count for x in xs]


def test_dilated_sum_counts_match_sumset_and_naive(monkeypatch):
    rng = np.random.default_rng(12)
    # small sets against the naive oracle, factors of both signs
    for _ in range(12):
        n = int(rng.integers(3, 9))
        A = _set(n, rng.integers(-40, 40, size=int(rng.integers(1, 16))))
        xs = [Fraction(int(rng.integers(-40, 41)) or 1, int(rng.integers(1, 12)))
              for _ in range(6)]
        assert dilated_sum_counts(A, xs) == _counts_by_sumset(A, xs, naive_sumset)
    # Cantor and random-Frostman sets, at sizes on both sides of the
    # accumulator threshold, with factors of both signs
    sets = [gen_cantor(Scale(10), 4, (0, 3), 5), gen_cantor(Scale(16), 4, (0, 3), 8),
            gen_random_frostman(Scale(12), 0.6, 5), gen_random_frostman(Scale(16), 0.5, 2)]
    kernel_bits = [2 * A.bits.size for A in sets]  # A + xA for x near 1
    assert min(kernel_bits) < setcalc._INT_SUM_BITS < max(kernel_bits)
    for A in sets:
        xs = [Fraction(int(k), 64) for k in rng.integers(1, 129, size=5)]
        xs += [-x for x in xs[:3]] + [Fraction(-1, 3), Fraction(7, 5)]
        assert dilated_sum_counts(A, xs) == _counts_by_sumset(A, xs)
    # both sweeps of the renormalized expander, as it passes them
    calls = []

    def recording(A, xs):
        calls.append((A, list(xs)))
        return dilated_sum_counts(A, xs)

    monkeypatch.setattr(expand, "dilated_sum_counts", recording)
    for A in sets[1:3]:
        rep = renormalized_find_expander(A, uniform_on(A), 0.5)
        assert rep.renorm_records and rep.records
    assert len(calls) == 2
    for A, xs in calls:
        assert dilated_sum_counts(A, xs) == _counts_by_sumset(A, xs)
    assert dilated_sum_counts(GridSet1.empty(Scale(6)), [1, Fraction(-1, 2)]) == [0, 0]
    assert dilated_sum_counts(sets[0], []) == []


def test_empty_operands_give_empty_sets():
    """Every sum and difference with an empty operand is empty, and
    reflecting or translating an empty set returns it unchanged."""
    s = Scale(6)
    empty, A = GridSet1.empty(s), _set(6, [1, 2, 9])
    for X, Y in ((empty, A), (A, empty), (empty, empty)):
        for op in (sumset, diffset):
            for sem in (IDX, COV):
                assert op(X, Y, sem) == empty
    assert reflect(empty) is empty
    assert empty.translate(5) is empty


def test_dilated_sum_counts_raise_as_sumset_of_dilate():
    """The same PreconditionError as sumset(A, dilate(A, x), COVER) at the
    first x that has one, with the dilation's checks before the sum's."""
    cases = [
        (_set(6, [0, 3]), [1, 0]),  # zero factor
        (_set(6, [0, 3]), [2, Fraction(1, 2 ** 31)]),  # factor magnitude
        (_set(30, [2 ** 40]), [1, 2 ** 30]),  # dilated indices
        (_set(30, [0, 2 ** 20]), [2, 2 ** 7]),  # dilated span (the sum's too)
        (_set(30, [MAX_INDEX // 4]), [1, 3]),  # sum indices
        (_set(6, [0, MAX_SPAN // 2]), [Fraction(1, 2 ** 20), 1]),  # sum span
    ]
    messages = set()
    for A, xs in cases:
        with pytest.raises(PreconditionError) as want:
            _counts_by_sumset(A, xs)
        with pytest.raises(PreconditionError) as got:
            dilated_sum_counts(A, xs)
        assert str(got.value) == str(want.value)
        messages.add(str(want.value))
    assert len(messages) == len(cases)  # each case stops at a different check


def test_dilated_sum_counts_memo_flushes_over_new_run_lengths(monkeypatch):
    # an interval of 2**20 cells: each dilation is one run of a new length,
    # so each candidate adds two values of about 256 KiB to the memo
    A = make_interval(Scale(20), 0, 1)
    xs = [Fraction(64 + k, 64) for k in range(60)]
    tracemalloc.start()
    try:
        counts = dilated_sum_counts(A, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [math.ceil((1 + x) * A.count) for x in xs]
    assert peak < setcalc._MEMO_BYTES + (8 << 20), peak
    # a small budget flushes mid-sweep: a repeated factor rebuilds its run
    built = []
    doubled = setcalc._doubled

    def counting(mask, length):
        built.append(length)
        return doubled(mask, length)

    monkeypatch.setattr(setcalc, "_doubled", counting)
    xs = [Fraction(3, 2), Fraction(-5, 4), Fraction(7, 4), Fraction(3, 2)]
    want = _counts_by_sumset(A, xs)
    for budget, builds in ((1 << 40, 3), (1 << 20, 4)):
        monkeypatch.setattr(setcalc, "_MEMO_BYTES", budget)
        built.clear()
        assert dilated_sum_counts(A, xs) == want
        assert len(built) == builds, (budget, built)


def test_sum_range_guard_is_exact():
    M = MAX_INDEX
    # every result cell inside (-MAX_INDEX, MAX_INDEX) is allowed, and no other
    assert sumset(_set(30, [M - 10]), _set(30, [9]), IDX).indices.tolist() == [M - 1]
    assert sumset(_set(30, [M - 10]), _set(30, [8]), COV).indices.tolist() == [M - 2, M - 1]
    assert sumset(_set(30, [10 - M]), _set(30, [-9]), IDX).indices.tolist() == [1 - M]
    for a, b, sem in ((M - 10, 10, IDX), (M - 10, 9, COV), (10 - M, -10, IDX)):
        with pytest.raises(PreconditionError, match="guarded integer range"):
            sumset(_set(30, [a]), _set(30, [b]), sem)
    # near +MAX_INDEX a set reflects to near -MAX_INDEX, so A - A is allowed
    A = _set(30, [M - 10, M - 5])
    assert reflect(A).indices.tolist() == [5 - M, 10 - M]
    for sem, want in ((IDX, [-5, 0, 5]), (COV, [-6, -5, -1, 0, 4, 5])):
        assert diffset(A, A, sem).indices.tolist() == want
        assert diffset(A, A, sem) == naive_diffset(A, A, sem)


def _outcome(fn):
    """fn()'s value, or the message of the PreconditionError it raises."""
    try:
        return fn()
    except PreconditionError as e:
        return f"error: {e}"


def _count_operand(rng, M):
    """A seeded operand for the count tests: empty, one cell, a few cells in
    a short or a wide span (the wide ones past the int accumulator), or a
    run set; placed near 0, ending at 0, or near either end of the guarded
    index range."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return GridSet1.empty(Scale(30))
    span = int(rng.choice([1, 8, 64, 40_000])) if kind < 4 else 120
    cells = ([0] if kind == 1 else
             [0, span - 1, *rng.integers(0, span, size=int(rng.integers(0, 14)))] if kind < 4 else
             [c for r in range(0, span, 10) for c in range(r, r + int(rng.integers(1, 8)))])
    span = max(cells) + 1
    base = int(rng.choice([int(rng.integers(-1000, 1000)), 1 - span, M - span - int(rng.integers(0, 4)),
                           1 - M + int(rng.integers(0, 4))]))
    return _set(30, np.array(cells) + base)


def test_sum_counts_match_sets_and_naive():
    """sumset_count and diffset_count give the count of the set sumset and
    diffset build, and of the double-loop oracle, over 3,000 seeded operand
    pairs in both semantics; where the set path raises a PreconditionError
    the count raises the same message."""
    rng = np.random.default_rng(280)
    M = MAX_INDEX
    raised = set()
    for _ in range(3000):
        A, B = _count_operand(rng, M), _count_operand(rng, M)
        for sem in (IDX, COV):
            for build, count, naive in ((sumset, sumset_count, naive_sumset),
                                        (diffset, diffset_count, naive_diffset)):
                want = _outcome(lambda: build(A, B, sem).count)
                assert _outcome(lambda: count(A, B, sem)) == want, (A, B, sem, build)
                if isinstance(want, str):
                    raised.add(want)
                elif A.count * B.count <= 64:
                    assert naive(A, B, sem).count == want
    assert raised == {"error: sum indices would leave the guarded integer range",
                      "error: cell indices out of guarded range"}


def test_sum_counts_at_the_range_edges():
    """A COVER difference reaches one cell further left than A + (-B): it is
    refused where its first cell A.min - B.max - 1 leaves the range, though
    the INDEX difference and the sums are allowed there."""
    M = MAX_INDEX
    A, B = _set(30, [1 - M, 5 - M]), _set(30, [-2, 0])
    for sem in (IDX, COV):
        C = B.translate(2)
        assert sumset_count(A, C, sem) == sumset(A, C, sem).count == naive_sumset(A, C, sem).count
    assert diffset_count(A, B, IDX) == diffset(A, B, IDX).count == 4
    for fn in (diffset, diffset_count):
        with pytest.raises(PreconditionError, match="^cell indices out of guarded range$"):
            fn(A, B, COV)
    # one cell further right, the COVER difference fits
    A1 = A.translate(1)
    assert diffset_count(A1, B, COV) == diffset(A1, B, COV).count == naive_diffset(A1, B, COV).count
    assert diffset(A1, B, COV).min_index == 1 - M
    for fn in (sumset_count, diffset_count):
        with pytest.raises(PreconditionError, match="^operands must share one scale$"):
            fn(_set(3, [0]), _set(4, [0]), IDX)
        assert fn(GridSet1.empty(Scale(4)), _set(4, [0]), COV) == 0
