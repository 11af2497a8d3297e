"""Sumset calculus tests: the two semantics, exact covers for dilation
and products, graph sums, and bitmask-vs-naive equivalence."""
import math

import numpy as np
import pytest
from fractions import Fraction

from deltagrid import (GridSet1, GridSet2, PreconditionError, Scale,
                       SumSemantics, diffset, dilate, gen_cantor, graph_sum,
                       make_interval, nfold_product, nfold_sum, reflect, sumset)

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


def test_nfold_product_interval_oracle():
    # folded product of the cover of [1,2) against rational intervals
    for n in (3, 5, 8):
        A = make_interval(Scale(n), 1, 2)
        for N in (2, 3):
            got = nfold_product(A, N)
            # [1, 2^N) exactly: products of N values in [1,2)
            expect = make_interval(Scale(n), 1, 2 ** N)
            # product cover may shave the open top endpoint's cell
            assert set(got.indices.tolist()) <= set(expect.indices.tolist())
            assert got.min_index == expect.min_index
            assert got.count >= expect.count - 1


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


def test_bitmask_matches_naive():
    rng = np.random.default_rng(100)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = _set(n, rng.integers(-40, 40, size=rng.integers(1, 24)))
        b = _set(n, rng.integers(-40, 40, size=rng.integers(1, 24)))
        for sem in (IDX, COV):
            assert sumset(a, b, sem) == sumset(a, b, sem, method="naive")
            assert diffset(a, b, sem) == diffset(a, b, sem, method="naive")
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
                assert sumset(a, b, sem) == sumset(a, b, sem, method="naive")
                assert diffset(a, b, sem) == diffset(a, b, sem, method="naive")
    # single-cell operands, alone and against wide sets
    for a in (_set(12, [-5]), _set(12, [8]), _set(12, [2999])):
        for b in (a, _set(12, [-1003]), _runs_set(12, -70, rng, range(8)), wide):
            for sem in (IDX, COV):
                assert sumset(a, b, sem) == sumset(a, b, sem, method="naive")
                assert sumset(b, a, sem) == sumset(b, a, sem, method="naive")
                assert diffset(a, b, sem) == diffset(a, b, sem, method="naive")
                assert diffset(b, a, sem) == diffset(b, a, sem, method="naive")


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
