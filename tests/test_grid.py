"""Grid container tests: canonical forms, generators, neighborhoods,
and the non-concentration scan."""
import array
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from deltagrid import (MAX_INDEX, MAX_SPAN, DyadicMeasure1, DyadicMeasure2, GridSet1, GridSet2,
                       PreconditionError, Scale, as_fraction, cartesian_product, covering_number,
                       gen_cantor, gen_random_frostman, make_interval, neighborhood,
                       nonconcentration_constant)
from deltagrid.grid import _SORT_SPAN, _box, _runs


def test_scale_bounds():
    assert Scale(0).delta == 1.0
    assert Scale(30).delta == 2.0 ** -30
    with pytest.raises(PreconditionError):
        Scale(31)
    with pytest.raises(PreconditionError):
        Scale(-1)


def test_make_interval_basic():
    S = make_interval(Scale(3), 0, 1)
    assert S.count == 8 and S.indices.tolist() == list(range(8))
    assert make_interval(Scale(0), 0, 1).count == 1
    S = make_interval(Scale(4), Fraction(1, 4), Fraction(3, 8))
    assert S.indices.tolist() == [4, 5]


def test_make_interval_rejects_misaligned():
    with pytest.raises(PreconditionError):
        make_interval(Scale(3), Fraction(1, 3), 1)
    with pytest.raises(PreconditionError):
        make_interval(Scale(3), Fraction(1, 2), Fraction(1, 2))


def test_gen_cantor_examples():
    # one grid cell per surviving base-4 block when delta = 4**-levels
    S = gen_cantor(Scale(6), 4, (0, 3), 3)
    assert S.count == 8
    assert gen_cantor(Scale(1), 2, (0, 1), 1) == make_interval(Scale(1), 0, 1)
    S = gen_cantor(Scale(4), 4, (0, 3), 2)
    assert S.indices.tolist() == [0, 3, 12, 15]


def test_gen_cantor_full_digits_is_interval():
    for base, levels, n in ((2, 3, 6), (4, 2, 4), (3, 2, 8)):
        S = gen_cantor(Scale(n), base, range(base), levels)
        assert S == make_interval(Scale(n), 0, 1)


def test_gen_cantor_misaligned_scale():
    with pytest.raises(PreconditionError):
        gen_cantor(Scale(3), 4, (0, 3), 2)  # 4**2 does not divide 2**3 cells


def test_gen_cantor_matches_fraction_oracle():
    """Covers of the digit-string intervals, from exact rationals; in
    bases 3, 5, 6 and 7 the grid does not refine the construction, so
    neighbouring covers touch and merge into one run."""
    rng = np.random.default_rng(8)
    merged = 0
    for case in range(48):
        base = (3, 5, 6, 7)[case % 4]
        dig = sorted(rng.choice(base, size=int(rng.integers(1, base)), replace=False).tolist())
        levels = int(rng.integers(1, 4))
        n = math.ceil(math.log2(base ** levels)) + int(rng.integers(0, 3))
        u, bl = 1 << n, base ** levels
        want = set()
        for string in itertools.product(dig, repeat=levels):
            m = sum(d * base ** (levels - 1 - t) for t, d in enumerate(string))
            lo, hi = Fraction(m, bl) * u, Fraction(m + 1, bl) * u
            want |= set(range(math.floor(lo), math.ceil(hi)))
        want = sorted(want)
        assert gen_cantor(Scale(n), base, dig, levels).indices.tolist() == want
        runs = 1 + sum(b > a + 1 for a, b in zip(want, want[1:]))
        merged += runs < len(dig) ** levels
    assert merged >= 12


def test_gen_random_frostman():
    a = gen_random_frostman(Scale(10), 0.7, seed=5)
    b = gen_random_frostman(Scale(10), 0.7, seed=5)
    assert a == b
    assert not a.is_empty
    assert gen_random_frostman(Scale(0), 0.5, seed=1).indices.tolist() == [0]
    # kappa=1 keeps every child in expectation: density near 1
    full = gen_random_frostman(Scale(10), 1.0, seed=3)
    rep = nonconcentration_constant(full, 1.0)
    assert rep.constant <= 4.0


def test_covering_number():
    assert covering_number(make_interval(Scale(3), 0, 1)) == 8
    assert covering_number(GridSet1.empty(Scale(3))) == 0
    assert covering_number(gen_cantor(Scale(4), 4, (0, 3), 2)) == 4


def test_neighborhood():
    S = GridSet1.from_indices(Scale(4), [0, 5])
    assert neighborhood(S, 0) == S
    single = GridSet1.from_indices(Scale(4), [0])
    d = Scale(4).delta
    assert neighborhood(single, 2 * d).indices.tolist() == [-2, -1, 0, 1, 2]
    assert neighborhood(S, d).indices.tolist() == [-1, 0, 1, 4, 5, 6]
    # output spans of more than MAX_SPAN cells are refused before any work,
    # with the message every span cap gives
    for E in (S, cartesian_product(S, S)):
        for k in (1 << 25, 1 << 70):
            with pytest.raises(PreconditionError, match=r"^cell span \d+ exceeds dense-"):
                neighborhood(E, k * d)


@pytest.mark.parametrize("build", [
    lambda: make_interval(Scale(26), 0, Fraction(MAX_SPAN + 1, MAX_SPAN)),
    lambda: cartesian_product(*[make_interval(Scale(13), 0, Fraction(8193, 8192))] * 2),
], ids=["interval", "product"])
def test_span_refused_before_allocating(build):
    # one cell past the cap: refused before the 64 MiB array is made
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="exceeds dense-representation cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_neighborhood_box_refused_before_allocating():
    # The grown box of one cell at k = 2**12 holds 8193**2 > MAX_SPAN cells;
    # sized as int64 before a check it takes over 1 GiB, so the child caps
    # its own address space there and reports what it raised.
    code = textwrap.dedent("""
        import resource, tracemalloc
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from deltagrid import GridSet1, Scale, cartesian_product, neighborhood
        one = GridSet1.from_indices(Scale(4), [5])
        E = cartesian_product(one, one)
        tracemalloc.start()
        try:
            neighborhood(E, (1 << 12) * Scale(4).delta)
        except Exception as exc:
            print(type(exc).__name__, tracemalloc.get_traced_memory()[1])
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    name, peak = out.stdout.split()
    assert name == "PreconditionError" and int(peak) < 1 << 20


def test_neighborhood_growth_bound():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        S = GridSet1.from_indices(Scale(n), rng.integers(0, 1 << n, size=rng.integers(1, 20)))
        k = int(rng.integers(0, 5))
        r = k * Scale(n).delta
        assert covering_number(neighborhood(S, r)) <= covering_number(S) * (2 * k + 1)


def test_neighborhood_matches_set_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(0, 12))
        base = int(rng.integers(-2 ** 40, 2 ** 40))
        cells = base + rng.integers(0, 30, size=int(rng.integers(1, 12)))
        S = GridSet1.from_indices(Scale(n), cells)
        for k in range(1, 5):
            want = sorted({int(i) + t for i in cells for t in range(-k, k + 1)})
            got = neighborhood(S, Fraction(k, 1 << n))
            assert got.indices.tolist() == want and got.offset == want[0]
    # 2D: the sup-norm ball, from sparse and dense boxes, one cell, one row
    # and one column, at radii up to past the box's own size
    for _ in range(40):
        n = int(rng.integers(0, 12))
        base = rng.integers(-2 ** 40, 2 ** 40, size=2)
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        shape = [(h, w), (1, 1), (1, w), (h, 1)][int(rng.integers(0, 4))]
        cells = base + np.argwhere(rng.random(shape) < rng.uniform(0.05, 0.9))[:, ::-1]
        if not cells.size:
            cells = base[None, :]
        E = GridSet2.from_indices(Scale(n), cells)
        for k in (1, 2, 3, 5, 13):
            want = sorted({(int(i) + s, int(j) + t) for i, j in cells
                           for s in range(-k, k + 1) for t in range(-k, k + 1)},
                          key=lambda c: (c[1], c[0]))
            got = neighborhood(E, Fraction(k, 1 << n))
            assert [tuple(c) for c in got.indices.tolist()] == want
            assert got == GridSet2.from_indices(Scale(n), want)


def test_neighborhood_2d_at_the_cap_fits_in_1_gib():
    # One cell at k = 4095 grows to an 8191 x 8191 box, just inside
    # MAX_SPAN; an int64 copy of that box alone is 512 MiB, so the child
    # caps its own address space at 1 GiB and reports what it made.
    code = textwrap.dedent("""
        import resource, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from deltagrid import GridSet1, Scale, cartesian_product, neighborhood
        one = GridSet1.from_indices(Scale(4), [5])
        t0 = time.perf_counter()
        G = neighborhood(cartesian_product(one, one), 4095 * Scale(4).delta)
        print(G.count, G.offset[0], G.offset[1], time.perf_counter() - t0)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-400:]
    count, ox, oy, seconds = out.stdout.split()
    assert (int(count), int(ox), int(oy)) == (8191 ** 2, 5 - 4095, 5 - 4095)
    assert float(seconds) < 10


def test_nonconcentration_examples():
    rep = nonconcentration_constant(make_interval(Scale(8), 0, 1), 1.0)
    assert 1.0 <= rep.constant <= 2.0
    # singleton: relative mass 1 at r=delta forces C = delta**-kappa
    rep = nonconcentration_constant(GridSet1.from_indices(Scale(4), [7]), 0.5)
    assert rep.constant == pytest.approx(2.0 ** (4 * 0.5))
    assert rep.witness_radius == pytest.approx(Scale(4).delta)
    rep = nonconcentration_constant(gen_cantor(Scale(12), 4, (0, 3), 6), 0.5)
    assert rep.constant <= 8.0
    assert rep.convention == "set"


def test_nonconcentration_monotone_in_kappa():
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = GridSet1.from_indices(Scale(8), rng.integers(0, 256, size=rng.integers(1, 40)))
        prev = None
        for kappa in (0.2, 0.5, 0.8, 1.0):
            c = nonconcentration_constant(S, kappa).constant
            if prev is not None:
                assert c >= prev - 1e-12
            prev = c


def test_witness_consistency():
    # constant * r^kappa must pay for the witnessed relative mass
    rng = np.random.default_rng(11)
    for _ in range(20):
        S = GridSet1.from_indices(Scale(6), rng.integers(0, 64, size=rng.integers(1, 30)))
        rep = nonconcentration_constant(S, 0.6)
        assert rep.constant * rep.witness_radius ** 0.6 >= 1.0 / S.count - 1e-12


def test_empty_product_and_float_fraction():
    s = Scale(4)
    A = GridSet1.from_indices(s, [0, 3])
    for X, Y in ((GridSet1.empty(s), A), (A, GridSet1.empty(s))):
        assert cartesian_product(X, Y) == GridSet2.empty(s)
    # a float is read as the binary64 value it holds, not as its decimal text
    assert as_fraction(0.1) == Fraction(3602879701896397, 1 << 55) != Fraction(1, 10)


def test_cartesian_product():
    z = GridSet1.from_indices(Scale(2), [0])
    assert cartesian_product(z, z).count == 1
    A = GridSet1.from_indices(Scale(4), [0, 7, 9])
    B = GridSet1.from_indices(Scale(4), [1, 2, 3, 5, 8])
    assert cartesian_product(A, B).count == 15
    P = cartesian_product(GridSet1.from_indices(Scale(3), [0, 2]),
                          GridSet1.from_indices(Scale(3), [1]))
    assert sorted(map(tuple, P.indices.tolist())) == [(0, 1), (2, 1)]
    with pytest.raises(PreconditionError):
        cartesian_product(GridSet1.from_indices(Scale(3), [0]),
                          GridSet1.from_indices(Scale(4), [0]))


def test_trim_canonicality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        S = GridSet1.from_indices(Scale(5), rng.integers(-40, 40, size=rng.integers(1, 25)))
        again = GridSet1.from_bits(S.scale, S.offset, S.bits)
        assert again == S
    for _ in range(20):
        pts = rng.integers(-10, 10, size=(rng.integers(1, 20), 2))
        E = GridSet2.from_indices(Scale(5), pts)
        again = GridSet2.from_bits(E.scale, E.offset, E.bits)
        assert again == E
    # edge cases of the 1D trim: nothing set, one cell, one end only
    sc = Scale(5)
    for size in (0, 1, 7, 8, 9, 5000):
        assert GridSet1.from_bits(sc, -3, np.zeros(size, dtype=bool)) == GridSet1.empty(sc)
    assert GridSet1.from_bits(sc, -3, [True]) == GridSet1(sc, -3, np.ones(1, dtype=bool))
    for size in (1, 2, 9, 5000):
        for at in {0, size - 1}:
            bits = np.zeros(size, dtype=bool)
            bits[at] = True
            S = GridSet1.from_bits(sc, -3, bits)
            assert S.indices.tolist() == [at - 3] and S.bits.size == 1
        bits = np.zeros(size + 4, dtype=bool)
        bits[:2] = True
        assert GridSet1.from_bits(sc, 10, bits).indices.tolist() == [10, 11]
        bits = np.zeros(size + 4, dtype=bool)
        bits[-2:] = True
        assert GridSet1.from_bits(sc, 10, bits).indices.tolist() == [size + 12, size + 13]
    # from_bits copies: later writes to the input do not reach the set
    bits = np.array([False, True, True, False])
    S = GridSet1.from_bits(sc, 0, bits)
    bits[2] = False
    assert S.indices.tolist() == [1, 2]


def test_from_bits_is_one_constructor_for_both_dimensions():
    sc = Scale(5)
    plane = np.array([[False, True, False], [True, False, False]])
    # a 1D set flattens its array; a 2D set keeps rows along y
    assert GridSet1.from_bits(sc, 4, plane) == GridSet1.from_indices(sc, [5, 7])
    assert GridSet2.from_bits(sc, (4, 1), plane) == GridSet2.from_indices(sc, [(5, 1), (4, 2)])
    for bits in ([True, False], np.ones((2, 2, 2), dtype=bool), True):
        with pytest.raises(PreconditionError, match="^bits must be a 2D boolean array$"):
            GridSet2.from_bits(sc, (0, 0), bits)
    assert GridSet1.from_bits(sc, 3, True) == GridSet1.from_indices(sc, [3])


def test_gridset_empty_forms():
    e = GridSet1.empty(Scale(4))
    assert e.is_empty and e.count == 0 and e.offset == 0
    e2 = GridSet2.empty(Scale(4))
    assert e2.is_empty and e2.offset == (0, 0)


def test_set_algebra_roundtrip():
    A = GridSet1.from_indices(Scale(5), [3, 4, 9])
    B = GridSet1.from_indices(Scale(5), [4, 9, 11])
    assert A.union(B).count == 4
    assert A.intersect(B).indices.tolist() == [4, 9]
    assert A.difference(B).indices.tolist() == [3]
    assert A.translate(7).indices.tolist() == [10, 11, 16]


def test_union_refuses_a_joint_box_past_the_cap():
    # two cells 2**61 apart: the joint box is refused before it is made
    far = 1 << 61
    for A, B in ((GridSet1.from_indices(Scale(5), [0]), GridSet1.from_indices(Scale(5), [far])),
                 (GridSet2.from_indices(Scale(5), [(0, 0)]),
                  GridSet2.from_indices(Scale(5), [(far, far)]))):
        with pytest.raises(PreconditionError, match="dense-representation cap"):
            A.union(B)


def _cells(X) -> set:
    return set(X.indices.tolist()) if isinstance(X, GridSet1) else set(map(tuple, X.indices.tolist()))


def _random_operands(rng, build, sc):
    """Pairs of sets from `build`: empty, disjoint, nested and overlapping,
    at negative and positive offsets."""
    def pick(m, lo, hi):
        shape = (m,) if build is GridSet1 else (m, 2)
        return build.from_indices(sc, rng.integers(lo, hi, size=shape))

    base = int(rng.integers(-(1 << 40), 1 << 40))
    A = pick(int(rng.integers(1, 30)), base - 20, base + 20)
    yield A, build.empty(sc)
    yield build.empty(sc), A
    yield build.empty(sc), build.empty(sc)
    yield A, A
    yield A, pick(int(rng.integers(1, 30)), base + 40, base + 70)  # disjoint
    inner = build.from_indices(sc, A.indices[rng.random(len(A.indices)) < 0.5])
    yield inner, A  # nested
    yield A, inner
    yield A, pick(int(rng.integers(1, 30)), base - 30, base + 10)


def test_set_algebra_matches_set_oracle():
    """union, intersect, difference, subset_of and == on both dimensions
    against Python sets of cells, and the canonical form of every result."""
    rng = np.random.default_rng(21)
    sc = Scale(10)
    for build in (GridSet1, GridSet2):
        for _ in range(25):
            for A, B in _random_operands(rng, build, sc):
                a, b = _cells(A), _cells(B)
                for got, want in ((A.union(B), a | b), (A.intersect(B), a & b),
                                  (A.difference(B), a - b)):
                    assert isinstance(got, build) and _cells(got) == want
                    assert got == build.from_indices(sc, sorted(want))
                assert A.subset_of(B) == (a <= b)
                assert (A == B) == (a == b) and (B == A) == (a == b)
        one = build.from_indices(sc, [0] if build is GridSet1 else [(0, 0)])
        other = build.from_indices(Scale(11), [0] if build is GridSet1 else [(0, 0)])
        for op in (one.union, one.intersect, one.difference, one.subset_of):
            with pytest.raises(PreconditionError, match="one scale"):
                op(other)
        assert one != other
    assert GridSet1.from_indices(sc, [0]) != GridSet2.from_indices(sc, [(0, 0)])


def test_trimmed_results_own_only_their_box():
    """A trimmed result holds its own box, not a view into the larger
    array it was cut from."""
    def owns(arr):
        return arr.base is None or arr.base.size == arr.size

    sc = Scale(12)
    plane = np.zeros((500, 400), dtype=bool)
    plane[7, 9] = True
    line = np.zeros(10 ** 5, dtype=bool)
    line[70] = True
    A = GridSet2.from_indices(sc, [(0, 0), (300, 300)])
    B = GridSet2.from_indices(sc, [(150, 150), (300, 300), (600, 0)])
    weights = np.zeros(10 ** 5)
    weights[70] = 1.0
    grid2 = np.zeros((300, 200))
    grid2[3, 4] = 1.0
    for X, arr in ((GridSet2.from_bits(sc, (0, 0), plane), "bits"),
                   (GridSet1.from_bits(sc, 0, line), "bits"),
                   (A.intersect(B), "bits"), (A.difference(B), "bits"),
                   (GridSet1.from_indices(sc, [0, 9000]).intersect(GridSet1.from_indices(sc, [9000])),
                    "bits"),
                   (DyadicMeasure1.from_weights(sc, 0, weights), "weights"),
                   (DyadicMeasure2.from_weights(sc, (0, 0), grid2), "weights")):
        assert getattr(X, arr).size == 1 and owns(getattr(X, arr))


def test_intersect_difference_subset_of_stay_inside_the_overlap():
    """Far-apart operands cost nothing to intersect, subtract or test: no
    box holding both is allocated."""
    sc = Scale(30)
    pairs = [(GridSet1.from_indices(sc, [0]), GridSet1.from_indices(sc, [10 ** 7])),
             (GridSet2.from_indices(sc, [(0, 0)]), GridSet2.from_indices(sc, [(3000, 3000)]))]
    for A, B in pairs:
        tracemalloc.start()
        try:
            assert A.intersect(B).is_empty and B.intersect(A).is_empty
            assert not A.subset_of(B) and not B.subset_of(A)
            assert A.difference(B) == A and B.difference(A) == B
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _old_from_indices_1d(scale, indices):
    idx = sorted({int(i) for i in np.asarray(indices, dtype=np.int64).reshape(-1)})
    if not idx:
        return GridSet1.empty(scale)
    bits = np.zeros(idx[-1] - idx[0] + 1, dtype=bool)
    bits[np.asarray(idx) - idx[0]] = True
    return GridSet1(scale, idx[0], bits)


def _old_from_indices_2d(scale, pairs):
    cells = {(int(i), int(j)) for i, j in pairs}
    if not cells:
        return GridSet2.empty(scale)
    ox = min(i for i, _ in cells)
    oy = min(j for _, j in cells)
    w = max(i for i, _ in cells) - ox + 1
    h = max(j for _, j in cells) - oy + 1
    bits = np.zeros((h, w), dtype=bool)
    for i, j in cells:
        bits[j - oy, i - ox] = True
    return GridSet2(scale, (ox, oy), bits)


def test_from_indices_matches_set_oracle():
    """Unsorted, duplicated, negative and empty inputs give the set the
    old sorted-set construction gave."""
    rng = np.random.default_rng(7)
    sc = Scale(10)
    for case in range(60):
        m = int(rng.integers(0, 40))
        base = int(rng.integers(-(1 << 40), 1 << 40))
        raw = base + rng.integers(-50, 50, size=m)
        raw = np.concatenate((raw, raw[: m // 3]))  # duplicates
        rng.shuffle(raw)
        assert GridSet1.from_indices(sc, raw) == _old_from_indices_1d(sc, raw)
        assert GridSet1.from_indices(sc, raw.tolist()) == _old_from_indices_1d(sc, raw)
        pairs = np.stack([raw, base // 2 + rng.integers(-30, 30, size=raw.size)], axis=1)
        want = _old_from_indices_2d(sc, pairs.tolist())
        assert GridSet2.from_indices(sc, pairs) == want
        assert GridSet2.from_indices(sc, [tuple(p) for p in pairs.tolist()]) == want
        assert GridSet2.from_indices(sc, iter(pairs.tolist())) == want
    assert GridSet1.from_indices(sc, []).is_empty
    assert GridSet2.from_indices(sc, []).is_empty
    assert GridSet2.from_indices(sc, np.zeros((0, 2), dtype=np.int64)).is_empty
    assert GridSet2.from_indices(sc, {(3, 4), (5, 4)}) == _old_from_indices_2d(sc, [(3, 4), (5, 4)])


def test_from_ranges_matches_set_union_around_the_sort_bound():
    """Unsorted ranges over _SORT_SPAN span cells each or fewer are counted
    in a difference array, and over more are sorted and merged into runs
    (which the set then holds); monotone ones always merge.  Either way the
    set is the union of the ranges, with overlaps, abutting and repeated
    ranges, increasing or decreasing starts, and spans near +-MAX_INDEX."""
    rng = np.random.default_rng(31)
    sc = Scale(10)
    bound = _SORT_SPAN
    for case in range(300):
        m = int(rng.integers(4, 60))
        per = bound + case % 3 - 1  # below, at and above the bound
        span = per * m
        base = int(rng.choice([0, rng.integers(-10**6, 10**6), MAX_INDEX - span, 1 - MAX_INDEX]))
        first = base + rng.integers(0, span, size=m)
        last = np.minimum(first + rng.integers(0, 2 * per, size=m), base + span - 1)
        first[0], last[-1] = base, base + span - 1  # the span is exactly per * m cells
        a, b, c = rng.integers(1, m - 1, size=3)
        first[a], last[a] = first[b], last[b]  # a repeat
        if last[c] + 1 < base + span:  # a range abutting another
            first[c + 1] = last[c] + 1
            last[c + 1] = max(last[c + 1], first[c + 1])
        order = rng.permutation(m)
        if case % 7 == 0:
            order = np.argsort(-first, kind="stable")  # decreasing starts
        first, last = first[order], last[order]
        A = GridSet1.from_ranges(sc, first, last)
        want = sorted({i for f, l in zip(first.tolist(), last.tolist()) for i in range(f, l + 1)})
        assert A.indices.tolist() == want
        steps = np.diff(first)
        monotone = (steps >= 0).all() or (steps <= 0).all()
        assert (GridSet1.runs.fget(A, False) is not None) == (monotone or per > bound)


@pytest.mark.parametrize("bad", [[(1, 2, 3)], [(1, 2, 3, 4)], [1, 2], [(1, 2), (3,)],
                                 np.zeros((2, 2, 2), dtype=np.int64)])
def test_from_indices_2d_rejects_non_pairs(bad):
    with pytest.raises(PreconditionError):
        GridSet2.from_indices(Scale(4), bad)


def test_from_indices_rejects_indices_beyond_int64():
    for build in (lambda: GridSet1.from_indices(Scale(4), [2 ** 70]),
                  lambda: GridSet1.from_indices(Scale(4), [0, -(2 ** 70)]),
                  lambda: GridSet2.from_indices(Scale(4), [(2 ** 70, 0)]),
                  lambda: GridSet2.from_indices(Scale(4), [(0, 0), (1, -(2 ** 70))]),
                  # unsigned values beyond int64 would wrap to -1 under a cast
                  lambda: GridSet1.from_indices(Scale(4), np.array([2 ** 64 - 1], dtype=np.uint64)),
                  lambda: GridSet2.from_indices(Scale(4), np.array([[2 ** 64 - 1, 0]],
                                                                   dtype=np.uint64))):
        with pytest.raises(PreconditionError, match="guarded range"):
            build()
    # unsigned input inside int64 is taken as is
    assert GridSet1.from_indices(Scale(4), np.array([3, 1], dtype=np.uint64)).indices.tolist() == [1, 3]


def test_cell_range_bounded_exactly_on_each_axis():
    """Cells inside (-MAX_INDEX, MAX_INDEX) on each axis are accepted, at
    either end and at any span; a cell at +-MAX_INDEX is refused."""
    M, sc = MAX_INDEX, Scale(4)
    for lo, hi in ((1 - M, 6 - M), (M - 6, M - 1)):
        assert GridSet1.from_indices(sc, [lo, hi]).offset == lo
        assert GridSet1.from_ranges(sc, np.array([lo]), np.array([hi])).count == 6
        assert make_interval(Scale(0), lo, hi + 1).offset == lo  # endpoints in cells at n=0
        E = GridSet2.from_indices(sc, [(lo, -hi), (hi, -lo)])
        assert E.offset == (lo, -hi) and E.bits.shape == (6, 6)
        assert DyadicMeasure1(sc, lo, np.full(6, 1 / 6)).offset == lo
        assert DyadicMeasure2(sc, (-hi, lo), np.full((6, 6), 1 / 36)).offset == (-hi, lo)
    for build in (lambda: GridSet1.from_indices(sc, [-M, 5 - M]),
                  lambda: GridSet1.from_indices(sc, [M - 1, M]),
                  lambda: make_interval(Scale(0), -M, 2 - M),
                  lambda: make_interval(Scale(0), M - 2, M + 1),
                  lambda: GridSet2.from_indices(sc, [(-M, 0)]),
                  lambda: GridSet2.from_indices(sc, [(0, M)]),
                  lambda: DyadicMeasure1(sc, -M, np.ones(1)),
                  lambda: DyadicMeasure1(sc, M - 5, np.full(6, 1 / 6)),
                  lambda: DyadicMeasure2(sc, (0, -M), np.ones((1, 1))),
                  lambda: DyadicMeasure2(sc, (M - 5, 0), np.full((1, 6), 1 / 6))):
        with pytest.raises(PreconditionError, match="guarded range"):
            build()


def test_indices_computed_once_read_only():
    rng = np.random.default_rng(11)
    S = GridSet1.from_indices(Scale(12), rng.integers(-500, 500, size=200))
    E = GridSet2.from_indices(Scale(12), rng.integers(-60, 60, size=(300, 2)))
    for X, fresh in ((S, lambda: np.flatnonzero(S.bits) + S.offset),
                     (E, lambda: np.stack(np.nonzero(E.bits)[::-1], axis=1) + E.offset)):
        first = X.indices
        assert X.indices is first
        assert first.flags.writeable is False
        assert first.dtype == np.int64
        assert np.array_equal(first, fresh())
        with pytest.raises(ValueError):
            first[0] = 0
        assert np.array_equal(X.indices, fresh())
    # lexicographic in (j, i)
    assert [tuple(p) for p in E.indices.tolist()] == sorted(
        (tuple(p) for p in E.indices.tolist()), key=lambda p: (p[1], p[0]))
    # a translate is a new set with its own indices
    assert np.array_equal(S.translate(5).indices, S.indices + 5)


def _runs_of_indices(idx):
    """Maximal runs of an ascending integer array as inclusive (starts, ends)."""
    breaks = np.flatnonzero(idx[1:] > idx[:-1] + 1)
    return (np.concatenate((idx[:1], idx[1:][breaks])),
            np.concatenate((idx[:-1][breaks], idx[-1:])))


def test_runs_computed_once_read_only():
    rng = np.random.default_rng(13)
    sets = [GridSet1.from_indices(Scale(12), [-7]),
            GridSet1.from_indices(Scale(12), [MAX_INDEX - 1]),
            make_interval(Scale(12), -3, 5),
            GridSet1.empty(Scale(12))]
    for _ in range(20):
        base = int(rng.integers(-2 ** 40, 2 ** 40))
        sets.append(GridSet1.from_indices(
            Scale(12), base + rng.integers(0, 300, size=int(rng.integers(1, 200)))))
    for S in sets:
        first = S.runs
        assert S.runs is first
        for got, want in zip(first, _runs_of_indices(S.indices)):
            assert got.dtype == np.int64 and got.flags.writeable is False
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[:1] = 0
        assert S.runs[0].size == S.runs[1].size
    assert S.translate(5).runs[0].tolist() == (S.runs[0] + 5).tolist()


def _fresh_indices(X):
    """The nonzero path, bypassing every cache."""
    if isinstance(X, GridSet1):
        return np.flatnonzero(X.bits) + X.offset
    return np.stack(np.nonzero(X.bits)[::-1], axis=1) + np.array(X.offset)


def test_seeded_caches_match_nonzero_path():
    """GridSet2.from_indices hands over pairs already in `indices` order
    (as the graph suite of `verify` emits them); the caches equal the nonzero path,
    whether the input was canonical (seeded), unsorted or duplicated
    (computed), and stay read-only and apart from the caller's buffer."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        one = np.unique(rng.integers(-300, 300, size=int(rng.integers(1, 80))))
        two = np.unique(rng.integers(-40, 40, size=(int(rng.integers(1, 120)), 2)), axis=0)
        two = two[np.lexsort((two[:, 0], two[:, 1]))]  # canonical: ascending in (j, i)
        wide = np.zeros((len(two), 3), dtype=np.int64)
        wide[:, :2] = two
        inputs = [(GridSet1, one, False), (GridSet2, two, True),
                  (GridSet1, array.array("q", one.tolist()), False),
                  (GridSet2, wide[:, :2], True)]  # a strided view of a larger buffer
        for build, canon, _ in inputs[:2]:
            shuffled = rng.permutation(canon)
            inputs.append((build, shuffled, build is GridSet2 and np.array_equal(shuffled, canon)))
            inputs.append((build, np.concatenate([canon, canon[:1]]), False))
        for build, arr, seeded in inputs:
            X = build.from_indices(Scale(12), arr)
            assert ("_indices" in X.__dict__) == seeded
            assert X.count == len(_fresh_indices(X))
            first = X.indices
            assert first.dtype == np.int64 and first.flags.writeable is False
            assert np.array_equal(first, _fresh_indices(X))
            assert not np.shares_memory(first, np.asarray(arr))
            with pytest.raises(ValueError):
                first[0] = 0
            for k in range(len(arr)):  # the caller's buffer is theirs to change
                arr[k] = 0
            assert np.array_equal(X.indices, _fresh_indices(X))
            assert X == build.from_bits(X.scale, X.offset, X.bits)
        A = GridSet1.from_indices(Scale(12), rng.integers(-300, 300, size=int(rng.integers(1, 50))))
        B = GridSet1.from_bits(Scale(12), int(rng.integers(-99, 99)), rng.random(70) < 0.3)
        if B.is_empty:
            continue
        E = cartesian_product(A, B)
        assert "_indices" not in E.__dict__  # no 16-byte-per-cell array until asked
        assert E.count == A.count * B.count == int(np.count_nonzero(E.bits))
        assert np.array_equal(E.indices, _fresh_indices(E))


def _row_runs(E):
    """The oracle of GridSet2.runs: `grid._runs` on each row's trimmed slice."""
    out = []
    for jr, row in enumerate(E.bits):
        box = _box(row)
        if box:
            first, last = _runs(row[box]) + (E.offset[0] + box[0].start)
            out += [[E.offset[1] + jr, a, b] for a, b in zip(first.tolist(), last.tolist())]
    return out


def test_runs_match_row_oracle(tmp_path, monkeypatch):
    """GridSet2.runs, computed from `indices` or seeded by `from_runs` (and
    so by the GS2 reader), equals the per-row runs, is read-only, and
    expands back to `indices`.  In every other case `from_runs` paints
    blocks of 16 cells, so full rows are runs longer than a block."""
    from deltagrid import grid, read_gridset, write_gridset

    rng = np.random.default_rng(31)
    scans = (grid._SCAN_CELLS, 1)
    for case in range(30):
        monkeypatch.setattr(grid, "_SCAN_CELLS", scans[case % 2])
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        bits = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        bits[int(rng.integers(0, h))] = True  # one full row
        bits[int(rng.integers(0, h)), ::2] = True  # a row of one-cell runs
        offset = (int(rng.integers(-2**61, 2**61)), int(rng.integers(-2**61, 2**61)))
        X = GridSet2.from_bits(Scale(30), offset, bits)
        pairs = X.indices.copy()
        A = GridSet1.from_bits(Scale(30), offset[0], rng.random(w) < 0.5)
        B = GridSet1.from_bits(Scale(30), offset[1], rng.random(h) < 0.5)
        # runs in any order, overlapping and abutting, as a noncanonical file holds them
        lo = rng.integers(0, w, size=3 * h)
        rows = np.stack((rng.integers(0, h, size=lo.size) + offset[1], lo + offset[0],
                         lo + rng.integers(0, 5, size=lo.size) + offset[0]), axis=1)
        sets = [X, GridSet2.from_bits(Scale(30), offset, bits),
                GridSet2.from_indices(Scale(30), pairs),
                GridSet2.from_indices(Scale(30), rng.permutation(pairs)),
                GridSet2.from_runs(Scale(30), rows)]
        if not (A.is_empty or B.is_empty):
            sets.append(cartesian_product(A, B))
        write_gridset(X, tmp_path / "x.gs2")
        sets.append(read_gridset(tmp_path / "x.gs2"))
        assert "_runs" in sets[4].__dict__ and "_runs" in sets[-1].__dict__  # seeded
        for E in sets:
            runs = E.runs
            assert runs.dtype == np.int64 and runs.flags.writeable is False
            assert runs.tolist() == _row_runs(E)
            assert np.array_equal(E.indices, _fresh_indices(E))
            assert E.count == int(np.count_nonzero(E.bits))
        cells = {(int(i), int(j)) for j, a, b in rows.tolist() for i in range(a, b + 1)}
        assert sets[4] == GridSet2.from_indices(Scale(30), sorted(cells))
    assert GridSet2.empty(Scale(3)).runs.shape == (0, 3)


def test_box_runs_across_block_edges(monkeypatch):
    """`runs` and `indices` of sets holding only their box, scanned a block
    of rows at a time, equal the per-row and nonzero oracles: for boxes one
    row or one column wide, blocks whose row length w + 1 does not divide
    the block size, rows of at least _SCAN_CELLS cells (one row a block),
    empty interior rows, offsets up to +-2**61, and, with a tiny block,
    every way a block edge can fall between or beside runs."""
    from deltagrid import grid

    rng = np.random.default_rng(47)
    shapes = [(1, 1), (1, 300), (300, 1), (5000, 1), (40, 100), (3, 65535), (2, 65536),
              (3, 70000), (70, 937)]
    for scan in (grid._SCAN_CELLS, 7, 64):
        monkeypatch.setattr(grid, "_SCAN_CELLS", scan)
        for h, w in shapes + [tuple(rng.integers(1, 30, size=2)) for _ in range(20)]:
            for density in (0.02, 0.5, 0.97):
                bits = rng.random((h, w)) < density
                if h > 2:
                    bits[rng.integers(1, h - 1, size=max(1, h // 4))] = False
                bits[[0, -1], :1] = True
                bits[:1, [0, -1]] = True
                offset = tuple(int(v) for v in rng.integers(-2**61, 2**61, size=2))
                E = GridSet2.from_bits(Scale(30), offset, bits)
                assert E == GridSet2(Scale(30), offset, bits)  # nothing trimmed
                for X in (E, GridSet2.from_bits(Scale(30), offset, bits)):
                    # either property may run the scan first
                    first = X.indices if X is not E else X.runs
                    assert X.runs.tolist() == _row_runs(X)
                    assert np.array_equal(X.indices, _fresh_indices(X))
                    assert first.flags.writeable is False


def test_interval_indices_trace_one_array():
    """The cells of a 2**20-cell interval are found in one int64 array, the
    offset added in place: no second copy of that size is traced."""
    S = make_interval(Scale(20), 0, 1)
    tracemalloc.start()
    try:
        idx = S.indices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.dtype == np.int64 and idx.size == 1 << 20 and idx[-1] == (1 << 20) - 1
    assert peak < 1.25 * idx.nbytes


def test_box_reads_never_call_2d_nonzero(tmp_path, monkeypatch):
    """A set built from its box (a product) gives its runs, its cells, its
    file and its projections without np.nonzero over a 2D array."""
    from deltagrid import project_set, write_gridset

    A = gen_random_frostman(Scale(10), 0.7, seed=3)
    E, F = cartesian_product(A, A), cartesian_product(A, A)
    nonzero = np.nonzero

    def flat_only(a):
        assert np.ndim(a) < 2, "np.nonzero over a 2D box"
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", flat_only)
    assert "_runs" not in E.__dict__ and "_indices" not in E.__dict__
    write_gridset(E, tmp_path / "e.gs2")
    assert F.indices.shape == (E.count, 2)
    assert E.runs.shape[1] == 3
    for theta in (0.0, math.pi / 2, math.pi - 1e-13, 0.7):
        assert project_set(cartesian_product(A, A), theta).count >= A.count
