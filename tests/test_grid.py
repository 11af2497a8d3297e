"""Grid container tests: canonical forms, generators, neighborhoods,
and the non-concentration scan."""
import array
import itertools
import math

import numpy as np
import pytest
from fractions import Fraction

from deltagrid import (GridSet1, GridSet2, PreconditionError, Scale,
                       cartesian_product, covering_number, gen_cantor,
                       gen_random_frostman, make_interval, neighborhood,
                       nonconcentration_constant)


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
    # output spans of at least MAX_SPAN cells are refused before any work
    for E in (S, cartesian_product(S, S)):
        for k in (1 << 25, 1 << 70):
            with pytest.raises(PreconditionError):
                neighborhood(E, k * d)


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


def _fresh_indices(X):
    """The nonzero path, bypassing every cache."""
    if isinstance(X, GridSet1):
        return np.flatnonzero(X.bits) + X.offset
    return np.stack(np.nonzero(X.bits)[::-1], axis=1) + np.array(X.offset)


def test_seeded_caches_match_nonzero_path():
    """GridSet2.from_indices hands over pairs already in `indices` order
    (as the GS2 reader emits them); the caches equal the nonzero path,
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
