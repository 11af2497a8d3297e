"""Measure tests: Frostman scans, Riesz energies against analytic and
brute-force oracles, pruning, conditioning, pushforward, and the
maximal-interval zoom."""
import itertools
import math
import tracemalloc
import numpy as np
import pytest
from fractions import Fraction

from deltagrid import measure
from deltagrid import (MAX_INDEX, DyadicMeasure1, DyadicMeasure2, GridSet1, GridSet2,
                       InternalCheckError, PreconditionError, Scale, cartesian_product, condition,
                       energy_bound_constant,
                       frostman_constant, gen_cantor, gen_random_frostman,
                       make_interval, maximal_interval, prune_heavy_cubes,
                       pushforward_affine, rescale_to_unit, riesz_energy,
                       uniform_on)
from _oracles import _energy_direct, _scan_frostman_1d, _scan_frostman_2d


def _unif(n, idx):
    return uniform_on(GridSet1.from_indices(Scale(n), idx))


def test_uniform_on():
    mu = _unif(4, [7])
    assert mu.weights.tolist() == [1.0]
    mu = uniform_on(make_interval(Scale(3), 0, 1))
    assert np.allclose(mu.weights, 1 / 8)
    mu = _unif(4, [0, 3, 12, 15])
    assert np.count_nonzero(mu.weights) == 4
    assert mu.weights.max() == 0.25


def test_uniform_on_refuses_other_operands_by_type():
    mu = _unif(4, [7])
    for X in (mu, uniform_on(GridSet2.from_indices(Scale(4), [(1, 2)])), None, [3]):
        with pytest.raises(PreconditionError, match="unsupported operand type"):
            uniform_on(X)
    for S in (GridSet1.empty(Scale(3)), GridSet2.empty(Scale(3))):
        with pytest.raises(PreconditionError, match="nonempty set"):
            uniform_on(S)


def test_measure_validation():
    with pytest.raises(PreconditionError):
        DyadicMeasure1.from_weights(Scale(3), 0, np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(PreconditionError):
        DyadicMeasure1.from_weights(Scale(3), 0, np.array([-0.5, 1.5]))


def test_from_weights_checks_every_nonzero_weight():
    """A negative or NaN weight at either end is kept and refused, in 1D
    as in 2D, never trimmed away."""
    for w in ([-0.5, 1.0], [1.0, -0.5], [-0.5, 1.5], [np.nan, 1.0], [1.0, 0.0, np.nan]):
        for build, arr in ((DyadicMeasure1, np.array(w)), (DyadicMeasure2, np.array([w])),
                           (DyadicMeasure2, np.array([w]).T)):
            with pytest.raises(PreconditionError, match="nonnegative"):
                build.from_weights(Scale(3), (0, 0) if build is DyadicMeasure2 else 0, arr)
    mu = DyadicMeasure1.from_weights(Scale(3), 5, [0.0, 0.25, 0.0, 0.75, 0.0])
    assert mu.offset == 6 and mu.weights.tolist() == [0.25, 0.0, 0.75]


def test_measure_offsets_within_guarded_range():
    for build, ones, far in ((DyadicMeasure1, np.ones(1), 2 ** 70),
                             (DyadicMeasure2, np.ones((1, 1)), (2 ** 70, -2 ** 70)),
                             (DyadicMeasure2, np.ones((1, 1)), (0, 2 ** 62))):
        with pytest.raises(PreconditionError, match="guarded range"):
            build(Scale(4), far, ones)
    assert DyadicMeasure2(Scale(4), (2 ** 62 - 1, 0), np.ones((1, 1))).offset == (2 ** 62 - 1, 0)


def test_frostman_uniform():
    rep = frostman_constant(uniform_on(make_interval(Scale(10), 0, 1)), 1.0)
    assert 1.0 <= rep.constant <= 2.01
    assert rep.convention == "measure"


def test_frostman_point_mass():
    for kappa in (0.3, 0.7, 1.0):
        rep = frostman_constant(_unif(6, [13]), kappa)
        assert rep.constant == pytest.approx(2.0 ** (6 * kappa))
        assert rep.witness_radius == pytest.approx(Scale(6).delta)


def test_frostman_cantor():
    mu = uniform_on(gen_cantor(Scale(12), 4, (0, 3), 6))
    rep = frostman_constant(mu, 0.5)
    assert rep.constant <= 4.0
    # self-similarity: aligned level-2j blocks carry mass 2^-j = (4^-j)^(1/2)
    assert rep.constant >= 1.0


def test_frostman_matches_bruteforce():
    # oracle: direct ball scan over all support centers and dyadic radii
    rng = np.random.default_rng(50)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        idx = rng.integers(0, 1 << n, size=rng.integers(1, 12))
        mu = _unif(n, idx)
        kappa = float(rng.uniform(0.2, 1.0))
        rep = frostman_constant(mu, kappa)
        delta = mu.scale.delta
        support = np.flatnonzero(mu.weights) + mu.offset
        centers = (support + 0.5) * delta
        best = 0.0
        r = delta
        span = (support.max() - support.min() + 1) * delta
        while r <= 2 * span or r == delta:
            for c in centers:
                mass = 0.0
                for t, w in zip(support, mu.weights[support - mu.offset]):
                    # cell mass counts by overlap length with [c-r, c+r]
                    lo = max(t * delta, c - r)
                    hi = min((t + 1) * delta, c + r)
                    if hi > lo:
                        mass += w * (hi - lo) / delta
                best = max(best, mass / r ** kappa)
            r *= 2
        assert rep.constant == pytest.approx(best, rel=1e-9)


def _frostman_bits(constant, center, radius):
    kinds = tuple(type(c) for c in center) if isinstance(center, tuple) else ()
    return constant.hex(), center, type(center), kinds, radius.hex()


def _scan_cases_1d(rng):
    """Seeded 1D measures: up to 2,000 cells in spans up to 2**20, random or
    uniform weights, interior -0.0 weights, offsets near 0 and +-2**40."""
    for case in range(36):
        span = 1 << 20 if case % 3 == 0 else int(rng.integers(1, 5001))
        cells = min(span, int(rng.integers(1, 1999)))
        idx = np.unique(np.concatenate(([0, span - 1], rng.choice(span, cells, replace=False))))
        w = np.zeros(span)
        w[idx] = 1.0 if case % 2 else rng.random(idx.size) + 2.0 ** -20
        w /= w.sum()
        zeros = np.flatnonzero(w == 0)
        w[zeros[: zeros.size // 3]] = -0.0
        offset = int(rng.integers(-50, 50)) + (0, 1 << 40, -(1 << 40))[case // 3 % 3] - span // 2
        yield DyadicMeasure1(Scale(int(rng.integers(0, 31))), offset, w)


def _scan_cases_2d(rng):
    """Seeded 2D boxes up to 39 x 39, random or uniform weights."""
    for case in range(24):
        shape = tuple(int(v) for v in rng.integers(1, 40, size=2))
        w = _random_measure2(rng, shape, (0, 0)).weights
        if case % 2:
            w = (w > 0) / np.count_nonzero(w)
        offset = tuple(int(v) + (1 << 40) * (case % 3 - 1) for v in rng.integers(-50, 50, size=2))
        yield DyadicMeasure2(Scale(int(rng.integers(0, 31))), offset, w)


def test_frostman_scan_matches_the_two_dimension_scans():
    # One radius loop for both dimensions, 1D masses from the support: the
    # constant, the witness center (with its type) and the radius are those
    # of the two scans it replaced, bit for bit.
    rng = np.random.default_rng(24)
    for scan, cases in ((_scan_frostman_1d, _scan_cases_1d(rng)),
                        (_scan_frostman_2d, _scan_cases_2d(rng))):
        for mu in cases:
            for kappa in (-0.5, 0.3, 0.5, 1.0, 1.7):
                rep = frostman_constant(mu, kappa)
                assert (_frostman_bits(rep.constant, rep.witness_center, rep.witness_radius)
                        == _frostman_bits(*scan(mu, kappa))), (mu, kappa)


def test_frostman_1d_reads_the_support_not_the_span():
    # 2,073 cells in a 960,711-cell span: a prefix sum over the span alone
    # would trace 7.7 MB
    rng = np.random.default_rng(5)
    idx = np.concatenate(([0], rng.choice(960_709, 2071, replace=False) + 1, [960_710]))
    mu = uniform_on(GridSet1.from_indices(Scale(20), np.sort(idx)))
    assert mu.weights.size == 960_711 and mu._support[1].size == 2073
    tracemalloc.start()
    try:
        frostman_constant(mu, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_energy_point_mass():
    for s in (0.3, 0.5, 1.0):
        assert riesz_energy(_unif(8, [100]), s) == pytest.approx(2.0 ** (8 * s))


def test_energy_two_cells():
    n, k, s = 6, 9, 0.5
    mu = _unif(n, [0, k])
    d = Scale(n).delta
    expect = ((k * d) ** -s + d ** -s) / 2
    assert riesz_energy(mu, s) == pytest.approx(expect)


def test_energy_uniform_oracle():
    # continuum value of the double integral of |x-y|^(-1/2) on [0,1)^2
    val = riesz_energy(uniform_on(make_interval(Scale(10), 0, 1)), 0.5)
    assert abs(val - 8 / 3) / (8 / 3) <= 0.05


def test_energy_binned_vs_direct():
    rng = np.random.default_rng(60)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        idx = rng.integers(0, 1 << n, size=rng.integers(2, 40))
        w = rng.random(len(idx))
        dense = np.zeros(1 << n)
        np.add.at(dense, idx, w)
        dense /= dense.sum()
        nz = np.flatnonzero(dense)
        mu = DyadicMeasure1.from_weights(Scale(n), int(nz[0]), dense[nz[0]:nz[-1] + 1])
        s = float(rng.uniform(0.2, 1.0))
        direct = riesz_energy(mu, s, method="direct")
        binned = riesz_energy(mu, s, method="binned")
        # annulus classes are within one doubling of the true distance
        assert direct <= binned * (1 + 1e-12)
        assert binned <= 2 ** s * direct * (1 + 1e-12)


def test_energy_2d():
    E = GridSet2.from_indices(Scale(4), [(0, 0), (3, 4)])
    mu = uniform_on(E)
    d = Scale(4).delta
    dist = math.hypot(3 * d, 4 * d)
    s = 0.5
    assert riesz_energy(mu, s) == pytest.approx((dist ** -s + d ** -s) / 2)


def _random_measure2(rng, shape, offset):
    w = rng.random(shape) * (rng.random(shape) < 0.6)
    w[0, 0] = w[-1, -1] = 1.0  # trimmed: every border row and column nonzero
    w[0, -1] = w[-1, 0] = 0.5
    return DyadicMeasure2.from_weights(Scale(12), offset, w / w.sum())


def test_energy_fft_matches_direct_2d():
    rng = np.random.default_rng(70)
    shapes = [(1, 1), (1, 37), (29, 1), (1, 2), (2, 1)]
    shapes += [tuple(int(v) for v in rng.integers(2, 60, size=2)) for _ in range(8)]
    for shape in shapes:
        offset = tuple(int(v) for v in rng.integers(-3000, 3000, size=2))
        mu = _random_measure2(rng, shape, offset)
        for s in (0.3, 1.0, 1.7):
            direct = riesz_energy(mu, s, method="direct")
            fft = measure._energy_fft(mu.weights, mu.scale.delta, s)
            assert fft == pytest.approx(direct, rel=1e-12, abs=0)


def test_energy_fft_matches_direct_2d_above_direct_cap():
    rng = np.random.default_rng(73)
    mu = _random_measure2(rng, (90, 110), (-40, 17))
    assert np.count_nonzero(mu.weights) > measure.DIRECT_ENERGY_CAP
    direct = riesz_energy(mu, 1.0, method="direct")
    assert riesz_energy(mu, 1.0) == pytest.approx(direct, rel=1e-12, abs=0)


def test_energy_small_supports_take_direct_sum():
    # a sparse support in a wide box: the direct sum, bit for bit
    mu2 = uniform_on(GridSet2.from_indices(Scale(12), [(0, 0), (900, 5), (1000, 1000)]))
    mu1 = _unif(20, [0, 3, 900_000])
    for mu in (mu1, mu2):
        assert riesz_energy(mu, 0.7) == riesz_energy(mu, 0.7, method="direct")


def _random_measure1(rng, cells, span, offset):
    idx = rng.choice(span, size=cells, replace=False)
    w = np.zeros(span)
    w[idx] = rng.random(cells) + 0.1
    return DyadicMeasure1.from_weights(Scale(20), offset, w / w.sum())


def test_energy_fft_matches_direct_1d_above_direct_cap():
    rng = np.random.default_rng(71)
    for cells, span, offset in ((4500, 5000, 0), (5000, 60000, 12345), (4097, 4097, -7)):
        mu = _random_measure1(rng, cells, span, offset)
        assert np.count_nonzero(mu.weights) > measure.DIRECT_ENERGY_CAP
        for s in (0.3, 1.0, 1.7):
            auto = riesz_energy(mu, s)
            assert auto == pytest.approx(riesz_energy(mu, s, method="direct"),
                                         rel=1e-12, abs=0)
            assert auto <= riesz_energy(mu, s, method="binned")


def test_energy_above_fft_cap_falls_back(monkeypatch):
    rng = np.random.default_rng(72)
    mu2 = _random_measure2(rng, (80, 90), (5, -9))
    mu1 = _random_measure1(rng, 4200, 9000, 3)
    assert np.count_nonzero(mu2.weights) > measure.DIRECT_ENERGY_CAP
    monkeypatch.setattr(measure, "_FFT_CELL_CAP", 1024)
    assert riesz_energy(mu2, 1.0) == riesz_energy(mu2, 1.0, method="direct")
    for s in (0.3, 1.0, 1.7):
        assert riesz_energy(mu1, s) == riesz_energy(mu1, s, method="binned")


def _count_calls(monkeypatch, *names):
    """Wrap measure's energy kernels `names` with call counters."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(measure, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(measure, name, counted)
    return calls


def _record_kernel_blocks(monkeypatch):
    """Record the cell count of every displacement-kernel block built."""
    sizes = []

    def recorded(s, *disp, _fn=measure._displacement_kernel):
        K = _fn(s, *disp)
        sizes.append(K.size)
        return K
    monkeypatch.setattr(measure, "_displacement_kernel", recorded)
    return sizes


def _random_product(rng, width, height, offset):
    """uniform_on(A x B) in a width x height box at the given offset."""
    A, B = (rng.random(L) < 0.6 for L in (width, height))
    A[[0, -1]] = B[[0, -1]] = True  # trimmed: both ends occupied
    return uniform_on(cartesian_product(GridSet1(Scale(12), offset[0], A),
                                        GridSet1(Scale(12), offset[1], B)))


def test_energy_product_matches_fft_and_direct(monkeypatch):
    """uniform_on(A x B) takes the separable product path, which matches
    the FFT kernel and the direct sum: square, non-square, one row and
    one column, at negative and positive offsets."""
    calls = _count_calls(monkeypatch, "_energy_product")
    blocks = _record_kernel_blocks(monkeypatch)
    monkeypatch.setattr(measure, "_BLOCK_CELLS", 100)  # kernel rows in several blocks
    rng = np.random.default_rng(74)
    boxes = [(40, 40), (57, 23), (9, 61), (1, 50), (50, 1)]
    offsets = [(-2900, -1300), (1700, 2500), (-64, 999)]
    for (width, height), offset in itertools.product(boxes, offsets):
        mu = _random_product(rng, width, height, offset)
        w, delta = mu.weights, mu.scale.delta
        assert w.size < np.count_nonzero(w) ** 2  # product path is the cheapest
        for s in (0.3, 1.0, 1.7):
            before = calls["_energy_product"]
            blocks.clear()
            auto = riesz_energy(mu, s)
            assert calls["_energy_product"] == before + 1
            # at most 100 kernel cells a block, or one row where a row is wider
            assert sum(blocks) == width * height and max(blocks) <= max(100, width)
            fft = measure._energy_fft(w, delta, s)
            direct = riesz_energy(mu, s, method="direct")
            assert auto == pytest.approx(fft, rel=1e-12, abs=0)
            assert auto == pytest.approx(direct, rel=1e-12, abs=0)


def test_energy_near_products_skip_product_path(monkeypatch):
    """One support cell removed, or one weight changed: no longer a
    product of shadows with one weight, so the product path must not run."""
    calls = _count_calls(monkeypatch, "_energy_product")
    rng = np.random.default_rng(75)
    for width, height in ((40, 40), (57, 23), (5, 50)):
        mu = _random_product(rng, width, height, (-300, 700))
        w = np.array(mu.weights)
        jr, ir = np.nonzero(w > 0)
        inner = [k for k in range(jr.size) if np.count_nonzero(w[jr[k]]) > 1
                 and np.count_nonzero(w[:, ir[k]]) > 1]  # removal keeps both shadows
        k = inner[len(inner) // 2]
        holed = w.copy()
        holed[jr[k], ir[k]] = 0.0
        heavier = w.copy()
        heavier[jr[k], ir[k]] *= 1.5
        for v in (holed, heavier):
            near = DyadicMeasure2(mu.scale, mu.offset, v / v.sum())
            direct = riesz_energy(near, 1.0, method="direct")
            assert riesz_energy(near, 1.0) == pytest.approx(direct, rel=1e-12, abs=0)
        assert calls["_energy_product"] == 0
        riesz_energy(mu, 1.0)  # the product itself does take it
        assert calls["_energy_product"] == 1
        calls["_energy_product"] = 0


def test_energy_kaufman_sized_supports_match_direct(monkeypatch):
    """Projected measures of 200-540 cells in spans up to ~720: the FFT
    path, equal to the direct sum."""
    calls = _count_calls(monkeypatch, "_energy_fft")
    rng = np.random.default_rng(76)
    for cells, span in ((200, 210), (330, 723), (536, 536), (410, 700), (203, 512)):
        mu = _random_measure1(rng, cells, span, int(rng.integers(-5000, 5000)))
        for s in (0.3, 0.5, 1.7):
            auto = riesz_energy(mu, s)
            assert auto == pytest.approx(riesz_energy(mu, s, method="direct"), rel=1e-12, abs=0)
    assert calls["_energy_fft"] == 15


def test_energy_auto_path_by_cost(monkeypatch):
    """The cost rule on inputs sized like its calibration points: each goes
    to the path measured fastest there."""
    calls = _count_calls(monkeypatch, "_energy_direct", "_energy_fft", "_energy_product")
    rng = np.random.default_rng(77)
    C9 = gen_cantor(Scale(9), 3, (0, 2), 5)
    C4 = gen_cantor(Scale(10), 4, (0, 3), 5)
    A = GridSet1.from_bits(Scale(9), 0, rng.random(499) < 0.2)
    B = GridSet1.from_bits(Scale(9), 0, rng.random(183) < 0.5)
    cases = [
        # a Kaufman projection: 536 cells in a 723-cell span
        (_random_measure1(rng, 536, 723, 40), "_energy_fft"),
        # the n=20 line: 2073 cells in a 960,711-cell span
        (_random_measure1(rng, 2073, 960_711, 0), "_energy_direct"),
        # the 1024-cell base-4 square: a 1024 x 1024 box, a tie in cost with
        # its N**2 pairs that goes to the product path
        (uniform_on(cartesian_product(C4, C4)), "_energy_product"),
        # the 10,404-cell n=9 Cantor square and a ~10^4-cell product in a
        # box of at most 499 x 183
        (uniform_on(cartesian_product(C9, C9)), "_energy_product"),
        (uniform_on(cartesian_product(A, B)), "_energy_product"),
    ]
    for mu, path in cases:
        before = dict(calls)
        riesz_energy(mu, 0.5)
        assert {k: calls[k] - before[k] for k in calls} == {k: int(k == path) for k in calls}


def test_energy_product_needs_padded_shadows_within_cap(monkeypatch):
    """A product whose padded row or column shadow exceeds the FFT cap does
    not take the product path; one within it does."""
    calls = _count_calls(monkeypatch, "_energy_product", "_energy_direct")
    monkeypatch.setattr(measure, "_FFT_CELL_CAP", 64)
    rng = np.random.default_rng(78)
    for width, height, path in ((50, 3, "_energy_direct"), (3, 50, "_energy_direct"),
                                (30, 3, "_energy_product"), (3, 30, "_energy_product")):
        mu = _random_product(rng, width, height, (-7, 11))
        before = dict(calls)
        auto = riesz_energy(mu, 1.0)
        assert {k: calls[k] - before[k] for k in calls} == {k: int(k == path) for k in calls}
        assert auto == pytest.approx(riesz_energy(mu, 1.0, method="direct"), rel=1e-12, abs=0)


def test_energy_direct_blocks_bounded_in_cells(monkeypatch):
    """The direct sums take at most _BLOCK_CELLS pairs a block (at least one
    row): their peak memory follows the budget, their value does not."""
    rng = np.random.default_rng(79)
    mu1 = _random_measure1(rng, 300, 1000, -50)
    mu2 = _random_measure2(rng, (30, 20), (4, -9))  # about 360 cells

    def direct_with_peak(mu):
        tracemalloc.start()
        try:
            value = riesz_energy(mu, 0.8, method="direct")
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert measure._block_rows(10 ** 6) == 2 and measure._block_rows(10) == 512
    before = [direct_with_peak(mu) for mu in (mu1, mu2)]
    monkeypatch.setattr(measure, "_BLOCK_CELLS", 1000)
    assert measure._block_rows(300) == 3 and measure._block_rows(5000) == 1
    after = [direct_with_peak(mu) for mu in (mu1, mu2)]
    for (v0, peak0), (v1, peak1) in zip(before, after):
        assert v1 == pytest.approx(v0, rel=1e-12, abs=0)
        # one full 512-row block is at least 300**2 float64 cells, 720 kB
        assert peak0 > 700_000 and peak1 < 16 * 8 * 1000


def _direct_energy_cases(rng):
    """(cells, w, delta, s) of 1D and 2D supports of N cells, as a
    measure's `_support` gives them: N at and around the 512-row block
    (1, 511, 512, 513, 1,025) and 40 small random N, weights down to
    1e-300 or uniform, s from 0.05 to 32 and delta from 2**-1 to 2**-30."""
    sizes = [1, 511, 512, 513, 1025] + [int(n) for n in rng.integers(2, 300, size=20)]
    for case, n in enumerate(sizes):
        for nd in (1, 2):
            if nd == 1:
                span = n + int(rng.integers(0, 4 * n + 1))
                cells = (np.sort(rng.choice(span, n, replace=False)),)
            else:
                width = int(rng.integers(1, 2 * math.isqrt(n) + 2))
                height = -(-n // width) + int(rng.integers(0, 4))
                cells = np.divmod(np.sort(rng.choice(height * width, n, replace=False)), width)
            w = np.full(n, 1 / n) if case % 3 == 0 else 10.0 ** rng.uniform(-300, 0, size=n)
            for s, k in ((0.05, 1), (1.0, 30), (32.0, int(rng.integers(1, 31))),
                         (float(rng.uniform(0.05, 32)), int(rng.integers(1, 31)))):
                yield cells, w, 2.0 ** -k, s


def test_direct_energy_matches_the_pair_array_sum():
    # One block buffer filled a few rows at a time: every term and every
    # sum is the one the whole pair arrays gave, bit for bit
    rng = np.random.default_rng(25)
    for cells, w, delta, s in _direct_energy_cases(rng):
        got = measure._energy_direct(cells, w, delta, s)
        assert got.hex() == _energy_direct(cells, w, delta, s).hex(), (len(cells), w.size, delta, s)


def test_direct_energy_fills_one_block_buffer():
    # 2,073 cells in a 960,711-cell span: one 512-row block of float64 terms
    # is 8.5 MB; pair arrays built whole traced 24.3 MiB
    rng = np.random.default_rng(5)
    idx = np.concatenate(([0], rng.choice(960_709, 2071, replace=False) + 1, [960_710]))
    mu = uniform_on(GridSet1.from_indices(Scale(20), np.sort(idx)))
    tracemalloc.start()
    try:
        value = measure._energy_direct(*mu._support, mu.scale.delta, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == riesz_energy(mu, 0.5)
    assert peak < 12 << 20


def test_energy_bound_constant():
    # closed form of the geometric series 2 * 2^k * sum 2^(j(t-k))
    assert energy_bound_constant(0.4, 0.5) == pytest.approx(
        2 * 2 ** 0.5 / (1 - 2 ** -0.1))
    with pytest.raises(PreconditionError):
        energy_bound_constant(0.5, 0.5)


def test_energy_bound_constant_domain():
    # kappa in [-32, 32], and t below it by enough that 2**(t - kappa)
    # rounds below 1: a refusal, never OverflowError or ZeroDivisionError
    for t, kappa in ((0.5, 2000), (0.5, 32.5), (-40.0, -32.5), (0.0, math.nan),
                     (math.nan, 0.5), (0.49999999999999994, 0.5), (1e-17, 2e-17)):
        with pytest.raises(PreconditionError):
            energy_bound_constant(t, kappa)
    for kappa in (-32.0, 0.5, 32.0):
        for t in (kappa - 2.0 ** -40, kappa - 1, -math.inf):
            c = energy_bound_constant(t, kappa)
            assert c == 2.0 * 2.0 ** kappa / (1.0 - 2.0 ** (t - kappa))
            assert 2.0 ** (kappa + 1) <= c <= 2.0 ** 86


def test_exponents_are_refused_before_any_work(monkeypatch):
    # the set scan checks kappa before it builds the uniform measure
    def built(*args, **kwargs):
        raise AssertionError("work done before the exponent was checked")

    monkeypatch.setattr(measure, "uniform_on", built)
    S = GridSet2.from_indices(Scale(4), [(0, 0), (3, 2)])
    for kappa in (1500, -1500, math.nan):
        with pytest.raises(PreconditionError, match="kappa must be finite"):
            measure.nonconcentration_constant(S, kappa)


def test_energy_bound_on_generators():
    # nonconcentration constant pays for the energy with the explicit
    # geometric-series constant, for every t < kappa
    from deltagrid import nonconcentration_constant
    rng = np.random.default_rng(70)
    for kappa in (0.3, 0.5, 0.8):
        for seed in range(5):
            A = gen_random_frostman(Scale(10), kappa, seed=seed)
            C = nonconcentration_constant(A, kappa).constant
            t = kappa - 0.1
            I = riesz_energy(uniform_on(A), t)
            assert I <= energy_bound_constant(t, kappa) * C * (1 + 1e-9)


def test_prune_examples():
    mu = uniform_on(make_interval(Scale(6), 0, 1))
    kept, removed = prune_heavy_cubes(mu, 1.0, 1.0, 1.0, strict=True)
    assert removed == 0.0 and kept.count == 64
    point = _unif(6, [5])
    kept, removed = prune_heavy_cubes(point, 1.0, 1.0, 1.0)
    assert removed == pytest.approx(1.0) and kept.is_empty
    kept, removed = prune_heavy_cubes(mu, 1.0, 4.0, 1.0, strict=False)
    assert removed == 0.0


def test_prune_rescan_invariant():
    rng = np.random.default_rng(80)
    for _ in range(20):
        n = 8
        idx = rng.integers(0, 1 << n, size=rng.integers(4, 60))
        mu = _unif(n, idx)
        s, K, L = 1.0, 1.5, 1.2
        kept, _ = prune_heavy_cubes(mu, s, K, L, strict=False)
        if kept.is_empty:
            continue
        sup = np.flatnonzero(mu.weights) + mu.offset
        w = mu.weights[np.flatnonzero(mu.weights)]
        keep_mask = np.isin(sup, kept.indices)
        for j in range(n):
            keys = kept.indices >> (n - j)
            masses = {}
            for t, wt, km in zip(sup, w, keep_mask):
                if km:
                    key = int(t) >> (n - j)
                    masses[key] = masses.get(key, 0.0) + wt
            thr = K * L * 2.0 ** (-j * s / 2)
            # non-strict removal leaves every kept cube strictly light
            assert all(m < thr + 1e-12 for m in masses.values())


def test_condition():
    mu = uniform_on(make_interval(Scale(3), 0, 1))
    S = make_interval(Scale(3), 0, 1)
    assert condition(mu, S) == mu
    two = GridSet1.from_indices(Scale(3), [1, 6])
    nu = condition(mu, two)
    assert np.count_nonzero(nu.weights) == 2
    assert nu.weights.max() == pytest.approx(0.5)
    # conditioning twice equals conditioning on the intersection
    a = make_interval(Scale(3), 0, Fraction(1, 2))
    b = GridSet1.from_indices(Scale(3), [2, 3, 4])
    lhs = condition(condition(mu, a), b)
    rhs = condition(mu, a.intersect(b))
    assert lhs == rhs
    with pytest.raises(PreconditionError):
        condition(mu, GridSet1.from_indices(Scale(3), [100]))


def test_condition_2d_matches_oracle():
    """2D conditioning against a cell-by-cell dictionary: the restricted
    weights renormalized, on sets overlapping the measure's box partly,
    wholly or not at all, at negative and positive offsets."""
    rng = np.random.default_rng(22)
    sc = Scale(12)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(1, 25, size=2))
        mu = _random_measure2(rng, shape, tuple(int(v) for v in rng.integers(-60, 60, size=2)))
        ox, oy = mu.offset
        cells = rng.integers((ox - 10, oy - 10), (ox + shape[1] + 10, oy + shape[0] + 10),
                             size=(int(rng.integers(1, 200)), 2))
        S = GridSet2.from_indices(sc, cells)
        weight = {(ox + int(i), oy + int(j)): float(mu.weights[j, i])
                  for j, i in zip(*np.nonzero(mu.weights))}
        kept = {c: v for c, v in weight.items() if c in set(map(tuple, S.indices.tolist()))}
        if not kept:
            with pytest.raises(PreconditionError, match="no mass"):
                condition(mu, S)
            continue
        nu = condition(mu, S)
        assert isinstance(nu, DyadicMeasure2) and nu.scale == sc
        got = {(nu.offset[0] + int(i), nu.offset[1] + int(j)): float(nu.weights[j, i])
               for j, i in zip(*np.nonzero(nu.weights))}
        total = sum(kept.values())
        assert got.keys() == kept.keys()
        for c, v in kept.items():
            assert got[c] == pytest.approx(v / total, rel=1e-12)
        again = condition(nu, S)  # the identity, up to renormalization rounding
        assert again.offset == nu.offset
        assert np.allclose(again.weights, nu.weights, rtol=1e-12, atol=0)
    mu = _random_measure2(rng, (4, 5), (0, 0))
    with pytest.raises(PreconditionError):
        condition(mu, GridSet1.from_indices(sc, [0]))
    with pytest.raises(PreconditionError):
        condition(mu, GridSet2.from_indices(Scale(11), [(0, 0)]))
    with pytest.raises(PreconditionError):
        condition(mu, GridSet2.empty(sc))


def test_pushforward():
    mu = _unif(4, [3, 9, 12])
    assert pushforward_affine(mu, 1, 0) == mu
    d = Scale(4).delta
    shifted = pushforward_affine(mu, 1, 2 * d)
    assert (np.flatnonzero(shifted.weights) + shifted.offset).tolist() == [5, 11, 14]
    # doubling maps cell centers (i+1/2)/16 to odd cells 2i+1
    half = uniform_on(make_interval(Scale(4), 0, Fraction(1, 2)))
    dbl = pushforward_affine(half, 2, 0)
    assert (np.flatnonzero(dbl.weights) + dbl.offset).tolist() == list(range(1, 16, 2))
    assert np.allclose(dbl.weights[dbl.weights > 0], 1 / 8)
    assert dbl.weights.sum() == pytest.approx(1.0, abs=2e-13)


def test_pushforward_mass_preserved():
    rng = np.random.default_rng(90)
    for _ in range(30):
        mu = _unif(6, rng.integers(0, 64, size=rng.integers(1, 20)))
        a = Fraction(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 5)))
        b = Fraction(int(rng.integers(-8, 9)), 16)
        out = pushforward_affine(mu, a, b)
        assert out.weights.sum() == pytest.approx(1.0, abs=2 ** -40 * 4)


def test_pushforward_matches_add_at():
    # byte-equal to accumulating in input order with np.add.at
    rng = np.random.default_rng(91)
    for _ in range(20):
        w = rng.random(300) * (rng.random(300) < 0.5)
        w[0] = w[-1] = 1.0
        mu = DyadicMeasure1.from_weights(Scale(10), int(rng.integers(0, 700)), w / w.sum())
        a = Fraction(int(rng.integers(1, 4)), int(rng.integers(3, 9)))
        b = Fraction(int(rng.integers(-64, 64)), 1024)
        nz = np.flatnonzero(mu.weights)
        tgt = [math.floor(a * Fraction(2 * (int(i) + mu.offset) + 1, 2) + b * 1024) for i in nz]
        lo = min(tgt)
        want = np.zeros(max(tgt) - lo + 1)
        np.add.at(want, np.asarray(tgt) - lo, mu.weights[nz])
        got = pushforward_affine(mu, a, b)
        assert got.offset == lo
        assert got.weights.tobytes() == want.tobytes()


def test_pushforward_refuses_far_targets_before_casting():
    mu = _unif(4, [3, 9])
    for a, b in ((2 ** 70, 0), (-(2 ** 70), 0), (1, 2 ** 80)):
        with pytest.raises(PreconditionError, match="guarded range"):
            pushforward_affine(mu, a, b)
    with pytest.raises(PreconditionError, match="dense-representation cap"):
        pushforward_affine(mu, 2 ** 24, 0)


def test_pushforward_keeps_the_package_domain():
    M = MAX_INDEX
    w = np.array([0.25, 0.0, 0.5, 0.25])
    for n in (0, 3):
        for off in (1 << 61, (1 << 61) + (1 << 60) - 9, -(1 << 61) - 5):
            mu = DyadicMeasure1.from_weights(Scale(n), off, w)
            assert pushforward_affine(mu, 1, 0) == mu
            shifted = pushforward_affine(mu, 1, 1 << 45)
            assert shifted.offset == off + (1 << (45 + n))
            assert shifted.weights.tobytes() == mu.weights.tobytes()
    # cells up to M - 1 and down to 1 - M are kept; one cell further is
    # refused.  t -> -t maps cell i to cell -i - 1.
    top = DyadicMeasure1.from_weights(Scale(0), M - 4, w)
    bottom = DyadicMeasure1.from_weights(Scale(0), 1 - M, w)
    assert pushforward_affine(top, 1, 0) == top
    assert pushforward_affine(bottom, 1, 0) == bottom
    assert pushforward_affine(bottom, -1, 0).offset == M - 5
    assert pushforward_affine(top, -1, 1).offset == 1 - M
    for mu, a, b in ((top, 1, 1), (top, 1, 1 << 62), (bottom, 1, -1), (bottom, 1, -(1 << 62)),
                     (top, -1, 0), (top, 2, 0), (bottom, 2, 0), (bottom, -2, 0)):
        with pytest.raises(PreconditionError, match="guarded range"):
            pushforward_affine(mu, a, b)


def test_maximal_interval_examples():
    mu = uniform_on(make_interval(Scale(8), 0, 1))
    for kappa in (0.4, 1.0, 1.9):
        mi = maximal_interval(mu, kappa)
        assert mi.level == 0 and mi.r0 == 1 and mi.x0 == 0
    point = _unif(8, [0])
    mi = maximal_interval(point, 1.0)
    assert mi.level == 8 and mi.r0 == Fraction(1, 256)
    # mixture: heavy narrow block wins over the whole line
    w = np.zeros(256)
    w[:16] = 0.9 / 16
    w[128:] = 0.1 / 128
    mu = DyadicMeasure1.from_weights(Scale(8), 0, w)
    mi = maximal_interval(mu, 1.0)
    assert mi.level == 4 and mi.index == 0
    assert mi.m_value == pytest.approx(3.6)
    assert mi.x0 == 0 and mi.r0 == Fraction(1, 16)


def test_maximal_interval_m_at_least_one():
    rng = np.random.default_rng(95)
    for _ in range(30):
        mu = _unif(8, rng.integers(0, 256, size=rng.integers(1, 30)))
        mi = maximal_interval(mu, float(rng.uniform(0.1, 1.5)))
        assert mi.m_value >= 1.0 - 1e-12
        assert mi.mass > 0


def test_maximal_interval_subinterval_consequence():
    # maximality: any dyadic J inside I0 has mu(J)/mu(I0) <= (r/r0)^(k/2)
    rng = np.random.default_rng(96)
    for _ in range(20):
        mu = _unif(8, rng.integers(0, 256, size=rng.integers(2, 40)))
        kappa = float(rng.uniform(0.2, 1.2))
        mi = maximal_interval(mu, kappa)
        n = 8
        sup = np.flatnonzero(mu.weights) + mu.offset
        w = mu.weights[np.flatnonzero(mu.weights)]
        for j in range(mi.level, n + 1):
            keys = sup >> (n - j)
            lo = mi.index << (j - mi.level)
            hi = (mi.index + 1) << (j - mi.level)
            inside = (keys >= lo) & (keys < hi)
            if not inside.any():
                continue
            masses = np.bincount(keys[inside] - lo, weights=w[inside])
            ratio = (Fraction(1, 1 << j) / mi.r0) ** 1.0
            bound = mi.mass * float(ratio) ** (kappa / 2)
            assert masses.max() <= bound * (1 + 1e-9)


def test_maximal_interval_support_touch_on_concrete_families():
    # left endpoint lies in the support's first cell for these families
    mu = uniform_on(gen_cantor(Scale(8), 4, (0, 3), 4))
    mi = maximal_interval(mu, 0.5)
    first = int(np.flatnonzero(mu.weights)[0]) + mu.offset
    assert first == int(mi.x0 * 256)
    w = np.zeros(256)
    w[:16] = 0.9 / 16
    w[128:] = 0.1 / 128
    mi = maximal_interval(DyadicMeasure1.from_weights(Scale(8), 0, w), 1.0)
    assert mi.x0 == 0


def test_maximal_interval_refuses_a_nonfinite_kappa():
    mu = _unif(4, [3, 9])
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="kappa must be finite"):
            maximal_interval(mu, kappa)


def test_rescale_to_unit():
    # zoom is an exact cell bijection onto the unit scale
    w = np.zeros(256)
    w[:16] = 0.9 / 16
    w[128:] = 0.1 / 128
    mu = DyadicMeasure1.from_weights(Scale(8), 0, w)
    nu = rescale_to_unit(mu, 4, 0)
    assert nu.scale.n == 4
    assert nu.weights.size == 16
    assert np.allclose(nu.weights, 1 / 16)
    # conditioning inside the window is uniform here, so nu is uniform
    rep = frostman_constant(nu, 0.5)
    assert rep.constant <= 2.0 + 1e-9


def test_rescale_rejects_empty_window():
    mu = _unif(6, [0, 1])
    with pytest.raises(PreconditionError):
        rescale_to_unit(mu, 2, 3)  # window [3/4, 1) carries no mass


def _rescale_oracle(mu, level, index):
    """rescale_to_unit as it was: mu conditioned on the level-`level`
    interval built as a set, its mass spread over a dense array of
    2**(n - level) weights."""
    n = mu.scale.n
    if not 0 <= level <= n:
        raise PreconditionError(f"level must lie in [0, {n}]")
    I = make_interval(mu.scale, Fraction(index, 1 << level), Fraction(index + 1, 1 << level))
    restricted = condition(mu, I)
    nz = np.flatnonzero(restricted.weights > 0)
    w = np.zeros(1 << (n - level)) if n > level else np.zeros(1)
    w[nz + restricted.offset - (index << (n - level))] = restricted.weights[nz]
    return DyadicMeasure1.from_weights(Scale(n - level), 0, w)


def _outcome(f, *args):
    try:
        nu = f(*args)
    except PreconditionError as exc:
        return str(exc)
    return nu.scale, nu.offset, nu.weights.tobytes()


def test_rescale_matches_interval_oracle():
    """The zoom restricts mu's weights to the window by index and gives the
    old result bit for bit, refusals included: windows inside, across and
    beside the support, at every level, on seeded measures with gaps."""
    rng = np.random.default_rng(907)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(0, 14))
        span = int(rng.integers(1, min(1 << n, 300) + 1))
        w = rng.random(span) * (rng.random(span) < 0.6)
        w[[0, -1]] = rng.random(2) + 0.1
        mu = DyadicMeasure1.from_weights(Scale(n), int(rng.integers(0, (1 << n) - span + 1)),
                                         w / w.sum())
        for level in range(-1, n + 2):
            top = 1 << max(level, 0)
            for index in {-1, 0, top - 1, top, *rng.integers(-2, top + 2, size=4).tolist()}:
                assert (_outcome(rescale_to_unit, mu, level, index)
                        == _outcome(_rescale_oracle, mu, level, index)), (n, level, index)
                checked += 1
    assert checked > 2000


def test_rescale_at_depth_30_builds_only_the_window():
    """Two cells on either side of 1/2 at n = 30: the level-0 window is all
    of [0, 1), which the old dense array of 2**30 weights refused."""
    mu = _unif(30, [2**29 - 1, 2**29])
    with pytest.raises(PreconditionError, match="dense-representation cap"):
        _rescale_oracle(mu, 0, 0)
    nu = rescale_to_unit(mu, 0, 0)
    assert (nu.scale.n, nu.offset, nu.weights.tolist()) == (30, 2**29 - 1, [0.5, 0.5])
    nu = rescale_to_unit(mu, 1, 1)
    assert (nu.scale.n, nu.offset, nu.weights.tolist()) == (29, 0, [1.0])


def test_renormalization_chain_frostman():
    # zoomed measure at the maximal interval is (kappa/2, <=2)-Frostman
    rng = np.random.default_rng(55)
    checked = 0
    for seed in range(30):
        kappa = (0.3, 0.5, 0.8)[seed % 3]
        A = gen_random_frostman(Scale(10), kappa, seed=seed)
        mu = uniform_on(A)
        mi = maximal_interval(mu, kappa)
        nu = rescale_to_unit(mu, mi.level, mi.index)
        if nu.scale.n == 0 or np.count_nonzero(nu.weights) == 1:
            continue  # degenerate zoom: single cell carries everything
        rep = frostman_constant(nu, kappa / 2)
        assert rep.constant <= 2.0 + 1e-9, (seed, kappa, rep)
        checked += 1
    assert checked >= 15


def _support_cases():
    """Seeded measures: single cells, full boxes and boxes with interior
    zeros, in 1D and 2D, at offsets from 0 to near +-2**61."""
    rng = np.random.default_rng(21)
    offsets = (0, -5, (1 << 61) - 3, -(1 << 61) + 2)
    for k, shape in enumerate([(1,), (9,), (64,), (1, 1), (1, 7), (7, 1), (6, 6), (13, 9)]):
        for fill in ("full", "sparse"):
            w = rng.random(shape) + 0.5
            if fill == "sparse":
                w *= rng.random(shape) < 0.4
                w[(0,) * len(shape)] = w[(-1,) * len(shape)] = 1.0
                if len(shape) == 2:  # trimmed: every border row and column nonzero
                    w[0, -1] = w[-1, 0] = 1.0
            off = offsets[k % len(offsets)]
            if len(shape) == 1:
                yield DyadicMeasure1.from_weights(Scale(30), off, w / w.sum())
            else:
                yield DyadicMeasure2.from_weights(Scale(30), (off, -off), w / w.sum())


def test_support_view_matches_nonzero_oracle(monkeypatch):
    """The support view holds np.nonzero(weights > 0) and the weights there,
    bit for bit, read-only, from one scan however often it is read."""
    scans = []
    flat = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or flat(a))
    for mu in _support_cases():
        want = np.nonzero(mu.weights > 0)
        scans.clear()
        cells, w = mu._support
        assert mu._support is mu._support and len(scans) == 1
        assert len(cells) == len(want) == mu.weights.ndim
        for c, d in zip(cells, want):
            assert c.dtype == np.int64 and np.array_equal(c, d)
        assert w.tobytes() == mu.weights[want].tobytes()
        for a in (*cells, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        if mu.weights.ndim == 1:  # absolute cells, as the 1D tools read them
            assert (cells[0] + mu.offset).tolist() == [mu.offset + int(i) for i in want[0]]
    assert repr(mu).startswith(f"DyadicMeasure2(n=30, support={w.size},")
