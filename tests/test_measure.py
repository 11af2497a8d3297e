"""Measure tests: Frostman scans, Riesz energies against analytic and
brute-force oracles, pruning, conditioning, pushforward, and the
maximal-interval zoom."""
import math
import numpy as np
import pytest
from fractions import Fraction

from deltagrid import measure
from deltagrid import (DyadicMeasure1, DyadicMeasure2, GridSet1, GridSet2, InternalCheckError,
                       PreconditionError, Scale, condition, energy_bound_constant,
                       frostman_constant, gen_cantor, gen_random_frostman,
                       make_interval, maximal_interval, prune_heavy_cubes,
                       pushforward_affine, rescale_to_unit, riesz_energy,
                       uniform_on)


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


def test_measure_validation():
    with pytest.raises(PreconditionError):
        DyadicMeasure1.from_weights(Scale(3), 0, np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(PreconditionError):
        DyadicMeasure1.from_weights(Scale(3), 0, np.array([-0.5, 1.5]))


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


def test_energy_fft_matches_direct_2d(monkeypatch):
    # with no direct-sum range, auto runs the FFT kernel on every grid here
    monkeypatch.setattr(measure, "DIRECT_ENERGY_CAP", 0)
    rng = np.random.default_rng(70)
    shapes = [(1, 1), (1, 37), (29, 1), (1, 2), (2, 1)]
    shapes += [tuple(int(v) for v in rng.integers(2, 60, size=2)) for _ in range(8)]
    for shape in shapes:
        offset = tuple(int(v) for v in rng.integers(-3000, 3000, size=2))
        mu = _random_measure2(rng, shape, offset)
        for s in (0.3, 1.0, 1.7):
            direct = riesz_energy(mu, s, method="direct")
            assert riesz_energy(mu, s) == pytest.approx(direct, rel=1e-12, abs=0)


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


def test_energy_bound_constant():
    # closed form of the geometric series 2 * 2^k * sum 2^(j(t-k))
    assert energy_bound_constant(0.4, 0.5) == pytest.approx(
        2 * 2 ** 0.5 / (1 - 2 ** -0.1))
    with pytest.raises(PreconditionError):
        energy_bound_constant(0.5, 0.5)


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
