"""Projection tests: exact shadow covers, measure pushforwards under
directions, angle-averaged statistics, and the greedy fiber minimizer
checked against exhaustive search."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from deltagrid import (AngleMeasure, Direction, DyadicMeasure2, GridSet2,
                       PreconditionError, Scale, adversarial_count,
                       adversarial_projection,
                       gen_cantor, kaufman_average, make_interval,
                       marstrand_average, cartesian_product, project_measure,
                       project_set, riesz_energy, sweep, uniform_on)

import _baselines as B


def _square(n):
    I = make_interval(Scale(n), 0, 1)
    return cartesian_product(I, I)


def test_axis_shadows():
    E = GridSet2.from_indices(Scale(4), [(0, 0), (0, 7), (5, 2)])
    x = project_set(E, Direction(0.0))
    assert sorted(x.indices.tolist()) == [0, 5]
    y = project_set(E, Direction(math.pi / 2))
    # vertical projection reads off y-coordinates (up to reflection)
    assert y.count == 3


def test_square_diagonal_cover():
    E = _square(6)
    P = project_set(E, Direction(math.pi / 4))
    target = math.ceil(math.sqrt(2) * 64)
    assert abs(P.count - target) <= 1


def test_project_set_overcovers():
    # every center projection must land inside the cover
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        pts = [(int(a), int(b)) for a, b in rng.integers(0, 1 << n, size=(10, 2))]
        E = GridSet2.from_indices(Scale(n), pts)
        theta = float(rng.uniform(0, math.pi))
        P = project_set(E, Direction(theta))
        d = Scale(n).delta
        c, s = math.cos(theta), math.sin(theta)
        for (i, j) in E.indices:
            t = ((i + 0.5) * d * c + (j + 0.5) * d * s) / d
            assert P.contains_index(math.floor(t))


def test_project_measure_marginal():
    A = uniform_on(GridSet2.from_indices(Scale(3), [(0, 5), (3, 1), (3, 6)]))
    m = project_measure(A, Direction(0.0))
    got = np.flatnonzero(m.weights) + m.offset
    assert got.tolist() == [0, 3]
    assert m.weights[3 - m.offset] == pytest.approx(2 / 3)


def test_project_measure_point():
    mu = uniform_on(GridSet2.from_indices(Scale(5), [(7, 9)]))
    theta = 0.7
    m = project_measure(mu, Direction(theta))
    d = Scale(5).delta
    t = (7.5 * d * math.cos(theta) + 9.5 * d * math.sin(theta)) / d
    assert (np.flatnonzero(m.weights) + m.offset).tolist() == [math.floor(t)]


def test_project_measure_mass():
    mu = uniform_on(_square(4))
    m = project_measure(mu, Direction(math.pi / 4))
    assert m.weights.sum() == pytest.approx(1.0)
    # triangle profile: peak in the middle of the shadow
    w = m.weights
    assert w[len(w) // 2] >= w[0]


def test_project_measure_matches_add_at():
    # byte-equal to accumulating in input order with np.add.at
    rng = np.random.default_rng(24)
    for _ in range(20):
        w = rng.random((40, 30)) * (rng.random((40, 30)) < 0.4)
        w[0, 0] = w[-1, -1] = 1.0
        mu = DyadicMeasure2.from_weights(Scale(8), (int(rng.integers(0, 200)), 7), w / w.sum())
        d = Direction(float(rng.uniform(0, math.pi)))
        c, s = (Fraction(v) for v in d.vector)
        jr, ir = np.nonzero(mu.weights > 0)
        keys = np.array([math.floor(c * (2 * (i + mu.offset[0]) + 1) / 2
                                    + s * (2 * (j + mu.offset[1]) + 1) / 2)
                         for i, j in zip(ir.tolist(), jr.tolist())], dtype=np.int64)
        want = np.zeros(int(keys.max() - keys.min()) + 1)
        np.add.at(want, keys - keys.min(), mu.weights[jr, ir])
        got = project_measure(mu, d)
        assert got.offset == int(keys.min())
        assert got.weights.tobytes() == want.tobytes()


def test_marstrand_square():
    st = marstrand_average(_square(4), 24)
    assert st.mean >= 1.0 - 1e-9
    assert st.min >= 1.0 - 1e-9


def test_marstrand_single_cell():
    E = GridSet2.from_indices(Scale(6), [(9, 9)])
    st = marstrand_average(E, 48)
    d = Scale(6).delta
    assert st.min >= d - 1e-15
    assert max(st.measures) <= math.sqrt(2) * d + 2 * d + 1e-15


def test_marstrand_sanity_bound():
    # mean shadow length is at least c / I_1(uniform), c conservative
    C4 = gen_cantor(Scale(8), 4, (0, 3), 4)
    for E in (_square(5), cartesian_product(C4, C4)):
        st = marstrand_average(E, 36)
        I1 = riesz_energy(uniform_on(E), 1.0)
        assert st.mean >= 0.01 / I1


def test_kaufman_point_angle():
    A = uniform_on(GridSet2.from_indices(Scale(4), [(0, 2), (5, 2), (9, 2)]))
    nu = AngleMeasure.point(Scale(6), 0.0)
    got = kaufman_average(A, nu, 0.5)
    marg = project_measure(A, Direction(nu.thetas()[0]))
    assert got == pytest.approx(riesz_energy(marg, 0.5))


def test_kaufman_point_mass():
    mu = uniform_on(GridSet2.from_indices(Scale(7), [(3, 4)]))
    nu = AngleMeasure.uniform(Scale(4))
    assert kaufman_average(mu, nu, 0.6) == pytest.approx(2.0 ** (7 * 0.6))


def test_kaufman_rejects_kappa():
    mu = uniform_on(_square(3))
    with pytest.raises(PreconditionError):
        kaufman_average(mu, AngleMeasure.uniform(Scale(3)), 1.0)


def test_adversarial_full_fraction():
    E = gen_cantor(Scale(6), 4, (0, 3), 3)
    E2 = cartesian_product(E, E)
    d = Direction(1.1)
    count, witness = adversarial_projection(E2, d, 1.0)
    centers = project_measure(uniform_on(E2), d)
    assert count == np.count_nonzero(centers.weights)
    assert witness == E2


def test_adversarial_equal_fibers():
    E = _square(4)
    for lam in (0.1, 0.5, 0.77, 1.0):
        count, witness = adversarial_projection(E, Direction(0.0), lam)
        assert count == math.ceil(lam * 16)
        assert witness.count == count * 16


def test_adversarial_monotone_and_bounds():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        pts = [(int(a), int(b)) for a, b in rng.integers(0, 1 << n, size=(14, 2))]
        E = GridSet2.from_indices(Scale(n), pts)
        theta = float(rng.uniform(0, math.pi))
        prev = 0
        for lam in (0.2, 0.5, 0.9, 1.0):
            count, witness = adversarial_projection(E, Direction(theta), lam)
            assert count >= prev
            assert witness.count >= lam * E.count - 1e-9
            prev = count


def test_adversarial_greedy_is_exact():
    # exhaustive minimum over all unions of fibers, sets of <= 18 cells
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 13))
        pts = {(int(a), int(b)) for a, b in rng.integers(0, 1 << n, size=(k, 2))}
        E = GridSet2.from_indices(Scale(n), list(pts))
        theta = float(rng.uniform(0, math.pi))
        lam = float(rng.uniform(0.1, 1.0))
        count, _ = adversarial_projection(E, Direction(theta), lam)
        m = project_measure(uniform_on(E), Direction(theta))
        sizes = [round(w * E.count) for w in m.weights if w > 0]
        best = None
        need = lam * E.count
        for r in range(1, len(sizes) + 1):
            for combo in itertools.combinations(sizes, r):
                if sum(combo) >= need - 1e-9:
                    best = r
                    break
            if best is not None:
                break
        assert count == best


def test_adversarial_rejects_bad_fraction():
    E = _square(2)
    for lam in (0.0, -0.5, 1.5):
        with pytest.raises(PreconditionError):
            adversarial_projection(E, Direction(0.3), lam)
        with pytest.raises(PreconditionError):
            adversarial_count(E, Direction(0.3), lam)


def test_adversarial_count_matches_witness_path():
    rng = np.random.default_rng(25)
    C = gen_cantor(Scale(7), 3, (0, 2), 4)
    sets = [cartesian_product(C, C), _square(4)]
    for _ in range(10):
        pts = [(int(a), int(b)) for a, b in rng.integers(0, 64, size=(40, 2))]
        sets.append(GridSet2.from_indices(Scale(6), pts))
    for E in sets:
        for _ in range(5):
            theta = float(rng.uniform(0, math.pi))
            lam = float(rng.uniform(0.05, 1.0))
            count, witness = adversarial_projection(E, theta, lam)
            assert adversarial_count(E, theta, lam) == count
            assert witness.count >= lam * E.count


def test_shadow_vs_fiber_factor():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        pts = [(int(a), int(b)) for a, b in rng.integers(0, 1 << n, size=(12, 2))]
        E = GridSet2.from_indices(Scale(n), pts)
        theta = float(rng.uniform(0, math.pi))
        cover = project_set(E, Direction(theta)).count
        fibers = np.count_nonzero(
            project_measure(uniform_on(E), Direction(theta)).weights)
        # one square covers at most 3 cells of the shadow
        assert fibers <= cover <= 3 * fibers


def test_sweep_report():
    E = cartesian_product(gen_cantor(Scale(6), 2, (0, 1), 6),
                          gen_cantor(Scale(6), 2, (0, 1), 6))
    thetas = [k * math.pi / 12 for k in range(12)]
    rep = sweep(E, thetas, 0.8)
    assert len(rep.records) == 12
    for r in rep.records:
        assert r.adversarial_count <= r.projection_count
    s = rep.summary
    assert set(s) == {"projection", "adversarial"}
    for block in s.values():
        assert set(block) == {"min", "q25", "median", "q75", "max"}
        assert block["min"] <= block["median"] <= block["max"]


def test_sweep_thread_determinism():
    E = cartesian_product(gen_cantor(Scale(7), 2, (0, 1), 7),
                          gen_cantor(Scale(7), 2, (0, 1), 7))
    thetas = [k * math.pi / 24 for k in range(24)]
    a = sweep(E, thetas, 0.9, threads=1)
    b = sweep(E, thetas, 0.9, threads=8)
    assert [r.theta for r in a.records] == [r.theta for r in b.records]
    assert [r.adversarial_count for r in a.records] == \
        [r.adversarial_count for r in b.records]


def _energy_cases(rng):
    """(E, kappa) over box-held and run-held sets, single rows and single
    columns, n from 0 to 30 and offsets up to +-2**61."""
    for case in range(150):
        n = int(rng.integers(0, 31))
        far = int(rng.choice([0, 1 << 30, (1 << 61) - 64]))
        ox, oy = (int(v) for v in rng.integers(-far - 64, far + 1, size=2))
        h, w = (int(v) for v in rng.integers(1, 13, size=2))
        if case % 5 == 1:
            h = 1
        elif case % 5 == 2:
            w = 1
        bits = rng.random((h, w)) < float(rng.uniform(0.2, 1.0))
        bits[rng.integers(0, h), rng.integers(0, w)] = True
        E = GridSet2.from_bits(Scale(n), (ox, oy), bits)
        if case % 2:
            E = GridSet2.from_runs(Scale(n), E.runs)
        yield E, float(rng.choice([0.05, 0.5, 1.0, 2.5, 31.5]))


def test_sweep_energies_are_those_of_the_projected_uniform_measure(monkeypatch):
    """sweep bins each angle's measure from the adversary's fiber keys: it
    is project_measure(uniform_on(E), theta), offset and weight bits, and
    its kappa-energy has the same bits, at one thread and at two, the axis
    angles included."""
    from deltagrid import project

    rng = np.random.default_rng(27)
    energy, binned = project.riesz_energy, []
    monkeypatch.setattr(project, "riesz_energy",
                        lambda mu, s: binned.append(mu) or energy(mu, s))
    thetas = [0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4, 1e-9,
              *(float(t) for t in rng.uniform(0, math.pi, size=4))]
    for E, kappa in _energy_cases(rng):
        mu = uniform_on(E)
        want = [project_measure(mu, t) for t in thetas]
        binned.clear()
        rep = sweep(E, thetas, float(rng.uniform(0.01, 1.0)), kappa)
        for r, m, got in zip(rep.records, want, binned, strict=True):
            assert got == m and got.weights.tobytes() == m.weights.tobytes()
            assert r.energy.hex() == energy(m, kappa).hex(), (E, kappa, r.theta)
        two = sweep(E, thetas, 0.5, kappa, threads=2)
        assert [r.energy.hex() for r in two.records] == [r.energy.hex() for r in rep.records]
    with pytest.raises(PreconditionError, match="^uniform measure needs a nonempty set$"):
        sweep(GridSet2.empty(Scale(3)), thetas, 0.5, 1.0)


def test_angle_measure_quantiles():
    nu = AngleMeasure.uniform(Scale(4))
    q = nu.quantile_angles(8)
    assert len(q) == 8
    assert all(0 <= t < 2 * math.pi for t in q)  # circle convention
    assert all(a < b for a, b in zip(q, q[1:]))


def test_direction_normalized():
    d = Direction(math.pi + 0.3)
    assert 0 <= d.theta < math.pi
    assert d.theta == pytest.approx(0.3)
    assert Direction(-0.5).theta == math.pi - 0.5  # a negative remainder moves up by pi
    assert Direction(-1e-300).theta == 0.0  # ... and rounds to pi at the seam


@pytest.mark.parametrize("theta", [-math.pi, -2 * math.pi, -0.0, 0.0, math.pi])
def test_direction_zero_is_positive(theta):
    """[0, pi) holds +0.0 only: multiples of pi, negative ones too, give +0.0."""
    t = Direction(theta).theta
    assert t == 0.0 and math.copysign(1.0, t) == 1.0


def test_marstrand_median_regressions():
    # committed first-run medians: the supercritical squares stay well
    # above 0.2, the dimension-1 boundary square is tracked as-is
    C3 = gen_cantor(Scale(10), 3, (0, 2), 6)
    st = marstrand_average(cartesian_product(C3, C3), 360)
    assert st.median >= 0.2
    assert abs(st.median - B.MARSTRAND_MEDIAN_N10_SUPER) <= 0.01
    C3 = gen_cantor(Scale(12), 3, (0, 2), 7)
    st3 = marstrand_average(cartesian_product(C3, C3), 360)
    assert st3.median >= 0.2
    assert abs(st3.median - B.MARSTRAND_MEDIAN_N12_SUPER) <= 0.01
    C4 = gen_cantor(Scale(12), 4, (0, 3), 6)
    st4 = marstrand_average(cartesian_product(C4, C4), 360)
    assert abs(st4.median - B.MARSTRAND_MEDIAN_N12_BOUNDARY) <= 0.01


def test_kaufman_diagonal_average_regression():
    C3 = gen_cantor(Scale(10), 3, (0, 2), 6)
    mu = uniform_on(cartesian_product(C3, C3))
    val = kaufman_average(mu, AngleMeasure.uniform(Scale(6)), 0.4)
    assert val <= 20.0 * riesz_energy(mu, 0.4)
    assert abs(val - B.KAUFMAN_DIAG_AVERAGE) <= 0.01


def test_adversarial_diagonal_concentration():
    # the diagonal merges fibers of the product set: the adversary gets by
    # with ~2/3 of the nonempty fibers, far below the axis-parallel count
    C3 = gen_cantor(Scale(10), 3, (0, 2), 6)
    E = cartesian_product(C3, C3)
    count, _ = adversarial_projection(E, Direction(math.pi / 4), 0.9)
    m = project_measure(uniform_on(E), Direction(math.pi / 4))
    fibers = int(np.count_nonzero(m.weights))
    assert fibers == B.ADVERSARIAL_DIAG_FIBERS
    assert abs(count - B.ADVERSARIAL_DIAG_COUNT) <= 5
    assert count >= 0.6 * fibers


def test_project_measure_repeats_on_cached_centers():
    """project_measure reads the measure's support once; later calls on
    the same measure give byte-identical results to a fresh measure."""
    rng = np.random.default_rng(5)
    w = rng.random((9, 13)) * (rng.random((9, 13)) < 0.5)
    w[0, 0] = w[-1, -1] = 1.0
    mu = DyadicMeasure2.from_weights(Scale(8), (-7, 40), w / w.sum())
    for t in (0.0, 0.3, 1.1, 2.9):
        a = project_measure(mu, t)
        b = project_measure(DyadicMeasure2.from_weights(Scale(8), (-7, 40), w / w.sum()), t)
        assert a.offset == b.offset and a.weights.tobytes() == b.weights.tobytes()
    cells, wt = mu._support
    assert mu._support[0] is cells and not cells[0].flags.writeable and not wt.flags.writeable


def test_project_measure_scans_support_once(monkeypatch):
    """64 projections of one measure find its support in one scan.  A
    uniform measure on a 2D set needs none: the set's cells are its support."""
    A = gen_cantor(Scale(8), 4, (0, 1, 3), 4)
    uniform = uniform_on(cartesian_product(A, A))
    mu = DyadicMeasure2.from_weights(uniform.scale, uniform.offset, uniform.weights)
    scans = []
    flat = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(np.shape(a)) or flat(a))
    for t in np.arange(64) * math.pi / 64:
        assert project_measure(mu, float(t)) == project_measure(uniform, float(t))
    assert scans == [mu.weights.shape]


def test_2d_measure_tools_never_call_2d_nonzero(monkeypatch):
    """Frostman scans, direct energies, projections and the Kaufman average
    of 2D measures read their support without np.nonzero over a 2D array."""
    from deltagrid import frostman_constant

    rng = np.random.default_rng(8)
    w = rng.random((11, 17)) * (rng.random((11, 17)) < 0.5)
    w[0, 0] = w[-1, -1] = 1.0
    A = gen_cantor(Scale(6), 4, (0, 3), 3)
    nonzero = np.nonzero

    def flat_only(a):
        assert np.ndim(a) < 2, "np.nonzero over a 2D box"
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", flat_only)
    for mu in (DyadicMeasure2.from_weights(Scale(9), (-4, 30), w / w.sum()),
               uniform_on(cartesian_product(A, A))):
        assert frostman_constant(mu, 0.7).constant > 0
        assert riesz_energy(mu, 0.5, method="direct") > 0
        assert project_measure(mu, 0.4).mass == pytest.approx(1.0)
        assert kaufman_average(mu, AngleMeasure.uniform(Scale(3)), 0.5) > 0


def test_angle_counts_refused_past_the_cap_before_allocating():
    """Grids, samples and uniform angle measures of MAX_ANGLES angles are
    made; one more is refused before any angle array exists."""
    import tracemalloc
    from deltagrid.project import MAX_ANGLES, _angle_grid

    k = MAX_ANGLES.bit_length() - 1
    nu = AngleMeasure.uniform(Scale(4))
    assert _angle_grid(MAX_ANGLES).size == MAX_ANGLES
    assert nu.quantile_angles(MAX_ANGLES).size == MAX_ANGLES
    assert AngleMeasure.uniform(Scale(k)).thetas().size == MAX_ANGLES
    for make in (lambda: _angle_grid(MAX_ANGLES + 1),
                 lambda: nu.quantile_angles(MAX_ANGLES + 1),
                 lambda: AngleMeasure.uniform(Scale(k + 1)),
                 lambda: marstrand_average(GridSet2.from_indices(Scale(2), [(0, 0)]), 10 ** 9)):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="exceed the angle cap"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
