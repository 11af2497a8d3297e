"""Exactness of the projection kernel at every offset.

Covers, fiber keys, adversary counts and witnesses, and pushforward
supports are checked against a Fraction oracle on seeded sparse sets
translated as far as 2**61, together with the structural near-integer
cases and the index-range guard.  The cover project_set computes by row
runs is checked against the same kernel applied cell by cell."""
import math
from fractions import Fraction

import numpy as np
import pytest

import deltagrid.project as P
from deltagrid import (MAX_INDEX, Direction, GridSet1, GridSet2, PreconditionError, Scale,
                       adversarial_count, adversarial_projection, cartesian_product,
                       gen_cantor, project_measure, project_set, uniform_on)

OFFSETS = (0, 2**30, 2**45, 2**54, 2**61, -2**61)
THETAS = (0.7317, 1.9, 2.6, math.pi / 3, 2 * math.pi / 3)


def _sparse(offset, seed=0, cells=150, box=600):
    rng = np.random.default_rng(seed)
    return GridSet2.from_indices(Scale(30), rng.integers(0, box, size=(cells, 2)) + offset)


def _cantor_square(n, levels):
    C = gen_cantor(Scale(n), 3, (0, 2), levels)
    return cartesian_product(C, C)


def _oracle(E, theta):
    """Exact cover range and center fiber key of each cell, indices order."""
    c, s = (Fraction(v) for v in Direction(theta).vector)
    ranges, keys = [], []
    for i, j in E.indices.tolist():
        ends = [c * (i + a) + s * (j + b) for a in (0, 1) for b in (0, 1)]
        ranges.append((math.floor(min(ends)), math.ceil(max(ends)) - 1))
        keys.append(math.floor(c * (2 * i + 1) / 2 + s * (2 * j + 1) / 2))
    return ranges, keys


def _check_cover(E, theta, ranges):
    got = set(project_set(E, theta).indices.tolist())
    need = set().union(*(range(a, b + 1) for a, b in ranges))
    slack = set().union(*(range(a - 1, b + 2) for a, b in ranges))
    assert need <= got <= slack


def _check_fibers(E, theta, keys, fraction):
    sizes = {}
    for k in keys:
        sizes[k] = sizes.get(k, 0) + 1
    heaviest = sorted(sizes, key=lambda k: (-sizes[k], k))
    take, held = 0, 0
    while held < fraction * E.count:
        held += sizes[heaviest[take]]
        take += 1
    chosen = set(heaviest[:take])
    count, witness = adversarial_projection(E, theta, fraction)
    assert count == take == adversarial_count(E, theta, fraction)
    want = [ij for ij, k in zip(E.indices.tolist(), keys) if k in chosen]
    assert witness == GridSet2.from_indices(E.scale, want)
    m = project_measure(uniform_on(E), theta)
    support = np.flatnonzero(m.weights)
    assert (support + m.offset).tolist() == sorted(sizes)
    assert np.rint(m.weights[support] * E.count).tolist() == [sizes[k] for k in sorted(sizes)]


@pytest.mark.parametrize("offset", OFFSETS)
def test_projections_match_oracle(offset):
    E = _sparse(offset)
    for theta in THETAS:
        ranges, keys = _oracle(E, theta)
        _check_cover(E, theta, ranges)
        _check_fibers(E, theta, keys, 0.66)


def _count_exact(monkeypatch):
    """Record how many points each exact fallback of the kernel settles."""
    calls = []
    kernel = P._project_local

    def counting(*args):
        K, v, err, exact = kernel(*args)

        def counted(x, y, up=False):
            calls.append(len(x))
            return exact(x, y, up)
        return K, v, err, counted

    monkeypatch.setattr(P, "_project_local", counting)
    return calls


def test_cantor_bottom_row_is_settled_exactly(monkeypatch):
    # at pi/3 and 2pi/3, c is within an ulp of +-1/2, so the bottom row's
    # endpoints x*c lie within rounding of integers
    E = _cantor_square(7, 4)
    calls = _count_exact(monkeypatch)
    for theta in (math.pi / 3, 2 * math.pi / 3):
        calls.clear()
        ranges, keys = _oracle(E, theta)
        _check_cover(E, theta, ranges)
        assert sum(calls) > 0
        _check_fibers(E, theta, keys, 0.66)
    # the one-ulp outward rounding keeps its cells on the n=12 square
    assert [project_set(_cantor_square(12, 7), k * math.pi / 3).count
            for k in (1, 2)] == [5597, 5596]


@pytest.mark.parametrize("offset", (0, 2**61))
def test_corner_on_an_integer_keeps_the_outward_cell(offset):
    # the lower-left corner of E projects exactly onto the integer K, as
    # the origin does; the cover then starts one cell below it at any offset
    E = GridSet2.from_indices(Scale(30), np.array([(0, 0), (3, 1), (1, 4)]) + offset)
    for theta in (0.3, 0.7317, 1.2):
        c, s = Direction(theta).vector
        K = Fraction(c) * offset + Fraction(s) * offset
        assert K.denominator == 1
        assert project_set(E, theta).offset == K - 1
        _check_cover(E, theta, _oracle(E, theta)[0])


def test_forced_exact_path_agrees_with_fast_path(monkeypatch):
    # err = 1 sends every point through the exact fallback
    sets = [_sparse(o, seed=7, cells=120) for o in (0, 2**45, -2**61)]
    sets.append(_cantor_square(7, 4))
    thetas = (0.7317, math.pi / 3, 2.6)

    def run():
        out = []
        for E in sets:
            mu = uniform_on(E)
            for t in thetas:
                m = project_measure(mu, t)
                out.append((project_set(E, t), adversarial_projection(E, t, 0.5),
                            m.offset, m.weights.tobytes()))
        return out

    fast = run()
    kernel = P._project_local

    def forced(*args):
        K, v, _, exact = kernel(*args)
        return K, v, 1.0, exact

    monkeypatch.setattr(P, "_project_local", forced)
    assert run() == fast


def test_projection_leaving_index_range_raises():
    o = MAX_INDEX - 8
    for sign in (1, -1):
        E = GridSet2.from_indices(Scale(30), [(sign * o, sign * o), (sign * (o - 3), sign * o)])
        with pytest.raises(PreconditionError):
            project_set(E, math.pi / 4)
        with pytest.raises(PreconditionError):
            project_measure(uniform_on(E), math.pi / 4)
    # far out but inside the range
    E = GridSet2.from_indices(Scale(30), [(o, 0), (o - 3, 2)])
    assert project_set(E, 0.3).count > 0
    assert project_measure(uniform_on(E), 0.3).mass == pytest.approx(1.0)


def _cell_cover(E, theta):
    """Oracle: project_set's cover computed square by square, each range
    from the kernel's binary64 ends with the exact fallback where an end
    is within err of an integer, and the union of all ranges."""
    d = Direction(theta)
    c, s = d.vector
    i, j = E.indices.T
    x, y = (i - E.offset[0]) + 0.0, (j - E.offset[1]) + 0.0
    K, v, err, exact = P._project_local(x, y, E.offset, sum(E.bits.shape), d)
    hi = v + max(0.0, c) + s
    lo = v + min(0.0, c)
    k0, k1 = np.ceil(lo), np.floor(hi)
    near = np.flatnonzero(np.maximum(k0 - lo, hi - k1) >= 1 - err)
    k0 = np.add(k0, K - 1, dtype=np.int64, casting="unsafe")
    k1 = np.add(k1, K, dtype=np.int64, casting="unsafe")
    if near.size:
        xn, yn = x[near], y[near]
        k0[near] = np.minimum(k0[near], K + exact(xn + (c < 0), yn))
        k1[near] = np.maximum(k1[near], K + exact(xn + (c > 0), yn + 1, up=True))
    return GridSet1.from_ranges(E.scale, k0, k1)


@pytest.mark.parametrize("shift", (0.0, 0.3, -0.3))
def test_run_cover_matches_cell_cover(monkeypatch, shift):
    """Random and near-axis angles on both sides of pi/2, offsets up to
    2**61 either way, and sets with one-cell and full-row runs.  A shift
    moves the kernel's binary64 values by that much and widens err to 1/2,
    still within the kernel's contract, so that the exact fallback changes
    many low ends (shift up) or high ends (shift down)."""
    if shift:
        kernel = P._project_local

        def shifted(*args):
            K, v, _, exact = kernel(*args)
            return K, v + shift, 0.5, exact

        monkeypatch.setattr(P, "_project_local", shifted)
    rng = np.random.default_rng(2718)
    # near the axes, and where c or s is within an ulp of +-1/2 or +-sqrt(2)/2,
    # so that low ends (pi/3, 2pi/3) or high ends (pi/6, 5pi/6) fall back to exact
    near_axis = (1e-9, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9, math.pi - 1e-9,
                 math.pi / 6, math.pi / 3, 2 * math.pi / 3, 5 * math.pi / 6,
                 math.pi / 4, 3 * math.pi / 4)
    for case in range(60):
        h, w = int(rng.integers(1, 30)), int(rng.integers(1, 60))
        bits = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        bits[int(rng.integers(0, h))] = True  # a full row
        bits[int(rng.integers(0, h)), int(rng.integers(0, 2))::2] = True  # one-cell runs
        far = 2**61 - 64
        offset = [(0, 0), (far, far), (-far, -far), (far, -far), (-far, far),
                  (2**40 + 3, -2**55 + 7)][case % 6]
        offset = tuple(o + int(rng.integers(-9, 10)) for o in offset)
        E = GridSet2.from_bits(Scale(30), offset, bits)
        for theta in near_axis + tuple(rng.uniform(0, math.pi, size=6)):
            assert project_set(E, theta) == _cell_cover(E, theta), (case, theta)
    for E in (_cantor_square(7, 4), _cantor_square(9, 5), _sparse(2**61, seed=3)):
        for theta in near_axis + tuple(rng.uniform(0, math.pi, size=8)):
            assert project_set(E, theta) == _cell_cover(E, theta), theta


def _shadow_oracle(E, theta):
    """The axis shadow read off the box, as project_set once computed it:
    `bits.any` along the other axis, mirrored column by column when the
    direction is (-1, 0)."""
    c, s = Direction(theta).vector
    axis = 0 if s == 0.0 else 1
    shadow = E.bits.any(axis=axis)
    if c >= 0:
        return GridSet1.from_bits(E.scale, E.offset[axis], shadow)
    cols = np.flatnonzero(shadow) + E.offset[0]
    return GridSet1.from_ranges(E.scale, -cols - 1, -cols)


def test_axis_shadows_match_box_oracle():
    """Axis shadows come from the row runs and equal the box's: at theta =
    0, pi/2 and pi - 1e-13 (the mirrored horizontal), and at near-axis
    angles the direction snaps onto an axis, on seeded sets with empty
    rows and columns at offsets up to +-2**61."""
    rng = np.random.default_rng(1618)
    thetas = (0.0, math.pi / 2, math.pi - 1e-13, 1e-13, 2.0 ** -41,
              math.pi / 2 - 1e-13, math.pi / 2 + 1e-13, math.pi - 2.0 ** -41)
    for theta in thetas:
        c, s = Direction(theta).vector
        assert c == 0.0 or s == 0.0, theta
    sets = [_cantor_square(7, 4), _sparse(2**61, seed=5), _sparse(-2**61, seed=6)]
    for case in range(40):
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 70))
        bits = rng.random((h, w)) < rng.uniform(0.02, 0.9)
        bits[:, rng.integers(0, w, size=w // 3)] = False
        offset = tuple(int(v) for v in rng.integers(-2**61, 2**61, size=2))
        if bits.any():
            sets.append(GridSet2.from_bits(Scale(30), offset, bits))
    for E in sets:
        for theta in thetas:
            assert project_set(E, theta) == _shadow_oracle(E, theta), theta
