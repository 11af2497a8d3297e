"""Lattice tests: translate search against the averaging bound with an
independent recount, and the slab-collision witness invariants."""
import math
import numpy as np
import pytest

from deltagrid import (CellCloud, GridSet1, PreconditionError, Scale,
                       blichfeldt_translate, count_lattice_points,
                       make_interval, slab_collision)
from deltagrid.grid import _digest


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
