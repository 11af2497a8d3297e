"""A 2D set read from its runs (`GridSet2.from_runs`, and so the GS2
reader) holds its maximal row runs and paints its box only when `bits` is
read.  The sweep path and the writer never paint it; every other reader of
`bits` sees the box a set built from that box holds, byte for byte; and
grid.py paints a box from runs in one place only, the `bits` view."""
import ast
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from deltagrid import (GridSet2, PreconditionError, Scale, blichfeldt_translate,
                       cartesian_product, condition, gen_cantor, neighborhood, read_gridset,
                       sweep, uniform_on, write_gridset)
from deltagrid import grid
from deltagrid.grid import _digest
from deltagrid.project import _angle_grid

from test_imports import SRC


def _square():
    """The 131,044-cell Cantor square of the benchmark's sweep, built from
    its box."""
    C = gen_cantor(Scale(12), 3, (0, 2), 7)
    return cartesian_product(C, C)


def _refuse_bool_boxes(monkeypatch, cells: int) -> None:
    """Every numpy constructor that makes a boolean array of `cells` or more
    entries raises."""
    def guarded(make):
        def guard(*args, **kwargs):
            out = make(*args, **kwargs)
            if out.dtype == np.bool_ and out.size >= cells:
                raise AssertionError(f"a boolean box of shape {out.shape} was allocated")
            return out
        return guard

    for name in ("zeros", "empty", "ones", "full",
                 "zeros_like", "empty_like", "ones_like", "full_like"):
        monkeypatch.setattr(np, name, guarded(getattr(np, name)))


def test_sweep_and_write_back_paint_no_box(tmp_path, monkeypatch):
    E = _square()
    write_gridset(E, tmp_path / "a.gs2")
    thetas = _angle_grid(3)
    want = sweep(E, thetas, 0.66)
    _refuse_bool_boxes(monkeypatch, math.prod(E.shape))
    F = read_gridset(tmp_path / "a.gs2")
    got = sweep(F, thetas, 0.66)
    with pytest.raises(PreconditionError, match="energy exponent"):
        sweep(F, thetas, 0.66, kappa=1500)
    write_gridset(F, tmp_path / "b.gs2")
    monkeypatch.undo()
    assert "_bits" not in vars(F) and F.shape == E.shape
    assert got == want
    assert (tmp_path / "b.gs2").read_bytes() == (tmp_path / "a.gs2").read_bytes()


def test_reading_a_square_traces_less_than_its_box(tmp_path):
    # a painted box alone is one byte per box cell (16 MiB here)
    E = _square()
    write_gridset(E, tmp_path / "a.gs2")
    tracemalloc.start()
    try:
        F = read_gridset(tmp_path / "a.gs2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.count == 131_044 and peak < math.prod(F.shape)


def test_kappa_sweep_of_a_read_square_fills_no_weights_box(tmp_path):
    # uniform_on(F) would fill a float64 box of 4096**2 cells (128 MiB) and
    # trace 146 MiB; the energies are binned from the adversary's keys
    write_gridset(_square(), tmp_path / "a.gs2")
    F = read_gridset(tmp_path / "a.gs2")
    tracemalloc.start()
    try:
        rep = sweep(F, _angle_grid(3), 0.66, kappa=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.energy > 0 for r in rep.records)
    assert peak < 16 << 20, peak


def test_writing_a_run_held_square_streams(tmp_path):
    # the lines of a set read from runs are written a block of runs at a time
    write_gridset(_square(), tmp_path / "a.gs2")
    F = read_gridset(tmp_path / "a.gs2")
    tracemalloc.start()
    try:
        write_gridset(F, tmp_path / "b.gs2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _run_cases(rng):
    """(runs, eager): seeded row runs in any order, overlapping or abutting,
    some longer than a paint block, and the set built from the box a Python
    loop paints from them."""
    for case in range(40):
        m = int(rng.integers(1, 30))
        base = [int(v) for v in rng.integers(-2**61, 2**61, size=2)] if case % 4 == 3 else [0, 0]
        y = rng.integers(-6, 12, size=m) + base[1]
        x0 = rng.integers(-60, 60, size=m) + base[0]
        x1 = x0 + rng.integers(0, 20 if case % 2 else 130, size=m)
        runs = np.stack((y, x0, x1), axis=1)
        ox, oy = int(x0.min()), int(y.min())
        box = np.zeros((int(y.max()) - oy + 1, int(x1.max()) - ox + 1), dtype=bool)
        for j, a, b in runs.tolist():
            box[j - oy, a - ox:b - ox + 1] = True
        yield runs, GridSet2.from_bits(Scale(30), (ox, oy), box)


def _bytes(X):
    """Everything a set holds or shows, as comparable values."""
    return (X.scale, X.offset, X.shape, X.count, X.bits.tobytes(), X.runs.tobytes(),
            X.indices.tobytes(), repr(X))


def _outcome(op, X, Y):
    """X.op(Y) as `_bytes`, or the message it was refused with."""
    try:
        return _bytes(getattr(X, op)(Y))
    except PreconditionError as e:
        return str(e)


def _measure_bytes(mu):
    (cells, w) = mu._support
    return (mu.offset, mu.weights.shape, mu.weights.tobytes(), w.tobytes(),
            *(c.tobytes() for c in cells))


@pytest.mark.parametrize("scan", [grid._SCAN_CELLS, 3])
def test_every_reader_of_the_box_sees_the_eager_box(tmp_path, monkeypatch, scan):
    """Each consumer of `bits`, given a fresh set read from runs, gives what
    it gives for the set built from the same box: the set algebra, `_digest`,
    the GS2 writer, `uniform_on`, `condition`, `neighborhood`, the lattice
    search, `__eq__` and `repr`.  A paint block of 48 cells (scan 3) makes
    long runs and multi-run blocks common."""
    monkeypatch.setattr(grid, "_SCAN_CELLS", scan)
    rng = np.random.default_rng(25)
    others = []
    for runs, G in _run_cases(rng):
        def fresh():
            F = GridSet2.from_runs(Scale(30), runs)
            assert "_bits" not in vars(F)
            return F

        F = fresh()
        bits = F.bits
        assert bits.tobytes() == G.bits.tobytes() and bits.flags.writeable is False
        assert F.bits is bits and _bytes(F) == _bytes(G)
        assert fresh() == G and G == fresh() and fresh() == fresh()
        assert repr(fresh()) == repr(G) and _digest(fresh()) == _digest(G)
        for H in others[-3:]:
            for op in ("union", "intersect", "difference"):
                assert _outcome(op, fresh(), H) == _outcome(op, G, H)
                assert _outcome(op, H, fresh()) == _outcome(op, H, G)
            assert fresh().subset_of(H) == G.subset_of(H)
            assert H.subset_of(fresh()) == H.subset_of(G)
            if H.offset != G.offset or H.shape != G.shape:
                assert fresh() != H
        others.append(G)
        write_gridset(fresh(), tmp_path / "f.gs2")
        write_gridset(G, tmp_path / "g.gs2")
        assert (tmp_path / "f.gs2").read_bytes() == (tmp_path / "g.gs2").read_bytes()
        mu = uniform_on(G)
        assert _measure_bytes(uniform_on(fresh())) == _measure_bytes(mu)
        assert mu.weights.tobytes() == (G.bits.astype(np.float64) / G.count).tobytes()
        assert _measure_bytes(condition(mu, fresh())) == _measure_bytes(condition(mu, G))
        for k in (1, 3):
            r = Fraction(k, 1 << 30)
            assert _bytes(neighborhood(fresh(), r)) == _bytes(neighborhood(G, r))
        spacing = Fraction(int(rng.integers(1, 9)), 1 << 30)
        assert blichfeldt_translate(fresh(), spacing) == blichfeldt_translate(G, spacing)


def test_sets_read_from_runs_equal_sets_built_from_boxes():
    E = GridSet2.from_runs(Scale(5), np.array([[0, 0, 2], [2, 1, 1]]))
    box = np.array([[1, 1, 1], [0, 0, 0], [0, 1, 0]], dtype=bool)
    assert E == GridSet2(Scale(5), (0, 0), box) == E
    box = box.copy()
    box[2, 1], box[2, 2] = False, True
    assert E != GridSet2(Scale(5), (0, 0), box)
    assert E != GridSet2.from_runs(Scale(5), np.array([[0, 0, 2], [2, 1, 1]]) + 1)
    assert E != GridSet2.from_runs(Scale(6), np.array([[0, 0, 2], [2, 1, 1]]))


def test_from_runs_checks_its_box_from_the_runs():
    # the box the runs reach is checked before anything is built: at most
    # MAX_SPAN cells, every index inside (-MAX_INDEX, MAX_INDEX]
    with pytest.raises(PreconditionError, match="dense-representation cap"):
        GridSet2.from_runs(Scale(5), np.array([[0, 0, 0], [1 << 13, 1 << 13, 1 << 13]]))
    top = grid.MAX_INDEX
    with pytest.raises(PreconditionError, match="guarded range"):
        GridSet2.from_runs(Scale(5), np.array([[0, top - 2, top]]))
    E = GridSet2.from_runs(Scale(5), np.array([[-top + 1, top - 3, top - 1]]))
    assert E.offset == (top - 3, -top + 1) and E.shape == (1, 3) and E.bits.all()


# ---------------------------------------------------------------------------
# One painter: a static check of grid.py


def _functions(tree, outer=()):
    """(qualified name, node) of every function, with its classes' names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = outer + (node.name,)
            if isinstance(node, ast.FunctionDef):
                yield ".".join(name), node
            yield from _functions(node, name)


def _paints_from_runs(fn) -> bool:
    """Whether a function stores True into an array while it reads runs."""
    nodes = list(ast.walk(fn))
    reads_runs = any(isinstance(n, ast.Attribute) and n.attr == "runs"
                     or isinstance(n, ast.Name) and n.id == "runs" for n in nodes)
    stores_true = any(isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
                      and n.value.value is True
                      and any(isinstance(t, ast.Subscript) for t in n.targets) for n in nodes)
    return reads_runs and stores_true


def _makes_a_box(fn) -> bool:
    """Whether a function reads a box or asks numpy for a boolean array."""
    for n in ast.walk(fn):
        if isinstance(n, ast.Attribute) and n.attr == "bits":
            return True
        if isinstance(n, ast.keyword) and n.arg == "dtype" and ast.unparse(n.value) in (
                "bool", "np.bool_"):
            return True
    return False


def _painters(tree):
    found = {name for name, fn in _functions(tree) if _paints_from_runs(fn)}
    found |= {name for name, fn in _functions(tree)
              if name == "GridSet2.from_runs" and _makes_a_box(fn)}
    return found


def test_grid_paints_a_box_from_runs_in_the_bits_view_only():
    with open(os.path.join(SRC, "grid.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert _painters(tree) == {"GridSet2.bits"}


@pytest.mark.parametrize("src, found", [
    ("class GridSet2:\n    def bits(self):\n        y, x0, x1 = self.runs.T\n"
     "        b[x0] = True\n", {"GridSet2.bits"}),
    ("class GridSet2:\n    def from_runs(cls, runs):\n        b = np.zeros(9, dtype=bool)\n"
     "        b[runs[:, 1]] = True\n", {"GridSet2.from_runs"}),
    ("class GridSet2:\n    def from_runs(cls, runs):\n        E = make(runs)\n"
     "        E.bits\n        return E\n", {"GridSet2.from_runs"}),
    ("def from_indices(idx):\n    b = np.zeros(9, dtype=bool)\n    b[idx] = True\n", set()),
    ("def neighborhood(S):\n    grown = np.zeros(9, dtype=bool)\n    r = S.runs\n", set()),
])
def test_painter_check_flags_each_form(src, found):
    assert _painters(ast.parse(src)) == found
