"""Derived views: a set's `count`, `indices` and `runs`, a 2D set's `bits`,
and a measure's `_support` are `grid._view` properties.  Each equals a fresh computation
from the object's array, is read-only, and is the same object on every
access, whether it was built on first use or handed over by the
constructor (`grid._seed`).  The cache protocol itself lives in those two
functions only."""
import ast

import numpy as np
import pytest

from deltagrid import (DyadicMeasure1, DyadicMeasure2, GridSet1, GridSet2, Scale, SumSemantics,
                       cartesian_product, dilate, gen_cantor, read_gridset, sumset, uniform_on,
                       write_gridset)

from test_imports import _modules


def _fresh(X) -> dict:
    """Every view of X recomputed from its array alone, by nonzero scans
    and Python loops."""
    if isinstance(X, (DyadicMeasure1, DyadicMeasure2)):
        cells = np.nonzero(X.weights > 0)
        return {"_support": (cells, X.weights[cells])}
    if isinstance(X, GridSet1):
        cells = (np.nonzero(X.bits)[0] + X.offset).tolist()
        keys = cells
    else:
        jr, ir = np.nonzero(X.bits)
        cells = np.stack((ir + X.offset[0], jr + X.offset[1]), axis=1).tolist()
        keys = [(j, i) for i, j in cells]  # row-major: a run continues along a row
    runs = []
    for key in keys:
        *row, x = key if isinstance(key, tuple) else (key,)
        if runs and runs[-1][:-2] == row and runs[-1][-1] == x - 1:
            runs[-1][-1] = x
        else:
            runs.append([*row, x, x])
    if isinstance(X, GridSet1):
        return {"count": len(cells), "indices": np.array(cells, dtype=np.int64),
                "runs": np.array(runs, dtype=np.int64).reshape(-1, 2).T}
    return {"count": len(cells), "indices": np.array(cells, dtype=np.int64).reshape(-1, 2),
            "runs": np.array(runs, dtype=np.int64).reshape(-1, 3)}


def _arrays(view):
    return [a for part in view for a in _arrays(part)] if isinstance(view, tuple) else [view]


def _check(X, seeded: set):
    """X holds exactly the views `seeded` before any is read; then each view
    matches `_fresh`, is read-only and is kept."""
    assert {k for k in vars(X) if k.startswith("_")} == {"_" + name for name in seeded}
    for name, want in _fresh(X).items():
        got = getattr(X, name)
        if name == "count":
            assert type(got) is int and got == want
        else:
            for a, b in zip(_arrays(got), _arrays(want), strict=True):
                assert a.dtype == np.int64 or a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b) and a.flags.writeable is False
        assert getattr(X, name) is got


def _sets(rng):
    """(constructor, set, views it hands over) for every constructor."""
    s = Scale(12)
    bits1 = rng.random(90) < 0.4
    bits1[[0, -1]] = True
    bits2 = rng.random((7, 23)) < 0.4
    bits2[[0, -1], 0] = bits2[0, [0, -1]] = True
    A = GridSet1.from_bits(s, -41, bits1)
    E = GridSet2.from_bits(s, (5, -9), bits2)
    pairs = E.indices.copy()
    starts = np.sort(rng.integers(-500, 500, size=20))
    unsorted = rng.permutation(starts)
    rows = np.stack((rng.integers(0, 6, size=15), starts[:15], starts[:15] + 3), axis=1)
    wide = GridSet1.from_indices(s, [0, 3000, 40000])  # a sum past _INT_SUM_BITS
    return [
        ("from_bits 1D", GridSet1.from_bits(s, -41, bits1), set()),
        ("from_bits 2D", GridSet2.from_bits(s, (5, -9), bits2), {"bits"}),
        ("from_indices 1D", GridSet1.from_indices(s, rng.permutation(A.indices)), set()),
        ("from_indices ascending", GridSet2.from_indices(s, pairs), {"bits", "indices", "count"}),
        ("from_indices unsorted", GridSet2.from_indices(s, rng.permutation(pairs)), {"bits"}),
        ("from_ranges monotone", GridSet1.from_ranges(s, starts, starts + 4), {"runs"}),
        ("from_ranges unsorted", GridSet1.from_ranges(s, unsorted, unsorted + 4), set()),
        ("from_runs", GridSet2.from_runs(s, rows), {"runs", "count"}),
        ("dilate", dilate(A, -5), {"runs"}),
        ("dilate 1/4", dilate(A, 0.25), {"runs"}),
        ("sumset index", sumset(A, A), {"count"}),
        ("sumset cover", sumset(A, dilate(A, 3), SumSemantics.COVER), {"count"}),
        ("sumset wide", sumset(wide, wide, SumSemantics.COVER), {"count"}),
        ("cartesian_product", cartesian_product(A, GridSet1.from_bits(s, 2, bits1[:9])),
         {"bits", "count"}),
    ]


def test_views_match_fresh_scans(tmp_path):
    rng = np.random.default_rng(22)
    for _ in range(8):
        for name, X, seeded in _sets(rng):
            _check(X, seeded)
            path = tmp_path / f"x.gs{X._ndim}"
            write_gridset(X, path)
            _check(read_gridset(path), {"runs"} | ({"count"} if X._ndim == 2 else set()))
            mu = uniform_on(X)
            _check(mu, {"_support"})
            assert set(np.unique(mu._support[1])) == {1 / X.count}
    C = gen_cantor(Scale(9), 3, (0, 2), 5)
    for X in (cartesian_product(C, C), GridSet2.from_indices(Scale(5), [(3, 1)])):
        _check(uniform_on(X), {"_support"})
    w = rng.random((6, 9)) * (rng.random((6, 9)) < 0.5)
    w[0, 0] = w[-1, -1] = 1.0
    _check(DyadicMeasure2.from_weights(Scale(8), (-3, 4), w / w.sum()), set())
    _check(DyadicMeasure1.from_weights(Scale(8), 7, w[0] / w[0].sum()), set())


def test_empty_sets_have_empty_views():
    for X in (GridSet1.empty(Scale(3)), GridSet2.empty(Scale(3))):
        _check(X, set() if X._ndim == 1 else {"bits"})
        assert X.runs.shape == ((2, 0) if X._ndim == 1 else (0, 3))


# The calls and attributes of the cache protocol: reading an instance's
# `__dict__`, `object.__setattr__` of a private name, and freezing an array.
_PROTOCOL_HOMES = {"_view", "_seed"}


def _protocol_use(node) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return "__dict__"
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    func = node.func
    if (func.attr == "__setattr__" and isinstance(func.value, ast.Name)
            and func.value.id == "object" and len(node.args) > 1):
        name = node.args[1]
        if not (isinstance(name, ast.Constant) and not name.value.startswith("_")):
            return "object.__setattr__ of a private name"
    if func.attr == "setflags" and any(k.arg == "write" for k in node.keywords):
        return "setflags(write=...)"
    return None


def _violations(node, scope=()):
    """(line, use) of each protocol use under `node` outside its homes and
    outside a `__post_init__`; `scope` names the enclosing functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope
        use = _protocol_use(child)
        if use and not _PROTOCOL_HOMES & set(inner) and inner[-1:] != ("__post_init__",):
            yield child.lineno, use
        yield from _violations(child, inner)


def test_cache_protocol_lives_in_view_and_seed():
    """Views are kept, frozen and handed over only through `grid._view` and
    `grid._seed`.  A dataclass's `__post_init__` may still normalise and
    freeze its own fields."""
    bad = [f"{name}.py:{line}: {use}" for name, _, tree in _modules()
           for line, use in _violations(tree)]
    assert not bad, "cache protocol outside grid._view / grid._seed:\n" + "\n".join(bad)


@pytest.mark.parametrize("src, flagged", [
    ("def f(self):\n    return self.__dict__.get('_count')\n", True),
    ("def f(self, v):\n    object.__setattr__(self, '_runs', v)\n", True),
    ("def f(self, v, k):\n    object.__setattr__(self, '_' + k, v)\n", True),
    ("class C:\n    @property\n    def f(self):\n        self.v.setflags(write=False)\n", True),
    ("def __post_init__(self):\n    self.bits.setflags(write=False)\n", False),
    ("def __post_init__(self):\n    object.__setattr__(self, 'offset', 0)\n", False),
    ("def _view(build):\n    def view(self):\n        return self.__dict__['_x']\n", False),
])
def test_protocol_audit_flags_each_form(src, flagged):
    assert bool(list(_violations(ast.parse(src)))) is flagged
