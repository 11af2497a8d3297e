"""Additive-inequality verifier tests: pinned small counts, random
zero-violation suites, the violation path, the constructive dense-pair
extraction, and the COVER-semantics measurements that go only to the
INFO log."""
import logging
import math
import re
from functools import reduce

import numpy as np
import pytest

from deltagrid import (BsgExtractionError, GridSet1, GridSet2, InternalCheckError,
                       PreconditionError, Scale, SumSemantics, addcomb,
                       bsg_extract, cartesian_product, check_cor_simple,
                       check_graph_projection, check_plunnecke,
                       check_ruzsa_triangle, check_sum_to_difference, diffset,
                       diffset_count, graph_sum, make_interval, sumset, sumset_count)
from deltagrid import grid
from deltagrid.cli import main

import _baselines as B


def _set(n, idx):
    return GridSet1.from_indices(Scale(n), idx)


def _rand_set(rng, n, max_cells, span):
    k = int(rng.integers(1, max_cells + 1))
    return _set(n, rng.integers(0, span, size=k))


def test_ruzsa_examples():
    s = _set(4, [5])
    rec = check_ruzsa_triangle(s, s, s)
    assert rec.lhs == 1 and rec.rhs == 1 and rec.ok
    X = _set(6, range(8))
    rec = check_ruzsa_triangle(X, _set(6, [0]), X)
    assert rec.lhs == 15 * 1
    assert rec.rhs == 8 * 8
    assert rec.ok


def test_ruzsa_random_suite():
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = 12
        X = _rand_set(rng, n, 256, 2048)
        Y = _rand_set(rng, n, 256, 2048)
        Z = _rand_set(rng, n, 256, 2048)
        assert check_ruzsa_triangle(X, Y, Z).ok


def test_plunnecke_examples():
    one = _set(3, [2])
    rec = check_plunnecke(one, [one])
    assert rec.lhs == 1 and rec.ok
    X = _set(6, range(8))
    rec = check_plunnecke(X, [X, X])
    assert rec.lhs == 15
    assert rec.rhs == pytest.approx((15 / 8) ** 2 * 8)
    assert rec.ok


def test_plunnecke_random_suite():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        X = _rand_set(rng, 11, 64, 512)
        Ys = [_rand_set(rng, 11, 64, 512) for _ in range(k)]
        assert check_plunnecke(X, Ys).ok
    with pytest.raises(PreconditionError):
        check_plunnecke(X, [X] * 5)  # k capped at 4


def test_cor_simple_examples():
    s = _set(4, [3])
    rec = check_cor_simple(s, s)
    assert rec.lhs == 1 and rec.ok
    X = _set(6, range(8))
    rec = check_cor_simple(X, _set(6, [0]), sign="+")
    assert rec.lhs == 15 * 1
    assert rec.rhs == 64
    assert check_cor_simple(X, _set(6, [0]), sign="-").ok


def test_cor_simple_random_suite():
    rng = np.random.default_rng(43)
    for _ in range(300):
        X = _rand_set(rng, 11, 96, 768)
        Y = _rand_set(rng, 11, 96, 768)
        sign = "+" if rng.integers(2) else "-"
        assert check_cor_simple(X, Y, sign=sign).ok


def test_sum_to_difference_example():
    X = _set(10, range(8))
    Y = _set(10, [0, 8, 16, 24])
    rec = check_sum_to_difference(X, Y)
    # X - Y covers 32 residues, X + Y covers 32
    assert diffset(X, Y, SumSemantics.INDEX).count == 32
    assert sumset(X, Y, SumSemantics.INDEX).count == 32
    assert rec.lhs == 32 * 8 * 4
    assert rec.rhs == 32 ** 3
    assert rec.ok


def test_sum_to_difference_random_suite():
    rng = np.random.default_rng(44)
    for _ in range(300):
        X = _rand_set(rng, 11, 96, 768)
        Y = _rand_set(rng, 11, 96, 768)
        assert check_sum_to_difference(X, Y).ok


def test_graph_projection_examples():
    A = _set(3, [0])
    G = GridSet2.from_indices(Scale(3), [(0, 0)])
    rec = check_graph_projection(A, A, G, 1)
    assert rec.lhs == 1 and rec.rhs == 1 and rec.ok
    A = _set(5, range(4))
    G = cartesian_product(A, A)
    rec = check_graph_projection(A, A, G, 1)
    # record convention keeps the dominated side on the left
    assert rec.lhs == 16 * 7
    assert rec.rhs == 7 * 7 * 7
    assert rec.ok


def test_graph_projection_random_sparse():
    rng = np.random.default_rng(45)
    for _ in range(200):
        n = 9
        A = _rand_set(rng, n, 24, 128)
        B = _rand_set(rng, n, 24, 128)
        full = [(int(a), int(b)) for a in A.indices for b in B.indices]
        take = rng.random(len(full)) < 0.4
        pts = [p for p, t in zip(full, take) if t] or [full[0]]
        G = GridSet2.from_indices(Scale(n), pts)
        x = int(rng.integers(-3, 4))
        assert check_graph_projection(A, B, G, x).ok


def test_graph_projection_rejects_outside():
    A = _set(4, [0, 1])
    G = GridSet2.from_indices(Scale(4), [(0, 5)])
    with pytest.raises(PreconditionError):
        check_graph_projection(A, A, G, 1)


def test_graph_projection_refuses_a_wrapping_dilation():
    # x*A would leave the int64 range: 2**61 * 8 = 2**64 wrapped to 0 and
    # gave lhs=4 (the true value is 8); 2**70 escaped as OverflowError
    A, B = _set(4, [0, 8]), _set(4, [0])
    G = GridSet2.from_indices(Scale(4), [(0, 0), (8, 0)])
    for x in (2 ** 61, 2 ** 70):
        with pytest.raises(PreconditionError, match=r"x\*A indices"):
            check_graph_projection(A, B, G, x)
    assert check_graph_projection(A, B, G, 3).lhs == 2 * 4


def _inflate_first(monkeypatch, name):
    """Make addcomb's first call of the count function `name` (the left side
    in every check) return a huge count."""
    real, calls = getattr(addcomb, name), []

    def inflated(*args):
        calls.append(args)
        return 10 ** 30 if len(calls) == 1 else real(*args)
    monkeypatch.setattr(addcomb, name, inflated)


_VIOLATIONS = [  # (verify suite, inflated count, check of three sets and a graph)
    ("ruzsa", "diffset_count", lambda X, Y, Z, G: check_ruzsa_triangle(X, Y, Z)),
    ("plunnecke", "sumset_count", lambda X, Y, Z, G: check_plunnecke(X, [Y, Z])),
    ("simple-sum", "diffset_count", lambda X, Y, Z, G: check_cor_simple(X, Y, "+")),
    ("sumdiff", "diffset_count", lambda X, Y, Z, G: check_sum_to_difference(X, Y)),
    ("graphproj", "sumset_count", lambda X, Y, Z, G: check_graph_projection(X, Y, G, 2)),
]


@pytest.mark.parametrize("suite, name, check", _VIOLATIONS, ids=[v[0] for v in _VIOLATIONS])
def test_violation_raises_with_input_digest(monkeypatch, tmp_path, capsys, suite, name, check):
    X, Y, Z = _set(6, [1]), _set(6, [3]), _set(6, [4])
    G = GridSet2.from_indices(Scale(6), [(1, 3)])
    rec = check(X, Y, Z, G)  # singletons: both sides equal, and that passes
    assert rec.ok and rec.lhs == rec.rhs == 1
    _inflate_first(monkeypatch, name)
    with pytest.raises(InternalCheckError,
                       match=r"violated: 10{30} \* \d+ > \d+ \(inputs [0-9a-f]{16}\)"):
        check(X, Y, Z, G)
    monkeypatch.undo()
    _inflate_first(monkeypatch, name)
    out = str(tmp_path / "v.csv")
    assert main(["verify", "addcomb", "--suite", suite, "--cases", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed:")
    assert re.search(r"\(inputs [0-9a-f]{16}\)", err)


def test_degenerate_identity():
    # full graph reduces to |A-A||A-B| >= |A||B|
    rng = np.random.default_rng(46)
    for _ in range(100):
        A = _rand_set(rng, 10, 48, 256)
        B = _rand_set(rng, 10, 48, 256)
        IX = SumSemantics.INDEX
        assert (diffset(A, A, IX).count * diffset(A, B, IX).count
                >= A.count * B.count)


def test_bsg_full_graph():
    A = _set(8, range(16))
    G = cartesian_product(A, A)
    res = bsg_extract(A, A, G, 8.0)
    assert res.Aprime == A and res.Bprime == A
    assert res.K_out <= 2.0  # |A+A| = 31 <= 2*16
    assert res.K_in == pytest.approx(max(1.0, 31 / 16))


def test_bsg_two_blocks():
    # disjoint complete blocks: extraction keeps one block
    A1, A2 = list(range(8)), list(range(100, 108))
    B1, B2 = list(range(0, 16, 2)), list(range(200, 216, 2))
    A = _set(9, A1 + A2)
    B = _set(9, B1 + B2)
    pts = [(a, b) for a in A1 for b in B1] + [(a, b) for a in A2 for b in B2]
    G = GridSet2.from_indices(Scale(9), pts)
    res = bsg_extract(A, B, G, 16.0)
    assert res.Aprime.count == 8  # one block of A
    ap = set(res.Aprime.indices.tolist())
    assert ap == set(A1) or ap == set(A2)
    block_sum = sumset(_set(9, A1), _set(9, B1), SumSemantics.INDEX).count
    assert sumset(res.Aprime, res.Bprime, SumSemantics.INDEX).count <= block_sum


def test_bsg_subset_and_nonempty():
    rng = np.random.default_rng(47)
    for _ in range(40):
        A = _rand_set(rng, 9, 40, 200)
        B = _rand_set(rng, 9, 40, 200)
        full = [(int(a), int(b)) for a in A.indices for b in B.indices]
        take = rng.random(len(full)) < 0.6
        pts = [p for p, t in zip(full, take) if t] or [full[0]]
        G = GridSet2.from_indices(Scale(9), pts)
        try:
            res = bsg_extract(A, B, G, 64.0)
        except BsgExtractionError as e:
            res = e.best
        assert not res.Aprime.is_empty and not res.Bprime.is_empty
        assert res.Aprime.intersect(A) == res.Aprime
        assert res.Bprime.intersect(B) == res.Bprime
        # some edge survives inside the extracted rectangle
        assert any((a, b) in set(map(tuple, G.indices.tolist()))
                   for a in res.Aprime.indices for b in res.Bprime.indices)


def test_bsg_failure_carries_best():
    # nearly empty graph: K_in huge, cap tiny -> structured failure
    A = _set(8, range(32))
    G = GridSet2.from_indices(Scale(8), [(0, 0), (31, 31)])
    with pytest.raises(BsgExtractionError) as ei:
        bsg_extract(A, A, G, 1.0)
    assert isinstance(ei.value.best, type(bsg_extract(A, A,
                      cartesian_product(A, A), 100.0)))


def test_record_digest_stable():
    X = _set(6, range(8))
    a = check_ruzsa_triangle(X, X, X)
    b = check_ruzsa_triangle(X, X, X)
    assert a.inputs_digest == b.inputs_digest


def test_bsg_random_graphs_on_progression():
    # half-density graphs on the 256-cell progression: the extracted pair
    # keeps the output doubling constant small across seeds
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([97, seed])
        A = _set(12, range(256))
        mask = rng.random((256, 256)) < 0.5
        pts = [(int(a), int(b)) for a, b in np.argwhere(mask)]
        G = GridSet2.from_indices(Scale(12), pts)
        res = bsg_extract(A, A, G, 64.0)
        worst = max(worst, res.K_out)
    assert worst <= 8.0
    assert abs(worst - B.BSG_AP_WORST_KOUT) <= 0.01


def _log_inputs():
    X, Y, Z = _set(6, [0, 1, 5, 9]), _set(6, [0, 2, 3]), _set(6, [-4, 1, 7])
    G = GridSet2.from_indices(Scale(6), [(0, 0), (1, 2), (5, 3), (9, 0)])
    return X, Y, Z, G


def _run_all_verifiers(X, Y, Z, G):
    check_ruzsa_triangle(X, Y, Z)
    check_plunnecke(X, [Y, Z])
    check_cor_simple(X, Y, "+")
    check_cor_simple(X, Y, "-")
    check_sum_to_difference(X, Y)
    check_graph_projection(X, Y, G, 2)


def test_cover_measurements_logged_at_info(caplog):
    with caplog.at_level(logging.INFO, logger="deltagrid.addcomb"):
        _run_all_verifiers(*_log_inputs())
    assert [r.getMessage() for r in caplog.records] == [
        "ruzsa_triangle cover-semantics measurement: lhs=51 rhs=210 ok_at_slack_4=True",
        "plunnecke cover-semantics measurement: lhs=15 rhs=59.5 ok_at_slack_4=True",
        "cor_simple[+] cover-semantics measurement: lhs=48 rhs=196 ok_at_slack_4=True",
        "cor_simple[-] cover-semantics measurement: lhs=48 rhs=196 ok_at_slack_4=True",
        "sum_to_difference |Y|^2-variant measurement: lhs=99 rhs=1331 ok=True",
        "sum_to_difference cover-semantics measurement: lhs=168 rhs=2744 ok_at_slack_4=True",
        "graph_projection cover-semantics measurement: lhs=88 rhs=2464 ok_at_slack_4=True",
    ]


def test_no_cover_work_when_info_is_off(monkeypatch, caplog):
    """The COVER-semantics values only feed log.info, so with INFO off the
    verifiers call no COVER sum at all."""
    calls = []

    def counting(fn, default):
        def wrapper(*args, **kwargs):
            sem = args[2] if len(args) > 2 else kwargs.get("semantics", default)
            calls.append((fn.__name__, sem))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(addcomb, "sumset", counting(sumset, SumSemantics.INDEX))
    monkeypatch.setattr(addcomb, "sumset_count", counting(sumset_count, SumSemantics.INDEX))
    monkeypatch.setattr(addcomb, "diffset_count", counting(diffset_count, SumSemantics.INDEX))
    monkeypatch.setattr(addcomb, "graph_sum", counting(graph_sum, SumSemantics.COVER))
    caplog.set_level(logging.WARNING, logger="deltagrid.addcomb")
    _run_all_verifiers(*_log_inputs())
    assert calls and all(sem is SumSemantics.INDEX for _, sem in calls)
    assert {name for name, _ in calls} == {"sumset_count", "diffset_count", "graph_sum"}
    assert not caplog.records


def test_checks_build_no_sum_sets(monkeypatch):
    """Every |X +- Y| a check reads is a count from the sum kernel: on
    prebuilt inputs the Ruzsa, corollary (both signs) and sum-to-difference
    checks build no set at all, and the graph checks paint no A x B box."""
    X, Y, Z, G = _log_inputs()
    built = []
    post_init = GridSet1.__post_init__

    def counting(self):
        built.append(self.offset)
        post_init(self)
    monkeypatch.setattr(GridSet1, "__post_init__", counting)
    check_ruzsa_triangle(X, Y, Z)
    check_cor_simple(X, Y, "+")
    check_cor_simple(X, Y, "-")
    check_sum_to_difference(X, Y)
    assert built == []

    def refused(*args):
        raise AssertionError("an A x B box was painted")
    monkeypatch.setattr(grid, "cartesian_product", refused)
    monkeypatch.setattr(addcomb, "cartesian_product", refused, raising=False)
    monkeypatch.setattr(GridSet2, "__init__", refused)
    assert check_graph_projection(X, Y, G, 2).ok
    A = _set(8, range(16))
    full = GridSet2.from_runs(Scale(8), np.array([[b, 0, 15] for b in range(16)]))
    assert bsg_extract(A, A, full, 8.0).Aprime == A


def test_graph_inside_check_matches_the_painted_product():
    """"G inside A x B", read off G's cells and A's and B's bits, agrees with
    G.subset_of(cartesian_product(A, B)) on seeded graphs inside, partly
    outside and wholly outside the box; the refusals keep their messages
    and order: the operands' scale, the span of the A x B box, G's scale."""
    rng = np.random.default_rng(281)
    outcomes = set()
    for _ in range(300):
        A, B = _rand_set(rng, 9, 12, 64), _rand_set(rng, 9, 12, 64)
        pairs = [(int(a), int(b)) for a in A.indices for b in B.indices]
        pts = [pairs[t] for t in rng.choice(len(pairs), size=int(rng.integers(1, 6)))]
        pts += [tuple(int(v) for v in rng.integers(-8, 72, size=2))
                for _ in range(int(rng.integers(0, 2)))]
        G = GridSet2.from_indices(Scale(9), pts)
        want = G.subset_of(cartesian_product(A, B))
        try:
            addcomb._require_graph_inside(A, B, G)
            got = True
        except PreconditionError as e:
            assert str(e) == "graph must sit inside A x B"
            got = False
        assert got == want
        outcomes.add(got)
    assert outcomes == {True, False}
    wide = _set(30, [0, 1 << 13])  # an A x B box of 8193**2 > MAX_SPAN cells
    with pytest.raises(PreconditionError) as painted:
        cartesian_product(wide, wide)
    G = GridSet2.from_indices(Scale(29), [(0, 0)])  # its scale is checked after the span
    for check in (lambda: check_graph_projection(wide, wide, G, 1),
                  lambda: bsg_extract(wide, wide, G, 8.0)):
        with pytest.raises(PreconditionError) as got:
            check()
        assert str(got.value) == str(painted.value)
    A, G = _set(4, [0, 1]), GridSet2.from_indices(Scale(4), [(0, 0)])
    for args in ((A, _set(5, [0]), G), (A, A, GridSet2.from_indices(Scale(5), [(0, 0)]))):
        with pytest.raises(PreconditionError, match="^operands must share one scale$"):
            check_graph_projection(*args, 1)


def test_plunnecke_counts_its_last_sum():
    """The fold's partial sums stay sets and its last sum is counted: the
    sides equal those of the fold built whole, for 1 to 4 summands."""
    rng = np.random.default_rng(282)
    IX = SumSemantics.INDEX
    for k in (1, 2, 3, 4):
        for _ in range(10):
            X = _rand_set(rng, 10, 24, 200)
            Ys = [_rand_set(rng, 10, 24, 200) for _ in range(k)]
            rec = check_plunnecke(X, Ys)
            assert rec.lhs == reduce(lambda S, Y: sumset(S, Y, IX), Ys).count
            assert rec.rhs == math.prod(sumset(X, Y, IX).count for Y in Ys) / X.count ** (k - 1)
