"""Additive-combinatorics inequality verifiers and a constructive
Balog-Szemeredi-Gowers extraction.

Each check states its inequality once, as integer sides (lhs, num,
den) of lhs <= num / den in a given sum semantics.  Every |A + B| and
|A - B| on a side is a count read from the sum kernel (`sumset_count`,
`diffset_count`), so no sum set is built for it; only the partial sums
of the Plunnecke fold, which are operands, are sets.  In INDEX semantics
(exact integer index sumsets) the classical inequalities are theorems
with absolute constant 1, so every check asserts lhs * den <= num in
Python ints, the one exact comparison, and a violation raises
InternalCheckError naming an input digest rather than returning a
failed record.  The same sides in COVER semantics pick up bounded
discretisation slack: they are computed only when this module's logger
is enabled for INFO, and then logged at slack 4, never asserted.

bsg_extract implements the standard popularity argument: prune
low-degree rows, pick a popular pivot column, take its neighborhood
and the columns well-connected into it.  The proposition guarantees
some universal constant; the implementation measures its own and
reports it, failing with the best attempt attached when the caller's
cap is tighter than what was achieved.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import GridSet1, GridSet2, _digest, _require, _require_span
from .setcalc import (SumSemantics, _require_linear_range, diffset_count, graph_sum, sumset,
                      sumset_count)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InequalityRecord:
    """One verified inequality: ok iff lhs <= slack_used * rhs."""

    name: str
    lhs: int
    rhs: float
    slack_used: float
    inputs_digest: str

    @property
    def ok(self) -> bool:
        return self.lhs <= self.slack_used * self.rhs


@dataclass(frozen=True)
class BsgResult:
    """Extraction outcome: the dense pair (Aprime, Bprime), the input
    constant K_in, the four measured conclusion ratios, and K_out =
    max of the four (smallest single constant making all hold)."""

    Aprime: GridSet1
    Bprime: GridSet1
    K_in: float
    measured: dict
    K_out: float


class BsgExtractionError(RuntimeError):
    """No pivot met the cap; carries the best attempt found."""

    def __init__(self, message: str, best: BsgResult):
        super().__init__(message)
        self.best = best


def _checked(name: str, sides, *inputs) -> InequalityRecord:
    """The one path of every check: sides(semantics) gives integers (lhs,
    num, den), and lhs <= num / den is asserted exactly, as lhs * den <=
    num, at INDEX.  The COVER sides are computed and logged against slack
    4 only when INFO is enabled."""
    lhs, num, den = sides(SumSemantics.INDEX)
    digest = _digest(*inputs)
    if lhs * den > num:
        raise InternalCheckError(
            f"{name} violated: {lhs} * {den} > {num} (inputs {digest}); "
            f"this is a theorem, so a bug")
    if log.isEnabledFor(logging.INFO):
        c_lhs, c_num, c_den = sides(SumSemantics.COVER)
        log.info("%s cover-semantics measurement: lhs=%d rhs=%g ok_at_slack_4=%s",
                 name, c_lhs, c_num / c_den, c_lhs * c_den <= 4 * c_num)
    return InequalityRecord(name, lhs, num / den, 1.0, digest)


def check_ruzsa_triangle(X: GridSet1, Y: GridSet1, Z: GridSet1) -> InequalityRecord:
    """|X - Z| * |Y| <= |X - Y| * |Y - Z|."""
    for S in (X, Y, Z):
        _require(not S.is_empty, "sets must be nonempty")
    return _checked("ruzsa_triangle", lambda sem: (
        diffset_count(X, Z, sem) * Y.count,
        diffset_count(X, Y, sem) * diffset_count(Y, Z, sem), 1), X, Y, Z)


def check_plunnecke(X: GridSet1, Ys) -> InequalityRecord:
    """|Y1 + ... + Yk| <= a1*...*ak * |X| with ai = |X + Yi| / |X|, that is
    |Y1 + ... + Yk| * |X|**(k-1) <= |X + Y1| * ... * |X + Yk|."""
    Ys = list(Ys)
    _require(1 <= len(Ys) <= 4, "supports 1 to 4 summands")
    _require(not X.is_empty, "sets must be nonempty")
    for Y in Ys:
        _require(not Y.is_empty, "sets must be nonempty")
    *heads, last = Ys

    def total(sem):  # |Y1 + ... + Yk|: the partial sums are operands, the last is counted
        if not heads:
            return last.count
        return sumset_count(reduce(lambda S, Y: sumset(S, Y, sem), heads), last, sem)
    return _checked("plunnecke", lambda sem: (
        total(sem),
        math.prod(sumset_count(X, Y, sem) for Y in Ys),
        X.count ** (len(Ys) - 1)), X, *Ys)


def check_cor_simple(X: GridSet1, Y: GridSet1, sign: str = "+") -> InequalityRecord:
    """max(|X - X|, |X + X|) * |Y| <= |X +- Y|**2."""
    _require(sign in ("+", "-"), f"sign must be '+' or '-', got {sign!r}")
    _require(not X.is_empty and not Y.is_empty, "sets must be nonempty")

    def sides(sem):
        mixed = (sumset_count if sign == "+" else diffset_count)(X, Y, sem)
        return (max(diffset_count(X, X, sem), sumset_count(X, X, sem)) * Y.count,
                mixed ** 2, 1)
    return _checked(f"cor_simple[{sign}]", sides, X, Y, sign)


def check_sum_to_difference(X: GridSet1, Y: GridSet1) -> InequalityRecord:
    """|X - Y| * |X| * |Y| <= |X + Y|**3 (the exact-chain form).

    The variant with |Y|**2 in place of |X||Y| is logged at INFO, not
    asserted.
    """
    _require(not X.is_empty and not Y.is_empty, "sets must be nonempty")

    def sides(sem):
        diff, summ = diffset_count(X, Y, sem), sumset_count(X, Y, sem)
        if sem is SumSemantics.INDEX and log.isEnabledFor(logging.INFO):
            log.info("sum_to_difference |Y|^2-variant measurement: lhs=%d rhs=%g ok=%s",
                     diff * Y.count ** 2, summ ** 3, diff * Y.count ** 2 <= summ ** 3)
        return diff * X.count * Y.count, summ ** 3, 1
    return _checked("sum_to_difference", sides, X, Y)


def _in_set(A: GridSet1, idx: np.ndarray) -> np.ndarray:
    """Whether each cell index of idx is a cell of nonempty A, from A's bits."""
    t = idx - A.offset
    inside = (t >= 0) & (t < A.bits.size)
    return inside & A.bits[np.where(inside, t, 0)]


def _require_graph_inside(A: GridSet1, B: GridSet1, G: GridSet2) -> None:
    """G sits inside A x B, tested on G's cells against A's and B's bits.
    The checks and messages are those of G.subset_of(cartesian_product(A,
    B)) on nonempty sets, whose box of A.bits.size * B.bits.size cells is
    refused over MAX_SPAN though it is no longer painted."""
    _require(A.scale == B.scale, "operands must share one scale")
    _require_span(A.bits.size * B.bits.size)
    _require(G.scale == A.scale, "operands must share one scale")
    i, j = G.indices.T
    _require(bool(np.all(_in_set(A, i) & _in_set(B, j))), "graph must sit inside A x B")


def check_graph_projection(A: GridSet1, B: GridSet1, G: GridSet2,
                           x: int) -> InequalityRecord:
    """|pi(G)| * |A - A| * |A - B| >= |G| * |A + xA| for pi(a,b) = a + x*b.

    Recorded with lhs = |G| * |A + xA| and rhs = the left product, so
    ok keeps the lhs <= rhs reading of InequalityRecord.
    """
    _require(not A.is_empty and not B.is_empty, "sets must be nonempty")
    _require(not G.is_empty, "graph must be nonempty")
    _require(isinstance(x, (int, np.integer)), "x must be an integer")
    _require_graph_inside(A, B, G)
    x = int(x)
    _require_linear_range(((x, max(abs(A.min_index), abs(A.max_index))),), "x*A indices")
    xA = GridSet1.from_indices(A.scale, x * A.indices)
    return _checked("graph_projection", lambda sem: (
        G.count * sumset_count(A, xA, sem),
        graph_sum(G, x, sem).count * diffset_count(A, A, sem) * diffset_count(A, B, sem),
        1), A, B, G, x)


# ---------------------------------------------------------------------------
# Balog-Szemeredi-Gowers extraction

_BSG_PIVOTS = 8


def _bsg_candidate(A: GridSet1, B: GridSet1, adj: np.ndarray,
                   pivot: int, edge_count: int):
    """One pivot's extraction; returns (K_out, measured, Aprime, Bprime)."""
    nA, nB = adj.shape
    deg_rows = adj.sum(axis=1)
    keep_rows = 2 * deg_rows * nA >= edge_count  # deg >= |G| / (2|A|)
    pruned = adj & keep_rows[:, None]
    col = pruned[:, pivot]
    if not col.any():
        return None
    a_rows = np.flatnonzero(col)
    deg_cols = pruned[a_rows].sum(axis=0)
    # deg_{A'}(b) >= |A'| |G| / (2 |A| |B|), compared exactly
    keep_cols = 2 * deg_cols * nA * nB >= a_rows.size * edge_count
    b_cols = np.flatnonzero(keep_cols)
    if b_cols.size == 0:
        return None
    Ap = GridSet1.from_indices(A.scale, A.indices[a_rows])
    Bp = GridSet1.from_indices(B.scale, B.indices[b_cols])
    sub_edges = int(adj[np.ix_(a_rows, b_cols)].sum())
    sums = sumset_count(Ap, Bp, SumSemantics.INDEX)
    root = math.sqrt(A.count * B.count)
    measured = {
        "A_ratio": A.count / Ap.count,
        "B_ratio": B.count / Bp.count,
        "sum_ratio": sums / root,
        "graph_ratio": (A.count * B.count) / sub_edges if sub_edges else math.inf,
        "Aprime_count": Ap.count,
        "Bprime_count": Bp.count,
        "sumset_count": sums,
        "subgraph_edges": sub_edges,
    }
    k_out = max(measured["A_ratio"], measured["B_ratio"],
                measured["sum_ratio"], measured["graph_ratio"])
    return k_out, measured, Ap, Bp


def bsg_extract(A: GridSet1, B: GridSet1, G: GridSet2, C_cap: float) -> BsgResult:
    """Extract dense A' in A, B' in B with small sumset and many edges.

    Tries the 8 most popular pivot columns (ties to the smaller index)
    and keeps the best K_out; raises BsgExtractionError with the best
    attempt when even it exceeds C_cap.
    """
    _require(not A.is_empty and not B.is_empty, "sets must be nonempty")
    _require(not G.is_empty, "graph must be nonempty")
    _require_graph_inside(A, B, G)
    Ai = A.indices
    Bi = B.indices
    adj = np.zeros((A.count, B.count), dtype=bool)
    adj[np.searchsorted(Ai, G.indices[:, 0]),
        np.searchsorted(Bi, G.indices[:, 1])] = True
    edge_count = G.count
    gsums = graph_sum(G, 1, SumSemantics.INDEX).count
    K_in = max((A.count * B.count) / edge_count,
               gsums / math.sqrt(A.count * B.count))

    deg_cols_all = adj.sum(axis=0)
    order = np.lexsort((np.arange(B.count), -deg_cols_all))
    best = None
    for pivot in order[:_BSG_PIVOTS]:
        cand = _bsg_candidate(A, B, adj, int(pivot), edge_count)
        if cand is None:
            continue
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        raise PreconditionError("graph too sparse: no pivot survives degree pruning")
    k_out, measured, Ap, Bp = best
    if not (Ap.subset_of(A) and Bp.subset_of(B)):
        raise InternalCheckError(f"extracted sets escaped their parents "
                                 f"(inputs {_digest(A, B, G, C_cap)}); bug")
    result = BsgResult(Aprime=Ap, Bprime=Bp, K_in=K_in, measured=measured,
                       K_out=k_out)
    if k_out > C_cap:
        raise BsgExtractionError(
            f"best extraction constant {k_out:.3f} exceeds cap {C_cap}", result)
    return result
