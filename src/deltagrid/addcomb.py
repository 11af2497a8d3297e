"""Additive-combinatorics inequality verifiers and a constructive
Balog-Szemeredi-Gowers extraction.

Every check runs in INDEX semantics (exact integer index sumsets),
where the classical inequalities are theorems with absolute constant
1; a violation therefore raises InternalCheckError rather than
returning a failed record.  The same quantities in COVER semantics
pick up bounded discretisation slack, so they are logged at slack 4
but never asserted, and computed only when this module's logger is
enabled for INFO.

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

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .grid import GridSet1, GridSet2, cartesian_product, _digest, _require
from .setcalc import SumSemantics, diffset, graph_sum, sumset

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


def _assert_record(rec: InequalityRecord) -> InequalityRecord:
    if not rec.ok:
        raise InternalCheckError(
            f"{rec.name} violated: {rec.lhs} > {rec.slack_used} * {rec.rhs} "
            f"(inputs {rec.inputs_digest}); this is a theorem, so a bug")
    return rec


def _log_cover(name: str, lhs: int, rhs: float) -> None:
    log.info("%s cover-semantics measurement: lhs=%d rhs=%g ok_at_slack_4=%s",
             name, lhs, rhs, lhs <= 4 * rhs)


def check_ruzsa_triangle(X: GridSet1, Y: GridSet1, Z: GridSet1) -> InequalityRecord:
    """|X - Z| * |Y| <= |X - Y| * |Y - Z|, exact in index arithmetic."""
    for S in (X, Y, Z):
        _require(not S.is_empty, "sets must be nonempty")
    IX = SumSemantics.INDEX
    rec = InequalityRecord(
        name="ruzsa_triangle",
        lhs=diffset(X, Z, IX).count * Y.count,
        rhs=float(diffset(X, Y, IX).count * diffset(Y, Z, IX).count),
        slack_used=1.0, inputs_digest=_digest(X, Y, Z))
    if log.isEnabledFor(logging.INFO):
        CV = SumSemantics.COVER
        _log_cover("ruzsa_triangle", diffset(X, Z, CV).count * Y.count,
                   float(diffset(X, Y, CV).count * diffset(Y, Z, CV).count))
    return _assert_record(rec)


def check_plunnecke(X: GridSet1, Ys) -> InequalityRecord:
    """|Y1 + ... + Yk| <= a1*...*ak * |X| with ai = |X + Yi| / |X|."""
    Ys = list(Ys)
    _require(1 <= len(Ys) <= 4, "supports 1 to 4 summands")
    _require(not X.is_empty, "sets must be nonempty")
    for Y in Ys:
        _require(not Y.is_empty, "sets must be nonempty")
    IX = SumSemantics.INDEX
    total = Ys[0]
    for Y in Ys[1:]:
        total = sumset(total, Y, IX)
    # compare lhs * |X|^(k-1) <= prod |X + Yi| exactly in integers
    alphas_num = 1
    for Y in Ys:
        alphas_num *= sumset(X, Y, IX).count
    k = len(Ys)
    rhs = alphas_num / float(X.count) ** (k - 1)
    rec = InequalityRecord(
        name="plunnecke", lhs=total.count, rhs=rhs, slack_used=1.0,
        inputs_digest=_digest(X, *Ys))
    if total.count * X.count ** (k - 1) > alphas_num:
        raise InternalCheckError(
            f"plunnecke violated exactly: {total.count}*{X.count}^{k - 1} > "
            f"{alphas_num} (inputs {rec.inputs_digest}); this is a theorem, so a bug")
    if log.isEnabledFor(logging.INFO):
        CV = SumSemantics.COVER
        total_c = Ys[0]
        prod_c = 1
        for Y in Ys[1:]:
            total_c = sumset(total_c, Y, CV)
        for Y in Ys:
            prod_c *= sumset(X, Y, CV).count
        _log_cover("plunnecke", total_c.count, prod_c / float(X.count) ** (k - 1))
    return rec


def check_cor_simple(X: GridSet1, Y: GridSet1, sign: str = "+") -> InequalityRecord:
    """max(|X - X|, |X + X|) * |Y| <= |X +- Y|**2."""
    _require(sign in ("+", "-"), f"sign must be '+' or '-', got {sign!r}")
    _require(not X.is_empty and not Y.is_empty, "sets must be nonempty")
    IX = SumSemantics.INDEX
    mixed = sumset(X, Y, IX) if sign == "+" else diffset(X, Y, IX)
    lhs = max(diffset(X, X, IX).count, sumset(X, X, IX).count) * Y.count
    rec = InequalityRecord(name=f"cor_simple[{sign}]", lhs=lhs,
                           rhs=float(mixed.count) ** 2, slack_used=1.0,
                           inputs_digest=_digest(X, Y, sign))
    if log.isEnabledFor(logging.INFO):
        CV = SumSemantics.COVER
        mixed_c = sumset(X, Y, CV) if sign == "+" else diffset(X, Y, CV)
        _log_cover(f"cor_simple[{sign}]",
                   max(diffset(X, X, CV).count, sumset(X, X, CV).count) * Y.count,
                   float(mixed_c.count) ** 2)
    return _assert_record(rec)


def check_sum_to_difference(X: GridSet1, Y: GridSet1) -> InequalityRecord:
    """|X - Y| * |X| * |Y| <= |X + Y|**3 (the exact-chain form).

    The variant with |Y|**2 in place of |X||Y| is logged at INFO, not
    asserted.
    """
    _require(not X.is_empty and not Y.is_empty, "sets must be nonempty")
    IX = SumSemantics.INDEX
    diff = diffset(X, Y, IX).count
    summ = sumset(X, Y, IX).count
    rec = InequalityRecord(name="sum_to_difference", lhs=diff * X.count * Y.count,
                           rhs=float(summ) ** 3, slack_used=1.0,
                           inputs_digest=_digest(X, Y))
    if log.isEnabledFor(logging.INFO):
        log.info("sum_to_difference |Y|^2-variant measurement: lhs=%d rhs=%g ok=%s",
                 diff * Y.count ** 2, float(summ) ** 3,
                 diff * Y.count ** 2 <= float(summ) ** 3)
        CV = SumSemantics.COVER
        _log_cover("sum_to_difference", diffset(X, Y, CV).count * X.count * Y.count,
                   float(sumset(X, Y, CV).count) ** 3)
    return _assert_record(rec)


def check_graph_projection(A: GridSet1, B: GridSet1, G: GridSet2,
                           x: int) -> InequalityRecord:
    """|pi(G)| * |A - A| * |A - B| >= |G| * |A + xA| for pi(a,b) = a + x*b.

    Recorded with lhs = |G| * |A + xA| and rhs = the left product, so
    ok keeps the lhs <= rhs reading of InequalityRecord.
    """
    _require(not A.is_empty and not B.is_empty, "sets must be nonempty")
    _require(not G.is_empty, "graph must be nonempty")
    _require(isinstance(x, (int, np.integer)), "x must be an integer")
    _require(G.subset_of(cartesian_product(A, B)), "graph must sit inside A x B")
    x = int(x)
    IX = SumSemantics.INDEX
    xA = GridSet1.from_indices(A.scale, x * A.indices)
    pi_count = graph_sum(G, x, IX).count
    lhs = G.count * sumset(A, xA, IX).count
    rhs = float(pi_count * diffset(A, A, IX).count * diffset(A, B, IX).count)
    rec = InequalityRecord(name="graph_projection", lhs=lhs, rhs=rhs,
                           slack_used=1.0, inputs_digest=_digest(A, B, G, x))
    if log.isEnabledFor(logging.INFO):
        CV = SumSemantics.COVER
        _log_cover("graph_projection", G.count * sumset(A, xA, CV).count,
                   float(graph_sum(G, x, CV).count * diffset(A, A, CV).count
                         * diffset(A, B, CV).count))
    return _assert_record(rec)


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
    sums = sumset(Ap, Bp, SumSemantics.INDEX).count
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
    _require(G.subset_of(cartesian_product(A, B)), "graph must sit inside A x B")
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
        raise InternalCheckError("extracted sets escaped their parents; bug")
    result = BsgResult(Aprime=Ap, Bprime=Bp, K_in=K_in, measured=measured,
                       K_out=k_out)
    if k_out > C_cap:
        raise BsgExtractionError(
            f"best extraction constant {k_out:.3f} exceeds cap {C_cap}", result)
    return result
