"""Sumset calculus on grid sets, exact in integer cell indices.

Two semantics coexist and are never mixed implicitly:

INDEX treats a grid set as the finite set of its cell indices and does
plain integer-set arithmetic ({i + j}, {i - j}, ...).  This is the
right semantics for the additive-combinatorics inequalities, which are
exact theorems about finite subsets of Z and are asserted here with
zero tolerance.

COVER treats a grid set as the union of its half-open cells and returns
the exact delta-cell cover of the pointwise image.  A sum of two cells
spans two cells ({i+j, i+j+1}), a difference spans {i-j-1, i-j}; the
cover of a cover of a sum is again the true cover, so n-fold COVER sums
stay exact under pairwise folding.

Sums run bit-parallel in one kernel.  The larger operand becomes a
big-integer occupancy mask; for each maximal run of the smaller one the
OR of the run's shifts is built by doubling.  Each distinct (run length,
start mod 8) segment is turned into bytes once and ORed in place into a
single preallocated byte buffer at byte start // 8, so no run copies
the growing result.  The buffer is unpacked once, and the COVER cell is
added by one shifted OR on the unpacked bits.  The mask and its doubled
and shifted segments depend on the mask operand alone, so `sumsets`
keeps them, up to a fixed budget, for a fixed operand and a stream of
others (the expander's dilation sweep).  Difference sets are sums with
the reflected operand (COVER then moves one cell left).  A naive
double-loop implementation is kept behind method="naive" as a test
oracle.

Products, rational dilations and graph sums leave the lattice, so
covers are computed from interval endpoints in scaled integer units
(delta**2 for products, delta/q for a factor p/q).  A cover of a union
is the union of the covers, so a dilation covers one interval per run
and a product one per pair of runs; graph sums stay per cell.  Whether
an image's supremum is attained decides its last cell: `grid._cover`
holds that one rule and paints the ranges by `GridSet1.from_ranges`.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import GridSet1, GridSet2, MAX_INDEX, MAX_SPAN, _cover, _require, _runs, as_fraction


class SumSemantics(enum.Enum):
    INDEX = "index"
    COVER = "cover"


def _require_linear_range(terms, what: str) -> None:
    """Bound sum |a| * b over (a, b) terms in Python ints, before an int64
    product of magnitude up to that sum is formed, so it cannot wrap."""
    _require(sum(abs(int(a)) * int(b) for a, b in terms) < MAX_INDEX,
             f"{what} would leave the guarded integer range")


def _sum_bits(A: GridSet1, B: GridSet1, semantics: SumSemantics) -> int:
    """Checks A + B before anything is allocated; returns the bits the
    kernel builds (the sum span plus the COVER cell), 0 for an empty operand."""
    _require(A.scale == B.scale, "operands must share one scale")
    if A.is_empty or B.is_empty:
        return 0
    cover = semantics is SumSemantics.COVER
    _require(A.min_index + B.min_index > -MAX_INDEX
             and A.max_index + B.max_index + cover < MAX_INDEX,
             "sum indices would leave the guarded integer range")
    nbits = A.bits.size + B.bits.size
    _require(nbits - (not cover) <= MAX_SPAN,
             f"cell span {nbits - (not cover)} exceeds dense-representation cap {MAX_SPAN}")
    return nbits


# Bytes of doubled runs and segments `sumsets` keeps: an n=16 expander sweep
# of a short-run set needs 1.4 MiB, an n=20 one about 16 MiB.
_MEMO_BYTES = 1 << 24


def _sum_kernel(M: GridSet1, mask: int, memo: dict, B: GridSet1,
                semantics: SumSemantics, nbits: int) -> GridSet1:
    """M + B from M's mask and B's runs.  memo holds, per run length, the
    OR of the mask's shifts (log(length) doublings) and, per (length,
    start % 8), its bytes; it depends on M alone, so sums sharing M share it."""
    starts, ends = _runs(B.bits)
    buf = np.zeros((nbits + 7) // 8, dtype=np.uint8)
    for start, length in zip(starts.tolist(), (ends + 1 - starts).tolist()):
        key = (length, start & 7)
        seg = memo.get(key)
        if seg is None:
            run = memo.get(length)
            if run is None:
                run = mask
                d = 1
                while d < length:
                    step = min(d, length - d)
                    run |= run << step
                    d += step
                memo[length] = run
            shifted = run << (start & 7)
            seg = memo[key] = np.frombuffer(
                shifted.to_bytes((shifted.bit_length() + 7) // 8, "little"), dtype=np.uint8)
        b = start >> 3
        buf[b:b + seg.size] |= seg
    bits = np.unpackbits(buf, count=nbits, bitorder="little").view(bool)
    if semantics is SumSemantics.COVER:
        bits[1:] |= bits[:-1]
    return GridSet1.from_bits(M.scale, M.offset + B.offset, bits)


def sumset(A: GridSet1, B: GridSet1, semantics: SumSemantics = SumSemantics.INDEX,
           method: str = "bitmask") -> GridSet1:
    """A + B under the chosen semantics.

    INDEX: {i + j}.  COVER: exact cell cover of the Minkowski sum of
    the cell unions, i.e. {i + j, i + j + 1}.
    """
    _require(method in ("bitmask", "naive"), f"unknown method {method!r}")
    nbits = _sum_bits(A, B, semantics)
    if not nbits:
        return GridSet1.empty(A.scale)
    if method == "naive":
        out = {int(i) + int(j) for i in A.indices for j in B.indices}
        if semantics is SumSemantics.COVER:
            out |= {v + 1 for v in out}
        return GridSet1.from_indices(A.scale, sorted(out))
    small, big = (A, B) if A.count <= B.count else (B, A)
    return _sum_kernel(big, big.to_mask(), {}, small, semantics, nbits)


def sumsets(A: GridSet1, Bs, semantics: SumSemantics = SumSemantics.INDEX):
    """Yield sumset(A, B, semantics) for each B of the iterable Bs, in order.

    A is always the mask operand: its mask is built once, and its doubled
    runs and byte segments serve every B with a run of the same (length,
    start % 8) until they pass _MEMO_BYTES and are dropped.  Each B is
    checked as sumset checks it, before its sum is allocated.
    """
    mask, memo, kept = A.to_mask(), {}, 0
    for B in Bs:
        nbits = _sum_bits(A, B, semantics)
        old = len(memo)
        yield _sum_kernel(A, mask, memo, B, semantics, nbits) if nbits else GridSet1.empty(A.scale)
        kept += sum(v.nbytes if isinstance(v, np.ndarray) else v.bit_length() >> 3
                    for v in list(memo.values())[old:])
        if kept > _MEMO_BYTES:
            memo, kept = {}, 0
        del B  # not held while the next B is made


def reflect(A: GridSet1) -> GridSet1:
    """{-x : x in A} in INDEX sense: cell i maps to cell -i."""
    if A.is_empty:
        return A
    return GridSet1(A.scale, -(A.offset + A.bits.size - 1), A.bits[::-1].copy())


def diffset(A: GridSet1, B: GridSet1, semantics: SumSemantics = SumSemantics.INDEX,
            method: str = "bitmask") -> GridSet1:
    """A - B under the chosen semantics.

    INDEX: {i - j}.  COVER: the cell [i,i+1) - [j,j+1) spans
    (i-j-1, i-j+1), i.e. cells {i-j-1, i-j}.
    """
    _require(A.scale == B.scale, "operands must share one scale")
    if A.is_empty or B.is_empty:
        return GridSet1.empty(A.scale)
    if method == "naive":
        out = {int(i) - int(j) for i in A.indices for j in B.indices}
        if semantics is SumSemantics.COVER:
            out |= {v - 1 for v in out}
        return GridSet1.from_indices(A.scale, sorted(out))
    base = sumset(A, reflect(B), semantics, method=method)
    # COVER: A + (-B) covers {i-j, i-j+1}; one cell left is {i-j-1, i-j}
    return base if semantics is SumSemantics.INDEX else base.translate(-1)


def _reach(A: GridSet1) -> int:  # the largest |cell end| of A
    return max(abs(A.min_index), abs(A.max_index)) + 1


def dilate(A: GridSet1, x) -> GridSet1:
    """Exact cell cover of x*A for rational x != 0.

    Each run [s, e + 1) of A maps to one interval, held in delta/q units
    (x = p/q reduced), so the boundary-cell decision is integer-exact.
    Its supremum is attained exactly when x < 0 (the closed end s*delta
    maps to the image's max), and only then is the right end's cell in.
    """
    fx = as_fraction(x)
    _require(fx != 0, "dilation factor must be nonzero")
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "dilation factor exceeds guarded magnitude 2**30")
    if A.is_empty:
        return A
    _require_linear_range(((p, _reach(A)),), "dilated indices")
    starts, ends = A.runs
    lo, hi = p * starts, p * (ends + 1)
    if p < 0:
        lo, hi = hi, lo
    return _cover(A.scale, lo, hi, q, p < 0)


def nfold_sum(A: GridSet1, N: int, semantics: SumSemantics = SumSemantics.INDEX) -> GridSet1:
    """N-fold sum A + ... + A by pairwise folding.

    Both semantics fold exactly: INDEX sums are associative, and the
    COVER of a COVER-sum is the true cover of the underlying Minkowski
    sum (cell widths add, one slack cell total per fold direction).
    """
    N = int(N)
    _require(N >= 1, "fold count must be at least 1")
    acc = A
    for _ in range(N - 1):
        acc = sumset(acc, A, semantics)
    return acc


def _product_cover_pairs(P: GridSet1, A: GridSet1) -> GridSet1:
    """Cover of the pointwise product of two cell unions, pair of runs by
    pair of runs, in delta**2 units: runs [a, b) of P and [c, d) of A give
    corners {a*c, a*d, b*c, b*d}, and output cell k is [k*2**n, (k+1)*2**n).
    """
    _require_linear_range(((_reach(P), _reach(A)),), "product indices")
    (s1, e1), (s2, e2) = P.runs, A.runs
    a, b = np.repeat(s1, s2.size), np.repeat(e1 + 1, s2.size)
    c, d = np.tile(s2, s1.size), np.tile(e2 + 1, s1.size)
    corners = np.stack((a * c, a * d, b * c, b * d))
    hi = corners.max(axis=0)
    # Corner 0 is the only corner both of whose factors sit at their
    # closed left ends, and xy has no maximum inside a box, so the supremum
    # is attained exactly when corner 0 reaches it.  The corners of a
    # positive-area box never all coincide, so no image is a single point.
    return _cover(P.scale, corners.min(axis=0), hi, 1 << P.scale.n, hi == corners[0])


def nfold_product(A: GridSet1, N: int) -> GridSet1:
    """Exact cover of the N-fold pointwise product, folded left to right.

    Each fold covers the product of the previous cover with A; covers
    only grow, so the result contains the true N-fold product set and
    each fold's boundary arithmetic is exact at its own stage.
    """
    N = int(N)
    _require(N >= 1, "fold count must be at least 1")
    _require(not A.is_empty, "product of an empty set")
    acc = A
    for _ in range(N - 1):
        acc = _product_cover_pairs(acc, A)
    return acc


def graph_sum(G: GridSet2, x, semantics: SumSemantics = SumSemantics.COVER) -> GridSet1:
    """{a + x*b : (a, b) in G} as indices or as an exact cell cover.

    INDEX requires integer x and returns {i + x*j}.  COVER accepts
    rational x and covers [i, i+1)*delta + x*[j, j+1)*delta exactly in
    delta/q units; the supremum is never attained (both cell ends are
    open on the relevant side), so the right boundary cell is excluded
    unless properly overlapped.
    """
    fx = as_fraction(x)
    _require(not G.is_empty, "graph sum of an empty graph")
    (ox, oy), (h, w) = G.offset, G.bits.shape
    imax = max(abs(ox), abs(ox + w - 1))
    jmax = max(abs(oy), abs(oy + h - 1))
    ii, jj = G.indices.T
    if semantics is SumSemantics.INDEX:
        _require(fx.denominator == 1, "INDEX graph sum needs integer x")
        xv = int(fx)
        _require_linear_range(((1, imax), (xv, jmax + 1)), "graph-sum indices")
        return GridSet1.from_indices(G.scale, np.unique(ii + xv * jj))
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "graph-sum factor exceeds guarded magnitude 2**30")
    _require_linear_range(((q, imax + 1), (p, jmax + 1)), "graph-sum endpoints")
    # the image of cells i and j starts at i*q + p*j (p > 0) or i*q + p*(j+1)
    # and spans q + |p| units
    lo = ii * q + p * (jj if p > 0 else jj + 1)
    return _cover(G.scale, lo, lo + q + abs(p), q, False)
