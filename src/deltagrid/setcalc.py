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
OR of the run's shifts is built by doubling.  The accumulator follows the
result's size: up to 2**15 bits (`_INT_SUM_BITS`, where the two cross
over) each run ORs its shifted OR into one Python int; above, each
distinct (run length, start mod 8) segment is turned into bytes once and
ORed in place into a single preallocated byte buffer at byte start // 8,
so no run copies the growing result.  The COVER cell is one shifted OR of
the packed sum, and a sum of trimmed operands is trimmed, so its bits are
unpacked once, straight into the result, and its popcount is the result's
count.  The mask and its doubled and shifted segments depend on the mask
operand alone, so `dilated_sum_counts` keeps them, up to a fixed budget,
for the expander's dilation sweep, and takes each sum's count as a
popcount, without building the dilation or the sum.  Difference sets are
sums with the reflected operand (COVER then moves one cell left).

Products, rational dilations and graph sums leave the lattice, so
covers are computed from interval endpoints in scaled integer units
(delta**2 for products, delta/q for a factor p/q).  A cover of a union
is the union of the covers, so a dilation covers one interval per run
and a product one per pair of runs, in blocks of bounded size; graph sums
stay per cell.  Whether an image's supremum is attained decides its last
cell: `grid._cover` holds that one rule, and a dilation's ranges, monotone
in either sign, merge into runs by `grid._merged`.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import (GridSet1, GridSet2, MAX_INDEX, MAX_SPAN, _cover, _merged, _require,
                   _require_span, _seed, as_fraction)


class SumSemantics(enum.Enum):
    INDEX = "index"
    COVER = "cover"


def _require_linear_range(terms, what: str) -> None:
    """Bound sum |a| * b over (a, b) terms in Python ints, before an int64
    product of magnitude up to that sum is formed, so it cannot wrap."""
    _require(sum(abs(int(a)) * int(b) for a, b in terms) < MAX_INDEX,
             f"{what} would leave the guarded integer range")


def _sum_bits(A: GridSet1, lo: int, hi: int, semantics: SumSemantics) -> int:
    """Checks the sum of nonempty A and an operand whose first cell is lo and
    last cell hi, before anything is allocated; returns the bits the kernel
    builds (the sum span plus the COVER cell)."""
    cover = semantics is SumSemantics.COVER
    _require(A.min_index + lo > -MAX_INDEX and A.max_index + hi + cover < MAX_INDEX,
             "sum indices would leave the guarded integer range")
    nbits = A.bits.size + hi - lo + 1
    _require_span(nbits - (not cover))
    return nbits


# Bytes of doubled runs and segments a dilation sweep keeps: an n=16 sweep
# of a short-run set needs 1.4 MiB, an n=20 one about 16 MiB.
_MEMO_BYTES = 1 << 24

# Sums of at most this many kernel bits are ORed into one Python int, larger
# ones into a byte buffer.  An int OR takes time in proportion to the
# result's size, a buffer OR about 1-2 us of numpy call per run, so the
# crossover barely moves with the run count.  Kernel time per call with a
# warm memo, int over buffer, for 4, 32 and 256 runs of 1-3 cells: 0.32-0.53
# at 2**14 bits, 0.37-0.74 at 2**15, 0.42-1.20 at 2**16 and 0.52-1.96 at
# 2**17 (2-vCPU x86 VM, Python 3.11, numpy 2.4).
_INT_SUM_BITS = 1 << 15


def _doubled(mask: int, length: int) -> int:
    """The OR of mask shifted by 0 .. length - 1, by log(length) doublings."""
    run, d = mask, 1
    while d < length:
        step = min(d, length - d)
        run |= run << step
        d += step
    return run


def _sum_kernel(mask: int, memo: dict, starts, lengths, nbits: int):
    """(sum, added): the INDEX sum of the mask operand and an operand whose
    runs start at `starts` (relative to its first cell) with `lengths`, as a
    Python int whose bit t is the cell t after the sum of both first cells,
    and the bytes this call added to memo.

    memo holds, per run length, the OR of the mask's shifts and, per
    (length, start % 8), its bytes; it depends on the mask alone, so sums
    sharing the mask share it.  Up to _INT_SUM_BITS each run ORs its shifted
    OR into one int; above, its bytes are ORed in place into one byte buffer
    at byte start // 8, so no run copies the growing result."""
    into_int = nbits <= _INT_SUM_BITS
    acc = 0 if into_int else np.zeros((nbits + 7) // 8, dtype=np.uint8)
    added = 0
    for start, length in zip(starts, lengths):
        run = memo.get(length)
        if run is None:
            run = memo[length] = _doubled(mask, length)
            added += run.bit_length() >> 3
        if into_int:
            acc |= run << start
            continue
        key = (length, start & 7)
        seg = memo.get(key)
        if seg is None:
            shifted = run << (start & 7)
            seg = memo[key] = np.frombuffer(
                shifted.to_bytes((shifted.bit_length() + 7) // 8, "little"), dtype=np.uint8)
            added += seg.nbytes
        b = start >> 3
        window = acc[b:b + seg.size]
        np.bitwise_or(window, seg, out=window)  # `|=` on a slice would also copy it back
    return (acc if into_int else int.from_bytes(acc, "little")), added


def _rel_runs(first: np.ndarray, last: np.ndarray):
    """Run starts relative to the first cell, and run lengths, as lists."""
    return (first - first[0]).tolist(), (last + 1 - first).tolist()


def sumset(A: GridSet1, B: GridSet1, semantics: SumSemantics = SumSemantics.INDEX) -> GridSet1:
    """A + B under the chosen semantics.

    INDEX: {i + j}.  COVER: exact cell cover of the Minkowski sum of
    the cell unions, i.e. {i + j, i + j + 1}.
    """
    _require(A.scale == B.scale, "operands must share one scale")
    if A.is_empty or B.is_empty:
        return GridSet1.empty(A.scale)
    nbits = _sum_bits(A, B.min_index, B.max_index, semantics)
    small, big = (A, B) if A.count <= B.count else (B, A)
    acc, _ = _sum_kernel(big.to_mask(), {}, *_rel_runs(*small.runs), nbits)
    if semantics is SumSemantics.COVER:
        acc |= acc << 1
    else:
        nbits -= 1  # no COVER cell
    # A sum of trimmed operands is trimmed: both end cells are set.
    bits = np.unpackbits(np.frombuffer(acc.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8),
                         count=nbits, bitorder="little").view(bool)
    return _seed(GridSet1(A.scale, A.offset + B.offset, bits), count=acc.bit_count())


def dilated_sum_counts(A: GridSet1, xs) -> list:
    """The cell count of sumset(A, dilate(A, x), COVER) for each rational x
    of xs, in order, with the same checks and errors, from the dilation's
    runs, without building the dilation or the sum.

    A is the mask operand: its mask is built once, and its doubled runs and
    byte segments serve every dilation with a run of the same (length,
    start % 8) until they pass _MEMO_BYTES and are dropped.  The COVER cell
    is one shifted OR of the sum's bits, and the count their popcount.
    """
    mask, memo, kept, counts = A.to_mask(), {}, 0, []
    for x in xs:
        runs = _dilation_runs(A, x)
        if runs is None:  # A is empty
            counts.append(0)
            continue
        first, last = runs
        nbits = _sum_bits(A, int(first[0]), int(last[-1]), SumSemantics.COVER)
        acc, added = _sum_kernel(mask, memo, *_rel_runs(first, last), nbits)
        counts.append((acc | acc << 1).bit_count())
        kept += added
        if kept > _MEMO_BYTES:
            memo, kept = {}, 0
    return counts


def reflect(A: GridSet1) -> GridSet1:
    """{-x : x in A} in INDEX sense: cell i maps to cell -i."""
    if A.is_empty:
        return A
    return GridSet1(A.scale, -(A.offset + A.bits.size - 1), A.bits[::-1].copy())


def diffset(A: GridSet1, B: GridSet1, semantics: SumSemantics = SumSemantics.INDEX) -> GridSet1:
    """A - B under the chosen semantics.

    INDEX: {i - j}.  COVER: the cell [i,i+1) - [j,j+1) spans
    (i-j-1, i-j+1), i.e. cells {i-j-1, i-j}.
    """
    base = sumset(A, reflect(B), semantics)
    # COVER: A + (-B) covers {i-j, i-j+1}; one cell left is {i-j-1, i-j}
    return base if semantics is SumSemantics.INDEX else base.translate(-1)


def _reach(A: GridSet1) -> int:  # the largest |cell end| of A
    return max(abs(A.min_index), abs(A.max_index)) + 1


def _dilation_runs(A: GridSet1, x):
    """dilate's checks, then the maximal runs (first, last), ascending, of
    the exact cell cover of x*A; None for an empty A."""
    fx = as_fraction(x)
    _require(fx != 0, "dilation factor must be nonzero")
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "dilation factor exceeds guarded magnitude 2**30")
    if A.is_empty:
        return None
    _require_linear_range(((p, _reach(A)),), "dilated indices")
    starts, ends = A.runs
    lo, hi = p * starts, p * (ends + 1)
    if p < 0:
        lo, hi = hi, lo
    first, last = _merged(*_cover(lo, hi, q, p < 0))  # starts are monotone in either sign
    _require_span(int(last[-1] - first[0]) + 1)
    return first, last


def dilate(A: GridSet1, x) -> GridSet1:
    """Exact cell cover of x*A for rational x != 0.

    Each run [s, e + 1) of A maps to one interval, held in delta/q units
    (x = p/q reduced), so the boundary-cell decision is integer-exact.
    Its supremum is attained exactly when x < 0 (the closed end s*delta
    maps to the image's max), and only then is the right end's cell in.
    """
    runs = _dilation_runs(A, x)
    return A if runs is None else GridSet1._from_runs(A.scale, *runs)


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


# Run pairs whose product covers are computed at once: their int64
# temporaries take about 100 bytes per pair, so a block stays near 100 MiB.
_PAIR_BLOCK = 1 << 20


def _pair_ranges(s1, e1, s2, e2, u: int):
    """(k_first, k_last) of the cover of each product of a run [a, b) =
    [s1, e1 + 1) by a run [c, d) = [s2, e2 + 1), the first runs outer, from
    the corners {a*c, a*d, b*c, b*d} in delta**2 units (cell k is
    [k*u, (k+1)*u))."""
    a, b = s1[:, None], e1[:, None] + 1
    c, d = s2, e2 + 1
    ac, ad, bc, bd = a * c, a * d, b * c, b * d
    hi = np.maximum(np.maximum(ac, ad), np.maximum(bc, bd))
    lo = np.minimum(np.minimum(ac, ad), np.minimum(bc, bd))
    # Corner a*c is the only corner both of whose factors sit at their
    # closed left ends, and xy has no maximum inside a box, so the supremum
    # is attained exactly when a*c reaches it.  The corners of a
    # positive-area box never all coincide, so no image is a single point.
    return _cover(lo.ravel(), hi.ravel(), u, (hi == ac).ravel())


def _product_cover_pairs(P: GridSet1, A: GridSet1) -> GridSet1:
    """Cover of the pointwise product of two cell unions, pair of runs by
    pair of runs (`_pair_ranges`), with output cell k = [k*2**n, (k+1)*2**n).

    The pairs are covered in blocks of at most _PAIR_BLOCK, each painted
    into one array, so memory follows the result's span and not the pair
    count; the result is the cover of all pairs at once.
    """
    _require_linear_range(((_reach(P), _reach(A)),), "product indices")
    (s1, e1), (s2, e2) = P.runs, A.runs
    u = 1 << P.scale.n
    cols = min(s2.size, _PAIR_BLOCK)
    rows = _PAIR_BLOCK // cols
    blocks = [(s1[i:i + rows], e1[i:i + rows], s2[j:j + cols], e2[j:j + cols], u)
              for i in range(0, s1.size, rows) for j in range(0, s2.size, cols)]
    # xy is extreme over the box [s1[0], e1[-1] + 1) x [s2[0], e2[-1] + 1) at
    # its corners, which are corners of pairs: they give the first cell, and
    # the last one (hi or hi - 1 of the top corner) up to one cell.
    ext = [int(x) * int(y) for x in (s1[0], e1[-1] + 1) for y in (s2[0], e2[-1] + 1)]
    lo, top = min(ext) // u, max(ext) // u
    if top - lo > MAX_SPAN:  # over the cap either way; the exact last cell names the span
        _require_span(max(int(_pair_ranges(*blk)[1].max()) for blk in blocks) - lo + 1)
    bits = np.zeros(top - lo + 1, dtype=bool)
    for blk in blocks:
        piece = GridSet1.from_ranges(P.scale, *_pair_ranges(*blk))
        bits[piece.offset - lo:piece.offset - lo + piece.bits.size] |= piece.bits
    return GridSet1.from_bits(P.scale, lo, bits)


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
        return GridSet1.from_indices(G.scale, ii + xv * jj)
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "graph-sum factor exceeds guarded magnitude 2**30")
    _require_linear_range(((q, imax + 1), (p, jmax + 1)), "graph-sum endpoints")
    # the image of cells i and j starts at i*q + p*j (p > 0) or i*q + p*(j+1)
    # and spans q + |p| units
    lo = ii * q + p * (jj if p > 0 else jj + 1)
    return GridSet1.from_ranges(G.scale, *_cover(lo, lo + q + abs(p), q, False))
