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
added by one shifted OR on the unpacked bits.  Difference sets are sums
with the reflected operand (COVER then moves one cell left).  A naive
double-loop implementation is kept behind method="naive" as a test
oracle.

Products and rational dilations leave the lattice, so covers are
computed from interval endpoints held in scaled integer units
(delta**2 for products, delta/q for dilation by p/q).  Half-open cells
mean an image's supremum may or may not be attained; attainedness is
tracked through the corner arithmetic because it decides whether the
final boundary cell belongs to the cover.  The cell ranges are painted
by `GridSet1.from_ranges`.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import GridSet1, GridSet2, MAX_INDEX, Scale, _require, _runs, as_fraction


class SumSemantics(enum.Enum):
    INDEX = "index"
    COVER = "cover"


def _check_bounds(*sets: GridSet1) -> None:
    total = 0
    for s in sets:
        total += max(abs(s.min_index), abs(s.max_index))
    _require(total < MAX_INDEX, "sum indices would leave the guarded integer range")


def _require_linear_range(terms, what: str) -> None:
    """Bound sum |a| * b over (a, b) terms in Python ints, before an int64
    product of magnitude up to that sum is formed, so it cannot wrap."""
    _require(sum(abs(int(a)) * int(b) for a, b in terms) < MAX_INDEX,
             f"{what} would leave the guarded integer range")


def sumset(A: GridSet1, B: GridSet1, semantics: SumSemantics = SumSemantics.INDEX,
           method: str = "bitmask") -> GridSet1:
    """A + B under the chosen semantics.

    INDEX: {i + j}.  COVER: exact cell cover of the Minkowski sum of
    the cell unions, i.e. {i + j, i + j + 1}.
    """
    _require(A.scale == B.scale, "operands must share one scale")
    _require(method in ("bitmask", "naive"), f"unknown method {method!r}")
    if A.is_empty or B.is_empty:
        return GridSet1.empty(A.scale)
    _check_bounds(A, B)
    if method == "naive":
        out = {int(i) + int(j) for i in A.indices for j in B.indices}
        if semantics is SumSemantics.COVER:
            out |= {v + 1 for v in out}
        return GridSet1.from_indices(A.scale, sorted(out))
    small, big = (A, B) if A.count <= B.count else (B, A)
    bigmask = big.to_mask()
    # per maximal run [start, start+length) of the small set, the OR of
    # consecutive shifts is built by doubling: log(length) big-int ops.
    # Each distinct (length, start % 8) segment becomes bytes once and is
    # ORed in place into one buffer at byte start // 8.
    starts, ends = _runs(small.indices - small.offset)
    lengths = ends + 1 - starts
    nbits = big.bits.size + small.bits.size  # sum span, plus the COVER cell
    buf = np.zeros((nbits + 7) // 8, dtype=np.uint8)
    doubled = {}
    segments = {}
    for start, length in zip(starts.tolist(), lengths.tolist()):
        key = (length, start & 7)
        seg = segments.get(key)
        if seg is None:
            run = doubled.get(length)
            if run is None:
                run = bigmask
                d = 1
                while d < length:
                    step = min(d, length - d)
                    run |= run << step
                    d += step
                doubled[length] = run
            shifted = run << (start & 7)
            seg = segments[key] = np.frombuffer(
                shifted.to_bytes((shifted.bit_length() + 7) // 8, "little"), dtype=np.uint8)
        b = start >> 3
        buf[b:b + seg.size] |= seg
    bits = np.unpackbits(buf, count=nbits, bitorder="little").view(bool)
    if semantics is SumSemantics.COVER:
        bits[1:] |= bits[:-1]
    return GridSet1.from_bits(A.scale, small.offset + big.offset, bits)


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


def dilate(A: GridSet1, x) -> GridSet1:
    """Exact cell cover of x*A for rational x != 0.

    Endpoints of x*[i*delta, (i+1)*delta) are held in delta/q units
    (x = p/q reduced), so the boundary-cell decision is integer-exact.
    The left endpoint's cell always enters the cover; the right
    endpoint's cell enters only when the supremum is attained, which
    for half-open cells happens exactly when x < 0 (the closed end
    i*delta maps to the image's max).
    """
    fx = as_fraction(x)
    _require(fx != 0, "dilation factor must be nonzero")
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "dilation factor exceeds guarded magnitude 2**30")
    if A.is_empty:
        return A
    idx = A.indices
    _require_linear_range(((p, int(np.abs(idx).max()) + 1),), "dilated indices")
    if p > 0:
        lo = p * idx          # attained (cell's closed left end)
        hi = p * (idx + 1)    # not attained
        hi_incl = False
    else:
        lo = p * (idx + 1)    # not attained
        hi = p * idx          # attained
        hi_incl = True
    k_first = lo // q
    k_last = hi // q if hi_incl else (hi - 1) // q
    return GridSet1.from_ranges(A.scale, k_first, k_last)


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


def _product_cover_pairs(scale: Scale, idx_p: np.ndarray, idx_a: np.ndarray) -> GridSet1:
    """Cover of the pointwise product of two cell unions.

    Works in delta**2 units: the product of cells i and j has corner
    values {i*j, i*(j+1), (i+1)*j, (i+1)*(j+1)} there, and a corner is
    attained only when both factors sit at their closed left ends.
    Output cell k covers [k*2**n, (k+1)*2**n) in those units.
    """
    _require_linear_range(((int(np.abs(idx_p).max()) + 1, int(np.abs(idx_a).max()) + 1),),
                          "product indices")
    u = 1 << scale.n
    ii = np.repeat(idx_p, idx_a.size)
    jj = np.tile(idx_a, idx_p.size)
    c = np.empty((4, ii.size), dtype=np.int64)
    c[0] = ii * jj
    c[1] = ii * (jj + 1)
    c[2] = (ii + 1) * jj
    c[3] = (ii + 1) * (jj + 1)
    lo = c.min(axis=0)
    hi = c.max(axis=0)
    # Corner 0 is the only corner both of whose factors sit at their
    # closed ends, so it is the only attainable extremum.  Single-point
    # images cannot occur: the corners of a positive-area box under
    # (x, y) -> x*y never all coincide.
    hi_att = hi == c[0]
    k_first = np.floor_divide(lo, u)
    k_last = np.where(hi_att, np.floor_divide(hi, u), np.floor_divide(hi - 1, u))
    return GridSet1.from_ranges(scale, k_first, k_last.astype(np.int64))


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
        acc = _product_cover_pairs(A.scale, acc.indices, A.indices)
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
    pairs = G.indices
    ii = pairs[:, 0].astype(np.int64)
    jj = pairs[:, 1].astype(np.int64)
    imax = int(np.abs(ii).max())
    jmax = int(np.abs(jj).max())
    if semantics is SumSemantics.INDEX:
        _require(fx.denominator == 1, "INDEX graph sum needs integer x")
        xv = int(fx)
        _require_linear_range(((1, imax), (xv, jmax + 1)), "graph-sum indices")
        return GridSet1.from_indices(G.scale, np.unique(ii + xv * jj))
    p, q = fx.numerator, fx.denominator
    _require(max(abs(p), q) <= (1 << 30), "graph-sum factor exceeds guarded magnitude 2**30")
    _require_linear_range(((q, imax + 1), (p, jmax + 1)), "graph-sum endpoints")
    if p > 0:
        lo = ii * q + p * jj
        hi = (ii + 1) * q + p * (jj + 1)
    else:
        lo = ii * q + p * (jj + 1)
        hi = (ii + 1) * q + p * jj
    k_first = lo // q
    k_last = (hi - 1) // q
    return GridSet1.from_ranges(G.scale, k_first, k_last)
