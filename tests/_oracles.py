"""Test oracles: the direct computations behind the package's fast paths,
kept beside the frozen values of `_baselines.py` so that tests compare
against them.

`naive_sumset` and `naive_diffset` are double loops over cell pairs, for
`setcalc.sumset` and `setcalc.diffset`.  `merged_projection_measure` is a
Python merge of sorted interval lists, for `lattice._exact_projection_measure`.
"""
from fractions import Fraction

from deltagrid import GridSet1, SumSemantics


def naive_sumset(A, B, semantics=SumSemantics.INDEX):
    """A + B: {i + j}, and under COVER also {i + j + 1}."""
    out = {int(i) + int(j) for i in A.indices for j in B.indices}
    if semantics is SumSemantics.COVER:
        out |= {v + 1 for v in out}
    return GridSet1.from_indices(A.scale, sorted(out))


def naive_diffset(A, B, semantics=SumSemantics.INDEX):
    """A - B: {i - j}, and under COVER also {i - j - 1}."""
    out = {int(i) - int(j) for i in A.indices for j in B.indices}
    if semantics is SumSemantics.COVER:
        out |= {v - 1 for v in out}
    return GridSet1.from_indices(A.scale, sorted(out))


def merged_projection_measure(A, v):
    """Lebesgue measure of sum_i v_i * A: with v_i = p_i/q, each partial sum
    of the runs [p_i*a, p_i*(b+1)] (units of delta/q) is sorted and merged
    in a Python loop, touching intervals joined."""
    ratios = [float(x).as_integer_ratio() for x in v]
    q = max(d for _, d in ratios)
    starts, ends = A.runs
    a_runs = list(zip(starts.tolist(), (ends + 1).tolist()))
    runs = [(0, 0)]
    for p, d in ratios:
        p *= q // d
        sums = sorted((lo + p * a, hi + p * b) for lo, hi in runs for a, b in a_runs)
        runs = [sums[0]]
        for lo, hi in sums[1:]:
            if lo > runs[-1][1]:
                runs.append((lo, hi))
            elif hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
    return Fraction(sum(hi - lo for lo, hi in runs), q << A.scale.n)
