#!/usr/bin/env python3
"""Contrast dilation growth of a sparse digit set against a progression.

Both sets have the same cell count, but |A + xA| behaves differently: the
digit-Cantor set finds a dilation factor that nearly squares its size,
while the progression never grows past three times its size for any x.
"""
import argparse
import time

from deltagrid import GridSet1, Scale, find_expander, gen_cantor, make_interval


def describe(tag, rep, k):
    top = sorted(rep.records, key=lambda r: r.ratio, reverse=True)[:k]
    print("%s  best x=%s  ratio=%.2f  exponent=%.4f" %
          (tag, rep.best.x, rep.best.ratio, rep.best.exponent))
    for r in top:
        print("    x=%-12s ratio=%8.2f exponent=%.4f" % (r.x, r.ratio, r.exponent))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16, help="grid depth")
    ap.add_argument("--xres", type=int, default=8,
                    help="candidate grid resolution exponent")
    ap.add_argument("--top", type=int, default=3)
    args = ap.parse_args()

    levels = args.n // 2
    cantor = gen_cantor(Scale(args.n), 4, (0, 3), levels)
    ap_set = GridSet1.from_indices(Scale(args.n), range(1 << levels))
    X = make_interval(Scale(args.xres), 1, 2)
    print("candidates: %d points of [1,2], sets of %d cells at depth %d\n"
          % (X.count, cantor.count, args.n))

    t0 = time.time()
    describe("cantor {0,3} base 4 ", find_expander(cantor, X), args.top)
    describe("progression        ", find_expander(ap_set, X), args.top)
    print("\n%.2fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
