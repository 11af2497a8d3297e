#!/usr/bin/env python3
"""Split a planar set into pieces that each expand under many angles.

The experiment first measures, for a whole product set, which sampled
directions defeat an adversary allowed to drop a small mass fraction.
The exhaustion step then peels off sub-pieces together with their good
angle sets until almost nothing is left, and reports mass-weighted
goodness over the pieces.
"""
import argparse
import math

import numpy as np

from deltagrid import (AngleMeasure, GridSet2, Scale, cartesian_product,
                       exhaust_decompose, gen_cantor,
                       projection_theorem_experiment)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--eta", type=float, default=0.02)
    ap.add_argument("--angles", type=int, default=48)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    if args.angles < 16:
        ap.error("--angles must be at least 16")

    # base-3 intervals no finer than delta: 3**levels <= 2**n
    levels = args.n // 2 + 1
    while 3 ** levels > 2 ** args.n:
        levels -= 1
    side = gen_cantor(Scale(args.n), 3, (0, 2), levels)
    E = cartesian_product(side, side)
    nu = AngleMeasure.uniform(Scale(8))
    exp = projection_theorem_experiment(E, nu, 0.05, args.eta, args.angles,
                                        threads=args.threads)
    print("squared base-3 set, %d cells; %d sampled directions, eta=%.2f"
          % (E.count, args.angles, args.eta))
    print("angle mass defeating the adversary: %.3f" % exp.good_mass)

    # peel columns: keep the left half of each piece, reuse its good angles
    thetas = [float(t) for t in nu.quantile_angles(args.angles)]

    def left_half(S: GridSet2):
        cols = np.unique(S.indices[:, 0])
        keep = set(cols[: max(1, cols.size // 2)].tolist())
        pts = [(int(i), int(j)) for i, j in S.indices if int(i) in keep]
        return GridSet2.from_indices(S.scale, pts), thetas

    dec = exhaust_decompose(E, left_half, 0.1)
    print("\nexhaustion at threshold 0.1: %d pieces, leftover %d cells"
          % (len(dec.pieces), dec.leftover.count))
    for piece, w in zip(dec.pieces, dec.weights):
        print("  piece of %6d cells, mass share %.4f"
              % (piece.count, w / E.measure))
    vals = list(dec.aggregate_goodness().values())
    print("aggregate goodness over %d angles: min %.3f  mean %.3f"
          % (len(vals), min(vals), sum(vals) / len(vals)))


if __name__ == "__main__":
    main()
