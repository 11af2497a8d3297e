"""Release gate: ten numbered end-to-end checks, one per shipped guarantee.

Each check records a single PASS/FAIL line (printed in the terminal summary)
and then asserts, so a red line always corresponds to a failed test.  The
checks run the public API the way the demos and the command line do: seeded
instance families, exhaustive oracles on small inputs, frozen first-run
baselines on large ones, and byte-level determinism for the CSV writers.
"""
import itertools
import math
import time

import numpy as np
import pytest

from deltagrid import (AngleMeasure, CellCloud, Direction, DyadicMeasure1,
                       GridSet1, GridSet2, PreconditionError, Scale,
                       adversarial_count, adversarial_projection,
                       blichfeldt_translate,
                       cartesian_product, check_cor_simple,
                       check_graph_projection, check_plunnecke,
                       check_ruzsa_triangle, check_sum_to_difference,
                       count_lattice_points, diffset, energy_bound_constant,
                       find_expander, frostman_constant, gen_cantor,
                       gen_random_frostman, make_interval, maximal_interval,
                       nfold_sum, nonconcentration_constant, project_measure,
                       rescale_to_unit, riesz_energy, slab_collision, sumset,
                       uniform_on)
from deltagrid.cli import main

import _baselines as B
from _oracles import naive_diffset, naive_sumset

RESULTS = []


def _record(num, ok, detail):
    RESULTS.append("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _rand1(rng, n, max_cells, span):
    k = int(rng.integers(1, max_cells + 1))
    return GridSet1.from_indices(Scale(n), np.unique(rng.integers(0, span, size=k)))


def test_c01_exact_inequality_suites():
    """Five verifier families, 500 seeded instances each, zero violations
    at multiplicative constant 1, within 60s single-threaded."""
    t0 = time.monotonic()
    bad = 0
    for case in range(500):
        rng = np.random.default_rng([101, case])
        X, Y, Z = (_rand1(rng, 12, 512, 4096) for _ in range(3))
        recs = [check_ruzsa_triangle(X, Y, Z),
                check_plunnecke(X, [_rand1(rng, 12, 512, 4096)
                                    for _ in range(2 + case % 2)]),
                check_cor_simple(X, Y, sign="+" if case % 2 == 0 else "-"),
                check_sum_to_difference(X, Y)]
        rng = np.random.default_rng([102, case])
        A = _rand1(rng, 10, 96, 512)
        Bs = _rand1(rng, 10, 96, 512)
        density = float(rng.uniform(0.05, 0.95))
        mask = rng.random((A.count, Bs.count)) < density
        mask.flat[int(rng.integers(0, mask.size))] = True
        pairs = np.stack(np.meshgrid(A.indices, Bs.indices, indexing="ij"),
                         axis=-1)[mask]
        G = GridSet2.from_indices(Scale(10), pairs)
        recs.append(check_graph_projection(A, Bs, G, 1 + case % 3))
        bad += sum(1 for r in recs if not (r.ok and r.slack_used == 1.0))
    dt = time.monotonic() - t0
    _record(1, bad == 0 and dt <= 60.0,
            "5 suites x 500 seeded cases, %d violations, %.1fs" % (bad, dt))


def test_c02_brute_force_oracles():
    """Sums, differences, iterated sums, and the greedy fiber minimizer
    agree exactly with exhaustive enumeration on sets of <= 18 cells."""
    bad = 0
    for case in range(400):
        rng = np.random.default_rng([201, case])
        A = _rand1(rng, 8, 18, 200)
        Bs = _rand1(rng, 8, 18, 200)
        a = A.indices.tolist()
        b = Bs.indices.tolist()
        want_sum = sorted({x + y for x in a for y in b})
        want_diff = sorted({x - y for x in a for y in b})
        for add, sub in ((sumset, diffset), (naive_sumset, naive_diffset)):
            if add(A, Bs).indices.tolist() != want_sum:
                bad += 1
            if sub(A, Bs).indices.tolist() != want_diff:
                bad += 1
    for case in range(300):
        rng = np.random.default_rng([202, case])
        A = _rand1(rng, 8, 18, 60)
        N = 2 + case % 3
        want = set(A.indices.tolist())
        for _ in range(N - 1):
            want = {x + y for x in want for y in A.indices.tolist()}
        if nfold_sum(A, N).indices.tolist() != sorted(want):
            bad += 1
    for case in range(300):
        rng = np.random.default_rng([203, case])
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 19))
        pts = {(int(x), int(y)) for x, y in rng.integers(0, 1 << n, size=(k, 2))}
        E = GridSet2.from_indices(Scale(n), list(pts))
        theta = float(rng.uniform(0, math.pi))
        lam = float(rng.uniform(0.1, 1.0))
        count, _ = adversarial_projection(E, Direction(theta), lam)
        m = project_measure(uniform_on(E), Direction(theta))
        sizes = [round(w * E.count) for w in m.weights if w > 0]
        need = lam * E.count
        best = None
        for r in range(1, len(sizes) + 1):
            if any(sum(c) >= need - 1e-9
                   for c in itertools.combinations(sizes, r)):
                best = r
                break
        if count != best:
            bad += 1
    _record(2, bad == 0, "1000 seeded cases vs brute force, %d mismatches" % bad)


def test_c03_translate_search_recount():
    """200 random cell-union regions per dimension: the found translate
    meets the averaging bound and an independent recount confirms it."""
    bad = 0
    for dim in (1, 2, 3):
        for case in range(200):
            rng = np.random.default_rng([301, dim, case])
            n = int(rng.integers(1, 5 if dim == 3 else 7))
            span = 1 << n
            k = int(rng.integers(1, min(60, 4 * span)))
            rows = rng.integers(-span, 2 * span, size=(k, dim))
            V = CellCloud.from_indices(Scale(n), rows)
            s = int(rng.integers(1, span + 1)) * Scale(n).delta
            res = blichfeldt_translate(V, s)
            floor_bound = math.ceil(V.measure / s ** dim - 1e-9)
            if res.count < floor_bound:
                bad += 1
            if count_lattice_points(V, s, res.translation) != res.count:
                bad += 1
    _record(3, bad == 0, "600 regions, recount verified, %d failures" % bad)


def test_c04_energy_oracles():
    """Uniform-measure energy matches the continuum integral within 5%;
    the annulus-binned estimate matches the direct double sum within 2^s."""
    val = riesz_energy(uniform_on(make_interval(Scale(10), 0, 1)), 0.5)
    rel = abs(val - 8 / 3) / (8 / 3)
    bad = 0
    for case in range(50):
        rng = np.random.default_rng([401, case])
        n = int(rng.integers(3, 9))
        idx = rng.integers(0, 1 << n, size=rng.integers(2, 40))
        w = rng.random(len(idx))
        dense = np.zeros(1 << n)
        np.add.at(dense, idx, w)
        dense /= dense.sum()
        nz = np.flatnonzero(dense)
        mu = DyadicMeasure1.from_weights(Scale(n), int(nz[0]),
                                         dense[nz[0]:nz[-1] + 1])
        s = float(rng.uniform(0.2, 1.0))
        direct = riesz_energy(mu, s, method="direct")
        binned = riesz_energy(mu, s, method="binned")
        if not (direct <= binned * (1 + 1e-12)
                and binned <= 2 ** s * direct * (1 + 1e-12)):
            bad += 1
    _record(4, rel <= 0.05 and bad == 0,
            "uniform energy off by %.2f%%, %d binning failures" % (100 * rel, bad))


_CANTOR_FAMILIES = {
    0.3: [(10, (0, 9), 3), (10, (0, 5), 3), (10, (2, 7), 3), (9, (0, 8), 3),
          (10, (1, 9), 3), (8, (0, 5), 3), (12, (0, 7), 3)],
    0.5: [(4, (0, 3), 6), (4, (0, 2), 6), (4, (1, 3), 6), (9, (0, 4, 8), 3),
          (9, (0, 3, 6), 3), (4, (0, 1), 6), (16, (0, 5, 10, 15), 3)],
    0.8: [(4, (0, 1, 3), 6), (4, (0, 2, 3), 6), (4, (1, 2, 3), 6),
          (8, (0, 2, 4, 6, 7), 4), (8, (0, 1, 3, 5, 7), 4),
          (16, (0, 2, 4, 6, 8, 10, 12, 14, 15), 3)],
}


def test_c05_energy_bound_on_generated_sets():
    """50 seeded sets from both generator families: sub-critical energy of
    the uniform measure stays below the closed-form constant times the
    measured non-concentration constant."""
    kappas = (0.3, 0.5, 0.8)
    sets = []
    for i in range(30):
        kap = kappas[i % 3]
        sets.append((kap, gen_random_frostman(Scale(12), kap, seed=i)))
    for kap, fams in _CANTOR_FAMILIES.items():
        for base, digits, levels in fams:
            sets.append((kap, gen_cantor(Scale(12), base, digits, levels)))
    assert len(sets) == 50
    bad = 0
    for kap, A in sets:
        t = kap - 0.1
        C = nonconcentration_constant(A, kap).constant
        bound = energy_bound_constant(t, kap) * C
        if riesz_energy(uniform_on(A), t) > bound * (1 + 1e-12) + 1e-9:
            bad += 1
    _record(5, bad == 0, "50 generated sets, %d energy-bound violations" % bad)


def test_c06_renormalized_measures_are_frostman():
    """20 seeded measures: conditioning on the maximal dyadic window and
    rescaling to the unit interval halves the exponent with constant <= 2."""
    bad = 0
    for seed in range(20):
        kap = (0.3, 0.5, 0.8)[seed % 3]
        mu = uniform_on(gen_random_frostman(Scale(12), kap, seed=seed))
        mi = maximal_interval(mu, kap)
        nu = rescale_to_unit(mu, mi.level, mi.index)
        if frostman_constant(nu, kap / 2).constant > 2.0 + 1e-9:
            bad += 1
    _record(6, bad == 0, "20 renormalized measures, %d violations" % bad)


def test_c07_expander_sweep_baselines():
    """Candidate sweep over [1,2] at resolution 2^-8, n=16: the sparse
    digit-Cantor set must match its committed baseline, and the arithmetic
    progression must stay flat, its best ratio at most 3 and its best
    exponent equal to the committed baseline.

    A progression of 256 consecutive cells is one interval, so A + xA
    covers exactly ceil(256(1 + x)) cells and every candidate's ratio lies
    in (2, 3]: its exponent is above 1/16, never below 0.05."""
    X = make_interval(Scale(8), 1, 2)
    t0 = time.monotonic()
    repC = find_expander(gen_cantor(Scale(16), 4, (0, 3), 8), X)
    repA = find_expander(GridSet1.from_indices(Scale(16), range(256)), X)
    dt = time.monotonic() - t0
    ok_c = repC.best.exponent >= B.EXPANDER_CANTOR_N16_EXPONENT - 0.02
    ok_a = (repA.best.ratio <= 3.0 and
            abs(repA.best.exponent - B.EXPANDER_AP256_N16_EXPONENT) <= 1e-6)
    _record(7, ok_c and ok_a and dt <= 600.0,
            "cantor exponent %.4f (needs >= %.4f), AP ratio %.4f "
            "(needs <= 3), exponent %.6f (baseline %.6f), %.1fs"
            % (repC.best.exponent, B.EXPANDER_CANTOR_N16_EXPONENT - 0.02,
               repA.best.ratio, repA.best.exponent,
               B.EXPANDER_AP256_N16_EXPONENT, dt))


def test_c08_slab_collisions():
    """20 seeded two-cell-plus-noise sets in the plane: a collision pair
    appears within the averaging bound and eliminates a far coordinate."""
    bad = 0
    for seed in range(20):
        rng = np.random.default_rng([801, seed])
        scale = Scale(4)
        extra = rng.choice(np.arange(1, 15), size=int(rng.integers(1, 5)),
                           replace=False)
        A = GridSet1.from_indices(scale, [0, 15] + extra.tolist())
        v = tuple(float(t) for t in rng.uniform(0.5, 1.0, size=2))
        w = None
        for R in (8.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0, 48.0, 56.0):
            try:
                w = slab_collision(A, v, 2, R)
                break
            except PreconditionError:
                continue
        if w is None:
            bad += 1
            continue
        delta = scale.delta
        diam = A.diameter
        # independent projection measure: merged intervals of v1*A + v2*A
        ivals = sorted((v[0] * x * delta + v[1] * y * delta,
                        v[0] * (x + 1) * delta + v[1] * (y + 1) * delta)
                       for x in A.indices for y in A.indices)
        lam = 0.0
        hi = -math.inf
        for lo, up in ivals:
            lam += up - max(lo, hi)
            hi = max(hi, up)
        bound = 2 * (2 * diam + 2 * math.sqrt(2)) / lam
        found_at = w.pair_indices[1] + 1
        if found_at > bound + 1e-9:
            bad += 1
        if abs(w.z[w.eliminated] - w.x[w.eliminated]) < diam - 2 * delta - 1e-9:
            bad += 1
    _record(8, bad == 0, "20 planar slabs, %d witness failures" % bad)


def test_c09_projection_count_fraction():
    """Squared base-3 Cantor set at n=12: nearly every sampled direction
    defeats an adversary allowed to discard a delta^0.05 mass fraction."""
    C3 = gen_cantor(Scale(12), 3, (0, 2), 7)
    E = cartesian_product(C3, C3)
    lam = min(1.0, E.scale.delta ** 0.05)
    thr = math.sqrt(E.count)
    t0 = time.monotonic()
    thetas = AngleMeasure.uniform(Scale(9)).quantile_angles(360)
    good = sum(1 for t in thetas
               if adversarial_count(E, Direction(float(t)), lam) > thr)
    dt = time.monotonic() - t0
    frac = good / 360.0
    _record(9, frac >= B.PROJECTION_SQUARE_FRACTION - 0.05 and dt <= 300.0,
            "fraction %.3f of 360 angles above sqrt(|E|)=%.0f, %.1fs"
            % (frac, thr, dt))


def test_c10_byte_identical_reruns(tmp_path):
    """Identical run configuration gives byte-identical CSV output, with
    8 worker threads included."""
    run = lambda argv: main([str(a) for a in argv])
    k = tmp_path / "k.gs1"
    assert run(["gen", "cantor", "--n", 12, "--base", 4, "--digits", "0,3",
                "--out", k]) == 0
    ok = True
    out = tmp_path / "e.csv"
    blobs = []
    for _ in range(2):
        assert run(["experiment", "expander", "--set", k, "--candidates",
                    "1:2", "--xres", 6, "--seed", 11, "--threads", 8,
                    "--out", out]) == 0
        blobs.append(out.read_bytes())
    ok = ok and blobs[0] == blobs[1]
    vout = tmp_path / "v.csv"
    vblobs = []
    for _ in range(2):
        assert run(["verify", "addcomb", "--suite", "all", "--cases", 20,
                    "--seed", 3, "--threads", 8, "--out", vout]) == 0
        vblobs.append(vout.read_bytes())
    ok = ok and vblobs[0] == vblobs[1]
    _record(10, ok, "expander + verify reruns at --threads 8 byte-identical")
