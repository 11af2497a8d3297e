"""Command-line front door: generators, set operations, measure tools,
projections, lattice searches, verification suites, and experiments.

Exit codes: 0 success, 1 rejected input (a precondition, a usage error, or
a file that cannot be read as text), 2 internal invariant failure (a
constant-1 inequality violated is a bug by definition, never a data
error).

All configuration arrives via flags; there are no environment variables.
--threads defaults to 1 and spreads the angles of `project sweep` and
`experiment projection` over a pool; their rows do not depend on it.
Every CSV report embeds the full RunConfig, threads included, in its
header line.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import gridio
from .addcomb import (check_cor_simple, check_graph_projection, check_plunnecke,
                      check_ruzsa_triangle, check_sum_to_difference)
from .errors import InternalCheckError, PreconditionError
from .expand import (find_expander, nfold_expansion_curve,
                     projection_theorem_experiment, renormalized_find_expander)
from .grid import (GridSet1, GridSet2, Scale, _require, cartesian_product,
                   gen_cantor, gen_random_frostman, make_interval)
from .lattice import blichfeldt_translate, slab_collision
from .measure import (DyadicMeasure1, frostman_constant, maximal_interval,
                      nonconcentration_constant, prune_heavy_cubes, rescale_to_unit,
                      riesz_energy, uniform_on)
from .project import (AngleMeasure, _angle_grid, kaufman_average, marstrand_average,
                      project_set, sweep)
from .setcalc import (SumSemantics, diffset, dilate, graph_sum, nfold_product,
                      nfold_sum, reflect, sumset)


@dataclass(frozen=True)
class RunConfig:
    """Deterministic run parameters, serialized into every report header.

    Unset parameters stay None and appear as JSON null, so two reports
    are byte-identical exactly when their effective configurations are.
    """

    seed: int = 0
    n: int = 12
    kappa: float | None = None
    sigma: float | None = None
    epsilon: float | None = None
    eta: float | None = None
    threads: int = 1
    out: str | None = None


def _report(args, command: str, header, rows, **extra) -> None:
    """Write the CSV report when --out asks for one.  Its echo line holds
    every RunConfig field (the flag's value, or the field's default for a
    command without that flag), the command and `extra`."""
    if args.out:
        echo = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
        gridio.write_csv(args.out, header, rows, dict(echo, command=command, **extra))


def _need(args, *flags) -> None:
    """Refuse a run that lacks one of the flags its command needs."""
    if any(getattr(args, f) is None for f in flags):
        what = getattr(args, "what", None) or args.which
        raise PreconditionError(f"{args.command} {what} requires "
                                + " and ".join(f"--{f}" for f in flags))


# ---------------------------------------------------------------------------
# Flag value parsers


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _frac_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}")
    return _frac(parts[0]), _frac(parts[1])


def _int_list(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from None


def _float_list(text: str):
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 means internal invariant
    # failure, so usage problems are rerouted to the precondition path.
    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def _read_set(path, cls=GridSet1):
    S = gridio.read_gridset(path)
    if not isinstance(S, cls):
        raise PreconditionError(f"{path}: expected a {cls._ndim}D set (GS{cls._ndim})")
    return S


def _semantics(name: str) -> SumSemantics:
    return SumSemantics.COVER if name == "cover" else SumSemantics.INDEX


def _angle_scale(angles: int) -> Scale:
    # power of two so a uniform AngleMeasure has exactly `angles` cells
    k = angles.bit_length() - 1
    if angles <= 0 or (1 << k) != angles:
        raise PreconditionError(f"--angles must be a power of two here, got {angles}")
    return Scale(k)


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    scale = Scale(args.n)
    if args.what == "cantor":
        _require(args.base >= 2, "digit base must be at least 2")
        levels = args.levels
        if levels is None:
            # deepest level whose aligned blocks still resolve: base**L <= 2**n
            levels = 0
            while args.base ** (levels + 1) <= (1 << args.n):
                levels += 1
        S = gen_cantor(scale, args.base, args.digits, levels)
    elif args.what == "interval":
        S = make_interval(scale, args.a, args.b)
    elif args.what == "frostman":
        _need(args, "kappa")
        S = gen_random_frostman(scale, args.kappa, args.seed)
    else:  # square: product of two 1D sets, default the interval [a, b)
        A = _read_set(args.set) if args.set else make_interval(scale, args.a, args.b)
        B = _read_set(args.set2) if args.set2 else A
        S = cartesian_product(A, B)
    gridio.write_gridset(S, args.out)
    print(f"wrote {args.out}: {S!r}")
    return 0


# ---------------------------------------------------------------------------
# op


def _cmd_op(args) -> int:
    sem = _semantics(args.semantics)
    if args.which == "graphsum":
        G = _read_set(args.set, GridSet2)
        _need(args, "factor")
        R = graph_sum(G, args.factor, sem)
    else:
        A = _read_set(args.set)
        if args.which == "sum":
            R = sumset(A, _read_set(args.set2) if args.set2 else A, sem)
        elif args.which == "diff":
            R = diffset(A, _read_set(args.set2) if args.set2 else A, sem)
        elif args.which == "dilate":
            _need(args, "factor")
            R = dilate(A, args.factor)
        elif args.which == "nfold":
            R = nfold_sum(A, args.count, sem)
        elif args.which == "product":
            R = nfold_product(A, args.count)
        else:  # reflect
            R = reflect(A)
    gridio.write_gridset(R, args.out)
    print(f"wrote {args.out}: {R!r}")
    return 0


# ---------------------------------------------------------------------------
# measure


def _measure_input(args):
    """A measure tool's input: the --measure file's measure, which wins
    over --set, else the --set file's 1D or 2D set."""
    if args.measure:
        return gridio.read_measure(args.measure)
    if args.set:
        return gridio.read_gridset(args.set)
    raise PreconditionError("provide --measure or --set")


def _cmd_measure(args) -> int:
    what = args.what
    if what != "uniform":
        _need(args, "sigma" if what in ("energy", "prune") else "kappa")
    src = _measure_input(args)
    if what == "frostman":
        if isinstance(src, DyadicMeasure1):
            rep = frostman_constant(src, args.kappa)
        else:  # normalized by the set's own mass: convention "set"
            rep = nonconcentration_constant(src, args.kappa)
        print(f"constant={rep.constant!r} kappa={rep.kappa!r} convention={rep.convention}")
        print(f"witness center={rep.witness_center!r} radius={rep.witness_radius!r}")
        _report(args, "measure frostman",
                ["kappa", "constant", "witness_center", "witness_radius", "convention"],
                [[rep.kappa, rep.constant, rep.witness_center, rep.witness_radius, rep.convention]])
        return 0
    mu = src if isinstance(src, DyadicMeasure1) else uniform_on(src)
    if what == "energy":
        val = riesz_energy(mu, args.sigma, method=args.method)
        print(f"energy s={args.sigma!r}: {val!r}")
        _report(args, "measure energy", ["s", "energy", "method"],
                [[args.sigma, val, args.method]])
        return 0
    _require(isinstance(mu, DyadicMeasure1), "this operation needs a 1D measure")
    if what == "uniform":
        _need(args, "out")
        gridio.write_measure(mu, args.out)
        print(f"wrote {args.out}: {mu!r}")
    elif what == "prune":
        kept, removed = prune_heavy_cubes(mu, args.sigma, args.K, args.L, strict=not args.loose)
        print(f"kept {kept.count} cells, removed mass {removed!r}")
        if args.out:
            gridio.write_gridset(kept, args.out)
            print(f"wrote {args.out}")
    else:
        mi = maximal_interval(mu, args.kappa)
        if what == "maximal":
            print(f"level={mi.level} index={mi.index} r0={mi.r0} x0={mi.x0} "
                  f"m={mi.m_value!r} mass={mi.mass!r}")
        else:  # rescale
            nu = rescale_to_unit(mu, mi.level, mi.index)
            _need(args, "out")
            gridio.write_measure(nu, args.out)
            print(f"zoomed to level={mi.level} index={mi.index}; wrote {args.out}: {nu!r}")
    return 0


# ---------------------------------------------------------------------------
# project


def _cmd_project(args) -> int:
    E = _read_set(args.set, GridSet2)
    if args.what == "shadow":
        R = project_set(E, args.theta)
        _need(args, "out")
        gridio.write_gridset(R, args.out)
        print(f"wrote {args.out}: {R!r}")
        return 0
    if args.what == "sweep":
        _require(args.angles >= 1, f"--angles must be at least 1, got {args.angles}")
        thetas = _angle_grid(args.angles)
        rep = sweep(E, thetas, args.fraction, kappa=args.kappa, threads=args.threads)
        for name in ("projection", "adversarial"):
            q = rep.summary[name]
            print(f"{name}: min={q['min']!r} median={q['median']!r} max={q['max']!r}")
        _report(args, "project sweep", ["theta", "projection_count", "adversarial_count", "energy"],
                ([r.theta, r.projection_count, r.adversarial_count,
                  "" if r.energy is None else r.energy] for r in rep.records),
                fraction=args.fraction, angles=args.angles)
        return 0
    if args.what == "marstrand":
        st = marstrand_average(E, args.angles)
        print(f"angles={st.angles} mean={st.mean!r} median={st.median!r} "
              f"min={st.min!r} energy_i1={st.energy_i1!r}")
        _report(args, "project marstrand", ["theta", "measure"], zip(st.thetas, st.measures),
                angles=args.angles)
        return 0
    # kaufman
    _need(args, "kappa")
    nu = AngleMeasure.uniform(_angle_scale(args.angles))
    val = kaufman_average(uniform_on(E), nu, args.kappa)
    print(f"kaufman average kappa={args.kappa!r}: {val!r}")
    return 0


# ---------------------------------------------------------------------------
# lattice


def _cmd_lattice(args) -> int:
    if args.what == "blichfeldt":
        res = blichfeldt_translate(gridio.read_gridset(args.set), args.modulus)
        shift = ",".join(str(t) for t in res.translation)
        print(f"translation={shift} count={res.count} bound={res.bound!r} "
              f"examined={res.examined_shifts}")
        _report(args, "lattice blichfeldt", ["translation", "count", "bound", "examined"],
                [[shift, res.count, res.bound, res.examined_shifts]], modulus=args.modulus)
        return 0
    # collision
    w = slab_collision(_read_set(args.set), args.vector, len(args.vector), args.radius)
    print(f"pair={w.pair_indices} ell={w.ell} eliminated={w.eliminated}")
    print(f"x={w.x}")
    print(f"z={w.z}")
    print(f"projection_gap={w.projection_gap!r} tolerance={w.tolerance!r}")
    _report(args, "lattice collision",
            ["pair_i", "pair_j", "ell", "eliminated", "x", "z", "projection_gap", "tolerance"],
            [[w.pair_indices[0], w.pair_indices[1],
              ";".join(str(e) for e in w.ell), w.eliminated,
              ";".join(repr(t) for t in w.x), ";".join(repr(t) for t in w.z),
              w.projection_gap, w.tolerance]],
            vector=list(args.vector), radius=args.radius)
    return 0


# ---------------------------------------------------------------------------
# verify


def _random_set(rng, scale: Scale, max_cells: int, span: int) -> GridSet1:
    m = int(rng.integers(1, max_cells + 1))
    idx = rng.choice(span, size=min(m, span), replace=False)
    return GridSet1.from_indices(scale, idx)


def _graph_case(draw, rng):
    A, B = draw(), draw()
    dense = rng.random((A.count, B.count)) < 0.5
    if not dense.any():
        dense[0, 0] = True
    # pairs ascending in (j, i) seed G's indices
    j, i = np.divmod(np.flatnonzero(dense.T), A.count)
    G = GridSet2.from_indices(A.scale, np.stack((A.indices[i], B.indices[j]), axis=1))
    return check_graph_projection(A, B, G, int(rng.integers(1, 4)))


# Each suite's check of sets drawn, in argument order, from the case's stream;
# a suite's position seeds its cases.
_SUITES = {
    "ruzsa": lambda draw, rng: check_ruzsa_triangle(draw(), draw(), draw()),
    "plunnecke": lambda draw, rng: check_plunnecke(
        draw(), [draw() for _ in range(int(rng.integers(2, 4)))]),
    "simple-sum": lambda draw, rng: check_cor_simple(draw(), draw(), "+"),
    "simple-diff": lambda draw, rng: check_cor_simple(draw(), draw(), "-"),
    "sumdiff": lambda draw, rng: check_sum_to_difference(draw(), draw()),
    "graphproj": _graph_case,
}


def _cmd_verify(args) -> int:
    _require(args.cases >= 0, f"--cases must be nonnegative, got {args.cases}")
    _require(args.max_cells >= 1, f"--max-cells must be at least 1, got {args.max_cells}")
    _require(args.span >= 1, f"--span must be at least 1, got {args.span}")
    scale = Scale(args.n)
    rows = []
    for k, (suite, check) in enumerate(_SUITES.items()):
        if args.suite not in ("all", suite):
            continue
        for case in range(args.cases):
            rng = np.random.default_rng([args.seed, k, case])
            rec = check(partial(_random_set, rng, scale, args.max_cells, args.span), rng)
            rows.append([suite, case, rec.name, rec.lhs, rec.rhs,
                         int(rec.ok), rec.inputs_digest])
        print(f"suite={suite} cases={args.cases} violations=0")
    _report(args, "verify addcomb", ["suite", "case", "name", "lhs", "rhs", "ok", "digest"],
            rows, suite=args.suite, cases=args.cases)
    return 0


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args) -> int:
    if args.what == "expander":
        A = _read_set(args.set)
        xres = args.xres if args.xres is not None else max(1, A.scale.n // 2)
        lo, hi = args.candidates
        rep = find_expander(A, make_interval(Scale(xres), lo, hi), kappa=args.kappa)
        b = rep.best
        print(f"best x={b.x} ratio={b.ratio!r} exponent={b.exponent!r}")
        if rep.frostman is not None:
            print(f"nonconcentration C={rep.frostman.constant!r} at kappa={args.kappa!r}")
        _report(args, "experiment expander", ["x", "ratio", "exponent"],
                ([r.x, r.ratio, r.exponent] for r in rep.records),
                xres=xres, candidates=f"{lo}:{hi}")
        return 0
    if args.what == "renorm":
        A = _read_set(args.set)
        _need(args, "kappa")
        mu = gridio.read_measure(args.measure) if args.measure else uniform_on(A)
        rep = renormalized_find_expander(A, mu, args.kappa)
        b = rep.best
        print(f"best x={b.x} ratio={b.ratio!r} exponent={b.exponent!r}")
        print(f"zoom frostman constant={rep.frostman.constant!r} degenerate={rep.degenerate}")
        _report(args, "experiment renorm", ["frame", "x", "ratio", "exponent"],
                ([frame, r.x, r.ratio, r.exponent]
                 for frame, records in (("mapped", rep.records), ("zoomed", rep.renorm_records))
                 for r in records))
        return 0
    if args.what == "nfold":
        curve = nfold_expansion_curve(_read_set(args.set), args.count)
        for N, m in curve.records:
            print(f"N={N} measure={m!r}")
        print(f"first_crossing={curve.first_crossing}")
        _report(args, "experiment nfold", ["N", "measure"], curve.records)
        return 0
    # projection
    E = _read_set(args.set, GridSet2)
    _need(args, "epsilon", "eta")
    nu = AngleMeasure.uniform(_angle_scale(args.nu_cells))
    exp = projection_theorem_experiment(E, nu, args.epsilon, args.eta, args.angles,
                                        threads=args.threads, energy_kappa=args.kappa)
    lam = min(1.0, E.scale.delta ** args.epsilon)
    print(f"good_mass={exp.good_mass!r} threshold={exp.threshold!r} lambda={lam!r}")
    print(f"nonconcentration C={exp.nonconcentration.constant!r} at kappa=1")
    good = {float(t) for t in exp.good_angles}
    _report(args, "experiment projection",
            ["theta", "projection_count", "adversarial_count", "good"],
            ([r.theta, r.projection_count, r.adversarial_count, int(float(r.theta) in good)]
             for r in exp.report.records),
            lam=lam, angles=args.angles)
    return 0


# ---------------------------------------------------------------------------
# report


def _cmd_report(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PreconditionError(f"{args.path}: no header row") from None
        data = list(reader)
    if not first.startswith("#"):
        raise PreconditionError(f"{args.path}: missing config echo line")
    print(first)
    cols = {h: [] for h in header}
    for row in data:
        for h, v in zip(header, row):
            cols[h].append(v)
    rows = []
    for h in header:
        vals = []
        for v in cols[h]:
            try:
                vals.append(float(v))
            except ValueError:
                break
        else:
            if vals:
                arr = np.asarray(vals)
                rows.append([h, len(vals), float(arr.min()),
                             float(np.median(arr)), float(arr.max())])
                continue
        rows.append([h, len(cols[h]), "", "", ""])
    for r in rows:
        print(f"{r[0]}: count={r[1]} min={r[2]!r} median={r[3]!r} max={r[4]!r}"
              if r[2] != "" else f"{r[0]}: count={r[1]} (non-numeric)")
    _report(args, "report summary", ["column", "count", "min", "median", "max"], rows,
            source=args.path)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


@cache
def _build_parser() -> _Parser:
    p = _Parser(prog="deltagrid", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=12)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", type=str, default=None)

    g = sub.add_parser("gen", help="generate sets")
    g.add_argument("what", choices=["cantor", "interval", "frostman", "square"])
    common(g)
    g.add_argument("--base", type=int, default=4)
    g.add_argument("--digits", type=_int_list, default=(0, 3))
    g.add_argument("--levels", type=int, default=None)
    g.add_argument("--a", type=_frac, default=Fraction(0))
    g.add_argument("--b", type=_frac, default=Fraction(1))
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--set", type=str, default=None)
    g.add_argument("--set2", type=str, default=None)
    g.set_defaults(fn=_cmd_gen, out_required=True)

    o = sub.add_parser("op", help="set arithmetic on files")
    o.add_argument("which", choices=["sum", "diff", "dilate", "nfold", "product",
                                     "reflect", "graphsum"])
    common(o)
    o.add_argument("--set", type=str, required=True)
    o.add_argument("--set2", type=str, default=None)
    o.add_argument("--semantics", choices=["index", "cover"], default="index")
    o.add_argument("--factor", type=_frac, default=None)
    o.add_argument("--count", type=int, default=2)
    o.set_defaults(fn=_cmd_op, out_required=True)

    m = sub.add_parser("measure", help="measure tools")
    m.add_argument("what", choices=["uniform", "frostman", "energy", "maximal",
                                    "rescale", "prune"])
    common(m)
    m.add_argument("--set", type=str, default=None)
    m.add_argument("--measure", type=str, default=None)
    m.add_argument("--kappa", type=float, default=None)
    m.add_argument("--sigma", type=float, default=None)
    m.add_argument("--method", choices=["auto", "direct", "binned"], default="auto")
    m.add_argument("--K", type=float, default=1.0)
    m.add_argument("--L", type=float, default=1.0)
    m.add_argument("--loose", action="store_true",
                   help="prune at >= threshold instead of strictly above")
    m.set_defaults(fn=_cmd_measure)

    pr = sub.add_parser("project", help="projections and angle sweeps")
    pr.add_argument("what", choices=["shadow", "sweep", "marstrand", "kaufman"])
    common(pr)
    pr.add_argument("--set", type=str, required=True)
    pr.add_argument("--theta", type=float, default=0.0)
    pr.add_argument("--angles", type=int, default=64)
    pr.add_argument("--fraction", type=float, default=1.0)
    pr.add_argument("--kappa", type=float, default=None)
    pr.set_defaults(fn=_cmd_project)

    la = sub.add_parser("lattice", help="lattice translates and collisions")
    la.add_argument("what", choices=["blichfeldt", "collision"])
    common(la)
    la.add_argument("--set", type=str, required=True)
    la.add_argument("--modulus", type=_frac, default=Fraction(1, 4))
    la.add_argument("--vector", type=_float_list, default=(0.75, 0.75))
    la.add_argument("--radius", type=float, default=8.0)
    la.set_defaults(fn=_cmd_lattice)

    v = sub.add_parser("verify", help="exact inequality suites")
    v.add_argument("target", choices=["addcomb"])
    common(v)
    v.add_argument("--suite", choices=list(_SUITES) + ["all"], default="all")
    v.add_argument("--cases", type=int, default=100)
    v.add_argument("--max-cells", type=int, default=64)
    v.add_argument("--span", type=int, default=512)
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("experiment", help="expansion and projection experiments")
    e.add_argument("what", choices=["expander", "renorm", "nfold", "projection"])
    common(e)
    e.add_argument("--set", type=str, required=True)
    e.add_argument("--measure", type=str, default=None)
    e.add_argument("--candidates", type=_frac_range, default=(Fraction(1), Fraction(2)))
    e.add_argument("--xres", type=int, default=None)
    e.add_argument("--kappa", type=float, default=None)
    e.add_argument("--epsilon", type=float, default=None)
    e.add_argument("--eta", type=float, default=None)
    e.add_argument("--count", type=int, default=3)
    e.add_argument("--angles", type=int, default=64)
    e.add_argument("--nu-cells", type=int, default=4096,
                   help="cells in the uniform angle measure (power of two)")
    e.set_defaults(fn=_cmd_experiment)

    r = sub.add_parser("report", help="summarize a CSV report")
    r.add_argument("path")
    common(r)
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out_required", False) and not args.out:
            raise PreconditionError(f"{args.command}: --out is required")
        return args.fn(args)
    except (PreconditionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
