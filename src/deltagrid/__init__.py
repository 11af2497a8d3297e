"""Exact arithmetic and measure tools on dyadic delta-grids.

Finite unions of half-open cells at resolution delta = 2**-n, with exact
sum/difference/product calculus, Frostman-type non-concentration scans,
Riesz energies, projection sweeps with a dense-subset adversary, lattice
translate searches, additive-combinatorics inequality checks, and
expansion experiments driven by a renormalization zoom.
"""

from .errors import InternalCheckError, PreconditionError
from .grid import (MAX_DEPTH, MAX_INDEX, MAX_SPAN, GridSet1, GridSet2, Scale,
                   as_fraction, cartesian_product, covering_number, gen_cantor,
                   gen_random_frostman, make_interval, neighborhood)
from .setcalc import (SumSemantics, diffset, diffset_count, dilate, graph_sum,
                      nfold_product, nfold_sum, reflect, sumset, sumset_count)
from .measure import (DyadicMeasure1, DyadicMeasure2, FrostmanReport,
                      MaximalIntervalResult, condition, energy_bound_constant,
                      frostman_constant, maximal_interval, nonconcentration_constant,
                      prune_heavy_cubes, pushforward_affine, rescale_to_unit,
                      riesz_energy, uniform_on)
from .project import (AngleMeasure, Direction, MarstrandStats, ProjectionRecord,
                      SweepReport, adversarial_count, adversarial_projection,
                      kaufman_average, marstrand_average, project_measure,
                      project_set, sweep)
from .lattice import (CellCloud, CollisionWitness, LatticeSearchResult,
                      blichfeldt_translate, count_lattice_points, slab_collision)
from .addcomb import (BsgExtractionError, BsgResult, InequalityRecord, bsg_extract,
                      check_cor_simple, check_graph_projection, check_plunnecke,
                      check_ruzsa_triangle, check_sum_to_difference)
from .expand import (ExhaustionDecomposition, ExpanderRecord, ExpansionCurve,
                     ExpansionReport, ProjectionExperiment, exhaust_decompose,
                     find_expander, nfold_expansion_curve,
                     projection_theorem_experiment, renormalized_find_expander)
from .gridio import (read_gridset, read_measure, write_csv, write_gridset,
                     write_measure)

__version__ = "0.1.0"

__all__ = [
    "AngleMeasure", "BsgExtractionError", "BsgResult", "CellCloud",
    "CollisionWitness", "Direction", "DyadicMeasure1", "DyadicMeasure2",
    "ExhaustionDecomposition", "ExpanderRecord", "ExpansionCurve",
    "ExpansionReport", "FrostmanReport", "GridSet1", "GridSet2",
    "InequalityRecord", "InternalCheckError", "LatticeSearchResult",
    "MarstrandStats", "MaximalIntervalResult", "MAX_DEPTH", "MAX_INDEX",
    "MAX_SPAN", "PreconditionError", "ProjectionExperiment", "ProjectionRecord",
    "Scale", "SumSemantics", "SweepReport", "adversarial_count",
    "adversarial_projection",
    "as_fraction", "blichfeldt_translate", "bsg_extract", "cartesian_product",
    "check_cor_simple", "check_graph_projection", "check_plunnecke",
    "check_ruzsa_triangle", "check_sum_to_difference", "condition",
    "count_lattice_points", "covering_number", "diffset", "diffset_count", "dilate",
    "energy_bound_constant", "exhaust_decompose", "find_expander",
    "frostman_constant", "gen_cantor", "gen_random_frostman", "graph_sum",
    "kaufman_average", "make_interval", "marstrand_average", "maximal_interval",
    "neighborhood", "nfold_expansion_curve", "nfold_product", "nfold_sum",
    "nonconcentration_constant", "project_measure", "project_set",
    "projection_theorem_experiment", "prune_heavy_cubes", "pushforward_affine",
    "read_gridset", "read_measure", "reflect", "renormalized_find_expander",
    "rescale_to_unit", "riesz_energy", "slab_collision", "sumset", "sumset_count", "sweep",
    "uniform_on", "write_csv", "write_gridset", "write_measure",
]
