"""The benchmark's tracer (perfbench/tracing.py) wraps, rebinds or reads
these names of the package where it looks for them; a refactor that
moves one breaks `perfbench/run.py --trace 1`, so it fails here."""
import inspect
from concurrent.futures import ThreadPoolExecutor

from deltagrid import expand, grid, measure, project


def test_indices_properties_in_each_set_class():
    for cls in (grid.GridSet1, grid.GridSet2):
        prop = cls.__dict__["indices"]
        assert isinstance(prop, property) and callable(prop.fget)


def test_runs_properties_in_each_set_class():
    for cls in (grid.GridSet1, grid.GridSet2):
        prop = cls.__dict__["runs"]
        assert isinstance(prop, property) and callable(prop.fget)


def test_bits_property_in_the_2d_set_class():
    # a 2D set read from runs paints its box on first use of this property
    prop = grid.GridSet2.__dict__["bits"]
    assert isinstance(prop, property) and callable(prop.fget)


def test_thread_pools_rebound_by_module():
    for mod in (project, expand):
        assert mod.__dict__["ThreadPoolExecutor"] is ThreadPoolExecutor


def test_energy_hook_imports():
    assert isinstance(measure.DIRECT_ENERGY_CAP, int)
    assert inspect.isclass(measure.DyadicMeasure1)


def test_hooked_functions_exist():
    from deltagrid import gridio, setcalc
    for mod, names in ((setcalc, ("sumset", "diffset", "nfold_sum", "graph_sum")),
                       (project, ("adversarial_projection",)),
                       (measure, ("riesz_energy",)),
                       (gridio, ("read_gridset", "read_measure", "write_gridset",
                                 "write_measure", "write_csv")),
                       (expand, ("find_expander",))):
        for name in names:
            fn = mod.__dict__[name]
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_sweep_counts_are_a_plain_setcalc_function():
    """The tracer times a call, so a generator's work would be charged to
    whoever consumes it: the expander sweep's counts stay a plain function
    of `setcalc`, bound by name in `expand`, so `setcalc` keeps their time."""
    from deltagrid import setcalc
    fn = setcalc.__dict__["dilated_sum_counts"]
    assert inspect.isfunction(fn) and fn.__module__ == setcalc.__name__
    assert not inspect.isgeneratorfunction(fn)
    assert expand.__dict__["dilated_sum_counts"] is fn


def test_sum_counts_are_plain_setcalc_functions():
    """The checks' |A + B| and |A - B| are timed as `setcalc` calls: the
    count functions are plain functions of `setcalc`, bound by name in
    `addcomb` (and `diffset_count` in `expand`), where the tracer rebinds
    them; `addcomb` keeps `sumset` for the Plunnecke fold."""
    from deltagrid import addcomb, setcalc
    for name in ("sumset_count", "diffset_count"):
        fn = setcalc.__dict__[name]
        assert inspect.isfunction(fn) and fn.__module__ == setcalc.__name__
        assert not inspect.isgeneratorfunction(fn)
        assert addcomb.__dict__[name] is fn
    assert expand.__dict__["diffset_count"] is setcalc.diffset_count
    assert addcomb.__dict__["sumset"] is setcalc.sumset
