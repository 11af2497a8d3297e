"""Span tracing of deltagrid from outside the package.

``Tracer.install`` wraps every public function of each traced module and
rebinds the name in every deltagrid module that holds it, because
``from .setcalc import sumset`` binds ``sumset`` separately in ``addcomb``,
``expand``, ``lattice`` and ``cli``.  The ``GridSet1.indices`` and
``GridSet2.indices`` properties are wrapped the same way, and the
``ThreadPoolExecutor`` used by ``project`` and ``expand`` is swapped for
one whose tasks take as parent the span open on the submitting thread.
``uninstall`` puts every original back.

A span is (id, parent id, thread id, name, start, end, info); spans stay
in memory until the run ends.  A span's self time is its duration minus
the durations of its children on the same thread.  Children on worker
threads run while the submitting span waits, so they are not subtracted
from it.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

MODULES = ("grid", "setcalc", "addcomb", "measure", "project", "lattice",
           "expand", "gridio", "cli")


def _semantics_hook(default_cover: bool, operands: int):
    """Records COVER semantics and, for the big-int sumset kernel, the
    operand spans (the widths of its occupancy masks)."""

    def hook(args, kwargs, result):
        sem = args[2] if len(args) > 2 else kwargs.get("semantics")
        cover = default_cover if sem is None else sem.value == "cover"
        return {"cover": cover, "cells": sum(a.bits.size for a in args[:operands])}

    return hook


def _energy_pairs(args, kwargs, result):
    """Pairs (direct) or annulus bins (binned) riesz_energy evaluates."""
    from deltagrid.measure import DIRECT_ENERGY_CAP, DyadicMeasure1

    mu = args[0]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    support = int((mu.weights > 0).sum())
    if isinstance(mu, DyadicMeasure1) and (
            method == "binned" or (method == "auto" and support > DIRECT_ENERGY_CAP)):
        L = mu.weights.size
        return {"pairs": L * max(1, (L - 1).bit_length())}
    return {"pairs": support * support}


def _bytes_at(position: int):
    """Size of the file named by the call's argument at ``position``."""
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[position])}


HOOKS = {
    "setcalc.sumset": _semantics_hook(False, 2),
    "setcalc.diffset": _semantics_hook(False, 0),
    "setcalc.nfold_sum": _semantics_hook(False, 0),
    "setcalc.graph_sum": _semantics_hook(True, 0),
    "project.adversarial_projection": lambda a, k, r: {"witness": r[1].count},
    "measure.riesz_energy": _energy_pairs,
    "gridio.read_gridset": _bytes_at(0),
    "gridio.read_measure": _bytes_at(0),
    "gridio.write_gridset": _bytes_at(1),
    "gridio.write_measure": _bytes_at(1),
    "gridio.write_csv": _bytes_at(0),
    "expand.find_expander": lambda a, k, r: {"candidates": len(r.records)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or its inherited parent."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append((sid, parent, threading.get_ident(), name, start,
                                     perf_counter(), None))
                raise
            end = perf_counter()
            stack.pop()
            info = hook(args, kwargs, result) if hook is not None else None
            tracer.spans.append((sid, parent, threading.get_ident(), name, start, end, info))
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import deltagrid.cli  # noqa: F401  (loads every module)
        from deltagrid.grid import GridSet1, GridSet2

        package = [m for n, m in sys.modules.items()
                   if n == "deltagrid" or n.startswith("deltagrid.")]
        wrapped = {}
        for mname in MODULES:
            mod = sys.modules[f"deltagrid.{mname}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{mname}.{attr}", obj))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for cls in (GridSet1, GridSet2):
            prop = cls.__dict__["indices"]
            self._set(cls, "indices", property(self.wrap("grid.indices", prop.fget),
                                               doc=prop.__doc__))
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        for mname in ("project", "expand"):
            self._set(sys.modules[f"deltagrid.{mname}"], "ThreadPoolExecutor",
                      PropagatingExecutor)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tname\tstart\tend\tinfo\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else repr(v) if isinstance(v, float)
                                   else str(v) for v in s) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _union_length(intervals) -> float:
    total, hi = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > hi:
            total += b - max(a, hi)
            hi = b
    return total


def layer_metrics(spans, main_thread: int, wall_total: float, reps: int) -> dict:
    """Per-layer numbers of a traced run, as means per repetition.

    ``wall_total`` is the summed wall time of the timed repetitions.  The
    returned ``_check`` entry holds the accounting identity on the
    submitting thread: its spans' self times plus the time no span
    covers add up to the wall time.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    same_thread_child = defaultdict(float)
    for s in spans:
        p = s[1]
        if p is None:
            continue
        children[p].append(s)
        if by_id[p][2] == s[2]:
            same_thread_child[p] += s[5] - s[4]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    info_sum = defaultdict(float)
    main_self = top_level = 0.0
    for s in spans:
        sid, parent, tid, name, start, end, info = s
        module = name.split(".", 1)[0]
        own = end - start - same_thread_child[sid]
        calls[module] += 1
        self_s[module] += own
        fn_self[name] += own
        fn_calls[name] += 1
        if info:
            for k, v in info.items():
                info_sum[k] += float(v)
        if tid == main_thread:
            main_self += own
            if parent is None:
                top_level += end - start

    # setcalc calls made directly by an addcomb verifier, and how many of
    # them are the INDEX-semantics sums the verdict uses
    under_addcomb = useful = 0
    for s in spans:
        parent = by_id.get(s[1])
        if s[3].startswith("setcalc.") and parent and parent[3].startswith("addcomb."):
            under_addcomb += 1
            useful += not (s[6] or {}).get("cover", False)
    cover_calls = sum(1 for s in spans if s[3].startswith("setcalc.") and (s[6] or {}).get("cover"))

    busy = expand_wall = 0.0
    for s in spans:
        if s[3] != "expand.find_expander":
            continue
        expand_wall += s[5] - s[4]
        per_thread = defaultdict(list)
        todo = list(children[s[0]])
        while todo:
            c = todo.pop()
            per_thread[c[2]].append((c[4], c[5]))
            todo.extend(children[c[0]])
        busy += sum(_union_length(iv) for iv in per_thread.values())

    unattributed = wall_total - top_level
    m = {}
    for module in MODULES:
        m[f"{module}.calls"] = calls[module] / reps
        m[f"{module}.self_s"] = self_s[module] / reps
    m.update({
        "grid.indices_calls": fn_calls["grid.indices"] / reps,
        "grid.indices_s": fn_self["grid.indices"] / reps,
        "project.project_set_s": fn_self["project.project_set"] / reps,
        "project.adversarial_s": fn_self["project.adversarial_projection"] / reps,
        "project.project_measure_s": fn_self["project.project_measure"] / reps,
        "project.witness_cells": info_sum["witness"] / reps,
        "measure.energy_calls": fn_calls["measure.riesz_energy"] / reps,
        "measure.energy_s": fn_self["measure.riesz_energy"] / reps,
        "measure.energy_pairs": info_sum["pairs"] / reps,
        "measure.frostman_s": fn_self["measure.frostman_constant"] / reps,
        "measure.maximal_s": fn_self["measure.maximal_interval"] / reps,
        "setcalc.cover_calls": cover_calls / reps,
        "addcomb.checks": sum(n for k, n in fn_calls.items()
                              if k.startswith("addcomb.check_")) / reps,
        "addcomb.useful_call_ratio": useful / under_addcomb if under_addcomb else 0.0,
        "setcalc.sumset_s": fn_self["setcalc.sumset"] / reps,
        "setcalc.dilate_s": fn_self["setcalc.dilate"] / reps,
        "setcalc.graph_sum_s": fn_self["setcalc.graph_sum"] / reps,
        "setcalc.operand_cells": info_sum["cells"] / reps,
        "expand.candidates": info_sum["candidates"] / reps,
        "expand.parallelism": busy / expand_wall if expand_wall else 0.0,
        "gridio.read_s": (fn_self["gridio.read_gridset"] + fn_self["gridio.read_measure"]) / reps,
        "gridio.write_s": sum(fn_self[f"gridio.{f}"] for f in
                              ("write_gridset", "write_measure", "write_csv")) / reps,
        "gridio.bytes": info_sum["bytes"] / reps,
        "trace.wall_s": wall_total / reps,
        "trace.unattributed_s": unattributed / reps,
    })
    m["_check"] = {
        "main_thread_self_s": main_self / reps,
        "worker_thread_self_s": (sum(self_s.values()) - main_self) / reps,
        "identity_error_s": abs(main_self + unattributed - wall_total) / reps,
    }
    return m
