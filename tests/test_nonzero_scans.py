"""Cells are found by flat scans: on a 4096x4096 box, np.nonzero took
about ten times as long as np.flatnonzero plus np.divmod.  And a
measure's support is found in one place, its cached `_support` view, so
no other code scans a measure's weights for it."""
import ast

from test_imports import _modules

_SCANS = ("nonzero", "flatnonzero", "count_nonzero")


def _calls(tree):
    """(name of the enclosing function, call) of every call in a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    yield node.name, call


def test_no_nonzero_calls():
    bad = [f"{name}.py:{node.lineno}" for name, _, tree in _modules()
           for node in ast.walk(tree)
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr == "nonzero"]
    assert not bad, "np.nonzero call (use np.flatnonzero):\n" + "\n".join(bad)


def test_only_the_support_view_scans_weights():
    bad = []
    for name, _, tree in _modules():
        for fn, call in _calls(tree):
            func = call.func
            scan = getattr(func, "attr", getattr(func, "id", None)) in _SCANS
            reads_weights = any(isinstance(a, ast.Attribute) and a.attr == "weights"
                                for arg in call.args for a in ast.walk(arg))
            if scan and reads_weights and fn != "_support":
                bad.append(f"{name}.py:{call.lineno} in {fn}")
    assert not bad, "support scan outside _CellMeasure._support:\n" + "\n".join(bad)
