"""Every InternalCheckError of the package is built by `grid._bug`, whose
message names a digest of the inputs, so a failed check can be replayed:
each `_bug(...)` call passes its inputs after its message, and no
precondition's message calls its failure a bug."""
import ast
import re

from deltagrid import InternalCheckError
from deltagrid.grid import _bug, _digest
from test_imports import _modules


def _calls(name):
    """(module, innermost enclosing function or None, call node) of every
    call of `name` in the package."""
    for mod, _, tree in _modules():
        fns = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
                around = [f for f in fns if f.lineno <= node.lineno <= f.end_lineno]
                yield mod, max(around, key=lambda f: f.lineno).name if around else None, node


def test_internal_errors_are_built_only_by_bug():
    sites = {(mod, fn) for mod, fn, _ in _calls("InternalCheckError")}
    assert sites == {("grid", "_bug")}


def test_every_bug_call_names_its_inputs():
    calls = [(mod, node) for mod, _, node in _calls("_bug")]
    bare = [f"{mod}.py:{node.lineno}" for mod, node in calls if len(node.args) < 2]
    assert len(calls) >= 9
    assert not bare, "_bug without inputs after its message:\n" + "\n".join(bare)


def test_no_precondition_calls_itself_a_bug():
    bad = []
    for mod, _, node in _calls("_require"):
        msg = ast.unparse(node.args[1]) if len(node.args) > 1 else ""
        if "bug" in msg:
            bad.append(f"{mod}.py:{node.lineno}")
    assert not bad, "_require message naming a bug:\n" + "\n".join(bad)


def test_bug_message_ends_with_the_input_digest():
    err = _bug("sides differ", 3, "x")
    assert isinstance(err, InternalCheckError)
    m = re.fullmatch(r"sides differ \(inputs ([0-9a-f]{16})\); bug", str(err))
    assert m and m.group(1) == _digest(3, "x")
