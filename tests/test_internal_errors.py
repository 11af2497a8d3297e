"""Every InternalCheckError built in the package names a digest of its
inputs, so a failed check can be replayed: its message is an f-string
with `(inputs {...})` in it."""
import ast

from test_imports import _modules


def _names_inputs(call: ast.Call) -> bool:
    msg = call.args[0] if call.args else None
    if not isinstance(msg, ast.JoinedStr):
        return False
    parts = msg.values
    return any(isinstance(a, ast.Constant) and a.value.endswith("(inputs ")
               and isinstance(b, ast.FormattedValue) for a, b in zip(parts, parts[1:]))


def test_internal_errors_name_their_inputs():
    sites, bad = 0, []
    for name, _, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "InternalCheckError"):
                sites += 1
                if not _names_inputs(node):
                    bad.append(f"{name}.py:{node.lineno}")
    assert sites >= 9
    assert not bad, "InternalCheckError without an input digest:\n" + "\n".join(bad)
