"""Every name a package module imports is used: by the module itself, by
its `__all__`, or by another package module importing it from there.
An import kept on purpose carries `# noqa: F401` on its line."""
import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "deltagrid")


def _modules():
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            path = os.path.join(SRC, fname)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            yield fname[:-3], text, ast.parse(text, filename=path)


def _imports(tree, lines):
    """(bound name, line) of every import without a noqa F401 mark."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used_names(tree):
    """Names read anywhere in the module, plus those listed in `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    modules = list(_modules())
    # names other modules import from a module count as used there
    reexported = set()
    for _, _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reexported |= {(node.module, a.name) for a in node.names}
    unused = []
    for name, text, tree in modules:
        used = _used_names(tree)
        for bound, lineno in _imports(tree, text.splitlines()):
            if bound not in used and (name, bound) not in reexported:
                unused.append(f"{name}.py:{lineno}: {bound}")
    assert not unused, "unused imports:\n" + "\n".join(unused)
