"""Package exports and imports: every name in a package's __all__ resolves
on it, every module uses what it imports, and every private module-level
name is read somewhere in the package."""

import ast
import importlib
from pathlib import Path

import pytest

import ccfg


@pytest.mark.parametrize("package", ["ccfg.core", "ccfg.sim",
                                     "ccfg.estimator", "ccfg.graph"])
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _unused_imports(path):
    """Names the module at path imports and never reads, except those on an
    import statement marked `# noqa: F401`."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_modules_use_their_imports():
    root = Path(ccfg.__file__).parent
    unused = [u for path in sorted(root.rglob("*.py"))
              if path.name != "__init__.py" for u in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree):
    """Private names (one leading underscore) a module binds at its top
    level: defs, classes and assignment targets, tuples unpacked."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
            else []
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_private_names_are_read():
    # a helper, constant or table that a refactor leaves behind shows up
    # here: nothing under src/ccfg reads it
    root = Path(ccfg.__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{path.parent.name}/{path.name} {name}"
                    for path, tree in trees.items()
                    for name in _private_definitions(tree) - read)
    assert unread == []
