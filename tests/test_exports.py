"""Package exports and imports: every name in a package's __all__ resolves
on it, and every module uses what it imports."""

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
