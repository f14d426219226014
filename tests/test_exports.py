"""Package exports and imports: every name in a package's __all__ resolves
on it, every module uses what it imports, every private module-level name is
read somewhere in the package, every program name the benchmark's traced
pass rebinds exists, the declared dependencies are the third-party modules
the package imports, and importing and running the packages loads no
scipy module."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tomllib
import types
from pathlib import Path

import pytest

import ccfg


PACKAGES = ["ccfg.core", "ccfg.sim", "ccfg.estimator", "ccfg.graph"]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_packages_bind_each_shared_name_to_one_object():
    # a caller that imports from two packages must not get two classes
    # under one name
    owners = {}
    for package in PACKAGES:
        mod = importlib.import_module(package)
        for name in mod.__all__:
            owners.setdefault(name, []).append((package, getattr(mod, name)))
    clashes = sorted(f"{name}: {', '.join(p for p, _ in found)}"
                     for name, found in owners.items()
                     if any(obj is not found[0][1] for _, obj in found))
    assert clashes == []


def _unused_imports(path):
    """Names the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
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


def test_benchmark_rebinds_name_program_attributes():
    # perfbench/tracing.py replaces these module attributes by name during a
    # traced run; a deleted or renamed one would fail only that run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    rebinds = tracing.Api(tracing.Tracer()).rebinds
    assert len(rebinds) > 1
    missing = [f"{mod.__name__}.{name}" for mod, name, _ in rebinds
               if not hasattr(mod, name)]
    assert missing == []


def test_declared_dependencies_are_imported():
    # pyproject.toml's [project] dependencies are exactly the third-party
    # top-level modules that some module under src/ccfg imports
    root = Path(ccfg.__file__).parent
    project = tomllib.loads(
        (root.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in project["dependencies"]}
    imported = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names) - {"ccfg"}


def test_packages_run_without_scipy():
    # no module under src/ccfg loads scipy, nor scipy's compiled LAPACK
    # wrappers under a name of the package (ccfg.sim._flapack): a fresh
    # interpreter imports the packages and resolves a flush press, which
    # takes LU steps only, and loads no scipy module
    script = """
import json, sys
import numpy as np
import ccfg.core, ccfg.estimator, ccfg.graph, ccfg.sim
from ccfg.core import HandModel, PlanarPose, PolygonModel, WorldModel
from ccfg.sim import SimWorld, resolve_mode

sw = SimWorld(
    polygon=PolygonModel([[-0.06, -0.04], [0.06, -0.04], [0.06, 0.04],
                          [-0.06, 0.04]]),
    object_pose=PlanarPose([0.0, 0.04], 0.0),
    hand_pose=PlanarPose([0.0, 0.08], 0.0), hand=HandModel(half_length=0.05),
    world=WorldModel(ground_height=0.0), mass=0.5, com=np.zeros(2),
    mu_hand=0.9, mu_ground=0.25, mu_wall=0.3,
    stiffness=np.array([600.0, 600.0, 20.0]))
sol = resolve_mode(sw, PlanarPose([0.0, 0.079], 0.0))
print(json.dumps({"mode": sol.hypothesis.hand_mode,
                  "loaded": sorted(m for m in sys.modules
                                   if m == "ccfg.sim._flapack"
                                   or m.split(".")[0] == "scipy")}))
"""
    src = Path(ccfg.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert out["mode"] == "stick_flush"
    assert out["loaded"] == []
