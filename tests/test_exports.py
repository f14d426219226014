"""Package exports: every name in a package's __all__ resolves on it."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["ccfg.core", "ccfg.sim",
                                     "ccfg.estimator", "ccfg.graph"])
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
