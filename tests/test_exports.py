"""Export consistency: module ``__all__`` lists and the package table agree."""

import importlib
import inspect
import pkgutil

import pytest

import rmpoly

MODULES = [importlib.import_module(f"rmpoly.{info.name}")
           for info in pkgutil.iter_modules(rmpoly.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"


def test_package_reexports_only_listed_names():
    # The package loads a home module on first use of one of its names, so
    # its namespace is checked against the table, not against vars().
    for name, home in rmpoly._HOME.items():
        module = importlib.import_module(f"rmpoly.{home}")
        assert name in module.__all__, f"{home}.__all__ lacks {name}"
        assert getattr(rmpoly, name) is getattr(module, name)
    assert rmpoly.__all__ == list(rmpoly._HOME)
    assert set(rmpoly.__all__) <= set(dir(rmpoly))
    public = {name for name, value in vars(rmpoly).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(rmpoly.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        rmpoly.no_such_name
    assert not hasattr(rmpoly, "no_such_name")
    namespace = {}
    exec("from rmpoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rmpoly.__all__)
