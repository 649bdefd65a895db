"""Export consistency: ``__all__`` lists and the package namespace agree."""

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
    listed = set().union(*(getattr(m, "__all__", ()) for m in MODULES))
    public = {name for name, value in vars(rmpoly).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - listed == set()
