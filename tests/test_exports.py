"""Public surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import seva

MODULES = sorted(info.name for info in pkgutil.iter_modules(seva.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"seva.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"seva.{name}.__all__ names {missing}, which the module does not define"
