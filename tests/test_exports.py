import importlib
import pkgutil

import pytest

import degzeta

MODULES = ["degzeta"] + [f"degzeta.{m.name}" for m in pkgutil.iter_modules(degzeta.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
