"""Every name that a netecon module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import netecon

MODULES = [f"netecon.{info.name}" for info in pkgutil.iter_modules(netecon.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
