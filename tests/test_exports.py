"""Every name a ``starksim`` module exports in ``__all__`` exists, so a
stale export fails here rather than at ``from starksim.x import *``."""

import importlib
import pkgutil

import pytest

import starksim

MODULES = sorted(f"starksim.{info.name}" for info in pkgutil.iter_modules(starksim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_modules_found():
    assert "starksim.electrostatics" in MODULES and "starksim.stark" in MODULES
