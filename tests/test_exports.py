"""Every name a ``starksim`` module exports in ``__all__`` exists, so a
stale export fails here rather than at ``from starksim.x import *``; and
every exception class the package defines has a ``cli.FAILURES`` row, so
none can leave ``main`` as a traceback."""

import importlib
import inspect
import pkgutil

import pytest

import starksim
from starksim.cli import FAILURES

MODULES = sorted(f"starksim.{info.name}" for info in pkgutil.iter_modules(starksim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_modules_found():
    assert "starksim.electrostatics" in MODULES and "starksim.stark" in MODULES


@pytest.mark.parametrize("name", ["starksim", *MODULES])
def test_every_exception_class_has_a_failure_row(name):
    module = importlib.import_module(name)
    defined = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == name and issubclass(cls, BaseException)]
    handled = tuple(cls for cls, _, _ in FAILURES)
    assert [cls.__name__ for cls in defined if not issubclass(cls, handled)] == []
