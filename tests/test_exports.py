"""The package's public names resolve: a deletion that leaves a stale entry
in an __all__ or a stale re-export in lpmanifolds/__init__.py fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lpmanifolds

MODULES = sorted(info.name for info in pkgutil.iter_modules(lpmanifolds.__path__))


def _reexports():
    """(module, name) for each name the package's __init__ imports from one
    of its modules."""
    tree = ast.parse(Path(lpmanifolds.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"lpmanifolds.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_only_public_names():
    pairs = _reexports()
    assert pairs
    stale = [(m, n) for m, n in pairs
             if n not in importlib.import_module(f"lpmanifolds.{m}").__all__]
    assert stale == []
