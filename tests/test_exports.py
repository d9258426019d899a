"""The package's public names resolve: a deletion that leaves a stale entry
in an __all__ or a stale re-export in lpmanifolds/__init__.py fails here,
and so does a private helper that nothing in the package uses any more."""

import ast
import importlib
from collections import Counter
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


def _uses(tree):
    """The names read in tree, as bare names or attributes, with their
    counts."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_used():
    # a module-level _function or _Class must be read somewhere in the
    # package outside its own definition
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(lpmanifolds.__file__).parent.glob("*.py")}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    private = [(name, node) for name, tree in sorted(trees.items())
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    assert private
    unused = [f"{name}: {node.name}" for name, node in private
              if uses[node.name] == _uses(node)[node.name]]
    assert unused == []
