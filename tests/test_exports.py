"""The package's public names resolve: a deletion that leaves a stale entry
in an __all__ or a stale re-export in lpmanifolds/__init__.py fails here,
and so does a private helper that nothing in the package uses any more, or
a README library example that no longer runs."""

import ast
import contextlib
import importlib
import io
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


def test_every_imported_name_is_used():
    # a name that a module binds by a module-level import is read in that
    # module or listed in its __all__; the package's __init__, which only
    # re-exports, is exempt
    unused = []
    for name in MODULES:
        path = Path(lpmanifolds.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text())
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        exported = set(getattr(importlib.import_module(f"lpmanifolds.{name}"),
                               "__all__", ()))
        unused += [f"{name}: {bound}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   for bound in [alias.asname or alias.name.split(".")[0]]
                   if bound not in reads | exported]
    assert unused == []


def test_readme_library_example_runs():
    # the python block of README's "Library example" section, run as it
    # stands: it solves saddle1's manifold y = x^2/3 at x = 0.1
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), scope)
    assert abs(scope["res"].h_value[0] - 0.1 ** 2 / 3.0) <= 1e-6
    assert out.getvalue().count("\n") == 2
