"""Every module of the package and of its tests parses at the Python floor
that pyproject.toml declares, so syntax of a newer Python (an except*
block on a 3.10 floor, say) fails here on whatever interpreter runs the
suite."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "lpmanifolds").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def _floor() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's requires-python = ">=X.Y"; read
    with a pattern, as tomllib is newer than the floor."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text,
                      re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_parse_refuses_newer_syntax():
    # the guard bites: a 3.11 except* block does not parse at 3.10
    src = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(src, feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=_floor())
