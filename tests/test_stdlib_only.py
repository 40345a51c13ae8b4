import ast
import sys
from pathlib import Path

import pytest

import buildref

PACKAGE_DIR = Path(buildref.__file__).parent


def _imported_top_names(tree: ast.AST):
    """The first component of every absolute import, at any depth of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) >= 8
    foreign = {
        (path.name, name)
        for path in sources
        for name in _imported_top_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names and name != "buildref"
    }
    assert foreign == set()


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = PACKAGE_DIR.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("package not run from a source checkout")
    assert tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"].get("dependencies", []) == []
