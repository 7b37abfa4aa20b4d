"""The package metadata agrees with the code it ships."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set:
    """Top-level names of every absolute import under ``src/repro``
    that is neither the standard library nor ``repro`` itself."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    tops = {name.split(".")[0] for name in names}
    return tops - set(sys.stdlib_module_names) - {"repro"}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="needs tomllib and sys.stdlib_module_names")
def test_declared_dependencies_are_the_imported_ones():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", spec).group()
                for spec in project["dependencies"]}
    assert declared == _third_party_imports()
