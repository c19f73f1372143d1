"""Every name a library module imports is read somewhere in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oddgon"
# names kept so that perfbench/tracing.py can wrap them inside the module
EXEMPT = "perfbench/tracing.py wraps this name"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if EXEMPT not in lines[alias.lineno - 1]:
                    imported.add((alias.asname or alias.name).split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau  # used: pi\nfrom .x import y  # " + EXEMPT + "\nprint(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports((SRC / path).read_text()) == []
