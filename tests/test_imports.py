"""Every name a library module imports is read somewhere in that module,
every public function, class or constant it defines is read by the library or
a script, every private one is read in its own module, importing the
package loads none of its modules, and the surface and the CLI start
without `dataclasses` or `mpmath`."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oddgon"
SCRIPTS = SRC.parent.parent / "scripts"
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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def read_names(source: str) -> set[str]:
    """The names a module reads, and those it imports on a line marked EXEMPT."""
    tree = ast.parse(source)
    lines = source.splitlines()
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names if EXEMPT in lines[alias.lineno - 1])
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` for each public top-level function, class or constant that no reader reads."""
    read = set().union(*map(read_names, readers))
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        for name in defined_names(node)
        if not name.startswith("_") and name not in read
    )


def test_the_check_finds_a_name_only_tests_read():
    lib = (
        "def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\nclass Wrapped:\n    pass\n"
        "LIMIT = 3\nSPARE, _HIDDEN = LIMIT, 2\n"
    )
    readers = [lib, "from .a import used\nused()\nunused = 3\n", "from .a import Wrapped  # " + EXEMPT + "\n"]
    assert unread_public_names({"a": lib}, readers) == ["a.SPARE", "a.unused"]


def test_every_public_name_is_read_by_the_library_or_a_script():
    # highprec is the oracle, whose closed forms the tests check
    library = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = list(library.values()) + [p.read_text() for p in SCRIPTS.glob("*.py")]
    del library["highprec"]
    assert unread_public_names(library, readers) == []


def unread_private_names(modules: dict[str, str]) -> list[str]:
    """`module.name` for each private top-level function, class or constant its own module never reads."""
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for read in [read_names(source)]
        for node in ast.parse(source).body
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_the_check_finds_a_private_name_its_module_does_not_read():
    lib = "def _used():\n    pass\ndef _dead():\n    pass\n_LIMIT, __version__ = 3, '1'\nclass _Spare:\n    pass\n_used()\n"
    reader = "from .a import _dead, _LIMIT, _Spare\n_dead(_LIMIT, _Spare)\n"
    assert unread_private_names({"a": lib, "b": reader}) == ["a._LIMIT", "a._Spare", "a._dead"]


def test_every_private_name_is_read_in_its_own_module():
    assert unread_private_names({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_importing_the_package_loads_none_of_its_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import oddgon, sys; print(sorted(m for m in sys.modules if m.startswith('oddgon.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["oddgon.surface", "oddgon.cli"])
def test_the_surface_and_the_cli_load_neither_dataclasses_nor_mpmath(module):
    # every CLI call imports oddgon.cli and every benchmark set-up
    # oddgon.surface; `mpmath` alone costs more to import than the package's
    # own modules, and `dataclasses` (with `inspect`) nearly as much. The CLI
    # imports `highprec` (mpmath) in `verify` and `render` in `render`
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = f"import {module}, sys; print(sorted(m for m in ('dataclasses', 'mpmath', 'oddgon.render') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    )
    assert importers == []
