"""No module of the package imports a name it never uses, and one module
owns the power worker and the modular exponentiations.

A stdlib stand-in for pyflakes' F401: a name bound by an import must appear
as a name elsewhere in its module, or in the module's ``__all__``. An import
statement whose first line carries ``# noqa: F401`` is exempt; it re-exports
names for code outside the package.

Exactly one module imports ``subprocess``, the one that starts the power
worker, and only ``numutil`` calls three-argument ``pow``: every other module
exponentiates through ``numutil.powmod`` or the worker.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pinfer"


def unused_imports(source: str) -> list[str]:
    """``line: name`` for every imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or \
                "# noqa: F401" in lines[node.lineno - 1]:
            continue
        imported += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads\n"
    assert unused_imports(source) == ["1: os", "3: dumps"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_module(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a submodule of it."""
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                 [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        if any(name.split(".")[0] == module for name in names):
            return True
    return False


def calls_three_argument_pow(source: str) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and
               node.func.id == "pow" and len(node.args) == 3
               for node in ast.walk(ast.parse(source)))


def test_the_checks_find_subprocess_and_pow():
    assert imports_module("import os, subprocess as sp\n", "subprocess")
    assert imports_module("from subprocess import PIPE\n", "subprocess")
    assert not imports_module("from . import subprocess\nx = 'import subprocess'\n",
                              "subprocess")
    assert calls_three_argument_pow("y = pow(b, e, m)\n")
    assert not calls_three_argument_pow("y = pow(b, e)\nz = 'pow(b, e, m)'\n")


def test_one_worker_module_and_one_power_module():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len([name for name, source in sources.items()
                if imports_module(source, "subprocess")]) == 1
    assert [name for name, source in sources.items()
            if calls_three_argument_pow(source)] == ["numutil"]
