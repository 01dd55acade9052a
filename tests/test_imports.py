"""No module of the package imports a name it never uses, none starts a
process or loads OpenSSL, and one module owns the modular exponentiations.

A stdlib stand-in for pyflakes' F401: a name bound by an import must appear
as a name elsewhere in its module, or in the module's ``__all__``. An import
statement whose first line carries ``# noqa: F401`` is exempt; it re-exports
names for code outside the package.

No module imports ``subprocess``, or ``hashlib``, ``hmac``, ``secrets`` or
``ssl``, each of which maps OpenSSL's libcrypto into the process; random
draws come from ``numutil.SYSTEM_RNG``. Only ``numutil`` calls
three-argument ``pow``: every other module exponentiates through
``numutil.powmod`` or ``numutil.powers_while``.

No module reaches into another's private names: it imports no ``_name``
from a module of the package, and reads an ``_name`` attribute only on
``self`` or ``cls`` or where its own file defines that name, so that, for
one, every random factor is drawn inside ``paillier``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pinfer"
#: Stdlib modules that load OpenSSL (``_hashlib`` or ``_ssl``) when imported.
OPENSSL_MODULES = ("hashlib", "hmac", "secrets", "ssl")


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


def test_the_check_finds_each_openssl_module():
    for module in OPENSSL_MODULES:
        assert imports_module(f"import {module}\n", module)
        assert imports_module(f"import json, {module} as m\n", module)
        assert imports_module(f"from {module} import x\n", module)
        assert not imports_module(f"from . import {module}\ny = 'import {module}'\n", module)
    assert not imports_module("import sslv\n", "ssl")
    assert not imports_module("from hashlibx import sha256\n", "hashlib")


def test_no_module_loads_openssl():
    assert [(path.name, module) for path in sorted(PACKAGE.glob("*.py"))
            for module in OPENSSL_MODULES
            if imports_module(path.read_text(encoding="utf-8"), module)] == []


def test_no_subprocess_module_and_one_power_module():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, source in sources.items()
            if imports_module(source, "subprocess")] == []
    assert [name for name, source in sources.items()
            if calls_three_argument_pow(source)] == ["numutil"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """``line: name`` for every private name ``source`` takes from elsewhere:
    one imported from a module of the package, or an attribute read on
    anything but ``self`` or ``cls`` that ``source`` never defines."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pinfer"):
            reaches += [(node.lineno, a.name) for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and \
                _is_private(node.attr) and node.attr not in defined and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            reaches.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(reaches)]


def test_the_check_finds_a_private_reach():
    source = ("from .paillier import _factors, keygen\n"
              "from pinfer.numutil import _ODD_PRIMORIAL as P\n"
              "from json import _default_decoder\n"
              "class Key:\n"
              "    __slots__ = ('_own',)\n"
              "    def _check(self, other):\n"
              "        self._own = other._own\n"
              "        return self._hidden, cls._also, other._check(), self.__class__\n"
              "key._draw(rng)\n"
              "_, factors = ct.public_key._draw(rng)\n")
    assert private_reaches(source) == ["1: _factors", "2: _ODD_PRIMORIAL", "9: _draw",
                                       "10: _draw"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []
