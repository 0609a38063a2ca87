"""Every module of the package uses each name it imports, and every private
module-level name is read somewhere in the package (no linter runs on this
repository, so these are the guards)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ondemand_pricing"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_finder_flags_an_unused_import():
    source = "from math import exp, log\nimport os.path\nimport sys as system\nlog(1)\n"
    assert unused_imports(source) == ["exp (line 1)", "os (line 2)", "system (line 3)"]
    assert unused_imports("from __future__ import annotations\nx: int = 1\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s (functions, classes, assignments) that no module
    reads, as `module:name`."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_finder_flags_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_dead_const: int = 4\n__all__ = []\n"
             "def _check_single_prices(p):\n    return p\n"
             "def _used(x):\n    return x < _LIMIT\n"
             "class _Shared:\n    pass\n",
        "b": "from a import _Shared\nimport a\nprint(a._used(1), _Shared)\n",
    }
    assert dead_private_names(sources) == ["a:_check_single_prices", "a:_dead_const"]


def test_package_has_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []
