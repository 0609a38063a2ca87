"""Every module of the package uses each name it imports, every private
module-level name is read somewhere in the package (no linter runs on this
repository, so these are the guards), the public surface is the one the
README shows, and the benchmark under `perfbench/` finds every name and call
shape it uses."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import ondemand_pricing
from ondemand_pricing import (
    SimConfig,
    first_step_solve,
    mixture_horizon_optimize,
    queue_optimize,
    queue_rate,
    simulate_queue,
)
from ondemand_pricing.config import load_scenario

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ondemand_pricing"
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


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code: not blank, not only a
    comment and not inside a docstring. A statement or string spanning lines
    counts each of them. The package total is
    `sum(code_lines(p.read_text()) for p in PACKAGE.glob("*.py"))`."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def test_counter_skips_blanks_comments_and_docstrings():
    source = ('"""Module doc."""\n'
              "\n"
              "# a comment\n"
              "def f(x):\n"
              '    """Function doc,\n'
              '    on two lines."""\n'
              '    s = """a string,\n'
              'not a docstring"""\n'
              "    return x  # trailing comment\n"
              "\n"
              "class C:\n"
              '    "Class doc."\n'
              "    y = [1,\n"
              "         2]\n")
    assert code_lines(source) == 7
    assert code_lines("") == 0


def test_all_lists_each_imported_name_once():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = ondemand_pricing.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported


def test_readme_entry_points_run(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})



# --- the benchmark's contract with the package ---
# perfbench/ reaches the package as P.<module>.<name>. A refactor that renames
# one of those names, or changes a call shape below, breaks the benchmark, so
# it is a benchmark change and must come with one.


def benchmark_names() -> list[tuple[str, str]]:
    """Each (module, name) that perfbench's sources reach as P.<module>.<name>."""
    found = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        found.update(re.findall(r"\bP\.(\w+)\.(\w+)", path.read_text()))
    return sorted(found)


def test_every_name_the_benchmark_calls_resolves():
    names = benchmark_names()
    # the pattern finds the calls at all: one from each workload
    assert {("solver", "solve_fixed_point"), ("simulate", "simulate"),
            ("cli", "main")} <= set(names)
    # the modules by import, as the package's `simulate` function shadows its module
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"ondemand_pricing.{module}"), name)]
    assert missing == []


def test_the_benchmark_call_shapes_hold():
    # the optimisers return (prices, rate) and (prices, value) tuples, and
    # the queue's rate, renewal solve and simulator take two prices
    queue = load_scenario(ROOT / "configs" / "queue.json")
    prices, rate = queue_optimize(queue)
    assert len(prices) == 2 and isinstance(rate, float)
    closed = queue_rate(queue, *prices)
    assert closed == pytest.approx(first_step_solve(queue, *prices).rate, abs=1e-9)
    stats = simulate_queue(SimConfig(scenario=queue, expected_arrivals=500.0, replications=2),
                           *prices)
    assert stats.replications == 2
    mixture = load_scenario(ROOT / "configs" / "mixture.json")
    prices, value = mixture_horizon_optimize(mixture)
    assert len(prices) == mixture.num_classes and isinstance(value, float)
