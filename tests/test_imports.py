"""Every name a sparselab module imports is read in that module, and
every top-level definition is reached from outside itself.

pyflakes is not a dependency, so both scans are plain ast walks: an
imported name counts as read when some expression loads it, or when the
module lists it in __all__.  A definition counts as reached when some
other top-level statement of the package names it (a Name, an Attribute
or a string constant, so __all__ counts), when it is a click command or
group, or when perfbench/tracing.py names it as ``<module>.<name>``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparselab"
TRACING = ROOT / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from os import path, sep\n"
              "__all__ = ['sep']\n"
              "x = np.ones(1)\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]


def _names_in(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _is_cli_entry(node) -> bool:
    """Decorated as a click command or group, e.g. @cli.command("x")."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and \
                func.attr in ("command", "group"):
            return True
    return False


def unreached_definitions(sources: dict, traced: str = "") -> list:
    """(module, name) of every top-level def or class in sources (module
    name -> source) that nothing outside its own body reaches."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    # names each top-level statement mentions, keyed by the statement
    mentions = [((mod, getattr(stmt, "name", None)), _names_in(stmt))
                for mod, tree in trees.items() for stmt in tree.body]
    named = {tuple(s.split(".")[:2]) for s in _names_in(ast.parse(traced))
             if s.count(".") >= 1}
    out = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            key = (mod, stmt.name)
            if _is_cli_entry(stmt) or key in named:
                continue
            if not any(stmt.name in names for owner, names in mentions
                       if owner != key):
                out.append(key)
    return sorted(out)


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unreached_definitions(sources, TRACING.read_text()) == []


def test_scan_flags_an_unreached_definition():
    sources = {
        "a": ("import click\n"
              "__all__ = ['exported']\n"
              "def exported(): return helper()\n"
              "def helper(): pass\n"
              "def recursive(x): return recursive(x - 1)\n"
              "def traced(): pass\n"
              "class Unused: pass\n"
              "@click.group()\n"
              "def cli(): pass\n"
              "@cli.command('run')\n"
              "def run(): pass\n"),
        "b": ("from . import a\n"
              "def by_attribute(): return a.attr_target()\n"
              "def lonely(): pass\n"),
        "c": "def attr_target(): pass\n",
    }
    traced = "NAMES = ('a.traced.calls', 'b.elsewhere')\n"
    assert unreached_definitions(sources, traced) == [
        ("a", "Unused"), ("a", "recursive"), ("b", "by_attribute"),
        ("b", "lonely")]
