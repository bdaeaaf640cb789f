"""Source rules that an interpreter flag or a long run would otherwise defeat.

`assert` statements vanish under `python -O`, so an invariant written as one
stops being checked; the program raises typed errors instead.  An unbounded
`lru_cache(maxsize=None)` or `functools.cache` grows for the life of the
process.  A top-level function or class that nothing uses or exports is
dead code that only its own tests keep alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scrollsec"
FILES = sorted(SRC.glob("*.py"))
# where a program definition may be used: the program, the benchmark, the demos
USERS = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _problems(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None:
                out.append(f"line {node.lineno}: lru_cache(maxsize=None)")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                out.append(f"line {node.lineno}: functools.cache")
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and _name(node.value) == "functools"):
            out.append(f"line {node.lineno}: functools.cache")
    return out


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_assert_and_no_unbounded_cache(path):
    problems = _problems(path.read_text())
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_the_lint_catches_each_rule():
    assert len(FILES) >= 9
    bad = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    assert x\n"
        "g = functools.lru_cache(None)(f)\n"
        "h = functools.cache(f)\n"
    )
    assert len(_problems(bad)) == 5
    assert _problems("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x):\n    return x\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_export_exists(path):
    """Each name in a module's `__all__` is defined there, so a deleted
    function cannot leave a stale export, and the star import works."""
    import importlib

    name = "scrollsec" if path.stem == "__init__" else f"scrollsec.{path.stem}"
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [n for n in exports if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)


def _used_names(node) -> set:
    """Identifiers a node uses: names, attributes, imported names, and strings
    that are identifiers (`__all__` entries, the tracer's hooks by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _dead_definitions(source: str, elsewhere: set) -> list:
    """Top-level functions and classes of a module that neither another
    top-level statement of the module nor `elsewhere` uses."""
    body = ast.parse(source).body
    uses = [_used_names(stmt) for stmt in body]
    dead = []
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            others = set().union(*uses[:i], *uses[i + 1:])
            if stmt.name not in others | elsewhere:
                dead.append(stmt.name)
    return dead


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_definition_is_used_or_exported(path):
    """Each top-level function and class is in `__all__` or used somewhere in
    src/, bench/ or demos/ other than its own definition; tests do not count."""
    elsewhere = set().union(*(_used_names(ast.parse(u.read_text())) for u in USERS if u != path))
    assert _dead_definitions(path.read_text(), elsewhere) == []


def test_the_dead_definition_lint_catches_unused_code():
    source = (
        "__all__ = ['exported']\n"
        "def exported():\n    return 1\n"
        "def helper():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unused:\n    pass\n"
        "def used_by_bench():\n    return helper()\n"
    )
    assert _dead_definitions(source, {"used_by_bench"}) == ["recursive", "Unused"]
