"""Source rules that an interpreter flag or a long run would otherwise defeat.

`assert` statements vanish under `python -O`, so an invariant written as one
stops being checked; the program raises typed errors instead.  An unbounded
`lru_cache(maxsize=None)` or `functools.cache` grows for the life of the
process.  An `lru_cache` anywhere but on a module-level function escapes the
benchmark, which empties before each round only the caches it finds among
module globals, so its hits would carry over from round to round.  A
module-level numpy import costs every run of the package about a tenth of a
second, also the classification path, which never needs numpy.  A top-level
function or class that the program does not use and the README does not name
as a reference is dead code that only its own tests keep alive, however it is
exported; so is a method or property that nothing reaches by attribute, or a
package re-export that neither the README, a demo nor the program names.
"""

import ast
import re
from collections import Counter
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
    tree = ast.parse(source)
    # the decorators of module-level functions, the one place for an lru_cache
    allowed = {id(sub) for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
               for dec in stmt.decorator_list for sub in ast.walk(dec)}
    # what runs only when called: the bodies of functions
    deferred = {id(sub) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for stmt in node.body for sub in ast.walk(stmt)}
    out = []
    for node in ast.walk(tree):
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
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in deferred:
            modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
            if any((module or "").split(".")[0] == "numpy" for module in modules):
                out.append(f"line {node.lineno}: module-level numpy import")
        if (isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "lru_cache"
                and id(node) not in allowed):
            out.append(f"line {node.lineno}: lru_cache off a module-level function")
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
    assert len(_problems(bad)) == 6
    assert _problems("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x):\n    return x\n") == []
    # the benchmark empties only the caches it finds among module globals
    off_module = (
        "import functools\n"
        "from functools import lru_cache\n"
        "class A:\n"
        "    @lru_cache(maxsize=8)\n"
        "    def method(self, x):\n"
        "        return x\n"
        "def outer():\n"
        "    @functools.lru_cache(maxsize=8)\n"
        "    def inner(x):\n"
        "        return x\n"
        "    return inner\n"
        "wrapped = lru_cache(maxsize=8)(outer)\n"
    )
    assert _problems(off_module) == [f"line {n}: lru_cache off a module-level function" for n in (4, 8, 12)]
    # importing numpy takes about a tenth of a second; only the functions that build arrays load it
    numpy_at_import = (
        "import numpy as np\n"
        "from numpy import zeros\n"
        "import os, numpy.linalg\n"
        "class A:\n"
        "    import numpy\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from numpy import ones\n"
        "    return np, ones\n"
    )
    assert _problems(numpy_at_import) == [f"line {n}: module-level numpy import" for n in (1, 2, 3, 5)]


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


def _nodes(tree):
    """Every node of a tree except those of `__all__` assignments: exporting a
    name is not a use of it, nor a reason to re-export it."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def _used_names(node, walk=ast.walk) -> Counter:
    """How often a node uses each identifier: names, attributes, imported
    names, and strings that are identifiers (the tracer's hooks by name)."""
    out = Counter()
    for sub in walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _dead_definitions(source: str, elsewhere: set) -> list:
    """Top-level functions and classes of a module that neither another
    top-level statement of the module outside `__all__` nor `elsewhere` uses."""
    body = ast.parse(source).body
    uses = [_used_names(stmt, _nodes) for stmt in body]
    dead = []
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            others = set().union(*uses[:i], *uses[i + 1:])
            if stmt.name not in others | elsewhere:
                dead.append(stmt.name)
    return dead


def _program_uses(source: str, package_init: bool = False) -> set:
    """Names a program file uses outside `__all__`; the imports of the package
    `__init__.py` only re-export, so they are no use either."""
    tree = ast.parse(source)
    if package_init:
        tree.body = [stmt for stmt in tree.body if not isinstance(stmt, ast.ImportFrom)]
    return set(_used_names(tree, _nodes))


def _readme_references(text: str) -> set:
    """Every identifier the README names, also as `module.name`: naming a
    definition there declares it a reference implementation."""
    return set(re.findall(r"[A-Za-z_]\w*", text))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_definition_is_used_or_exported(path):
    """Each top-level function and class is used somewhere in src/, bench/ or
    demos/ other than its own definition, `__all__` and the package imports,
    or named in README.md; exporting a name is not a use, and tests do not
    count."""
    elsewhere = _readme_references((ROOT / "README.md").read_text()).union(
        *(_program_uses(u.read_text(), u == SRC / "__init__.py") for u in USERS if u != path))
    assert _dead_definitions(path.read_text(), elsewhere) == []


def test_the_dead_definition_lint_catches_unused_code():
    source = (
        "__all__ = ['exported', 'referenced', 'reexported']\n"
        "def exported():\n    return 1\n"
        "def referenced():\n    return 1\n"
        "def reexported():\n    return 1\n"
        "def helper():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unused:\n    pass\n"
        "def used_by_bench():\n    return helper()\n"
    )
    init = "from .a import exported, reexported\n__version__ = '0'\n"
    demo = "from scrollsec.a import used_by_bench\nused_by_bench()\n"
    elsewhere = (_readme_references("`scrollsec.a.referenced` is the reference.")
                 | _program_uses(init, package_init=True) | _program_uses(demo))
    assert _dead_definitions(source, elsewhere) == ["exported", "reexported", "recursive", "Unused"]


def _member_uses(tree) -> Counter:
    """How often each attribute name or identifier string occurs, the two ways
    a method or property is reached (the tracer wraps methods by name)."""
    out = Counter()
    for node in _nodes(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out[node.value] += 1
    return out


def _unused_members(source: str, elsewhere: set) -> list:
    """Methods and properties (dunders aside) that neither their module outside
    their own body nor `elsewhere` reaches, as "Class.name"."""
    tree = ast.parse(source)
    here = _member_uses(tree)
    dead = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("__"):
                continue
            if here[fn.name] <= _member_uses(fn)[fn.name] and fn.name not in elsewhere:
                dead.append(f"{cls.name}.{fn.name}")
    return dead


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_method_is_used(path):
    """Each method and property is reached by attribute or by name somewhere in
    src/, bench/ or demos/ outside its own body; tests do not count."""
    elsewhere = set().union(*(_member_uses(ast.parse(u.read_text())) for u in USERS if u != path))
    assert _unused_members(path.read_text(), elsewhere) == []


def test_the_method_lint_catches_unused_methods():
    source = (
        "__all__ = ['exported']\n"
        "class A:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def by_name(self):\n        return 2\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def exported(self):\n        return 3\n"
        "    def unused(self):\n        return 4\n"
        "def hook(a):\n    return getattr(a, 'by_name')\n"
    )
    assert _unused_members(source, set()) == ["A.recursive", "A.exported", "A.unused"]
    assert _unused_members(source, {"unused"}) == ["A.recursive", "A.exported"]


def _package_imports(source: str) -> list:
    """The names a package `__init__.py` imports, as the package exports them."""
    return [alias.asname or alias.name
            for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _used_outside_definition(tree, name: str) -> bool:
    """Whether a module uses `name` outside `__all__` and outside the
    top-level definition of `name`, if it has one."""
    own = [stmt for stmt in tree.body if getattr(stmt, "name", None) == name]
    return _used_names(tree, _nodes)[name] > sum(_used_names(stmt, _nodes)[name] for stmt in own)


def _unused_reexports(init_source: str, modules: list, elsewhere: set) -> list:
    """Names the package imports that no module of `modules` uses outside its
    own definition and `__all__`, and that `elsewhere` does not name."""
    trees = [ast.parse(m) for m in modules]
    return [
        name for name in _package_imports(init_source)
        if name not in elsewhere and not any(_used_outside_definition(t, name) for t in trees)
    ]


def _readme_names(text: str) -> set:
    """Identifiers the README names; `module.name` reaches a name through its
    module, so it is no reason for the package to re-export it."""
    return set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", text))


def test_every_package_export_is_named_outside_the_tests():
    """Each name the package imports is in the README, a demo, or src/ outside
    `__init__.py` and its own definition; tests do not count."""
    init = SRC / "__init__.py"
    modules = [path.read_text() for path in FILES if path != init]
    elsewhere = _readme_names((ROOT / "README.md").read_text()).union(
        *(_used_names(ast.parse(demo.read_text())) for demo in sorted(ROOT.glob("demos/*.py"))))
    assert _unused_reexports(init.read_text(), modules, elsewhere) == []


def test_the_export_lint_catches_an_unused_reexport():
    init = "from .a import used, in_readme, spare, recursive\nfrom .b import Helper\n"
    a = (
        "__all__ = ['used', 'in_readme', 'spare', 'recursive']\n"
        "def used():\n    return 1\n"
        "def in_readme():\n    return 2\n"
        "def spare():\n    return 3\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
    )
    b = "from .a import used\nclass Helper:\n    pass\ndef f():\n    return used(), Helper()\n"
    readme = _readme_names("Call `in_readme()`; `a.spare` is in its module.")
    assert _unused_reexports(init, [a, b], readme) == ["spare", "recursive"]


def _unresolved(pairs) -> set:
    """The (module, attribute) pairs whose scrollsec module lacks the attribute."""
    import importlib

    return {f"{mod}.{attr}" for mod, attr in pairs
            if not hasattr(importlib.import_module(f"scrollsec.{mod}"), attr)}


def test_the_names_the_benchmark_uses_resolve():
    """bench/ reaches the program by name, so a renamed function would fail
    every benchmark point, or silently zero a per-layer metric, instead of
    failing here.  Every attribute of a program module that the workloads
    use, and every name they import from one, resolves.  The tracer's hooks,
    its span and counter tables and the functions it looks up by name,
    resolve except the three whose layers the program no longer has."""
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(workloads)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("secant", "oracle", "delpezzo", "strata", "scroll")}
    used |= {(node.module.split(".")[1], alias.name) for node in ast.walk(workloads)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scrollsec.")
             for alias in node.names}
    assert len(used) > 10 and _unresolved(used) == set()

    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    modules = {alias.name for node in tracer.body if isinstance(node, ast.ImportFrom)
               and node.module == "scrollsec" for alias in node.names}
    hooks = set()
    for node in ast.walk(tracer):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("_SPANS", "_COUNTS"):
            hooks |= {(row.elts[0].id, row.elts[1].value) for row in node.value.elts}
        elif isinstance(node, ast.Call) and _name(node.func) in ("getattr", "_replace"):
            mod, attr = node.args[:2]
            if isinstance(mod, ast.Name) and mod.id in modules and isinstance(attr, ast.Constant):
                hooks.add((mod.id, attr.value))
    assert len(hooks) > 15
    assert _unresolved(hooks) == {
        "_binpoly.roots_base_and_ext", "_binpoly.roots_in_field", "secant._scan_for_point"}
