"""No module of the package keeps a module-level import it does not use, and
no private top-level function or class goes unread.

For imports, __init__.py is skipped (its imports are the public names), and
so is any import statement marked "# noqa: F401": those are bindings that
bench/tracer.py wraps by name although the module no longer calls them.
A private definition (a top-level def or class whose name starts with one
underscore) must be read somewhere in the package outside its own body: as
a name or as an attribute, such as lqg._lqg_cost. The tests do not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robustlqg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .x import kept  # noqa: F401  bound for a wrapper\n"
        "def f(s: Sequence) -> float:\n"
        "    return math.pi + len(os.path.sep)\n"
    )
    assert unused_imports(source) == ["Optional (line 4)"]


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private top-level functions and classes of sources (module name ->
    source) that no module reads outside the definition's own body."""
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined[owner] = f"{owner} ({module} line {node.lineno})"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return [where for name, where in defined.items() if name not in read]


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def test_checker_flags_unread_private_definitions():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _by_attribute():\n    return 2\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Unread:\n    pass\n"
            "def __dunder__():\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": "from . import a\n\ndef g():\n    return a._by_attribute()\n",
    }
    assert unread_private_definitions(sources) == [
        "_recursive (a.py line 5)", "_Unread (a.py line 7)",
    ]
