"""No module of the package keeps a module-level import it does not use or
imports inside a function, and no private top-level function or class goes
unread. No module imports threading, and no module keeps a mutable table:
every module-level name bound to a dict, list or set display is an
upper-case constant. stationary.py calls neither spectral_radius nor
eigvals: its stability checks go through matops._unstable_radius. Only
matops calls LAPACK through numpy.linalg._umath_linalg, and no module but
matops and stacked calls numpy.linalg's solve, inv, cholesky, eigh,
eigvalsh or slogdet. Every absolute import comes from the stdlib, numpy or
the package itself.

For imports, __init__.py is skipped (its imports are the public names), and
so is any import statement marked "# noqa: F401": those are bindings that
bench/tracer.py wraps by name although the module no longer calls them.
A private definition (a top-level def or class whose name starts with one
underscore) must be read somewhere in the package outside its own body: as
a name or as an attribute, such as lqg._lqg_cost. The tests do not count.
Nor may a private top-level function keep a parameter with a default that
no call in the package passes: such a parameter is a constant.

The bindings bench/tracer.py wraps are read from its source, without
importing it: each must resolve in the package, and each "# noqa: F401"
import must bind one of them. Likewise every call the bench scripts make to
a name they import from the package must bind to its signature, since the
test suite never runs them.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from conftest import KERNELS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "robustlqg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _noqa_imports(tree: ast.Module, lines: list[str]):
    """The module-level import statements of tree marked "# noqa: F401"."""
    return [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
    ]


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    exempt = _noqa_imports(tree, lines)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
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


def function_local_imports(source: str) -> list[int]:
    """Lines of the import statements of source inside a function body."""
    return sorted({
        sub.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    # a module's dependencies are all at its top, where an import cycle
    # shows at import time
    assert function_local_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_function_local_imports():
    source = (
        "import math\n"
        "def f():\n"
        "    import os\n"
        "    def g():\n"
        "        from . import x\n"
        "    return math.pi\n"
        "class C:\n"
        "    def m(self):\n"
        "        from .y import z\n"
    )
    assert function_local_imports(source) == [3, 5, 9]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports of source, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_threading(path):
    # nothing in the package runs threads, so nothing needs a lock; a lock
    # would guard state shared by every caller in the process
    assert "threading" not in imported_modules(path.read_text(encoding="utf-8"))


def test_checker_finds_every_absolute_import():
    source = (
        "import os.path, threading as th\n"
        "from threading import Lock\n"
        "from . import threading\n"
        "from .matops import x\n"
        "def f():\n    import json\n"
    )
    assert imported_modules(source) == {"os", "threading", "json"}


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of source from outside the stdlib, numpy and the
    package itself: the only runtime dependency is numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "robustlqg"}
    return sorted(imported_modules(source) - allowed)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_stdlib_and_numpy(path):
    # scipy, mpmath and hypothesis are for the tests only
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_planted_scipy_import():
    source = (
        "import math, numpy as np\n"
        "from collections import abc\n"
        "from robustlqg.matops import symmetrize\n"
        "from .oracles import x\n"
        "def f():\n    import scipy.linalg\n"
        "from mpmath import mp\n"
    )
    assert foreign_imports(source) == ["mpmath", "scipy"]


def mutable_module_globals(source: str) -> list[str]:
    """Module-level names of source bound to a dict, list or set display, a
    comprehension included, that are not upper-case constants."""
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, displays):
            found += [f"{t.id} (line {node.lineno})" for t in targets
                      if isinstance(t, ast.Name) and t.id != t.id.upper()]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_tables_are_constants(path):
    # a module-level table that code fills is shared by every caller in the
    # process, so one caller (or test) sees what another put there
    assert mutable_module_globals(path.read_text(encoding="utf-8")) == []


def test_checker_flags_lower_case_module_tables():
    source = (
        "_registry: dict[str, int] = {}\n"
        "TABLE = {'a': 1}\n"
        "_SETUPS: dict = {1: 2}\n"
        "names = [x for x in range(3)]\n"
        "seen = set()\n"
        "pair = (1, 2)\n"
        "declared: list\n"
        "def f():\n    local = {}\n"
    )
    assert mutable_module_globals(source) == ["_registry (line 1)", "names (line 4)"]


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


# the oracle pass is planned (oracles._plan, frank_wolfe._profile_plan) and
# run (oracles._run) by the two solves alone; any other module prices blocks
# through the public oracle_pass, which checks what it is given
PLAN_OWNERS = {"frank_wolfe.py", "stationary.py"}
PLAN_INTERNALS = {("oracles", "_plan"), ("oracles", "_run"), ("frank_wolfe", "_profile_plan")}


def plan_internal_uses(sources: dict[str, str]) -> list[str]:
    """Imports of PLAN_INTERNALS, and reads of them as module attributes
    (oracles._run), in sources (module name -> source) outside PLAN_OWNERS."""
    found = []
    for module, source in sources.items():
        if module in PLAN_OWNERS:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                owner = (node.module or "").split(".")[-1]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner, names = node.value.id, [node.attr]
            else:
                continue
            found += [f"{owner}.{name} ({module} line {node.lineno})" for name in names
                      if (owner, name) in PLAN_INTERNALS]
    return found


def test_only_the_solves_plan_the_oracle_pass():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert plan_internal_uses(sources) == []


def test_checker_flags_plan_internals_outside_the_solves():
    sources = {
        "experiments.py": (
            "from .oracles import ORACLE_KINDS, _run\n"
            "from robustlqg.frank_wolfe import _profile_plan, solve\n"
        ),
        "cli.py": "from . import oracles\n\ndef f(balls):\n    return oracles._plan(balls, [1])\n",
        "lqg.py": "from .oracles import oracle_pass, _Plan\nfrom .stationary import _plan\n",
        "frank_wolfe.py": "from .oracles import _Plan, _plan, _run\n",
        "stationary.py": "from .oracles import _plan\n",
    }
    assert plan_internal_uses(sources) == [
        "oracles._run (experiments.py line 1)",
        "frank_wolfe._profile_plan (experiments.py line 2)",
        "oracles._plan (cli.py line 4)",
    ]


# every Schur-stability decision of the stationary layer goes through
# matops._unstable_radius, which tries a norm certificate before it
# computes eigenvalues; stationary.py calls no eigenvalue route itself
EIGENVALUE_CALLS = {"spectral_radius", "eigvals"}


def eigenvalue_calls(source: str) -> list[str]:
    """Calls in source of a name in EIGENVALUE_CALLS, bare or as an
    attribute (np.linalg.eigvals)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in EIGENVALUE_CALLS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_stationary_decides_stability_through_matops():
    assert eigenvalue_calls((SRC / "stationary.py").read_text(encoding="utf-8")) == []


def test_checker_flags_direct_eigenvalue_calls():
    source = (
        "import numpy as np\nfrom .matops import _unstable_radius, spectral_radius\n\n"
        "def f(F):\n    return _unstable_radius(F), spectral_radius(F)\n\n"
        "def g(F):\n    return np.linalg.eigvals(F), np.linalg.eigvalsh(F + F.T)\n"
    )
    assert eigenvalue_calls(source) == ["spectral_radius (line 5)", "eigvals (line 8)"]


# every solve, factorization and eigendecomposition of the solve path goes
# through the matops kernels, which alone call numpy.linalg's gufuncs; only
# stacked, which serves verification, keeps numpy.linalg's wrappers
def linalg_wrapper_calls(source: str) -> list[str]:
    """Calls in source of numpy.linalg's wrapper for a name in KERNELS
    (np.linalg.solve, numpy.linalg.solve or linalg.solve), and imports of
    one from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner = getattr(owner, "attr", getattr(owner, "id", None))
            if owner == "linalg" and node.func.attr in KERNELS:
                found.append(f"linalg.{node.func.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [f"linalg.{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in KERNELS]
    return found


def umath_linalg_uses(source: str) -> list[int]:
    """Lines of source that import or read numpy.linalg._umath_linalg."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any("_umath_linalg" in name for name in names):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_matops_calls_lapack(path):
    source = path.read_text(encoding="utf-8")
    if path.name not in ("matops.py", "stacked.py"):
        assert linalg_wrapper_calls(source) == []
    if path.name != "matops.py":
        assert umath_linalg_uses(source) == []


def test_checker_flags_planted_linalg_calls():
    source = (
        "import numpy as np\nimport numpy.linalg._umath_linalg\n"
        "from numpy import linalg\nfrom numpy.linalg import LinAlgError, eigh\n"
        "from numpy.linalg import _umath_linalg as u\n\n"
        "def f(a, b):\n"
        "    x = np.linalg.solve(a, b) + linalg.inv(a) + np.linalg.norm(a)\n"
        "    return x, np.linalg.eigvals(a), np.linalg._umath_linalg.inv(a), u.eigh_lo(a)\n"
    )
    assert linalg_wrapper_calls(source) == [
        "linalg.eigh (line 4)", "linalg.solve (line 8)", "linalg.inv (line 8)"]
    assert umath_linalg_uses(source) == [2, 5, 9]


# the matops kernels that raise LinAlgError get operands that are
# nonsingular by construction, and _cholesky raises nothing, so the one
# handler of LinAlgError is the Kalman sweep's around its update solve,
# which a singular innovation covariance makes fail
def linalg_error_handlers(source: str) -> list[str]:
    """The except clauses of source that name LinAlgError (bare, as an
    attribute or in a tuple), as "function: called names in the try body
    (line n)"."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            called = sorted({getattr(c.func, "id", getattr(c.func, "attr", "?"))
                             for stmt in node.body for c in ast.walk(stmt)
                             if isinstance(c, ast.Call)})
            for handler in node.handlers:
                if handler.type is not None and any(
                        getattr(n, "id", getattr(n, "attr", None)) == "LinAlgError"
                        for n in ast.walk(handler.type)):
                    found.append(f"{func.name}: {', '.join(called)} (line {handler.lineno})")
    return found


def test_only_the_kalman_update_solve_handles_linalg_errors():
    handlers = {path.name: linalg_error_handlers(path.read_text(encoding="utf-8"))
                for path in SRC.glob("*.py")}
    found = {name: [h.rsplit(" (line", 1)[0] for h in got] for name, got in handlers.items() if got}
    assert found == {"lqg.py": ["kalman_forward: _solve"]}


def test_checker_flags_planted_linalg_error_handlers():
    source = (
        "import numpy as np\nfrom numpy.linalg import LinAlgError\n\n"
        "def f(a):\n"
        "    try:\n        return np.linalg.cholesky(a)\n"
        "    except np.linalg.LinAlgError:\n        return None\n\n"
        "def g(a, b):\n"
        "    try:\n        x = _solve(a, b)\n"
        "    except (ValueError, LinAlgError) as exc:\n        raise TypeError from exc\n"
        "    try:\n        return x\n    except KeyError:\n        return None\n"
    )
    assert linalg_error_handlers(source) == ["f: cholesky (line 7)", "g: _solve (line 13)"]


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether call passes the parameter name, at positional index (None for
    a keyword-only one), by position, by keyword or by unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unpassed_keyword_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters with a default, of private top-level functions of sources
    (module name -> source), that no call in sources passes. A function read
    other than as the callee of a call (kept in a table, passed on as a
    callback) is skipped, since its calls are not visible."""
    trees = [ast.parse(source) for source in sources.values()]
    private = {}
    for module, tree in zip(sources, trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (
                node.name.startswith("_") and not node.name.startswith("__")
            ):
                private[node.name] = (module, node)
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls = {name: [] for name in private}
    callees = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in calls:
                calls[name].append(node)
                callees.add(node.func)
    escaped = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute)) and node not in callees
    }
    found = []
    for name, (module, fn) in private.items():
        if name in escaped:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        keyed = list(enumerate(positional))[len(positional) - len(fn.args.defaults):]
        keyed += [(None, arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]
        found += [f"{name}({arg.arg}) ({module} line {fn.lineno})" for index, arg in keyed
                  if not any(_passes(call, index, arg.arg) for call in calls[name])]
    return found


def test_every_private_keyword_parameter_is_passed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unpassed_keyword_parameters(sources) == []


def test_checker_flags_unpassed_keyword_parameters():
    sources = {
        "a.py": (
            "def _f(x, by_position=1, by_name=2, never=3, *, only=4, only_never=5):\n"
            "    return x\n"
            "def _g(x, unpacked=1, spread=2):\n    return x\n"
            "def _callback(x, hidden=1):\n    return x\n"
            "def public(x, unused=1):\n    return x\n"
            "TABLE = {'cb': _callback}\n"
        ),
        "b.py": (
            "from . import a\n\n"
            "def g(args, kw):\n"
            "    a._f(0, 1, by_name=2, only=4)\n"
            "    a._g(*args)\n"
            "    return a._g(0, **kw)\n"
        ),
    }
    assert unpassed_keyword_parameters(sources) == [
        "_f(never) (a.py line 1)", "_f(only_never) (a.py line 1)",
    ]


def traced_bindings() -> set[tuple[str, str]]:
    """(module, attribute) of every binding bench/tracer.py wraps, read from
    the literal BINDINGS tuple in its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]
    ]
    return {(module, attr) for module, attrs in ast.literal_eval(table) for attr in attrs}


def test_traced_bindings_resolve_and_cover_every_noqa_import():
    bindings = traced_bindings()
    assert ("robustlqg.oracles", "kl_oracle") in bindings
    missing = [f"{module}.{attr}" for module, attr in sorted(bindings)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    stale = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = f"robustlqg.{path.stem}"
        for node in _noqa_imports(ast.parse(source), source.splitlines()):
            stale += [f"{module}.{alias.asname or alias.name} (line {node.lineno})"
                      for alias in node.names
                      if (module, alias.asname or alias.name) not in bindings]
    assert stale == []


def _library_object(module: str, name: str):
    """The attribute name of the package module module, or its submodule."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def bench_library_calls(source: str) -> tuple[int, list[str]]:
    """Bind every call in source to a name it imports from robustlqg, or to
    an attribute chain on one (frank_wolfe.solve), against the callee's
    signature with placeholder arguments. Returns the number of calls bound
    and one line per call that does not bind; a call that unpacks its
    arguments (*args, **kw) is skipped."""
    tree = ast.parse(source)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "robustlqg":
            for alias in node.names:
                names[alias.asname or alias.name] = _library_object(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "robustlqg":
                    names[alias.asname or alias.name] = importlib.import_module(alias.name)
    bound, failed = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in names:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        target = names[func.id]
        for attr in reversed(chain):
            target = getattr(target, attr)
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
            bound += 1
        except TypeError as exc:
            failed.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    return bound, failed


def test_bench_calls_bind_to_the_library():
    # bench/make_refs.py passes solve_oracle's lam_floor by position, and
    # bench/workloads.py passes ExperimentConfig's jobs by name
    counts = {}
    for path in sorted((ROOT / "bench").glob("*.py")):
        counts[path.name], failed = bench_library_calls(path.read_text(encoding="utf-8"))
        assert failed == [], path.name
    assert counts["make_refs.py"] >= 10 and counts["workloads.py"] >= 10


def test_bench_call_checker_flags_a_call_that_does_not_bind():
    source = (
        "from robustlqg import oracles\n"
        "from robustlqg.oracles import solve_oracle as so\n"
        "so(1, 2, 3, 4)\n"
        "so(1, 2, 3, 4, 5)\n"
        "oracles.solve_oracle(1, 2, sigma_ref=3, floor=4)\n"
        "so(*args)\n"
        "len(so.__doc__)\n"
    )
    bound, failed = bench_library_calls(source)
    assert bound == 1
    assert [line.split(":")[0] for line in failed] == ["line 4", "line 5"]
