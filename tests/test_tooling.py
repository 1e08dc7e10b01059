"""Static guards on the library source, by the standard `ast` module.

Every function, class and method defined in `src/lielike` must be exported
from `lielike` or referenced by name from `src/lielike` or `benchmarks/`
(outside its own body): code that only the tests use belongs in the tests.
Every name a library module binds with `from ... import` must be used in
that module.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import lielike
from lielike import adjoint, run_verify

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import tracing  # noqa: E402

LIBRARY = sorted((ROOT / "src" / "lielike").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "benchmarks").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree, owner=""):
    """(qualified name, node) for every definition, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            name = f"{owner}.{node.name}" if owner else node.name
            yield name, node
            yield from definitions(node, name)
        else:
            yield from definitions(node, owner)


def references(tree, enclosing=()):
    """(name, enclosing definition nodes) for every Name and Attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        inner = enclosing + (node,) if isinstance(node, DEFINITIONS) else enclosing
        yield from references(node, inner)


def unreferenced(library, callers, exported):
    """Qualified names of library definitions that nothing outside their
    own body refers to and that are not exported."""
    refs: dict[str, list[tuple]] = {}
    for tree in callers:
        for name, enclosing in references(tree):
            refs.setdefault(name, []).append(enclosing)
    dead = []
    for module, tree in library:
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # reached through the language, not by name
            if "." not in qualname and name in exported:
                continue
            if not any(node not in enclosing for enclosing in refs.get(name, ())):
                dead.append(f"{module}:{qualname}")
    return dead


def unused_imports(module, tree):
    """Names bound by `from ... import` that the module never loads."""
    used = {name for name, _ in references(tree)}
    return [
        f"{module}:{alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


def test_every_definition_is_exported_or_used():
    library = [(p.name, parse(p)) for p in LIBRARY]
    callers = [parse(p) for p in CALLERS]
    assert unreferenced(library, callers, set(lielike.__all__)) == []


def test_no_unused_imports_in_library_modules():
    found = [
        name
        for path in LIBRARY
        if path.name != "__init__.py"  # its imports are the exports
        for name in unused_imports(path.name, parse(path))
    ]
    assert found == []


# (module, attribute) targets of benchmarks/tracing.py known not to resolve:
# check_algebra lives in modules, and det left the library.  The change that
# re-points the benchmark at them empties this set.
STALE_TRACE_TARGETS = {("algebra", "check_algebra"), ("linalg", "det")}
STALE_SPANS = {name for module, attr, name in tracing.SPANNED
               if (module, attr) in STALE_TRACE_TARGETS}


def test_trace_targets_resolve():
    """Every SPANNED and COUNTED target of the benchmark's tracer names a
    function in src/lielike, as Tracer.installed looks it up, and every
    VERIFY_STAGES span is one of them."""
    unresolved = set()
    for module, attr, _ in tracing.SPANNED + tracing.COUNTED:
        owner = importlib.import_module(f"lielike.{module}")
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or vars(owner).get(name) is None:
            unresolved.add((module, attr))
    assert unresolved == STALE_TRACE_TARGETS
    spans = {name for *_, name in tracing.SPANNED} - STALE_SPANS
    stages = {name for names in tracing.VERIFY_STAGES.values() for name in names}
    assert stages - spans <= STALE_SPANS


def test_spectra_stay_on_the_traced_path(aff2):
    with tracing.Tracer().installed() as tracer:
        _, code = run_verify(aff2, adjoint(aff2))
    assert code == 0 and set(tracer.missing) == STALE_SPANS
    calls = Counter(name for _, _, name, *_ in tracer.spans)
    for name in ("charpoly", "rational_roots", "rational_eigenvalues", "joint_eigenspace"):
        assert calls[f"linalg.{name}"] > 0
    assert calls["solver.verify_weight"] == 1


class TestGuardItself:
    """The guard flags what it should on small sources."""

    @staticmethod
    def scan(lib_src, caller_src="", exported=()):
        lib = ast.parse(lib_src)
        return unreferenced([("m.py", lib)], [lib, ast.parse(caller_src)], set(exported))

    def test_flags_unused_function_and_method(self):
        src = (
            "class A:\n"
            "    def used(self): pass\n"
            "    def unused(self): pass\n"
            "    def __eq__(self, o): pass\n"
            "def helper(): return A().used()\n"
        )
        assert self.scan(src, exported={"A"}) == ["m.py:A.unused", "m.py:helper"]

    def test_self_reference_does_not_count(self):
        src = "def loop(n):\n    return loop(n - 1) if n else 0\n"
        assert self.scan(src) == ["m.py:loop"]
        assert self.scan(src, "loop(3)\n") == []

    def test_export_covers_top_level_only(self):
        src = "class A:\n    def m(self): pass\n"
        assert self.scan(src, exported={"A"}) == ["m.py:A.m"]
        assert self.scan(src, "A().m()\n", exported={"A"}) == []

    def test_flags_unused_from_import(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "from x import a, b as c, d\n"
            "def f() -> a: return c\n"
        )
        assert unused_imports("m.py", tree) == ["m.py:d"]
