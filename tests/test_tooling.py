"""Static guards on the library source, by the standard `ast` module.

Every function, class, method and top-level assignment in `src/lielike` must
be exported from `lielike` or referenced by name from `src/lielike` or
`benchmarks/` (outside its own body): code that only the tests use belongs
in the tests.
For the same reason every name exported from `lielike` needs a caller
outside the tests: another library module or a demo.
Every name a library module binds with `from ... import` must be used in
that module.  Integer rows stay inside `linalg`: outside it, only the axiom
checks' product table reads an operator's integer form.  An algebra holds
its structure constants once, and the product table is built from a module
only.  A caller's scalar becomes a Fraction in one of two gates and becomes
integers in one helper.  The command layer reads every nonzero exit code
from `verify`'s names and its EXIT_CODES table.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import lielike
from lielike import LieLikeAlgebra, adjoint, run_verify
from lielike.modules import _ProductTable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import tracing  # noqa: E402

LIBRARY = sorted((ROOT / "src" / "lielike").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "benchmarks").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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


def assignments(tree):
    """(name, node) for every name a module binds by a top-level assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node


def references(tree, enclosing=()):
    """(name, enclosing definition nodes) for every Name read and every
    Attribute; binding a name is not a reference to it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        inner = enclosing + (node,) if isinstance(node, DEFINITIONS) else enclosing
        yield from references(node, inner)


def referrers(callers):
    """name -> the enclosing definitions of each of its references."""
    refs: dict[str, list[tuple]] = {}
    for tree in callers:
        for name, enclosing in references(tree):
            refs.setdefault(name, []).append(enclosing)
    return refs


def unreferenced(library, callers, exported):
    """Qualified names of library definitions and top-level assignments
    that nothing outside their own body refers to and that are not
    exported."""
    refs = referrers(callers)
    dead = []
    for module, tree in library:
        for qualname, node in [*definitions(tree), *assignments(tree)]:
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue  # reached through the language, not by name
            if "." not in qualname and name in exported:
                continue
            if not any(node not in enclosing for enclosing in refs.get(name, ())):
                dead.append(f"{module}:{qualname}")
    return dead


def uncalled_exports(library, callers, exported):
    """The exported names that no caller refers to outside the name's own
    top-level definition in a library module."""
    refs = referrers(callers)
    defs = {node.name: node for _, tree in library
            for qualname, node in definitions(tree) if "." not in qualname}
    return sorted(name for name in exported
                  if not any(defs.get(name) not in enclosing for enclosing in refs.get(name, ())))


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


def test_every_export_has_a_caller_outside_the_tests():
    """A name in `lielike.__all__` (submodules aside) is called from another
    library module than its own or from a demo; one that only the tests or
    the benchmark's tracer call belongs in the tests."""
    library = [(p.name, parse(p)) for p in LIBRARY if p.name != "__init__.py"]
    callers = [tree for _, tree in library] + [parse(p) for p in DEMOS]
    exported = {name for name in lielike.__all__
                if not inspect.ismodule(getattr(lielike, name))}
    assert uncalled_exports(library, callers, exported) == []


def test_no_unused_imports_in_library_modules():
    found = [
        name
        for path in LIBRARY
        if path.name != "__init__.py"  # its imports are the exports
        for name in unused_imports(path.name, parse(path))
    ]
    assert found == []


# the one place outside linalg that holds integer rows, and the linalg
# helpers it may use
TABLE = ("modules.py", "_ProductTable")
TABLE_HELPERS = {"_sparse"}


def integer_row_leaks(module, tree):
    """Where a library module other than linalg handles linalg's integer
    rows: a private name imported from `.linalg` or read off `linalg`, a
    `._rows` read, or an `._integer` reference.  Inside TABLE, `._integer`
    and the TABLE_HELPERS are allowed, and no other private attribute of
    anything but `self` is; outside it, the helpers are not."""
    tables = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and (module, node.name) == TABLE]
    in_table = {id(node) for table in tables for node in ast.walk(table)}
    helpers = TABLE_HELPERS if tables else set()
    found = []
    for node in ast.walk(tree):
        inside = id(node) in in_table
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg":
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if alias.name.startswith("_") and alias.name not in helpers]
        elif isinstance(node, ast.Name) and node.id in helpers and not inside:
            found.append((node.lineno, f"uses {node.id} outside {TABLE[1]}"))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if inside:
                leak = owner != "self" and node.attr != "_integer"
            else:
                leak = node.attr in ("_rows", "_integer") or owner == "linalg"
            if leak:
                found.append((node.lineno, f"reads .{node.attr}"))
    return [f"{module}:{line} {leak}" for line, leak in sorted(found)]


def test_integer_rows_stay_in_linalg():
    found = [
        leak
        for path in LIBRARY
        if path.name != "linalg.py"
        for leak in integer_row_leaks(path.name, parse(path))
    ]
    assert found == []


# the functions that build a Fraction from a caller's value, each refusing
# floats, and the one that turns a caller's scalars into integers
FRACTION_GATES = {("linalg.py", "_exact"), ("serialize.py", "scalar_from_str")}
INTEGER_FORM = ("linalg.py", "_integer_form")


def enclosed(tree, function=""):
    """(name of the innermost enclosing function, node) for every node."""
    for node in ast.iter_child_nodes(tree):
        yield function, node
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from enclosed(node, node.name if named else function)


def is_literal(node):
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def scalar_conversions(module, tree):
    """Where a library module reads a caller's scalar exactly outside its
    gates: a one-argument `Fraction(x)`, x not a literal, outside
    FRACTION_GATES, or an `.as_integer_ratio` read outside INTEGER_FORM."""
    found = []
    for function, node in enclosed(tree):
        if isinstance(node, ast.Call) and (module, function) not in FRACTION_GATES:
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(
                node.func, "attr", None)
            args = node.args + [k.value for k in node.keywords]
            if name == "Fraction" and len(args) == 1 and not is_literal(args[0]):
                found.append((node.lineno, f"builds {ast.unparse(node)} in {function}"))
        elif (isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
              and (module, function) != INTEGER_FORM):
            found.append((node.lineno, f"reads .as_integer_ratio in {function}"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_one_way_into_exact_arithmetic():
    found = [conversion for path in LIBRARY
             for conversion in scalar_conversions(path.name, parse(path))]
    assert found == []


ALGEBRA_FIELDS = ("dim", "s", "constants")


def second_copies(algebra, table):
    """What would let a second copy of the structure constants or a second
    way into the product table back in: dataclass fields of the algebra
    class other than ALGEBRA_FIELDS, a cached property on it, or a table
    constructor that takes anything but one required positional module."""
    found = []
    fields = tuple(f.name for f in dataclasses.fields(algebra))
    if fields != ALGEBRA_FIELDS:
        found.append(f"{algebra.__name__} has fields {fields}")
    found += [f"{algebra.__name__}.{name} is cached" for name, attr in vars(algebra).items()
              if isinstance(attr, cached_property)]
    params = list(inspect.signature(table.__init__).parameters.values())[1:]
    if len(params) != 1 or params[0].kind != params[0].POSITIONAL_OR_KEYWORD or (
            params[0].default is not params[0].empty):
        found.append(f"{table.__name__}.__init__ takes {[str(p) for p in params]}")
    return found


def test_constants_are_held_once():
    assert second_copies(LieLikeAlgebra, _ProductTable) == []


SOLVER_ERRORS = {"NonSplitSpectrum", "NotSolvable", "TheoremViolation"}


def literal_exit_codes(module, tree):
    """Nonzero integer literals that a function returns, or that it passes
    to SystemExit or as _fail's exit code; in cli.py, imports of the solver
    errors, whose codes EXIT_CODES holds."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Return) and node.value is not None:
            codes = [node.value]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "SystemExit", "_fail"):
            codes = node.args[-1:]
        else:
            if module == "cli.py" and isinstance(node, ast.ImportFrom):
                found += [f"{module}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in SOLVER_ERRORS]
            continue
        found += [f"{module}:{c.lineno} exits with {c.value}"
                  for code in codes for c in exit_values(code)
                  if isinstance(c, ast.Constant) and type(c.value) is int and c.value]
    return sorted(found)


def exit_values(expr):
    """The expressions that may be the exit code of `return expr`: a tuple's
    last element (run_verify returns (report, code)), either branch of a
    conditional."""
    if isinstance(expr, ast.Tuple) and expr.elts:
        return exit_values(expr.elts[-1])
    if isinstance(expr, ast.IfExp):
        return exit_values(expr.body) + exit_values(expr.orelse)
    return [expr]


def test_exit_codes_come_from_one_table():
    found = [code for name in ("cli.py", "verify.py")
             for code in literal_exit_codes(name, parse(ROOT / "src" / "lielike" / name))]
    assert found == []


# (module, attribute) targets of benchmarks/tracing.py known not to resolve:
# check_algebra lives in modules, and det left the library.  rref, kernel,
# restrict_operator, joint_eigenvector and restrict_module left it too: no
# command, demo or solve step ran them (inverse reduces on `_reduce`, kernels
# are `_null_space`, and solve reads joint_eigenspace's first basis vector).
# The change that re-points the benchmark at them empties this set.
STALE_TRACE_TARGETS = {
    ("algebra", "check_algebra"),
    ("linalg", "det"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "restrict_operator"),
    ("linalg", "joint_eigenvector"),
    ("modules", "restrict_module"),
}
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

    def test_flags_unused_top_level_assignment(self):
        src = (
            "Alias = int\n"
            "USED: int = 1\n"
            "A, (B, C) = 1, (2, 3)\n"
            "obj.attr = A\n"
            "__all__ = []\n"
            "def f(): return USED + B\n"
        )
        assert self.scan(src, "f()\n") == ["m.py:Alias", "m.py:C"]
        assert self.scan(src, "f(Alias, C)\n") == []

    def test_flags_export_only_its_own_body_calls(self):
        lib = ast.parse("def loop(n):\n    return loop(n - 1)\ndef user(): return loop(1)\n")
        assert uncalled_exports([("m.py", lib)], [lib], {"loop", "user"}) == ["user"]
        assert uncalled_exports([("m.py", lib)], [lib, ast.parse("user()\n")],
                                {"loop", "user"}) == []

    def test_flags_unused_from_import(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "from x import a, b as c, d\n"
            "def f() -> a: return c\n"
        )
        assert unused_imports("m.py", tree) == ["m.py:d"]

    def test_flags_integer_rows_outside_linalg(self):
        tree = ast.parse(
            "from .linalg import Subspace, _reduce, _sparse\n"
            "from . import linalg\n"
            "def f(S, op):\n"
            "    return S._rows, op._integer(), linalg._reduce, S._basis\n"
        )
        assert integer_row_leaks("solver.py", tree) == [
            "solver.py:1 imports _reduce", "solver.py:1 imports _sparse",
            "solver.py:4 reads ._integer", "solver.py:4 reads ._reduce",
            "solver.py:4 reads ._rows"]

    def test_product_table_keeps_to_its_helpers(self):
        tree = ast.parse(
            "from .linalg import _sparse, _reduce, _integer_form\n"
            "class _ProductTable:\n"
            "    def __init__(self, op, S):\n"
            "        self._d = op._integer()\n"
            "        self.rows = _sparse(S._rows), _reduce(()), op._int\n"
            "def check(op):\n"
            "    return _sparse(()), op._integer()\n"
        )
        assert integer_row_leaks("modules.py", tree) == [
            "modules.py:1 imports _integer_form", "modules.py:1 imports _reduce",
            "modules.py:5 reads ._int",
            "modules.py:5 reads ._rows", "modules.py:7 reads ._integer",
            "modules.py:7 uses _sparse outside _ProductTable"]
        # the same table in another module is no table
        assert "algebra.py:4 reads ._integer" in integer_row_leaks("algebra.py", tree)

    def test_flags_scalar_conversions_outside_the_gates(self):
        tree = ast.parse(
            "def _exact(e):\n"
            "    return Fraction(e)\n"
            "def _integer_form(xs):\n"
            "    return [x.as_integer_ratio() for x in xs]\n"
            "def eigenspace(m, lam):\n"
            "    return Fraction(lam), fractions.Fraction(x=lam), Fraction(-1), Fraction('1/2')\n"
            "def ratio(x, q):\n"
            "    return Fraction(x, q), Fraction(*x), x.as_integer_ratio()\n"
        )
        assert scalar_conversions("linalg.py", tree) == [
            "linalg.py:6 builds Fraction(lam) in eigenspace",
            "linalg.py:6 builds fractions.Fraction(x=lam) in eigenspace",
            "linalg.py:8 builds Fraction(*x) in ratio",
            "linalg.py:8 reads .as_integer_ratio in ratio"]
        # the gates belong to their modules
        assert scalar_conversions("algebra.py", tree)[:2] == [
            "algebra.py:2 builds Fraction(e) in _exact",
            "algebra.py:4 reads .as_integer_ratio in _integer_form"]

    def test_flags_a_second_copy_of_the_constants(self):
        @dataclasses.dataclass(frozen=True)
        class TwoCopies:
            dim: int
            s: int
            constants: object
            c: tuple

            @cached_property
            def flat(self):
                return self.constants

        class TwoPaths:
            def __init__(self, L, M=None):
                pass

        class OneOptional:
            def __init__(self, M=None):
                pass

        class OnePath:
            def __init__(self, M):
                pass

        assert second_copies(TwoCopies, TwoPaths) == [
            "TwoCopies has fields ('dim', 's', 'constants', 'c')", "TwoCopies.flat is cached",
            "TwoPaths.__init__ takes ['L', 'M=None']"]
        assert second_copies(TwoCopies, OneOptional)[-1] == "OneOptional.__init__ takes ['M=None']"
        assert second_copies(LieLikeAlgebra, OnePath) == []

    def test_flags_literal_exit_codes(self):
        tree = ast.parse(
            "from .errors import DimensionMismatch, NotSolvable\n"
            "def f(ok):\n"
            "    if ok:\n"
            "        return report, 0\n"
            "    raise SystemExit(_fail('no', 2))\n"
            "def g(ok):\n"
            "    return 0 if ok else 1\n"
        )
        assert literal_exit_codes("cli.py", tree) == [
            "cli.py:1 imports NotSolvable", "cli.py:5 exits with 2",
            "cli.py:7 exits with 1"]
