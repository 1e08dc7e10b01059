"""Command-line interface.

Commands operate on JSON files: either a combined instance file
{"algebra": ..., "module": ...} or, where only the algebra is needed, a
bare algebra object.  Output is a human-readable table by default and
canonical JSON with --json.  `verify` exits 0 on success, 1 when a check
fails, 2 on malformed input or a non-rational spectrum; every command
reads the exit code of an error from `verify.EXIT_CODES`.  `solve` and
`oracle` check the algebra and module axioms first; every error they
report is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .algebra import derived_series
from .errors import DimensionMismatch, LieLikeError
from .generate import CONSTRUCTIONS, GeneratorSpec, generate
from .modules import adjoint, check_algebra, check_module, plus_annihilator
from .solver import oracle_solve, solve
from .verify import (ALGEBRA_AXIOMS, EXIT_CODES, EXIT_INVALID, EXIT_OK, EXIT_VIOLATION,
                     MODULE_AXIOMS, run_verify)


def _load(path: str, what: str, parse):
    """parse(the JSON in path), or exit 2 with one stderr line."""
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers too
    # long to convert; RecursionError covers arrays nested too deeply
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}", EXIT_INVALID))
    try:
        return parse(obj)
    except (LieLikeError, KeyError, ValueError, TypeError) as exc:
        raise SystemExit(_fail(f"malformed {what} in {path}: {exc}", EXIT_INVALID))


def _load_algebra(path: str):
    """The algebra of an instance file, or of a bare algebra file."""
    return _load(path, "algebra", lambda obj: serialize.algebra_from_json(
        obj["algebra"] if isinstance(obj, dict) and "algebra" in obj else obj))


def _load_instance(path: str):
    return _load(path, "instance", serialize.instance_from_json)


def _fail(problem, code: int) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return code


def _write(text: str, output: str | None) -> int:
    """Print text, or write it to the file named by output."""
    if not output:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {output}: {exc}", EXIT_INVALID)
    print(f"wrote {output}")
    return 0


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        sys.stdout.write(serialize.dumps(payload))
    else:
        for line in lines:
            print(line)


def _axiom_report(args, report, violations, residual_to_json) -> int:
    """Every violation of one axiom check, with its residual; the text
    lists the first twenty."""
    payload = {"ok": not violations, "violations": [
        {**report.violation(v), "residual": residual_to_json(v.residual)} for v in violations]}
    lines = [f"{report.noun} axioms: {'ok' if not violations else 'FAILED'}"]
    lines += [f"  {getattr(v, report.field)} at {report.label}={v.witness}"
              for v in violations[:20]]
    _emit(payload, args.json, lines)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_check_algebra(args) -> int:
    violations = check_algebra(_load_algebra(args.file))
    return _axiom_report(args, ALGEBRA_AXIOMS, violations, serialize.vector_to_json)


def cmd_check_module(args) -> int:
    _, M, _ = _load_instance(args.file)
    return _axiom_report(args, MODULE_AXIOMS, check_module(M), serialize.matrix_to_json)


def cmd_derived(args) -> int:
    L = _load_algebra(args.file)
    series = derived_series(L)
    # what is_solvable(L) returns, read off the one series
    solvable, depth = series[-1].dim == 0, len(series)
    payload = {
        "dims": [sp.dim for sp in series],
        "solvable": solvable,
        "depth": depth,
        "series": [
            [serialize.vector_to_json(b) for b in sp.basis] for sp in series
        ],
    }
    lines = [f"derived series dims: {[sp.dim for sp in series]}"]
    lines.append(
        f"solvable: {'yes' if solvable else 'no'} (depth {depth})"
        if solvable
        else f"solvable: no (stabilizes after {depth} terms)"
    )
    _emit(payload, args.json, lines)
    return 0


def cmd_annihilator(args) -> int:
    L, M, _ = _load_instance(args.file)
    ann = plus_annihilator(M)
    payload = {
        "dim": ann.dim,
        "basis": [serialize.vector_to_json(b) for b in ann.basis],
    }
    lines = [f"plus annihilator: dim {ann.dim}"]
    lines += ["  " + " ".join(serialize.vector_to_json(b)) for b in ann.basis]
    _emit(payload, args.json, lines)
    return 0


def cmd_adjoint(args) -> int:
    L = _load_algebra(args.file)
    M = adjoint(L)
    return _write(serialize.dumps(serialize.instance_to_json(L, M)), args.output)


def _checked_run(args, compute, render) -> int:
    """Load args.file, check its algebra identities and module axioms, and
    emit render(compute(L, M)); the first failing axiom (with its witness)
    or an error of compute is one stderr line and an exit code."""
    L, M, _ = _load_instance(args.file)
    # the module check runs only once the algebra check has passed
    for report, check, obj in ((ALGEBRA_AXIOMS, check_algebra, L),
                               (MODULE_AXIOMS, check_module, M)):
        if violations := check(obj):
            v = violations[0]
            return _fail(f"{report.noun} {report.field} {getattr(v, report.field)} fails"
                         f" at {report.label}={v.witness}", EXIT_VIOLATION)
    try:
        result = compute(L, M)
    except tuple(EXIT_CODES) as exc:
        return _fail(exc, EXIT_CODES[type(exc)])
    payload, lines = render(result)
    _emit(payload, args.json, lines)
    return 0


def _solve_output(result):
    payload = serialize.result_to_json(result)
    return payload, [
        "v = " + " ".join(payload["v"]),
        "phi = " + json.dumps(payload["phi"]),
        "psi = " + json.dumps(payload["psi"]),
        f"dichotomy: {result.dichotomy}",
        f"branch trace: {', '.join(result.branch_trace) or '(base case)'}",
    ]


def _oracle_output(entries):
    payload = {
        "entries": [
            {
                "dim": space.dim,
                "basis": [serialize.vector_to_json(b) for b in space.basis],
                **serialize.weight_to_json(w),
            }
            for space, w in entries
        ]
    }
    lines = [f"{len(entries)} maximal joint weight space(s)"]
    lines += [f"  dim {e['dim']}, phi={json.dumps(e['phi'])}, psi={json.dumps(e['psi'])}"
              for e in payload["entries"]]
    return payload, lines


def cmd_solve(args) -> int:
    return _checked_run(args, solve, _solve_output)


def cmd_oracle(args) -> int:
    return _checked_run(args, oracle_solve, _oracle_output)


def cmd_verify(args) -> int:
    L, M, _ = _load_instance(args.file)
    try:
        report, code = run_verify(L, M)
    except DimensionMismatch as exc:
        return _fail(exc, EXIT_CODES[DimensionMismatch])
    lines = []
    for name, info in report["checks"].items():
        lines.append(f"{name}: {'ok' if info.get('ok') else 'FAILED'}")
        if name == "solve" and info.get("ok"):
            lines.append(f"  dichotomy: {info['dichotomy']}")
    lines.append(f"verdict: {'ok' if report['ok'] else 'FAILED'}")
    _emit(report, args.json, lines)
    return code


def cmd_generate(args) -> int:
    try:
        spec = GeneratorSpec(
            args.construction, args.dim, args.s, args.seed, args.bound
        )
    except ValueError as exc:
        return _fail(exc, EXIT_INVALID)
    inst = generate(spec)
    text = serialize.dumps(
        serialize.instance_to_json(inst.algebra, inst.module, inst.metadata)
    )
    return _write(text, args.output)


# built once per process: parsing leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lielike",
        description="Exact computations with Lie-like algebras and their modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    for name, fn, helptext in [
        ("check-algebra", cmd_check_algebra, "check the defining identities"),
        ("check-module", cmd_check_module, "check the module axioms"),
        ("derived", cmd_derived, "derived series and solvability"),
        ("annihilator", cmd_annihilator, "plus annihilator of the module"),
        ("solve", cmd_solve, "find a common weight vector"),
        ("oracle", cmd_oracle, "brute-force joint weight spaces"),
        ("verify", cmd_verify, "run every check on an instance"),
    ]:
        p = add(name, fn, help=helptext)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")

    p = add("adjoint", cmd_adjoint, help="emit the adjoint module instance")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = add("generate", cmd_generate, help="emit a seeded instance file")
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
