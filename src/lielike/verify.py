"""Batch verification: every check composed over one instance.

The report is a plain dict so the CLI can print it as JSON or as text.
Exit code semantics: 0 all checks pass, 1 a violation was found, 2 the
input was malformed or an eigen-step left the rationals.  EXIT_CODES maps
each error a command reports to its exit code, and AxiomReport says how
each axiom check's violations are reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieLikeAlgebra, is_solvable
from .errors import DimensionMismatch, NonSplitSpectrum, NotSolvable, TheoremViolation
from .modules import (
    OrdinaryModule,
    check_algebra,
    check_derived_identities,
    check_module,
    is_submodule,
    plus_annihilator,
)
from .serialize import result_to_json, vector_to_json
from .solver import DICHOTOMY_VIOLATION, oracle_solve, solve

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

EXIT_CODES = {DimensionMismatch: EXIT_INVALID, NonSplitSpectrum: EXIT_INVALID,
              NotSolvable: EXIT_VIOLATION, TheoremViolation: EXIT_VIOLATION}


@dataclass(frozen=True)
class AxiomReport:
    """How one axiom check's violations are reported: what is checked (the
    text header), the violation field that names the failing axiom, and
    the names of the witness's indices."""

    noun: str
    field: str
    label: str

    def violation(self, v) -> dict:
        return {self.field: getattr(v, self.field), "witness": list(v.witness)}

    def entry(self, violations) -> dict:
        """A verify report's entry for the check: its first ten witnesses."""
        return {"ok": not violations, "violations": [self.violation(v) for v in violations[:10]]}


ALGEBRA_AXIOMS = AxiomReport("algebra", "identity", "(i,j,l,k,h)")
MODULE_AXIOMS = AxiomReport("module", "axiom", "(k,h,i,j)")


def run_verify(L: LieLikeAlgebra, M: OrdinaryModule) -> tuple[dict, int]:
    """Run the full check pipeline; returns (report, exit_code)."""
    report: dict = {"checks": {}, "ok": False}
    checks = report["checks"]

    violations = check_algebra(L)
    checks["algebra-axioms"] = ALGEBRA_AXIOMS.entry(violations)
    if violations:
        return report, EXIT_VIOLATION

    solvable, depth = is_solvable(L)
    checks["solvable"] = {"ok": solvable, "depth": depth}
    if not solvable:
        return report, EXIT_VIOLATION

    violations = check_module(M)
    checks["module-axioms"] = MODULE_AXIOMS.entry(violations)
    if violations:
        return report, EXIT_VIOLATION

    failures = check_derived_identities(M)
    checks["derived-identities"] = {"ok": not failures, "failures": failures}
    if failures:
        return report, EXIT_VIOLATION

    ann = plus_annihilator(M)
    ann_ok = is_submodule(M, ann)
    checks["annihilator-submodule"] = {"ok": ann_ok, "dim": ann.dim}
    if not ann_ok:
        return report, EXIT_VIOLATION

    try:
        result = solve(L, M)
    except (NonSplitSpectrum, TheoremViolation) as exc:
        checks["solve"] = {"ok": False, "error": str(exc)}
        return report, EXIT_CODES[type(exc)]
    # solve raises rather than return a vector that fails verify_weight
    dichotomy_ok = result.dichotomy != DICHOTOMY_VIOLATION
    checks["solve"] = {
        "ok": dichotomy_ok,
        "result": result_to_json(result),
        "dichotomy": result.dichotomy,
    }
    if not dichotomy_ok:
        return report, EXIT_VIOLATION

    try:
        entries = oracle_solve(L, M)
    except NonSplitSpectrum as exc:
        checks["oracle"] = {"ok": False, "error": str(exc)}
        return report, EXIT_CODES[type(exc)]
    match = next((space for space, w in entries
                  if space.contains(result.v) and w == result.weight), None)
    checks["oracle"] = {
        "ok": match is not None,
        "entries": len(entries),
        "matched_dim": match.dim if match else None,
        "v": vector_to_json(result.v),
    }
    if match is None:
        return report, EXIT_VIOLATION

    report["ok"] = True
    return report, EXIT_OK
