"""Correctness of every operation, judged by code of the benchmark's own.

An operation's outcome is its exit code, the exception it raised (if any)
and its stdout.  It is checked against

- the answer its construction implies (exit code and failing check);
- the canonical form of the JSON it printed;
- for a passing verify, the weight vector it reports, recomputed here with
  plain Fractions from the instance file;
- on the reference seed, the outcome recorded in reference.json: exit code,
  failing check and the sha256 of the output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from workloads import STAGES, Op


@dataclass(frozen=True)
class Outcome:
    exit: int | None
    raised: str | None
    stdout: str

    @property
    def output_sha256(self) -> str | None:
        if self.raised:
            return None
        return hashlib.sha256(self.stdout.encode()).hexdigest()

    def failing_check(self) -> str | None:
        try:
            checks = json.loads(self.stdout)["checks"]
            return next((s for s in STAGES if s in checks and not checks[s]["ok"]), None)
        except (ValueError, KeyError, TypeError):  # not a verify report
            return None

    def record(self) -> dict:
        """The fields reference.json keeps for an operation."""
        return {
            "exit": self.exit,
            "failing": None if self.raised else self.failing_check(),
            "output_sha256": self.output_sha256,
            "raised": self.raised,
        }


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def weight_problem(instance: dict, report: dict) -> str | None:
    """Why the reported weight vector is wrong, or None when it is right.

    Checks v != 0, f_k(e_i) v = phi_k(e_i) v and g_k(e_i) v = psi_k(e_i) v
    for every basis element, the dichotomy (psi = 0 or phi = psi) and that
    the oracle agreed.
    """
    result = report["checks"]["solve"]["result"]
    v = [Fraction(x) for x in result["v"]]
    if not any(v):
        return "reported weight vector is zero"
    module = instance["module"]
    for fam, weights in (("F", result["phi"]), ("G", result["psi"])):
        for k, ops in enumerate(module[fam]):
            for i, op in enumerate(ops):
                lam = Fraction(weights[k][i])
                if _apply(_matrix(op), v) != [lam * x for x in v]:
                    return f"v is not an eigenvector of {fam}[{k}][{i}] for {lam}"
    psi_zero = all(Fraction(x) == 0 for row in result["psi"] for x in row)
    if not (psi_zero or result["phi"] == result["psi"]):
        return "weight violates the dichotomy"
    if not report["checks"]["oracle"]["ok"]:
        return "oracle did not confirm the weight"
    return None


def _report_problem(op: Op, out: Outcome, instance: dict) -> str | None:
    report = json.loads(out.stdout)
    if _canonical(report) != out.stdout:
        return "output is not canonical JSON"
    failing = out.failing_check()
    if report["ok"] != (out.exit == 0) or (failing is None) != (out.exit == 0):
        return f"exit {out.exit} disagrees with the report"
    want_exit, want_failing = op.expect
    if want_exit is None:
        if out.exit not in (0, 1):
            return f"exit {out.exit}, expected a verdict (0 or 1)"
    elif (out.exit, failing) != (want_exit, want_failing):
        return (
            f"exit {out.exit} at {failing}, expected exit {want_exit}"
            f" at {want_failing}"
        )
    return weight_problem(instance, report) if out.exit == 0 else None


def problem(op: Op, out: Outcome, instance: dict, ref: dict | None) -> str | None:
    """Why an operation's outcome is wrong, or None when it is right.

    A raise that the workload expects (the proof-gap fixture) is not wrong;
    the caller still counts it as a failed operation.
    """
    if out.raised:
        if out.raised != op.known_raise:
            return f"raised {out.raised}"
    else:
        try:
            wrong = _report_problem(op, out, instance)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            wrong = f"output is not a verify report ({type(exc).__name__})"
        if wrong:
            return wrong
    if ref is not None:
        got = out.record()
        diffs = [key for key in ("exit", "failing", "output_sha256", "raised")
                 if got[key] != ref[key]]
        # a fixed proof gap changes the recorded raise into a verdict
        if diffs and not (op.known_raise and ref["raised"] and not out.raised):
            return "differs from reference in " + ", ".join(diffs)
    return None
