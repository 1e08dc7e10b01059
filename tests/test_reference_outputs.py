"""`lielike verify --json` on every seed-0 operation of the benchmark's
workloads, against the outcomes recorded in benchmarks/reference.json.

The instance files are built by benchmarks/workloads.py, as the benchmark
builds them.  Each run is compared on its exit code, its failing check and
the sha256 of its stdout, so a change that moves any output byte of these
201 operations fails here.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lielike import cli, serialize

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
from workloads import STAGES, instance_json, operations  # noqa: E402

REFERENCE = json.loads((BENCHMARKS / "reference.json").read_text(encoding="utf-8"))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verify_json(path):
    """(exit code, stdout) of `lielike verify --json path`."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["verify", "--json", str(path)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def failing_check(stdout):
    checks = json.loads(stdout)["checks"]
    return next((s for s in STAGES if s in checks and not checks[s]["ok"]), None)


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_seed0_outputs_match_reference(workload, tmp_path):
    recorded = REFERENCE["workloads"][workload]
    ops = operations(workload, REFERENCE["seed"])
    assert sorted(op.name for op in ops) == sorted(recorded)
    path = tmp_path / "instance.json"
    wrong = []
    for op in ops:
        ref = recorded[op.name]
        text = serialize.dumps(instance_json(op))
        assert sha256(text) == ref["input_sha256"], f"input drift: {op.name}"
        path.write_text(text, encoding="utf-8")
        code, stdout = verify_json(path)
        got = (code, failing_check(stdout), sha256(stdout))
        if ref["raised"]:
            # recorded while `verify` still raised on the proof-gap fixture;
            # run_verify now reports the raise as a failed solve check
            want = (1, "solve", got[2])
        else:
            want = (ref["exit"], ref["failing"], ref["output_sha256"])
        if got != want:
            wrong.append(f"{op.name}: got {got[:2]}, want {want[:2]}"
                         + ("" if got[2] == want[2] else ", stdout differs"))
    assert wrong == []
