"""Six commands on every seed-0 operation of the benchmark's workloads,
against the digests recorded in tests/output_digests.json.

Each of `verify`, `verify --json`, `solve`, `solve --json`, `oracle` and
`oracle --json` runs on each of the 201 instance files that
benchmarks/workloads.py builds at seed 0.  A run is recorded as the sha256
of its exit code, stdout and stderr, so a change that moves any byte a
user sees on these inputs fails here.  To record the digests afresh (only
for a change meant to move outputs), run

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lielike import cli, serialize

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from workloads import WORKLOADS, instance_json, operations  # noqa: E402

DIGESTS = Path(__file__).with_name("output_digests.json")
SEED = 0
COMMANDS = ("verify", "verify --json", "solve", "solve --json",
            "oracle", "oracle --json")


def run_digest(command, path):
    """sha256 of the exit code, stdout and stderr of `lielike command path`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([*command.split(), str(path)])
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digests(workload, path):
    """{operation name: {command: digest}} for one workload at SEED, each
    instance written to `path` in turn."""
    got = {}
    for op in operations(workload, SEED):
        path.write_text(serialize.dumps(instance_json(op)), encoding="utf-8")
        got[op.name] = {command: run_digest(command, path) for command in COMMANDS}
    return got


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_six_commands_match_recorded_digests(workload, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert recorded["seed"] == SEED and recorded["commands"] == list(COMMANDS)
    got = workload_digests(workload, tmp_path / "instance.json")
    want = recorded["workloads"][workload]
    assert sorted(got) == sorted(want)
    wrong = [f"{name}: {command}"
             for name, runs in got.items()
             for command, digest in runs.items() if digest != want[name][command]]
    assert wrong == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        table = {w: workload_digests(w, path) for w in sorted(WORKLOADS)}
    DIGESTS.write_text(json.dumps(
        {"seed": SEED, "commands": list(COMMANDS), "workloads": table},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
