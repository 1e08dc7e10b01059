"""The commands that tests/output_digests.json does not cover, against the
digests recorded in tests/command_digests.json.

`check-algebra`, `check-module`, `derived` and `annihilator` (each with and
without --json) and `adjoint` run on each of the 201 instance files that
benchmarks/workloads.py builds at seed 0.  Every command form, `verify`,
`solve` and `oracle` included, also runs on the files in FIXTURES: failing
algebras and modules, a non-solvable algebra, bare algebra files and
malformed input.  A run is recorded as the sha256 of its exit code, stdout
and stderr, with the file's path written as FILE, so a change that moves
any byte a user sees on these inputs fails here.  To record the digests
afresh (only for a change meant to move outputs), run

    PYTHONPATH=src python tests/test_command_digests.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lielike import LieLikeAlgebra, OrdinaryModule, adjoint, cli, serialize
from lielike.linalg import Matrix

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from workloads import WORKLOADS, instance_json, operations  # noqa: E402

DIGESTS = Path(__file__).with_name("command_digests.json")
SEED = 0
COMMANDS = ("check-algebra", "check-algebra --json", "check-module",
            "check-module --json", "derived", "derived --json",
            "annihilator", "annihilator --json", "adjoint")
FIXTURE_COMMANDS = COMMANDS + ("verify", "verify --json", "solve", "solve --json",
                               "oracle", "oracle --json")


def _instance(L, M):
    return serialize.dumps(serialize.instance_to_json(L, M))


def _fixtures() -> dict:
    """{name: file text, or None for a file that does not exist}."""
    # <e1,e1> = e1 breaks the bracket identity
    bad1 = LieLikeAlgebra.from_constants(1, 1, {(0, 0, 0): [1]})
    # dense small constants: many identities fail, more than a report lists
    bad2 = LieLikeAlgebra.from_constants(2, 2, {
        (k, i, j): [(k + 2 * i + 3 * j) % 3 - 1, (i + j + k) % 2]
        for k in range(2) for i in range(2) for j in range(2)
    })
    aff2 = LieLikeAlgebra.from_constants(2, 1, {(0, 1, 0): [1, 0], (0, 0, 1): [-1, 0]})
    sl2 = LieLikeAlgebra.from_constants(3, 1, {
        (0, 0, 1): [0, 0, 1], (0, 1, 0): [0, 0, -1], (0, 2, 0): [2, 0, 0],
        (0, 0, 2): [-2, 0, 0], (0, 2, 1): [0, -2, 0], (0, 1, 2): [0, 2, 0],
    })
    leib2 = LieLikeAlgebra.from_constants(2, 1, {(0, 1, 1): [1, 0]})
    zero2 = Matrix.zeros(2, 2)
    # F_0 = (diag(1, 2), [[1, 1], [1, 1]]), G = 0 breaks eq-1.3
    bad_module = OrdinaryModule(
        aff2, 2, ((Matrix([[1, 0], [0, 2]]), Matrix([[1, 1], [1, 1]])),),
        ((zero2, zero2),))
    # dense operators on nt3's adjoint space: many module axioms fail
    nt3 = LieLikeAlgebra.from_constants(
        3, 2, {(0, 2, 2): [1, 0, 0], (1, 2, 2): [0, 1, 0]})
    dense = tuple(tuple(Matrix([[(k + i + r * c) % 3 - 1 for c in range(3)]
                                for r in range(3)]) for i in range(3)) for k in range(2))
    # solve's flag loses its weight vector here (the documented proof gap)
    gap = LieLikeAlgebra.from_constants(
        3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]})
    irrational = Matrix([[1, 1], [1, 0]])
    one = LieLikeAlgebra.from_constants(1, 1, {})
    leib2_json = serialize.instance_to_json(leib2, adjoint(leib2))

    def edited(path, value):
        obj = json.loads(json.dumps(leib2_json))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(obj)

    return {
        "broken-algebra": _instance(bad1, adjoint(bad1)),
        "broken-algebra-bare": serialize.dumps(serialize.algebra_to_json(bad1)),
        "many-algebra-violations": _instance(bad2, adjoint(bad2)),
        "broken-module": _instance(aff2, bad_module),
        "many-module-violations": _instance(nt3, OrdinaryModule(nt3, 3, dense, dense)),
        "sl2": _instance(sl2, adjoint(sl2)),
        "sl2-bare": serialize.dumps(serialize.algebra_to_json(sl2)),
        "leib2": _instance(leib2, adjoint(leib2)),
        "proof-gap": _instance(gap, adjoint(gap)),
        "irrational-spectrum": _instance(
            one, OrdinaryModule(one, 2, ((irrational,),), ((irrational,),))),
        "empty-module": _instance(leib2, OrdinaryModule(
            leib2, 0, ((Matrix.zeros(0, 0),) * 2,), ((Matrix.zeros(0, 0),) * 2,))),
        "exponent-scalars": edited(["module", "F", 0, 1, 0], ["1e2", "1.5"]),
        "truncated": '{"algebra": {"dim": 2, ',
        "not-an-object": "[1, 2]",
        "wrong-shape": json.dumps({"dim": 2, "s": 1, "c": [[[["1"]]]]}),
        "string-for-array": edited(["module", "G", 0, 0], "10"),
        "zero-denominator": edited(["module", "F", 0, 1, 0, 0], "1/0"),
        "float-scalar": edited(["algebra", "c", 0, 1, 1, 0], 1.0),
        "oversized": edited(["algebra", "dim"], 1000),
        "no-module": json.dumps({"algebra": leib2_json["algebra"]}),
        "missing-file": None,
    }


FIXTURES = _fixtures()


def run_digest(command, path):
    """sha256 of the exit code, stdout and stderr of `lielike command path`,
    with the path written as FILE so that digests do not depend on where
    the file lives."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([*command.split(), str(path)])
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(str(path), "FILE")
    return hashlib.sha256(text.encode()).hexdigest()


def file_digests(path, commands, text):
    """{command: digest} for one file holding `text` (absent when None)."""
    if text is None:
        path.unlink(missing_ok=True)
    else:
        path.write_text(text, encoding="utf-8")
    return {command: run_digest(command, path) for command in commands}


def workload_digests(workload, path):
    return {op.name: file_digests(path, COMMANDS, serialize.dumps(instance_json(op)))
            for op in operations(workload, SEED)}


def fixture_digests(path):
    return {name: file_digests(path, FIXTURE_COMMANDS, text)
            for name, text in FIXTURES.items()}


def recorded():
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert table["seed"] == SEED and table["commands"] == list(COMMANDS)
    assert table["fixture_commands"] == list(FIXTURE_COMMANDS)
    return table


def mismatches(got, want):
    assert sorted(got) == sorted(want)
    return [f"{name}: {command}"
            for name, runs in got.items()
            for command, digest in runs.items() if digest != want[name][command]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_commands_match_recorded_digests(workload, tmp_path):
    want = recorded()["workloads"][workload]
    assert mismatches(workload_digests(workload, tmp_path / "instance.json"), want) == []


def test_fixtures_match_recorded_digests(tmp_path):
    want = recorded()["fixtures"]
    assert mismatches(fixture_digests(tmp_path / "instance.json"), want) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        table = {w: workload_digests(w, path) for w in sorted(WORKLOADS)}
        fixtures = fixture_digests(path)
    DIGESTS.write_text(json.dumps(
        {"seed": SEED, "commands": list(COMMANDS),
         "fixture_commands": list(FIXTURE_COMMANDS),
         "workloads": table, "fixtures": fixtures},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
