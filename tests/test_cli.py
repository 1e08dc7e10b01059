import gc
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lielike import algebra as algebra_module
from lielike import cli, serialize
from lielike.cli import main
from lielike.serialize import MAX_SIZE, algebra_to_json, dumps, instance_to_json
from lielike import LieLikeAlgebra, OrdinaryModule, adjoint
from lielike.linalg import Matrix
from strategies import valid_instances


def run_captured(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    code, out, _ = run_captured(capsys, *argv)
    return code, out


def write_instance(tmp_path, L, M, name="inst.json"):
    path = tmp_path / name
    path.write_text(dumps(instance_to_json(L, M)))
    return str(path)


def write_algebra(tmp_path, L, name="alg.json"):
    path = tmp_path / name
    path.write_text(dumps(algebra_to_json(L)))
    return str(path)


class TestHappyPaths:
    def test_full_pipeline_on_generated_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "gen.json")
        code, _ = run(
            capsys,
            "generate",
            "--construction",
            "graded-nilpotent",
            "--dim",
            "3",
            "--s",
            "2",
            "--seed",
            "1",
            "-o",
            out_file,
        )
        assert code == 0
        for cmd in (
            "check-algebra",
            "check-module",
            "derived",
            "annihilator",
            "solve",
            "oracle",
            "verify",
        ):
            code, _ = run(capsys, cmd, out_file)
            assert code == 0, cmd

    def test_json_flag_emits_canonical_json(self, tmp_path, capsys, leib2):
        path = write_instance(tmp_path, leib2, adjoint(leib2))
        code, out = run(capsys, "solve", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["v"] == ["1", "0"]
        assert payload["dichotomy"] == "both"

    def test_derived_on_bare_algebra_file(self, tmp_path, capsys, leib2):
        path = write_algebra(tmp_path, leib2)
        code, out = run(capsys, "derived", path, "--json")
        assert code == 0
        assert json.loads(out)["dims"] == [2, 1, 0]

    # payloads recorded when `derived` still ran is_solvable on its own
    @pytest.mark.parametrize("algebra, expected", [
        ("sl2", '{"depth":1,"dims":[3],"series":[[["1","0","0"],["0","1","0"],'
                '["0","0","1"]]],"solvable":false}'),
        ("nt3", '{"depth":3,"dims":[3,2,0],"series":[[["1","0","0"],["0","1","0"],'
                '["0","0","1"]],[["1","0","0"],["0","1","0"]],[]],"solvable":true}'),
    ])
    def test_derived_computes_the_series_once(
        self, tmp_path, capsys, monkeypatch, request, algebra, expected
    ):
        calls = []
        original = algebra_module.derived_series

        def counted(L):
            calls.append(L)
            return original(L)

        monkeypatch.setattr(algebra_module, "derived_series", counted)
        monkeypatch.setattr(cli, "derived_series", counted)
        path = write_algebra(tmp_path, request.getfixturevalue(algebra))
        code, out = run(capsys, "derived", path, "--json")
        assert (code, out) == (0, expected + "\n")
        assert len(calls) == 1

    def test_annihilator(self, tmp_path, capsys, nt3):
        path = write_instance(tmp_path, nt3, adjoint(nt3))
        code, out = run(capsys, "annihilator", path, "--json")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_adjoint_writes_instance(self, tmp_path, capsys, nt3):
        alg = write_algebra(tmp_path, nt3)
        out_file = str(tmp_path / "adj.json")
        code, _ = run(capsys, "adjoint", alg, "-o", out_file)
        assert code == 0
        code, _ = run(capsys, "verify", out_file)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["adjoint", "ALGEBRA"],
        ["generate", "--construction", "basis-changed", "--dim", "3", "--s", "2",
         "--seed", "1"],
    ])
    def test_without_output_prints_what_output_writes(self, tmp_path, capsys, nt3,
                                                      argv):
        argv = [write_algebra(tmp_path, nt3) if a == "ALGEBRA" else a for a in argv]
        code, printed, err = run_captured(capsys, *argv)
        assert (code, err) == (0, "")
        out_file = tmp_path / "out.json"
        code, out = run(capsys, *argv, "-o", str(out_file))
        assert (code, out) == (0, f"wrote {out_file}\n")
        assert out_file.read_bytes() == printed.encode()

    def test_oracle_reports_entries(self, tmp_path, capsys, leib2):
        path = write_instance(tmp_path, leib2, adjoint(leib2))
        code, out = run(capsys, "oracle", path, "--json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 1 and entries[0]["dim"] == 1


class TestViolationExits:
    def test_check_algebra_failure(self, tmp_path, capsys):
        obj = {
            "dim": 1,
            "s": 1,
            "c": [[[["1"]]]],  # <e1,e1> = e1 violates the bracket identity
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "check-algebra", str(path), "--json")
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_verify_stops_at_algebra_axioms(self, tmp_path, capsys):
        # <e1,e1> = e1 breaks the bracket identity; its adjoint module is
        # never checked
        L = LieLikeAlgebra.from_constants(1, 1, {(0, 0, 0): [1]})
        path = write_instance(tmp_path, L, adjoint(L))
        code, out, err = run_captured(capsys, "verify", path)
        assert (code, out, err) == (1, "algebra-axioms: FAILED\nverdict: FAILED\n", "")
        code, out, err = run_captured(capsys, "verify", path, "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert list(report["checks"]) == ["algebra-axioms"] and not report["ok"]
        axioms = report["checks"]["algebra-axioms"]
        assert not axioms["ok"] and axioms["violations"]
        assert "solvable" not in report["checks"]

    @pytest.mark.parametrize("algebra", ["sl2", "sl2_plus_line"])
    def test_solve_nonsolvable(self, tmp_path, capsys, request, algebra):
        L = request.getfixturevalue(algebra)
        path = write_instance(tmp_path, L, adjoint(L))
        code, out, err = run_captured(capsys, "solve", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert run(capsys, "verify", path)[0] == 1

    def test_oracle_nonsolvable(self, tmp_path, capsys, sl2):
        path = write_instance(tmp_path, sl2, adjoint(sl2))
        code, out, err = run_captured(capsys, "oracle", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not solvable" in err

    def test_verify_failure_on_perturbed_module(self, tmp_path, capsys, leib2):
        M = adjoint(leib2)
        rows = [list(r) for r in M.G[0][1].rows]
        rows[1][1] += 1
        bad = OrdinaryModule(
            leib2, 2, M.F, ((M.G[0][0], Matrix(rows)),)
        )
        path = write_instance(tmp_path, leib2, bad)
        code, _ = run(capsys, "verify", path)
        assert code == 1
        code, _ = run(capsys, "check-module", path)
        assert code == 1


PROOF_GAP = {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}


class TestOneLineErrors:
    """solve and oracle check the axioms before they start, and a
    TheoremViolation is a one-line error too, never a traceback."""

    @staticmethod
    def assert_one_line(result, prefix):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_module_violation(self, tmp_path, capsys, aff2, command):
        # F_0 = (diag(1, 2), [[1, 1], [1, 1]]), G = 0 breaks eq-1.3
        zero = Matrix([[0, 0], [0, 0]])
        F0 = (Matrix([[1, 0], [0, 2]]), Matrix([[1, 1], [1, 1]]))
        M = OrdinaryModule(aff2, 2, (F0,), ((zero, zero),))
        path = write_instance(tmp_path, aff2, M)
        result = run_captured(capsys, command, path)
        self.assert_one_line(result, "error: module axiom eq-1.3 fails at (k,h,i,j)=(")
        assert run(capsys, "check-module", path)[0] == 1

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_algebra_violation(self, tmp_path, capsys, command):
        L = LieLikeAlgebra.from_constants(1, 1, {(0, 0, 0): [1]})
        zero = Matrix([[0]])
        path = write_instance(tmp_path, L, OrdinaryModule(L, 1, ((zero,),), ((zero,),)))
        result = run_captured(capsys, command, path, "--json")
        self.assert_one_line(result, "error: algebra identity ")

    def test_solve_on_the_proof_gap(self, tmp_path, capsys):
        L = LieLikeAlgebra.from_constants(3, 2, PROOF_GAP)
        path = write_instance(tmp_path, L, adjoint(L))
        result = run_captured(capsys, "solve", path)
        self.assert_one_line(result, "error: recursive weight space lost")

    def test_verify_reports_the_proof_gap(self, tmp_path, capsys):
        L = LieLikeAlgebra.from_constants(3, 2, PROOF_GAP)
        path = write_instance(tmp_path, L, adjoint(L))
        code, out, err = run_captured(capsys, "verify", path, "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        failing = [name for name, info in report["checks"].items() if not info["ok"]]
        assert failing == ["solve"] and not report["ok"]
        assert report["checks"]["solve"] == {
            "ok": False, "error": "recursive weight space lost its weight vector"
        }


class TestInvalidExits:
    def test_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"algebra": {"dim": 2, ')
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, _ = run(capsys, "derived", str(tmp_path / "nope.json"))
        assert code == 2

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"dim": 2, "s": 1, "c": [[[["1"]]]]}))
        code, _ = run(capsys, "check-algebra", str(path))
        assert code == 2

    def test_generate_rejects_bad_spec(self, capsys):
        code, _ = run(
            capsys,
            "generate",
            "--construction",
            "abelian",
            "--dim",
            "2",
            "--s",
            "0",
            "--seed",
            "0",
        )
        assert code == 2

    def test_solve_irrational_spectrum(self, tmp_path, capsys):
        from fractions import Fraction as F

        from lielike import LieLikeAlgebra

        L = LieLikeAlgebra.from_constants(1, 1, {})
        op = Matrix([[F(1), F(1)], [F(1), F(0)]])
        M = OrdinaryModule(L, 2, ((op,),), ((op,),))
        path = write_instance(tmp_path, L, M)
        code, _ = run(capsys, "solve", path)
        assert code == 2
        code, _ = run(capsys, "oracle", path)
        assert code == 2

    @pytest.mark.parametrize("content", [
        b'{"dim": ' + b"1" * 5000 + b"}",  # past the int conversion limit
        b'{"dim": 1, "s": "\xff"}',  # not UTF-8
        b"[" * 100000,  # nested past the recursion limit
    ], ids=["long-int", "not-utf8", "deep-nesting"])
    def test_unreadable_json_is_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_captured(capsys, "derived", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["adjoint", "ALG"],
        ["generate", "--construction", "abelian", "--dim", "2", "--s", "1",
         "--seed", "0"],
    ], ids=["adjoint", "generate"])
    def test_unwritable_output_is_one_line(self, tmp_path, capsys, leib2, argv):
        target = tmp_path / "missing" / "out.json"
        argv = [write_algebra(tmp_path, leib2) if a == "ALG" else a for a in argv]
        code, out, err = run_captured(capsys, *argv, "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestEmptyModule:
    """A module with vdim 0 has no weight vector: one-line error, exit 2."""

    def write(self, tmp_path, leib2):
        fam = ((Matrix.zeros(0, 0),) * 2,)
        return write_instance(tmp_path, leib2, OrdinaryModule(leib2, 0, fam, fam))

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_rejected(self, tmp_path, capsys, leib2, command):
        path = self.write(tmp_path, leib2)
        code, out, err = run_captured(capsys, command, path, "--json")
        assert (code, out) == (2, "")
        assert err.endswith(" needs a nonzero module\n") and err.count("\n") == 1

    def test_module_axioms_still_checked(self, tmp_path, capsys, leib2):
        assert run(capsys, "check-module", self.write(tmp_path, leib2))[0] == 0


class TestMalformedScalars:
    """Scalars that are not exact rationals: one-line error, exit code 2."""

    def verify_with_entry(self, tmp_path, capsys, leib2, entry):
        obj = instance_to_json(leib2, adjoint(leib2))
        obj["module"]["F"][0][1][0][0] = entry
        path = tmp_path / "bad_scalar.json"
        path.write_text(json.dumps(obj))
        return run_captured(capsys, "verify", str(path), "--json")

    def assert_rejected(self, result):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed instance")
        assert err.count("\n") == 1

    def test_zero_denominator(self, tmp_path, capsys, leib2):
        self.assert_rejected(self.verify_with_entry(tmp_path, capsys, leib2, "1/0"))

    def test_json_float(self, tmp_path, capsys, leib2):
        self.assert_rejected(self.verify_with_entry(tmp_path, capsys, leib2, 0.1))

    def test_json_bool(self, tmp_path, capsys, leib2):
        self.assert_rejected(self.verify_with_entry(tmp_path, capsys, leib2, True))

    def test_float_in_structure_constants(self, tmp_path, capsys, leib2):
        obj = instance_to_json(leib2, adjoint(leib2))
        obj["algebra"]["c"][0][1][1][0] = 1.0
        path = tmp_path / "bad_constant.json"
        path.write_text(json.dumps(obj))
        code, _ = run(capsys, "check-algebra", str(path))
        assert code == 2

    def test_integer_and_string_scalars_accepted(self, tmp_path, capsys, leib2):
        obj = instance_to_json(leib2, adjoint(leib2))
        obj["module"]["F"][0][1][0][1] = -1  # same value as "-1"
        path = tmp_path / "int_scalar.json"
        path.write_text(json.dumps(obj))
        code, _ = run(capsys, "verify", str(path))
        assert code == 0


scalar_strings = st.one_of(
    st.fractions(max_denominator=50).map(str),
    st.sampled_from(["0", "-0", "1", "2/4", "+5/10", " 3", "007", "1.5", "1e2"]),
)


class TestScalarMemo:
    """Each distinct scalar string is parsed once per algebra or module."""

    @staticmethod
    def counted_parses(monkeypatch):
        """The strings handed to serialize.scalar_from_str from now on."""
        parsed, parse = [], serialize.scalar_from_str
        monkeypatch.setattr(serialize, "scalar_from_str",
                            lambda s: parsed.append(s) or parse(s))
        return parsed

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda m: st.lists(scalar_strings, min_size=2 * m * m, max_size=2 * m * m)))
    def test_entries_equal_fraction_of_their_string(self, strings):
        m = round((len(strings) // 2) ** 0.5)
        rows = [strings[r * m:(r + 1) * m] for r in range(2 * m)]
        # the strings also fill one constant vector
        obj = {"algebra": {"dim": len(strings), "s": 1, "c": [[[strings]]]},
               "module": {"vdim": m, "F": [[rows[:m]]], "G": [[rows[m:]]]}}
        with pytest.MonkeyPatch.context() as monkeypatch:
            parsed = self.counted_parses(monkeypatch)
            L, M, _ = serialize.instance_from_json(obj)
        entries = [x for op in (M.F[0][0], M.G[0][0]) for row in op.rows for x in row]
        constants = L.c[0][0][0]
        for values in (entries, constants):
            assert list(values) == [F(s) for s in strings]
            assert all(type(x) is F for x in values)
        # each distinct string once for the algebra and once for the module
        assert sorted(parsed) == sorted([*set(strings)] * 2)

    def test_repeated_malformed_scalar_still_raises(self):
        parse = serialize._scalar_parser()
        assert parse("1") == 1 and parse(1) == 1
        for bad in ("1/0", "1/0", True, True, 1.0, 1.0, "x", "x"):
            with pytest.raises(ValueError):
                parse(bad)

    def test_memo_is_per_object(self, monkeypatch, leib2):
        obj = instance_to_json(leib2, adjoint(leib2))
        parsed = self.counted_parses(monkeypatch)
        (L1, M1, _), (L2, M2, _) = (serialize.instance_from_json(obj) for _ in "12")
        assert L1 == L2 and M1 == M2
        # per call, each object's distinct strings once: "0" and "1" in the
        # algebra, "0", "1" and "-1" in the module; no memo outlives a call
        assert sorted(parsed) == sorted(["0", "1", "0", "1", "-1"] * 2)


class TestExponentScalars:
    """A scalar whose numerator or denominator would pass Python's limit on
    integer strings is refused before its power of ten is built."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("entry", [
        "1e5000", "-1e-5000", "0e5000", "0.0e-5000", "1E5000", "1e4300", "1e10000000",
        "-1e-10000000", "0." + "1" * 4300, ".5e-4299",
    ], ids=lambda e: e if len(e) < 20 else f"{e[:6]}...{len(e)}-chars")
    def test_refused(self, entry):
        with pytest.raises(ValueError, match="over 4300 digits"):
            serialize.scalar_from_str(entry)

    @pytest.mark.parametrize("entry", ["1e5000", "-1e-5000"])
    def test_refused_in_one_line(self, tmp_path, capsys, leib2, entry):
        obj = instance_to_json(leib2, adjoint(leib2))
        obj["module"]["F"][0][1][0][0] = entry
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_captured(capsys, "check-module", str(path), "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed instance") and err.count("\n") == 1

    @pytest.mark.parametrize("entry, value", [
        ("1e2", F(100)), ("1.5", F(3, 2)), ("-25e-2", F(-1, 4)), ("1_0e1_0", F(10**11)),
        ("1e4299", F(10**4299)), ("1e-4299", F(1, 10**4299)),
        ("0." + "1" * 4299, F(int("1" * 4299), 10**4299)),
    ], ids=lambda e: e if isinstance(e, F) or len(e) < 20 else f"{e[:6]}...{len(e)}-chars")
    def test_accepted_up_to_the_limit(self, entry, value):
        assert serialize.scalar_from_str(entry) == value

    def test_reads_the_limit_when_parsing(self):
        sys.set_int_max_str_digits(640)
        assert serialize.scalar_from_str("1e639") == 10**639
        with pytest.raises(ValueError, match="over 640 digits"):
            serialize.scalar_from_str("1e640")

    @pytest.mark.parametrize("entry", ["1eabc", "1e", "e5", "1.2.3e1", "1/2e3"])
    def test_other_malformed_strings_keep_their_message(self, entry):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            serialize.scalar_from_str(entry)


class TestMalformedSizes:
    """dim, s and vdim must be non-negative JSON integers."""

    @pytest.mark.parametrize("section, field", [
        ("algebra", "dim"), ("algebra", "s"), ("module", "vdim"),
    ])
    @pytest.mark.parametrize("value", [2.5, True, "2", -1, MAX_SIZE + 1])
    def test_rejected(self, tmp_path, capsys, leib2, section, field, value):
        obj = instance_to_json(leib2, adjoint(leib2))
        obj[section][field] = value
        path = tmp_path / "bad_size.json"
        path.write_text(json.dumps(obj))
        TestMalformedScalars().assert_rejected(
            run_captured(capsys, "verify", str(path), "--json")
        )

    def test_oversized_rejected_before_allocation(self, tmp_path, capsys, monkeypatch):
        # s * dim^2 vectors of length dim would be billions of entries, so
        # the test fails at the first zero vector instead of building them
        def no_allocation(n):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(serialize, "zero_vec", no_allocation)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1000, "s": 3}))
        code, out, err = run_captured(capsys, "check-algebra", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed algebra") and err.count("\n") == 1

    def test_largest_size_accepted(self, tmp_path, capsys):
        path = tmp_path / "largest.json"
        path.write_text(json.dumps({"dim": MAX_SIZE, "s": 1}))
        code, out = run(capsys, "derived", str(path), "--json")
        assert code == 0 and json.loads(out)["dims"] == [MAX_SIZE, 0]


class TestOverlongInput:
    """Entries past the declared shape are malformed, never truncated."""

    def verify(self, tmp_path, capsys, obj):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        return run_captured(capsys, "verify", str(path), "--json")

    def instance(self, leib2):
        return instance_to_json(leib2, adjoint(leib2))

    @pytest.mark.parametrize("where", [
        ("algebra", "c"),
        ("algebra", "c", 0),
        ("algebra", "c", 0, 1),
        ("module", "F"),
        ("module", "F", 0),
        ("module", "G"),
        ("module", "G", 0),
    ], ids=lambda w: "".join(f"[{x}]" for x in w[1:]))
    def test_extra_list_entry(self, tmp_path, capsys, leib2, where):
        obj = self.instance(leib2)
        node = obj
        for key in where:
            node = node[key]
        node.append(node[-1])
        TestMalformedScalars().assert_rejected(self.verify(tmp_path, capsys, obj))

    @pytest.mark.parametrize("key", ["2", "-1", "01", "x"])
    def test_bad_dict_key(self, tmp_path, capsys, leib2, key):
        obj = self.instance(leib2)
        obj["algebra"]["c"][0] = {"1": {"1": ["1", "0"]}, key: None}
        TestMalformedScalars().assert_rejected(self.verify(tmp_path, capsys, obj))

    @pytest.mark.parametrize("key", ["2", "x"])
    def test_bad_operator_key(self, tmp_path, capsys, leib2, key):
        obj = self.instance(leib2)
        obj["module"]["F"][0] = {key: obj["module"]["F"][0][0]}
        TestMalformedScalars().assert_rejected(self.verify(tmp_path, capsys, obj))

    def test_sparse_authoring_still_accepted(self, tmp_path, capsys, leib2):
        dense = self.verify(tmp_path, capsys, self.instance(leib2))
        obj = self.instance(leib2)
        obj["algebra"]["c"] = [{"1": [None, ["1", "0"]]}]  # omitted and null
        module = obj["module"]
        module["F"] = [{"1": module["F"][0][1]}]
        module["G"] = [[None, module["G"][0][1]]]
        assert self.verify(tmp_path, capsys, obj) == dense
        assert dense[0] == 0


class TestStringsForArrays:
    """A JSON string where an array is required is malformed at every
    nesting level, never read character by character."""

    @pytest.mark.parametrize("where", [
        ("algebra", "c"),
        ("algebra", "c", 0),
        ("algebra", "c", 0, 1),
        ("algebra", "c", 0, 1, 1),
        ("module", "F"),
        ("module", "F", 0),
        ("module", "F", 0, 1),
        ("module", "F", 0, 1, 0),
        ("module", "G"),
        ("module", "G", 0),
        ("module", "G", 0, 1),
        ("module", "G", 0, 1, 0),
    ], ids=lambda w: w[1] + "".join(f"[{x}]" for x in w[2:]))
    def test_string_node(self, tmp_path, capsys, leib2, where):
        obj = instance_to_json(leib2, adjoint(leib2))
        node = obj
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "10"  # two characters, as long as a vector
        self.assert_one_line(TestOverlongInput().verify(tmp_path, capsys, obj))

    @pytest.mark.parametrize("where", [
        ("algebra", "c", 0, 1, 1), ("module", "F", 0, 1), ("module", "G", 0, 1, 0)])
    def test_object_for_a_vector_or_matrix(self, tmp_path, capsys, leib2, where):
        obj = instance_to_json(leib2, adjoint(leib2))
        node = obj
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = {"0": "1", "1": "0"}
        self.assert_one_line(TestOverlongInput().verify(tmp_path, capsys, obj))

    def test_strings_in_a_one_dimensional_instance(self, tmp_path, capsys):
        obj = {"algebra": {"dim": 1, "s": 1, "c": "1"},
               "module": {"vdim": 1, "F": "3", "G": [[["3"]]]}}
        self.assert_one_line(TestOverlongInput().verify(tmp_path, capsys, obj))

    @staticmethod
    def assert_one_line(result):
        TestMalformedScalars().assert_rejected(result)
        assert "must be an array" in result[2] and "Traceback" not in result[2]


def _paths(node, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


# what a mutation writes: strings, objects, numbers, booleans and null where
# arrays belong, exponent scalars.  The integers stay at most 3 or past
# MAX_SIZE, since an all-zero instance takes seconds to verify at dim = s =
# vdim = 12 and minutes at 32; small entries keep every spectrum quick.
junk = st.one_of(
    st.sampled_from(["", "x", "10", "1/0", "1e5000", "-1e-5000", "0e99999", "1e2",
                     "5e-1", "1.5", "-2"]),
    st.sampled_from([-1, 0, 1, 2, 3, MAX_SIZE + 1]),
    st.floats(), st.booleans(), st.none(),
    st.dictionaries(st.sampled_from(["0", "1", "5", "-1", "01", "x"]),
                    st.sampled_from(["0", "1", []]), max_size=2),
    st.lists(st.sampled_from(["0", "1", "1e2"]), max_size=4),
)


@st.composite
def mutated_instance_files(draw):
    """The text of a valid instance file (dim, s and vdim at most 3) with
    one to three nodes replaced by junk, lists made overlong or objects
    given keys that are not indices."""
    L, M = draw(valid_instances().filter(lambda inst: inst[1].vdim <= 3))
    obj = json.loads(dumps(instance_to_json(L, M)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else obj
        kind = draw(st.sampled_from(["replace", "overlong", "bad-key"]))
        if kind == "overlong" and isinstance(node, list):
            node.extend((node[:1] or ["0"]) * draw(st.integers(1, 3)))
        elif kind == "bad-key" and isinstance(node, dict):
            node[draw(st.sampled_from(["x", "5", "-1", "01", "metadata"]))] = draw(junk)
        elif path:
            parent[path[-1]] = draw(junk)
        else:
            obj = draw(junk)
    return json.dumps(obj)


class TestFuzzedFiles:
    """Every command on a mutated instance file exits 0, 1 or 2, never with
    a traceback; exit 2 is one stderr line, except where `verify` reports a
    spectrum that leaves the rationals as its failing solve or oracle check."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_instance_files(), st.booleans())
    def test_exit_codes_and_one_line_errors(self, tmp_path, capsys, text, as_json):
        path = tmp_path / "fuzzed.json"
        path.write_text(text, encoding="utf-8")
        for command in ("check-algebra", "check-module", "derived", "annihilator",
                        "adjoint", "solve", "oracle", "verify"):
            flag = ["--json"] if as_json and command != "adjoint" else []
            code, out, err = run_captured(capsys, command, str(path), *flag)
            assert code in (0, 1, 2), command
            if err:
                assert (out, err.count("\n")) == ("", 1) and err.startswith("error: ")
            elif code == 2:
                failing = ([name for name, info in json.loads(out)["checks"].items()
                            if "error" in info] if as_json else
                           [line for line in out.splitlines() if line.endswith("FAILED")])
                assert command == "verify" and failing in (
                    ["solve"], ["oracle"], ["solve: FAILED", "verdict: FAILED"],
                    ["oracle: FAILED", "verdict: FAILED"]), (command, out)


class TestParserReuse:
    def test_no_state_leaks_between_calls(self, tmp_path, capsys, leib2):
        path = write_instance(tmp_path, leib2, adjoint(leib2))
        code, out = run(capsys, "verify", "--json", path)
        assert code == 0 and json.loads(out)["ok"] is True
        code, out = run(capsys, "verify", path)
        assert code == 0
        assert out.splitlines()[0] == "algebra-axioms: ok"
        assert out.splitlines()[-1] == "verdict: ok"

    def test_call_leaves_no_cyclic_garbage(self, tmp_path, capsys, leib2):
        path = write_instance(tmp_path, leib2, adjoint(leib2))
        run(capsys, "verify", "--json", path)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code, _ = run(capsys, "verify", "--json", path)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert code == 0
        assert garbage == []


class TestDeterminism:
    def test_generate_is_byte_identical(self, tmp_path, capsys):
        files = []
        for name in ("a.json", "b.json"):
            out_file = str(tmp_path / name)
            code, _ = run(
                capsys,
                "generate",
                "--construction",
                "basis-changed",
                "--dim",
                "4",
                "--s",
                "2",
                "--seed",
                "11",
                "-o",
                out_file,
            )
            assert code == 0
            files.append(out_file)
        a, b = (open(f, "rb").read() for f in files)
        assert a == b

    def test_solve_output_is_byte_identical(self, tmp_path, capsys, nt3):
        path = write_instance(tmp_path, nt3, adjoint(nt3))
        outs = {run(capsys, "solve", path, "--json")[1] for _ in range(3)}
        assert len(outs) == 1
