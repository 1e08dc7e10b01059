import hashlib
import io
import json
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import (
    CONSTRUCTIONS,
    GeneratorSpec,
    Matrix,
    Subspace,
    adjoint,
    check_algebra,
    check_module,
    generate,
    is_solvable,
    is_trivial,
    run_verify,
)
from lielike import cli
from lielike.algebra import in_basis
from lielike.generate import _graded_nilpotent, random_unimodular
from lielike.serialize import (
    MAX_SIZE,
    dumps,
    instance_from_json,
    instance_to_json,
)
from strategies import transform_instance


class TestGeneratorSpec:
    def test_rejects_unknown_construction(self):
        with pytest.raises(ValueError):
            GeneratorSpec("moebius", 2, 1, 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GeneratorSpec("abelian", -1, 1, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("abelian", 2, 0, 0)

    def test_rejects_sizes_that_files_cannot_hold(self):
        # only the specs are built: nothing is generated at these sizes
        for construction in CONSTRUCTIONS:
            with pytest.raises(ValueError):
                GeneratorSpec(construction, MAX_SIZE + 1, 1, 0)
            with pytest.raises(ValueError):
                GeneratorSpec(construction, 1, MAX_SIZE + 1, 0)
        # direct-sum writes vdim = 2 * dim
        with pytest.raises(ValueError):
            GeneratorSpec("direct-sum", MAX_SIZE // 2 + 1, 1, 0)
        GeneratorSpec("direct-sum", MAX_SIZE // 2, MAX_SIZE, 0)
        GeneratorSpec("basis-changed", MAX_SIZE, MAX_SIZE, 0)


class TestConstructions:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_always_valid_and_solvable(self, construction):
        for dim in (1, 3, 4):
            for s in (1, 2):
                inst = generate(GeneratorSpec(construction, dim, s, seed=7))
                assert check_algebra(inst.algebra) == []
                assert is_solvable(inst.algebra)[0]
                assert check_module(inst.module) == []

    def test_abelian_is_zero(self):
        inst = generate(GeneratorSpec("abelian", 3, 2, 0))
        assert all(
            all(all(x == 0 for x in v) for v in row)
            for ck in inst.algebra.c
            for row in ck
        )
        assert is_solvable(inst.algebra) == (True, 2)

    def test_scaled_bundle_is_trivial(self):
        inst = generate(GeneratorSpec("scaled-leibniz-bundle", 4, 3, 2))
        ok, _ = is_trivial(inst.algebra)
        assert ok

    def test_graded_nilpotent_shape(self):
        inst = generate(GeneratorSpec("graded-nilpotent", 3, 2, 1, 1))
        n1 = 2  # upper grade occupies the first (n+1)//2 coordinates
        for ck in inst.algebra.c:
            for i, row in enumerate(ck):
                for j, v in enumerate(row):
                    if i < n1 or j < n1:
                        assert all(x == 0 for x in v)
                    else:
                        assert all(x == 0 for x in v[n1:])

    def test_direct_sum_doubles_the_space(self):
        inst = generate(GeneratorSpec("direct-sum", 3, 2, 0))
        assert inst.module.vdim == 6

    def test_basis_change_hides_the_grading(self):
        inst = generate(GeneratorSpec("basis-changed", 4, 2, 5))
        assert inst.module.vdim == 4
        assert check_module(inst.module) == []

    def test_metadata_records_the_spec(self):
        inst = generate(GeneratorSpec("abelian", 2, 1, 9))
        assert inst.metadata["construction"] == "abelian"
        assert inst.metadata["seed"] == 9


class TestBasisChangeIsNatural:
    """basis-changed rewrites only the algebra in the new basis and takes
    its adjoint.  The adjoint is defined by the brackets alone, so this must
    equal the old algebra's adjoint rewritten with it: reindexed to the new
    basis and conjugated by P.  The rewrite in the identity basis is the
    identity."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 3), st.integers(), st.integers(1, 3))
    def test_equals_the_conjugated_adjoint(self, n, s, seed, bound):
        inst = generate(GeneratorSpec("basis-changed", n, s, seed, bound))
        # generate's draws, in its order
        rng = random.Random(f"basis-changed|{n}|{s}|{seed}|{bound}")
        L0 = _graded_nilpotent(rng, n, s, bound)
        L, M = transform_instance(L0, adjoint(L0), random_unimodular(rng, n, bound))
        assert inst.algebra == L and inst.module == M
        assert dumps(instance_to_json(L, M, inst.metadata)) == dumps(
            instance_to_json(inst.algebra, inst.module, inst.metadata))
        assert in_basis(L, Subspace.full(n).basis, Matrix.identity(n).apply) == L


class TestDeterminism:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_byte_identical_json(self, construction):
        spec = GeneratorSpec(construction, 4, 2, 3)
        payloads = {
            dumps(
                instance_to_json(
                    inst.algebra, inst.module, inst.metadata
                )
            )
            for inst in (generate(spec), generate(spec), generate(spec))
        }
        assert len(payloads) == 1

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("graded-nilpotent", 4, 2, 0))
        b = generate(GeneratorSpec("graded-nilpotent", 4, 2, 1))
        assert a.algebra != b.algebra


class TestRoundTrip:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_serialize_roundtrip(self, construction):
        inst = generate(GeneratorSpec(construction, 3, 2, 4))
        obj = instance_to_json(inst.algebra, inst.module, inst.metadata)
        L, M, meta = instance_from_json(obj)
        assert L == inst.algebra
        assert M == inst.module
        assert meta == inst.metadata


class TestCanonicalFixedPoint:
    """Canonical JSON text is a fixed point of parsing and dumping."""

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16))
    def test_instance_and_solve_output(self, tmp_path_factory, construction, n, s, seed):
        inst = generate(GeneratorSpec(construction, n, s, seed))
        text = dumps(instance_to_json(inst.algebra, inst.module, inst.metadata))
        L, M, meta = instance_from_json(json.loads(text))
        assert dumps(instance_to_json(L, M, meta)) == text
        path = tmp_path_factory.mktemp("fixed-point") / "instance.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["solve", "--json", str(path)]) == 0
        assert dumps(json.loads(out.getvalue())) == out.getvalue()


# sha256 of the canonical instance JSON and of the canonical verify report
GOLDEN = [
    ("abelian", 3, 2, 0,
     "072e3bd05a5672b235917512a1a58749d4ec411ca015e75c3154faf3e4a8995b",
     "a60856498ab81a5142def758a343c23dc3b915485d397567cc1f7f1b785fe19b"),
    ("scaled-leibniz-bundle", 3, 2, 0,
     "f7f2b90548f1d14e26a4802a14b4ffebe9721cb8396b50191180b1ad97e58fad",
     "63f4db477656e73f4c3276febe4ef80d200a0a7c7578527e35b77fc112e09dea"),
    ("graded-nilpotent", 3, 2, 0,
     "bb6d843533d98fc7b8cae4fb42bdc6fba0a7925369a79b800f180a9dece9fdc9",
     "dc9f67d904eb3c93db799e218c584d6cfcec9fcdbe929db7d03369cf8ccc7795"),
    ("direct-sum", 3, 2, 0,
     "dceaea1f29305d227fd424c1ab8db35b76e53f043c0a0d57e5b0882c8249a0c4",
     "ff77220a81c290817b004e8b7a15b03e24958299e50825c50d86d97bfee5839b"),
    ("basis-changed", 3, 2, 0,
     "226ad1c92f88017e00e28fe57e669707d0b9a0c3e1c03a2bc67f1ebd5499df8c",
     "dc9f67d904eb3c93db799e218c584d6cfcec9fcdbe929db7d03369cf8ccc7795"),
    ("basis-changed", 4, 3, 1,
     "fbff3482c53c118838764417e69925e9c46e10500a20d8bec4a340de1c5d5131",
     "819b522e06b6a442966f5b14fd27f9f2981328e3fdd74184c736b8b6ea6bd457"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGolden:
    """Byte-identity of generated instances and of their verify reports."""

    def test_every_construction_pinned(self):
        assert {row[0] for row in GOLDEN} == set(CONSTRUCTIONS)

    @pytest.mark.parametrize(
        "construction, dim, s, seed, instance_hash, report_hash", GOLDEN
    )
    def test_pinned_hashes(
        self, construction, dim, s, seed, instance_hash, report_hash
    ):
        inst = generate(GeneratorSpec(construction, dim, s, seed))
        obj = instance_to_json(inst.algebra, inst.module, inst.metadata)
        assert sha256(dumps(obj)) == instance_hash
        report, code = run_verify(inst.algebra, inst.module)
        assert code == 0
        assert sha256(dumps(report)) == report_hash
