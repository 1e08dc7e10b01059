"""JSON wire formats.

Scalars serialize as "p/q" (or "p" when q = 1); matrices as row-major
nested arrays of such strings.  Algebra and module objects accept sparse
authoring: omitted structure-constant vectors and omitted operator
matrices default to zero.  Serialization is canonical (sorted keys, fixed
separators) so equal values produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any, Mapping

from .algebra import LieLikeAlgebra
from .linalg import Matrix, Vector, vec, zero_vec
from .modules import OrdinaryModule
from .solver import SolveResult, Weight


def scalar_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_str(s) -> Fraction:
    """Parse a JSON scalar: a string "p/q" or an integer.

    JSON floats and booleans are refused, so no binary fraction can enter;
    a zero denominator is a malformed scalar, not an arithmetic error.  A
    decimal or exponent string whose numerator or denominator would have
    more digits than Python allows in an integer string
    (sys.get_int_max_str_digits()) is refused before Fraction builds its
    power of ten, which for "1e10000000" alone takes seconds.
    """
    if type(s) not in (str, int):
        raise ValueError(f"scalar must be a string or an integer, not {s!r}")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if type(s) is str and limit and _fraction_digits(s) > limit:
        raise ValueError(f"scalar numerator or denominator over {limit} digits")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def _fraction_digits(s: str) -> int:
    """Digits of the larger of the numerator and denominator that Fraction
    builds from the decimal or exponent string s before it reduces them,
    read off the string; 0 when s has neither a decimal point nor an
    integer exponent (then Fraction decides alone)."""
    mantissa, e, exp = s.lower().partition("e")
    whole, point, frac = mantissa.strip().lstrip("+-").partition(".")
    if not (e or point):
        return 0
    try:
        shift = int(exp or 0)
    except ValueError:
        return 0
    frac = frac.replace("_", "")
    digits = len((whole.replace("_", "") + frac).lstrip("0")) or 1
    return max(digits + max(shift, 0), 1 + len(frac) + max(-shift, 0))


def _scalar_parser():
    """scalar_from_str for one algebra or module object: each distinct
    string is parsed once, and equal strings share one Fraction.  Only
    strings are memoized: as dict keys True and 1.0 equal 1, and both
    must still be refused."""
    memo: dict[str, Fraction] = {}

    def parse(s) -> Fraction:
        if type(s) is not str:
            return scalar_from_str(s)
        x = memo.get(s)
        if x is None:
            x = memo[s] = scalar_from_str(s)
        return x

    return parse


def vector_to_json(v: Vector) -> list[str]:
    return [scalar_to_str(x) for x in v]


def _array(obj, what: str):
    """obj, which must be a JSON array: a string or an object is refused
    rather than read entry by entry."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"{what} must be an array, not {type(obj).__name__}")
    return obj


def vector_from_json(obj, length: int, parse) -> Vector:
    v = vec(parse(x) for x in _array(obj, "a vector"))
    if len(v) != length:
        raise ValueError(f"expected a vector of length {length}")
    return v


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in m.rows]


def matrix_from_json(obj, nrows: int, ncols: int, parse) -> Matrix:
    m = Matrix([parse(x) for x in _array(row, "a matrix row")]
               for row in _array(obj, "a matrix"))
    if (m.nrows, m.ncols) != (nrows, ncols):
        raise ValueError(f"expected a {nrows}x{ncols} matrix")
    return m


# Largest accepted dim, s or vdim.  Parsing allocates s*dim^2 vectors and
# s*dim vdim x vdim matrices, so sizes are bounded before anything is built.
MAX_SIZE = 32


def _size(obj: Mapping, key: str) -> int:
    """A declared size: a JSON integer from 0 to MAX_SIZE (booleans refused)."""
    x = obj[key]
    if type(x) is not int or not 0 <= x <= MAX_SIZE:
        raise ValueError(f"{key!r} must be an integer from 0 to {MAX_SIZE}, not {x!r}")
    return x


def _sparse_entries(node, length: int, where: str) -> list:
    """The `length` entries of an array or index-keyed object, None where
    omitted.

    A list longer than `length`, or a key that is not an index below
    `length`, is malformed rather than silently ignored.
    """
    if node is None:
        return [None] * length
    if isinstance(node, Mapping):
        index = {str(i): i for i in range(length)}
        out = [None] * length
        for key, entry in node.items():
            i = index.get(str(key))
            if i is None:
                raise ValueError(f"{where} has key {key!r}, not an index below {length}")
            out[i] = entry
        return out
    if not isinstance(node, (list, tuple)):
        raise ValueError(f"{where} must be an array or an index-keyed object")
    if len(node) > length:
        raise ValueError(f"{where} has {len(node)} entries, expected at most {length}")
    return list(node) + [None] * (length - len(node))


def algebra_to_json(L: LieLikeAlgebra) -> dict:
    return {
        "dim": L.dim,
        "s": L.s,
        "c": [
            [[vector_to_json(v) for v in row] for row in tk] for tk in L.c
        ],
    }


def algebra_from_json(obj: Mapping) -> LieLikeAlgebra:
    n = _size(obj, "dim")
    s = _size(obj, "s")
    parse = _scalar_parser()
    rows = []
    for k, knode in enumerate(_sparse_entries(obj.get("c"), s, "c")):
        for i, inode in enumerate(_sparse_entries(knode, n, f"c[{k}]")):
            rows += (zero_vec(n) if entry is None else vector_from_json(entry, n, parse)
                     for entry in _sparse_entries(inode, n, f"c[{k}][{i}]"))
    return LieLikeAlgebra(n, s, Matrix(rows))


def module_to_json(M: OrdinaryModule) -> dict:
    return {
        "vdim": M.vdim,
        "F": [[matrix_to_json(op) for op in fk] for fk in M.F],
        "G": [[matrix_to_json(op) for op in gk] for gk in M.G],
    }


def module_from_json(obj: Mapping, algebra: LieLikeAlgebra) -> OrdinaryModule:
    m = _size(obj, "vdim")
    parse = _scalar_parser()

    def family(name):
        fam = []
        for k, knode in enumerate(_sparse_entries(obj.get(name), algebra.s, name)):
            fam.append(tuple(
                Matrix.zeros(m, m) if entry is None
                else matrix_from_json(entry, m, m, parse)
                for entry in _sparse_entries(knode, algebra.dim, f"{name}[{k}]")
            ))
        return tuple(fam)

    return OrdinaryModule(algebra, m, family("F"), family("G"))


def instance_to_json(
    L: LieLikeAlgebra, M: OrdinaryModule, metadata: Mapping | None = None
) -> dict:
    out: dict[str, Any] = {
        "algebra": algebra_to_json(L),
        "module": module_to_json(M),
    }
    if metadata:
        out["metadata"] = dict(metadata)
    return out


def instance_from_json(obj: Mapping) -> tuple[LieLikeAlgebra, OrdinaryModule, dict]:
    L = algebra_from_json(obj["algebra"])
    M = module_from_json(obj["module"], L)
    return L, M, dict(obj.get("metadata", {}))


def weight_to_json(w: Weight) -> dict:
    return {
        "phi": [vector_to_json(row) for row in w.phi],
        "psi": [vector_to_json(row) for row in w.psi],
    }


def result_to_json(r: SolveResult) -> dict:
    return {
        "v": vector_to_json(r.v),
        **weight_to_json(r.weight),
        "dichotomy": r.dichotomy,
        "branch_trace": list(r.branch_trace),
    }


def dumps(obj) -> str:
    """Canonical JSON text: stable byte-for-byte for equal values."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
