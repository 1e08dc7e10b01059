import pytest

from lielike import LieLikeAlgebra, Matrix


@pytest.fixture(scope="session")
def leib2():
    """Dim-2 Leibniz algebra: <e2,e2> = e1, all other brackets zero."""
    return LieLikeAlgebra.from_constants(2, 1, {(0, 1, 1): [1, 0]})


@pytest.fixture(scope="session")
def bundle2(leib2):
    """Leib2 doubled with c[1] = 2 c[0]: a trivial bundle."""
    c0 = leib2.constants.rows  # the rows of c[1] follow those of c[0]
    return LieLikeAlgebra(2, 2, Matrix([*c0, *([2 * x for x in v] for v in c0)]))


@pytest.fixture(scope="session")
def nt3():
    """Non-trivial dim-3 bundle: <e3,e3>_0 = e1, <e3,e3>_1 = e2."""
    return LieLikeAlgebra.from_constants(
        3, 2, {(0, 2, 2): [1, 0, 0], (1, 2, 2): [0, 1, 0]}
    )


@pytest.fixture(scope="session")
def aff2():
    """Non-nilpotent solvable Lie algebra: <e2,e1> = e1 = -<e1,e2>."""
    return LieLikeAlgebra.from_constants(
        2, 1, {(0, 1, 0): [1, 0], (0, 0, 1): [-1, 0]}
    )


@pytest.fixture(scope="session")
def right1():
    """Dim-2 Leibniz algebra with a right action: <e1,e2> = e1."""
    return LieLikeAlgebra.from_constants(2, 1, {(0, 0, 1): [1, 0]})


SL2_BRACKETS = {
    (0, 0, 1): [0, 0, 1],
    (0, 1, 0): [0, 0, -1],
    (0, 2, 0): [2, 0, 0],
    (0, 0, 2): [-2, 0, 0],
    (0, 2, 1): [0, -2, 0],
    (0, 1, 2): [0, 2, 0],
}


@pytest.fixture(scope="session")
def sl2():
    """sl_2 in the basis (e, f, h): D^2 L = L, so it is not solvable."""
    return LieLikeAlgebra.from_constants(3, 1, SL2_BRACKETS)


@pytest.fixture(scope="session")
def sl2_plus_line():
    """sl_2 + a central line e_3: D^2 L = sl_2 has codimension 1, so the
    first split succeeds and the one below it is blocked."""
    return LieLikeAlgebra.from_constants(
        4, 1, {(k, i, j): v + [0] for (k, i, j), v in SL2_BRACKETS.items()}
    )
