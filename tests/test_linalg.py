import random
from fractions import Fraction
from math import gcd

import pytest

from omcanon import linalg

F = Fraction


def test_rref_rank():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(mat) == 2
    R, pivots = linalg.rref(mat)
    assert pivots == [0, 1]
    assert R[0][:2] == [F(1), F(0)]


def test_det():
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_solve_identity_and_inconsistent():
    eye = linalg.identity(3)
    target = [F(3), F(-1, 2), F(7)]
    assert linalg.solve(eye, target) == target
    mat = [[F(1), F(1)], [F(1), F(1)]]
    assert linalg.solve(mat, [F(0), F(1)]) is None


def test_solve_underdetermined_particular():
    mat = [[F(1), F(1)]]
    sol = linalg.solve(mat, [F(5)])
    assert sol is not None and linalg.mat_vec(mat, sol) == [F(5)]


def test_nullspace():
    mat = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    basis = linalg.nullspace(mat)
    assert len(basis) == 1
    assert linalg.mat_vec(mat, basis[0]) == [F(0), F(0)]


def _is_scaled_left_inverse(left, denom, mat) -> bool:
    ncols = len(mat[0])
    return [[sum(x * row[j] for x, row in zip(lrow, mat)) for j in range(ncols)]
            for lrow in left] == [[denom if i == j else 0 for j in range(ncols)]
                                  for i in range(ncols)]


def test_left_inverse():
    mat = [[1, 0], [1, 1], [0, 2]]
    left, denom = linalg.left_inverse(mat)
    assert denom > 0 and _is_scaled_left_inverse(left, denom, mat)
    assert linalg.left_inverse([[1, 2], [2, 4]]) is None
    assert linalg.left_inverse([[2, 0], [0, 4]]) == ([[2, 0], [0, 1]], 4)


def _random_int_matrix(rng, kind):
    nrows, ncols = {"tall": (7, 3), "square": (4, 4), "zero_rows": (6, 3),
                    "deficient": (6, 4), "large": (5, 3)}[kind]
    bound = 10 ** 30 if kind == "large" else 6
    mat = [[rng.randint(-bound, bound) for _ in range(ncols)]
           for _ in range(nrows)]
    if kind == "zero_rows":
        for i in rng.sample(range(nrows), 3):
            mat[i] = [0] * ncols
    if kind == "deficient":  # last column a combination of the others
        for row in mat:
            row[-1] = 2 * row[0] - 3 * row[1]
    return mat


@pytest.mark.parametrize("kind", ["tall", "square", "zero_rows", "deficient",
                                  "large"])
def test_left_inverse_contract(kind):
    """Full column rank gives a gcd-reduced (L, d) with L * mat = d * I and
    d > 0; anything else gives None."""
    rng = random.Random(kind)
    for _ in range(40):
        mat = _random_int_matrix(rng, kind)
        full = linalg.rank([[F(x) for x in row] for row in mat]) == len(mat[0])
        result = linalg.left_inverse(mat)
        if not full:
            assert result is None
            continue
        left, denom = result
        assert denom > 0
        assert gcd(denom, *(x for row in left for x in row)) == 1
        assert _is_scaled_left_inverse(left, denom, mat)
        assert all(type(x) is int for row in left for x in row)


def test_greedy_independent_prefers_earlier():
    vecs = [[F(1), F(0)], [F(2), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert linalg.greedy_independent(vecs) == [0, 2]
