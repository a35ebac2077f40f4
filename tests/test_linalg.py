import random
from fractions import Fraction
from math import gcd

import pytest

from omcanon import linalg

import fraction_linalg as oracle

F = Fraction


def test_rref_rank():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert len(linalg.greedy_independent([list(c) for c in zip(*mat)])) == 2
    R, pivots = linalg.rref(mat)
    assert pivots == [0, 1]
    assert R[0][:2] == [F(1), F(0)]


def test_det():
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_solve_identity_and_inconsistent():
    eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
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
        full = len(oracle.rref(mat)[1]) == len(mat[0])
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


def _random_matrix(rng, kind):
    """A seeded matrix of the given kind; entries are int or Fraction."""
    nrows, ncols = {"int": (4, 5), "fraction": (5, 4), "deficient": (5, 5),
                    "zero_rows": (5, 4), "empty": (0, 0), "row": (1, 6),
                    "column": (6, 1), "huge": (4, 4)}[kind]
    bound = 10 ** 30 if kind == "huge" else 4

    def entry():
        x = rng.randint(-bound, bound)
        if kind == "fraction":
            return F(x, rng.randint(1, 5))
        return F(x, rng.randint(1, 10 ** 6)) if kind == "huge" else x

    mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient":  # rank 3: the last two rows combine the others
        mat[3] = [a - 2 * b for a, b in zip(mat[0], mat[1])]
        mat[4] = [F(a, 3) + c for a, c in zip(mat[1], mat[2])]
    if kind == "zero_rows":
        for i in rng.sample(range(nrows), 2):
            mat[i] = [0] * ncols
    return mat


@pytest.mark.parametrize("kind", ["int", "fraction", "deficient", "zero_rows",
                                  "empty", "row", "column", "huge"])
def test_kernel_matches_fraction_oracle(kind):
    """rref, det, solve, nullspace and greedy_independent agree with
    the separate Fraction eliminations they replace."""
    rng = random.Random(f"oracle-{kind}")
    for _ in range(60):
        mat = _random_matrix(rng, kind)
        ncols = len(mat[0]) if mat else 0
        R, pivots = oracle.rref(mat)
        assert linalg.rref(mat) == (R, pivots)
        cols = [list(col) for col in zip(*mat)]
        assert len(linalg.greedy_independent(cols)) == len(pivots)
        rows = [list(row) for row in mat]
        assert linalg.greedy_independent(cols) == oracle.greedy_independent(cols)
        assert linalg.greedy_independent(rows) == oracle.greedy_independent(rows)
        n = min(len(mat), ncols)
        square = [row[:n] for row in mat[:n]]
        assert linalg.det(square) == oracle.det(square)
        kernel = linalg.nullspace(mat)
        assert len(kernel) == ncols - len(pivots)
        assert all(linalg.mat_vec(mat, v) == [0] * len(mat) for v in kernel)
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        consistent = linalg.mat_vec(mat, x)
        assert linalg.solve(mat, consistent) == oracle.solve(mat, consistent)
        if mat:
            off = list(consistent)
            off[rng.randrange(len(off))] += 1
            assert linalg.solve(mat, off) == oracle.solve(mat, off)


def test_solve_checks_its_answer(monkeypatch):
    """A wrong elimination result is caught by substitution, not returned."""
    mat = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.solve(mat, [F(1), F(2)]) == [F(1), F(0)]
    assert linalg.solve([], []) == []
    monkeypatch.setattr(linalg, "rref",
                        lambda aug: ([[F(1), F(2), F(7)], [F(0)] * 3], [0]))
    assert linalg.solve(mat, [F(1), F(2)]) is None
