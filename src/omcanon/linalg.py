"""Dense exact linear algebra.

Everything except `left_inverse` works over `fractions.Fraction`;
`left_inverse` takes an int matrix and stays in int by fraction-free
(Bareiss) elimination.  Pivoting is deterministic: columns are scanned left
to right and the first row with a nonzero entry wins.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vector = list
Matrix = list  # list of rows, each a list of Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = ONE
    return mat


def mat_vec(mat: Matrix, vec: Vector) -> Vector:
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in mat]


def columns_matrix(cols: list[Vector]) -> Matrix:
    """Assemble a matrix whose columns are the given vectors."""
    if not cols:
        return []
    nrows = len(cols[0])
    return [[col[i] for col in cols] for i in range(nrows)]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R = [list(row) for row in mat]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        src = next((i for i in range(prow, nrows) if R[i][col] != 0), None)
        if src is None:
            continue
        R[prow], R[src] = R[src], R[prow]
        inv = ONE / R[prow][col]
        R[prow] = [x * inv for x in R[prow]]
        for i in range(nrows):
            if i != prow and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[prow])]
        pivots.append(col)
        prow += 1
    return R, pivots


def rank(mat: Matrix) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    A = [list(row) for row in mat]
    result = ONE
    for col in range(n):
        src = next((i for i in range(col, n) if A[i][col] != 0), None)
        if src is None:
            return ZERO
        if src != col:
            A[col], A[src] = A[src], A[col]
            result = -result
        result *= A[col][col]
        inv = ONE / A[col][col]
        for i in range(col + 1, n):
            if A[i][col] != 0:
                f = A[i][col] * inv
                A[i] = [a - f * b for a, b in zip(A[i], A[col])]
    return result


def solve(mat: Matrix, target: Vector) -> Vector | None:
    """A particular solution of mat * x = target (free variables 0), or None."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    aug = [list(row) + [target[i]] for i, row in enumerate(mat)]
    R, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent
    x = [ZERO] * ncols
    for prow, col in enumerate(pivots):
        x[col] = R[prow][ncols]
    return x


def nullspace(mat: Matrix) -> list[Vector]:
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    R, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for prow, col in enumerate(pivots):
            v[col] = -R[prow][f]
        basis.append(v)
    return basis


def left_inverse(mat: Matrix) -> tuple[Matrix, int] | None:
    """(L, d) with L * mat = d * I and d > 0 for an int matrix of full column
    rank, reduced so that gcd(L, d) = 1; None if the column rank is not full.

    Fraction-free Gauss-Jordan elimination of [mat | I] (Bareiss 1968): each
    step replaces row i by (p * row_i - m_i * row_k) / p_prev, which divides
    exactly.  It stops after the last column of mat, so the identity block
    is carried along but never pivoted on.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    aug = [list(row) + [1 if j == i else 0 for j in range(nrows)]
           for i, row in enumerate(mat)]
    prev = 1
    for col in range(ncols):
        src = next((i for i in range(col, nrows) if aug[i][col] != 0), None)
        if src is None:
            return None
        aug[col], aug[src] = aug[src], aug[col]
        pivot_row = aug[col]
        piv = pivot_row[col]
        for i in range(nrows):
            if i == col:
                continue
            row = aug[i]
            f = row[col]
            if f:
                aug[i] = [(piv * a - f * b) // prev
                          for a, b in zip(row, pivot_row)]
            elif piv != prev:
                aug[i] = [piv * a // prev for a in row]
        prev = piv
    left = [row[ncols:] for row in aug[:ncols]]
    denom = prev
    g = gcd(denom, *(x for row in left for x in row))
    if denom < 0:
        g = -g
    return [[x // g for x in row] for row in left], denom // g


def greedy_independent(vectors: list[Vector]) -> list[int]:
    """Indices of a maximal linearly independent subset, earliest-first."""
    reducers: list[Vector] = []  # rows with normalized leading pivots
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, vec in enumerate(vectors):
        v = list(vec)
        for row, p in zip(reducers, pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((j for j, a in enumerate(v) if a != 0), None)
        if lead is None:
            continue
        inv = ONE / v[lead]
        reducers.append([a * inv for a in v])
        pivots.append(lead)
        chosen.append(idx)
    return chosen
