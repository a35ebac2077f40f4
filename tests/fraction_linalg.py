"""Reference elimination over `fractions.Fraction`.

These are the library's earlier `rref`, `det` and `greedy_independent`, each
its own Gauss elimination over `Fraction`, kept as the oracle that the
fraction-free kernel in `omcanon.linalg` is compared against, and as the
solver of the reference residue recursion in test_forms.py.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(mat: list) -> tuple[list, list]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R = [list(row) for row in mat]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots: list = []
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


def det(mat: list) -> Fraction:
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


def solve(mat: list, target: list) -> list | None:
    """A particular solution of mat * x = target (free variables 0), or None."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    R, pivots = rref([list(row) + [target[i]] for i, row in enumerate(mat)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for prow, col in enumerate(pivots):
        x[col] = R[prow][ncols]
    return x


def greedy_independent(vectors: list) -> list:
    """Indices of a maximal linearly independent subset, earliest-first."""
    reducers: list = []  # rows with normalized leading pivots
    pivots: list = []
    chosen: list = []
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
