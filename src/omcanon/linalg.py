"""Exact linear algebra on one fraction-free elimination kernel.

Every routine is a view of `_eliminate`: Gauss-Jordan elimination over
Python ints in which each update (p * row_i - m_i * row_k) // p_prev divides
exactly (Bareiss 1968).  Rational input enters through `_int_rows`, which
clears each row's denominators, and `Fraction` appears again only in the
results of `rref`, `det`, `solve` and `nullspace`.  Pivoting is
deterministic: columns are scanned left to right and the first row with a
nonzero entry wins.  No floating point anywhere.  Columns may be sparse
{key: entry} dicts, such as an element's terms: `columns_matrix` is the
one place that lays such columns out as rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list
Matrix = list  # list of rows, each a list of int or Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(x) -> Fraction:
    """x as a Fraction: an int, a Fraction or a numeric string.  A float is
    refused, as it is not exact: Fraction(0.1) keeps its binary expansion."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an exact number")
    return Fraction(x)


def mat_vec(mat: Matrix, vec: Vector) -> Vector:
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in mat]


def columns_matrix(columns: list[dict], keys) -> Matrix:
    """The matrix with one column per {key: entry} dict and one row per key
    of keys, in order; a key that a column lacks reads 0 there."""
    return [[col.get(k, 0) for col in columns] for k in keys]


def _int_rows(mat: Matrix) -> tuple[list[list[int]], int]:
    """The rows of an int or Fraction matrix, each scaled by the lcm of its
    entries' denominators, and the product of those multipliers."""
    rows = []
    scale = 1
    for row in mat:
        m = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    return rows, scale


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of int rows, in place, on the
    first ncols columns; later columns are carried along but never pivoted on.

    Returns (pivot columns, final pivot d, sign of the row swaps).  Afterwards
    the first len(pivots) rows divided by d are the reduced row echelon form
    and the remaining rows are zero in the first ncols columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        k = len(pivots)
        src = next((i for i in range(k, nrows) if rows[i][col]), None)
        if src is None:
            continue
        if src != k:
            rows[k], rows[src] = rows[src], rows[k]
            sign = -sign
        pivot_row = rows[k]
        piv = pivot_row[col]
        for i in range(nrows):
            if i == k:
                continue
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(piv * a - f * b) // prev
                           for a, b in zip(row, pivot_row)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
        prev = piv
        pivots.append(col)
    return pivots, prev, sign


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    rows, _ = _int_rows(mat)
    pivots, d, _ = _eliminate(rows, len(rows[0]) if rows else 0)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def det(mat: Matrix) -> Fraction:
    n = len(mat)
    rows, scale = _int_rows(mat)
    pivots, d, sign = _eliminate(rows, n)
    if len(pivots) < n:
        return ZERO
    return Fraction(sign * d, scale)


def solve(mat: Matrix, target: Vector) -> Vector | None:
    """A particular solution of mat * x = target (free variables 0), or None.

    The solution is checked by substitution before it is returned.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    aug = [list(row) + [target[i]] for i, row in enumerate(mat)]
    R, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent
    x = [ZERO] * ncols
    for prow, col in enumerate(pivots):
        x[col] = R[prow][ncols]
    return x if mat_vec(mat, x) == target else None


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

    `_eliminate` runs on [mat | I] and stops after the last column of mat, so
    the identity block is carried along but never pivoted on.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    aug = [list(row) + [1 if j == i else 0 for j in range(nrows)]
           for i, row in enumerate(mat)]
    pivots, denom, _ = _eliminate(aug, ncols)
    if len(pivots) < ncols:
        return None
    left = [row[ncols:] for row in aug[:ncols]]
    g = gcd(denom, *(x for row in left for x in row))
    if denom < 0:
        g = -g
    return [[x // g for x in row] for row in left], denom // g


def greedy_independent(vectors: list) -> list[int]:
    """Indices of a maximal linearly independent subset, earliest-first:
    the pivot columns of the matrix with the vectors as columns, each a
    {key: entry} dict or a list, read as dict(enumerate(v)).  Its rows are
    the keys the vectors hold, as pivots ignore zero rows and row order."""
    cols = [v if isinstance(v, dict) else dict(enumerate(v)) for v in vectors]
    keys = dict.fromkeys(k for col in cols for k in col)
    rows, _ = _int_rows(columns_matrix(cols, keys))
    return _eliminate(rows, len(cols))[0]
