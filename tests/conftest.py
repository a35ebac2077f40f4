"""Shared fixtures: golden instances, brute-force oracles, random arrangements."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from omcanon import (Chirotope, OrientedMatroid, RationalMatrix, SignVector,
                     chirotope_from_matrix)


def cyclic_line_chirotope(n: int) -> Chirotope:
    """Rank 2 on {0..n}, sign + on every ascending pair (points on a line)."""
    ground = tuple(range(n + 1))
    return Chirotope.from_map(ground, 2,
                              {k: 1 for k in combinations(ground, 2)})


PENTAGON_ROWS = [
    [1, 0, -1, 0, -1],
    [0, 1, 0, -1, -1],
    [1, 1, 1, 1, 1],
]

PENTAGON_INF_ROWS = [
    [0, 1, 0, -1, 0, -1],
    [0, 0, 1, 0, -1, -1],
    [1, 1, 1, 1, 1, 1],
]


@pytest.fixture(scope="session")
def line4():
    """Four points on a projective line (rank 2, uniform)."""
    return OrientedMatroid(cyclic_line_chirotope(3))


@pytest.fixture(scope="session")
def line4_topes(line4):
    g = line4.ground
    return [SignVector(g, (1, -1, -1, -1)), SignVector(g, (1, 1, -1, -1)),
            SignVector(g, (1, 1, 1, -1)), SignVector(g, (1, 1, 1, 1))]


@pytest.fixture(scope="session")
def pentagon_matrix():
    return RationalMatrix.from_rows((1, 2, 3, 4, 5), PENTAGON_ROWS)


@pytest.fixture(scope="session")
def pentagon(pentagon_matrix):
    return OrientedMatroid(chirotope_from_matrix(pentagon_matrix))


@pytest.fixture(scope="session")
def pentagon_inf_matrix():
    return RationalMatrix.from_rows((0, 1, 2, 3, 4, 5), PENTAGON_INF_ROWS)


@pytest.fixture(scope="session")
def pentagon_inf(pentagon_inf_matrix):
    return OrientedMatroid(chirotope_from_matrix(pentagon_inf_matrix))


def boolean_om(r: int) -> OrientedMatroid:
    ground = tuple(range(r))
    return OrientedMatroid(Chirotope.from_map(ground, r, {ground: 1}))


def rank1_om(signs=(1,)) -> OrientedMatroid:
    ground = tuple(range(len(signs)))
    values = {(e,): s for e, s in zip(ground, signs)}
    return OrientedMatroid(Chirotope.from_map(ground, 1, values))


@pytest.fixture(scope="session")
def parallel_pair():
    """Rank 2 on {0,1,2} with 1 and 2 parallel (two atoms)."""
    values = {(0, 1): 1, (0, 2): 1, (1, 2): 0}
    return OrientedMatroid(Chirotope.from_map((0, 1, 2), 2, values))


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


PAPPUS_LINE = (6, 7, 8)


def pappus_chirotope() -> Chirotope:
    """The Pappus configuration realized exactly over the integers.

    A1..A3 (elements 0-2) lie on y = 0 and B1..B3 (3-5) on y = 1, in
    homogeneous coordinates; C1..C3 (6-8) are the meets of A_iB_j and A_jB_i
    over the pairs (1,2), (1,3), (2,3), from cross products.  By Pappus's
    theorem the C's are collinear.
    """
    a = ((0, 0, 1), (1, 0, 1), (3, 0, 1))
    b = ((0, 1, 1), (2, 1, 1), (5, 1, 1))
    c = [_cross(_cross(a[i], b[j]), _cross(a[j], b[i]))
         for i, j in ((0, 1), (0, 2), (1, 2))]
    points = list(a) + list(b) + c
    ground = tuple(range(9))
    return chirotope_from_matrix(RationalMatrix.from_rows(
        ground, [[p[i] for p in points] for i in range(3)]))


def nonpappus_chirotope() -> Chirotope:
    """Pappus with the Pappus-line triple set from 0 to +.

    No matrix over any field realizes it, since Pappus's theorem would force
    that triple back to 0.
    """
    pappus = pappus_chirotope()
    values = dict(zip(pappus.keys, pappus.signs))
    values[PAPPUS_LINE] = 1
    return Chirotope.from_map(tuple(range(9)), 3, values)


@pytest.fixture(scope="session")
def nonpappus():
    """Non-Pappus: rank 3 on 9 elements, not realizable."""
    return OrientedMatroid(nonpappus_chirotope())


def uniform_r4_matrix(seed: int, n: int = 6) -> RationalMatrix:
    """A seeded 4 x n integer matrix whose maximal minors are all nonzero."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(4)]
        mat = RationalMatrix.from_rows(tuple(range(n)), rows)
        if 0 not in chirotope_from_matrix(mat).signs:
            return mat


# ---- brute-force oracles -----------------------------------------------------


def oracle_topes(om) -> set:
    """Full-support sign vectors orthogonal to every circuit."""
    out = set()
    for signs in product((1, -1), repeat=len(om.ground)):
        x = SignVector(om.ground, signs)
        if all(x.is_orthogonal(c) for c in om.circuits):
            out.add(x)
    return out


def oracle_covectors(om) -> set:
    """All sign vectors orthogonal to every circuit."""
    out = set()
    for signs in product((1, 0, -1), repeat=len(om.ground)):
        x = SignVector(om.ground, signs)
        if all(x.is_orthogonal(c) for c in om.circuits):
            out.add(x)
    return out


def oracle_rank(mat: RationalMatrix, labels) -> int:
    from omcanon import linalg
    cols = [mat.column(e) for e in labels]
    if not cols:
        return 0
    return linalg.rank([[c[i] for c in cols] for i in range(mat.nrows)])


def random_arrangements(count: int, seed: int = 0,
                        min_lines: int = 5, max_lines: int = 8) -> list:
    """Seeded rank-3 integer matrices, no zero/parallel/coplanar-triple columns."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(min_lines, max_lines)
        cols: list = []
        tries = 0
        while len(cols) < n and tries < 500:
            tries += 1
            cand = [rng.randint(-3, 3) for _ in range(3)]
            if not any(cand):
                continue
            if any(_parallel(cand, c) for c in cols):
                continue
            if any(_det3(a, b, cand) == 0
                   for a, b in combinations(cols, 2)):
                continue
            cols.append(cand)
        if len(cols) < n:
            continue
        rows = [[Fraction(c[i]) for c in cols] for i in range(3)]
        mat = RationalMatrix.from_rows(tuple(range(1, n + 1)), rows)
        if oracle_rank(mat, mat.labels) == 3:
            out.append(mat)
    return out


def _parallel(u, v) -> bool:
    return (u[0] * v[1] - u[1] * v[0] == 0
            and u[0] * v[2] - u[2] * v[0] == 0
            and u[1] * v[2] - u[2] * v[1] == 0)


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))
