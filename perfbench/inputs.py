"""Seeded input generators for the benchmark workloads.

Every generator is deterministic in its seed and checks its own output
before returning it.  Nothing here imports the test suite.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

from omcanon import (Chirotope, OrientedMatroid, RationalMatrix, chamber_of,
                     chirotope_from_matrix, linalg, serialize,
                     validate_chirotope)


# ---- sweep_uniform_r4 -------------------------------------------------------

# A uniform rank-4 oriented matroid on 7 elements has 2 * (1 + 6 + 15 + 20)
# topes, whatever the matrix.
UNIFORM_N, UNIFORM_R, UNIFORM_TOPES = 7, 4, 84


def uniform_matrix(seed: int) -> RationalMatrix:
    """A seeded 4 x 7 matrix, entries in [-5, 5], no zero maximal minor."""
    n, r = UNIFORM_N, UNIFORM_R
    rng = random.Random(f"uniform:{seed}")
    while True:
        cols = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(n)]
        mat = RationalMatrix.from_rows(
            tuple(range(n)), [[cols[j][i] for j in range(n)] for i in range(r)])
        if (all(any(c) for c in cols)
                and 0 not in chirotope_from_matrix(mat).signs):
            return mat


# ---- sweep_nonpappus_r3 -----------------------------------------------------


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


# A1, A2, A3 on the line y = 0 and B1, B2, B3 on the line y = 1, in
# homogeneous coordinates.  These values give exactly the nine collinear
# triples of the Pappus configuration and no others (checked below).
_PAPPUS_A = ((0, 0, 1), (1, 0, 1), (3, 0, 1))
_PAPPUS_B = ((0, 1, 1), (2, 1, 1), (5, 1, 1))


def _pappus_points() -> list:
    """The nine Pappus points A1..A3, B1..B3, C1..C3, exact integers.

    C_k is the meet of A_i B_j and A_j B_i over the pairs (1,2), (1,3),
    (2,3); by Pappus's theorem C1, C2, C3 are collinear.
    """
    a, b = _PAPPUS_A, _PAPPUS_B
    meets = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        meets.append(_cross(_cross(a[i], b[j]), _cross(a[j], b[i])))
    return list(a) + list(b) + meets


PAPPUS_LINE = (6, 7, 8)


def nonpappus() -> OrientedMatroid:
    """Pappus realized exactly, then the Pappus-line triple set from 0 to +."""
    points = _pappus_points()
    ground = tuple(range(9))
    realized_chi = chirotope_from_matrix(RationalMatrix.from_rows(
        ground, [[p[i] for p in points] for i in range(3)]))
    realized = {key: realized_chi.value(key)
                for key in combinations(ground, 3)}
    zeros = sorted(k for k, s in realized.items() if s == 0)
    if len(zeros) != 9 or PAPPUS_LINE not in zeros:
        raise AssertionError(f"not the Pappus configuration: zeros {zeros}")
    values = dict(realized)
    values[PAPPUS_LINE] = 1
    chi = Chirotope.from_map(ground, 3, values)
    differ = [k for k in combinations(ground, 3)
              if chi.value(k) != realized[k]]
    if differ != [PAPPUS_LINE]:
        raise AssertionError(f"unexpected differences {differ}")
    validate_chirotope(chi)
    om = OrientedMatroid(chi, validate=False)
    if len(om.topes) != 58 or om.underlying.beta() != 13:
        raise AssertionError(
            f"non-Pappus has {len(om.topes)} topes, beta "
            f"{om.underlying.beta()}; expected 58 and 13")
    return om


# Every lex extension of non-Pappus by a basis signature has 76 topes, so
# every seed sweeps the same number of topes.
NONPAPPUS_TOPES = 76


def nonpappus_extension(seed: int) -> Chirotope:
    """Chirotope of a seeded lex extension [b1^s1, b2^s2, b3^s3] of it."""
    om = nonpappus()
    chi = om.chi
    rng = random.Random(f"nonpappus:{seed}")
    while True:
        b1, b2, b3 = rng.sample(chi.ground, 3)
        if chi.value((b1, b2, b3)) == 0:
            continue
        signature = tuple((b, rng.choice((1, -1))) for b in (b1, b2, b3))
        ext = om.lex_extension(signature, label=9)
        if len(ext.om_ext.topes) != NONPAPPUS_TOPES:
            raise AssertionError(
                f"extension {signature} has {len(ext.om_ext.topes)} topes")
        return ext.chi_ext


# ---- cli_stream -------------------------------------------------------------


def _parallel(u, v) -> bool:
    return _cross(u, v) == (0, 0, 0)


def arrangement(rng: random.Random, n: int) -> list:
    """n integer columns in Z^3: none zero, no two parallel, no three coplanar.

    Degenerate placings abort `verify`, so coplanar triples are excluded.
    """
    while True:
        cols: list = []
        tries = 0
        while len(cols) < n and tries < 500:
            tries += 1
            cand = tuple(rng.randint(-3, 3) for _ in range(3))
            if not any(cand) or any(_parallel(cand, c) for c in cols):
                continue
            if any(linalg.det([list(a), list(b), list(cand)]) == 0
                   for a, b in combinations(cols, 2)):
                continue
            cols.append(cand)
        if len(cols) == n:
            return cols


def _chamber(rng: random.Random, mat: RationalMatrix) -> str:
    """Sign string of a seeded integer point off every hyperplane."""
    while True:
        point = [rng.randint(-9, 9) for _ in range(3)]
        try:
            return serialize.sign_vector_to_str(chamber_of(mat, point))
        except ValueError:  # the point lies on a hyperplane
            continue


def _weights(rng: random.Random, count: int) -> str:
    return ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 3))
                        * rng.choice((1, -1))) for _ in range(count))


DEMO_INPUTS = ("line4", "pentagon", "pentagon_inf")
# Every arrangement has 6 lines, so every seed does the same amount of work
# (a 7-line one costs about 6 s against 2 s).  With six of them, p90 of the
# pooled command latencies lies inside the cluster of arrangement `verify`
# commands, at about its 40th percentile, for any number of passes.
ARRANGEMENTS, LINES = 6, 6


def cli_stream_inputs(seed: int, demo_dir: str, work_dir: str) -> list:
    """[(input path, canonical tope, aomoto weights)] for the command stream.

    The three demo inputs come first, then one JSON file per seeded
    arrangement, written into work_dir.
    """
    rng = random.Random(f"cli_stream:{seed}")
    out = []
    for name in DEMO_INPUTS:
        path = os.path.join(demo_dir, f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["format"] == "matrix":
            tope = _chamber(rng, RationalMatrix.from_rows(
                doc["elements"], doc["matrix"]))
        else:
            tope = ",".join("+" for _ in doc["elements"])  # acyclic input
        out.append((path, tope, _weights(rng, len(doc["elements"]) - 1)))
    seen = set()
    for k in range(ARRANGEMENTS):
        cols = arrangement(rng, LINES)
        if tuple(cols) in seen:
            raise AssertionError("arrangement repeated in the stream")
        seen.add(tuple(cols))
        doc = {"format": "matrix", "rank": 3,
               "elements": [str(e) for e in range(1, LINES + 1)],
               "matrix": [[str(c[i]) for c in cols] for i in range(3)]}
        path = os.path.join(work_dir, f"arrangement_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        mat = RationalMatrix.from_rows(
            doc["elements"], [[c[i] for c in cols] for i in range(3)])
        out.append((path, _chamber(rng, mat), _weights(rng, LINES - 1)))
    return out
