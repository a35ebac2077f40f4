"""Shared fixtures: golden instances, brute-force oracles, random arrangements."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import settings

from omcanon import (Chirotope, Extension, LinearMap, OrientedMatroid,
                     RationalMatrix, SignVector, UnderlyingMatroid,
                     chirotope_from_matrix, forms, linalg)
from omcanon.chirotope import _mask, _mask_index
from omcanon.om import _conformal_rows, _facet_classes
from omcanon.osalg import OSElement, _algebra
from omcanon.serialize import parse_input
from omcanon.signvec import _labels

from oracle_ops import atom_of, is_orthogonal

# With CI set, property tests draw the same examples on every run, so a
# failure on one leg replays locally with CI=1; no per-example deadline on
# shared runners.  Local runs keep hypothesis's defaults.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


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


FIXTURES = ["line4", "pentagon", "pentagon_inf", "parallel_pair", "nonpappus",
            "rank1", "boolean3"]
NONUNIFORM = {"nonuniform_r3": (3, 7, 1), "nonuniform_r4": (4, 7, 2)}
# FIXTURES, uniform_r4, nonpappus_ext10 and each NONUNIFORM shape at seeds
# 0-5 ("shape:seed"), as `named_om` names them
SEEDED_CASES = (FIXTURES + ["uniform_r4", "nonpappus_ext10"]
                + [f"{shape}:{seed}" for shape in NONUNIFORM
                   for seed in range(6)])


def nonuniform_matrix(rank: int, n: int, bound: int,
                      seed: int = 0) -> RationalMatrix:
    """A seeded rank x n integer matrix with entries in [-bound, bound] whose
    matroid has a vanishing basis minor and a parallel class."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)]
                for _ in range(rank)]
        try:
            mat = RationalMatrix.from_rows(tuple(range(n)), rows)
            chi = chirotope_from_matrix(mat)
        except ValueError:  # a zero column, or rank deficient
            continue
        if (0 in chi.signs
                and len(UnderlyingMatroid.from_chirotope(chi).atoms) < n):
            return mat


def nonuniform_om(rank: int, n: int, bound: int, seed: int = 0):
    """The oriented matroid of `nonuniform_matrix`."""
    return OrientedMatroid(chirotope_from_matrix(
        nonuniform_matrix(rank, n, bound, seed)))


def facet_elements(chi: Chirotope, matroid: UnderlyingMatroid) -> frozenset:
    """For an acyclic chi with underlying matroid matroid, the elements
    whose parallel class is a facet of the all-plus tope: the classes
    `om._facet_classes` reads off the rows `om._conformal_rows` keeps at
    the minus mask 0, as labels."""
    n = len(chi.ground)
    classes = _facet_classes(n, _conformal_rows(chi, 0).values(),
                             matroid._atom_masks)
    return frozenset(e for c in classes for e in _labels(chi.ground, c))


def relabellings(chi: Chirotope) -> list:
    """chi under integer, descending-integer and string labels: the sign
    table stays aligned with the ascending keys of each new ground."""
    n = len(chi.ground)
    grounds = [tuple(range(10, 10 + n)), tuple(range(n - 1, -1, -1)),
               tuple(random.Random(n).sample("abcdefghijklmnop", n))]
    return [chi] + [Chirotope(g, chi.rank, chi.signs) for g in grounds]


def named_om(name: str, request) -> OrientedMatroid:
    """A session fixture by name, or one of the built ones: rank1 (three
    parallel elements, one reversed), boolean3, uniform_r4 (seed 0), the
    seeded non-uniform matrices of NONUNIFORM (at seed 0, or "shape:seed"),
    and the non-realizable nonpappus_ext10 and line4_q (line4 with 3
    renamed q) of `tests/data`."""
    shape, _, seed = name.partition(":")
    if seed:
        return nonuniform_om(*NONUNIFORM[shape], seed=int(seed))
    if name in ("nonpappus_ext10", "line4_q"):
        path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
        with open(path) as fh:
            return OrientedMatroid(parse_input(json.load(fh)).chi)
    if name in NONUNIFORM:
        return nonuniform_om(*NONUNIFORM[name])
    if name == "rank1":
        return rank1_om((1, -1, 1))
    if name == "boolean3":
        return boolean_om(3)
    if name == "uniform_r4":
        return OrientedMatroid(chirotope_from_matrix(uniform_r4_matrix(seed=0)))
    return request.getfixturevalue(name)


# ---- brute-force oracles -----------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError or RuntimeError
    it raises, so that two implementations compare on both."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def count_bounded_topes(monkeypatch) -> dict:
    """Count calls of both bounded-tope queries from here on:
    {"om": OrientedMatroid.bounded_topes, "ext": Extension.bounded_topes}."""
    counts = {"om": 0, "ext": 0}
    for key, cls in (("om", OrientedMatroid), ("ext", Extension)):
        def counting(self, *args, _key=key, _fn=cls.bounded_topes):
            counts[_key] += 1
            return _fn(self, *args)
        monkeypatch.setattr(cls, "bounded_topes", counting)
    return counts


def all_full_support_vectors(ground: tuple):
    """All 2^n full-support sign vectors (test oracle scale only)."""
    n = len(ground)
    for mask in range(2 ** n):
        yield SignVector(ground, tuple(
            1 if (mask >> i) & 1 == 0 else -1 for i in range(n)))


def oracle_topes(om) -> set:
    """Full-support sign vectors orthogonal to every circuit."""
    out = set()
    for signs in product((1, -1), repeat=len(om.ground)):
        x = SignVector(om.ground, signs)
        if all(is_orthogonal(x, c) for c in om.circuits):
            out.add(x)
    return out


def oracle_covectors(om) -> set:
    """All sign vectors orthogonal to every circuit."""
    out = set()
    for signs in product((1, 0, -1), repeat=len(om.ground)):
        x = SignVector(om.ground, signs)
        if all(is_orthogonal(x, c) for c in om.circuits):
            out.add(x)
    return out


def oracle_rank(mat: RationalMatrix, labels) -> int:
    return len(linalg.greedy_independent([mat.column(e) for e in labels]))


def contract_atom(m: UnderlyingMatroid, rep) -> UnderlyingMatroid:
    """The contraction of m by the atom of rep, built from its fingerprint."""
    return UnderlyingMatroid(*m.contraction_fingerprint(rep))


def deletion_fingerprint(m: UnderlyingMatroid, rep) -> tuple:
    """The (ground, rank, support) fingerprint of the deletion of the atom
    of rep.  Its bases are the bases of m that miss the atom: the j-th
    r-set of the kept positions is a basis iff it is one of m; when the
    atom is a coloop, the deletion is the contraction."""
    atom = atom_of(m, rep)
    ground = tuple(e for e in m.ground if e not in atom)
    if m.rank_of(ground) < m.rank:
        return m.contraction_fingerprint(rep)
    index = _mask_index(len(m.ground), m.rank)
    kept = [i for i, e in enumerate(m.ground) if e not in atom]
    support = 0
    for j, key in enumerate(combinations(kept, m.rank)):
        support |= (m.support >> index[_mask(key)] & 1) << j
    return ground, m.rank, support


def delete_atom(m: UnderlyingMatroid, rep) -> UnderlyingMatroid:
    """The deletion of the atom of rep from m, built from its fingerprint."""
    return UnderlyingMatroid(*deletion_fingerprint(m, rep))


def deletion_algebra(alg, rep):
    """The algebra of the deletion of the atom of rep, by fingerprint."""
    return _algebra(*deletion_fingerprint(alg.matroid, rep))


def iota(alg, rep, x):
    """Inclusion of x from the deletion's algebra into alg (e_I to e_I)."""
    if x.algebra is not deletion_algebra(alg, rep):
        raise ValueError("iota expects an element of the deletion algebra")
    out = alg.zero(x.grade)
    for key, c in x.terms.items():
        out = out + alg.monomial(key, coeff=c)
    return out


def stacked_rows(stack: tuple, targets: dict) -> dict:
    """{stacked row: coordinate} of targets ({atom: residue in the atom's
    block algebra}) in the residue stack `forms._stack`: each target's NBC
    keys read at its block's rows.  A target outside its block's
    positional algebra (a labelled residue, or an algebra built anew on
    the block's matroid) is refused rather than read against the wrong
    NBC order."""
    alg, blocks = stack[:2]
    stacked = {}
    for a, target in targets.items():
        block, first, _ = blocks[a]
        if target.algebra is not block:
            raise RuntimeError("internal invariant violation: residue target "
                               "is not in its block's positional algebra")
        index = block._nbc_pos[alg.rank - 1]
        for k, v in target.terms.items():
            stacked[first + index[k]] = v
    return stacked


def stack_solve(alg, targets: dict):
    """`forms._solve` on the residue stack of the positional algebra alg,
    fed targets ({atom: residue in the atom's block algebra}, through
    `stacked_rows`), as an element of alg; every atom that targets does
    not hold reads zero."""
    ground, r, support = alg.matroid.fingerprint
    assert ground == tuple(range(len(ground)))
    stack = forms._stack(len(ground), r, support)
    coeffs = forms._solve(stack, stacked_rows(stack, targets))
    return OSElement(alg, r, dict(zip(alg.nbc[r], coeffs)))


def linear_map(src, dst, k_src: int, k_dst: int, fn) -> LinearMap:
    """fn from src's grade k_src to dst's grade k_dst in NBC coordinates:
    the columns are the images of the NBC monomials."""
    dom = [src.from_terms(k_src, {key: 1}) for key in src.nbc.get(k_src, ())]
    cod = [dst.from_terms(k_dst, {key: 1}) for key in dst.nbc.get(k_dst, ())]
    images = [fn(b) for b in dom]
    assert all(y.algebra is dst and y.grade == k_dst for y in images)
    return LinearMap(dom, cod, linalg.columns_matrix(
        [y.terms for y in images], dst.nbc.get(k_dst, ())))


def nbc_vector(alg, x, grade: int) -> list:
    """The coordinates of x, an element of alg in the given grade, over
    every NBC key of that grade, in order."""
    assert x.algebra is alg and x.grade == grade
    return [x.terms.get(key, 0) for key in alg.nbc.get(grade, ())]


def exact_sequence_maps(alg, rep, k: int) -> tuple:
    """(iota, res) in degree k at the atom rep, as maps in NBC coordinates:
    inclusion from the deletion's algebra and residue to the contraction's."""
    return (linear_map(deletion_algebra(alg, rep), alg, k, k,
                       lambda b: iota(alg, rep, b)),
            linear_map(alg, alg.residue_algebra(rep), k, k - 1,
                       lambda b: alg.residue(rep, b)))


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
