import json
import os
import random
from itertools import chain, combinations
from math import comb

import pytest

from omcanon import Chirotope, OrientedMatroid, UnderlyingMatroid, tutte_eval
from omcanon.serialize import parse_input

from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES, boolean_om,
                      contract_atom, cyclic_line_chirotope, delete_atom,
                      named_om, nonuniform_matrix, oracle_rank, rank1_om,
                      relabellings)
from frozenset_matroid import UnderlyingMatroid as FrozensetMatroid
from frozenset_matroid import support_bases
from oracle_ops import atom_of, characteristic_polynomial


def is_coloop(m, e) -> bool:
    return m.rank_of(set(m.ground) - {e}) < m.rank


def whitney_abs(m, k: int) -> int:
    """|w_k|: absolute value of the coefficient of t^{r-k} in the
    characteristic polynomial."""
    return abs(characteristic_polynomial(m)[m.rank - k])


def test_rank_closure_hyperplanes_line4(line4):
    """Ranks from the library; closures and hyperplanes, which only the
    tests need, from the label-frozenset oracle."""
    m = line4.underlying
    oracle = FrozensetMatroid.from_chirotope(line4.chi)
    assert oracle.closure({1}) == {1}
    assert m.rank_of({1, 2, 3}) == 2
    assert m.rank_of([1, 1]) == m.rank_of((2, 2, 2)) == 1  # repeats count once
    assert oracle.hyperplanes() == frozenset(frozenset({e}) for e in m.ground)


def test_pentagon_pairs_independent(pentagon):
    m = pentagon.underlying
    assert m.rank_of({1, 3}) == 2
    assert all(m.rank_of({a, b}) == 2 for a, b in combinations(m.ground, 2))


def test_rank1_closure():
    om = rank1_om((1,))
    m = om.underlying
    assert FrozensetMatroid.from_chirotope(om.chi).closure(set()) == set()
    assert m.rank_of(m.ground) == 1


def test_atoms_partition(parallel_pair):
    m = parallel_pair.underlying
    assert m.atoms == (frozenset({0}), frozenset({1, 2}))
    assert m.atom_reps == (0, 1)
    assert m.rep_of(2) == 1


def test_nbc_line4(line4):
    m = line4.underlying
    assert m.nbc_sets(2) == ((0, 1), (0, 2), (0, 3))
    assert m.nbc_sets(0) == ((),)
    assert m.nbc_sets(1) == ((0,), (1,), (2,), (3,))


def test_nbc_downward_closed(pentagon):
    m = pentagon.underlying
    oracle = FrozensetMatroid.from_chirotope(pentagon.chi)
    for k in range(1, m.rank + 1):
        for key in m.nbc_sets(k):
            for sub in combinations(key, k - 1):
                assert oracle.is_nbc(sub)


def test_nbc_counts_match_whitney(line4, pentagon, pentagon_inf):
    for om in (line4, pentagon, pentagon_inf):
        m = om.underlying
        for k in range(m.rank + 1):
            assert len(m.nbc_sets(k)) == whitney_abs(m, k)


def test_tutte_line4(line4):
    m = line4.underlying
    t = m.tutte()
    assert t == {(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1}
    assert tutte_eval(t, 1, 1) == len(m.bases) == 6
    assert m.beta() == 2


def test_beta_boolean_zero():
    for r in (2, 3):
        assert boolean_om(r).underlying.beta() == 0
    assert boolean_om(1).underlying.beta() == 1


def test_beta_pentagon(pentagon, pentagon_inf):
    assert pentagon.underlying.beta() == 3
    assert pentagon_inf.underlying.beta() == len(pentagon_inf.bounded_topes(0))


def test_beta_equals_simplification(parallel_pair):
    m = parallel_pair.underlying
    simple = UnderlyingMatroid((0, 1), 2, 0b1)  # the one key (0, 1)
    assert m.beta() == simple.beta() == 0

    # same check with a nonzero beta: duplicate one point of the line
    values = {(i, j): 1 for i in range(5) for j in range(i + 1, 5)}
    values[(3, 4)] = 0
    doubled = UnderlyingMatroid.from_chirotope(
        Chirotope.from_map(tuple(range(5)), 2, values))
    line = UnderlyingMatroid.from_chirotope(cyclic_line_chirotope(3))
    assert doubled.beta() == line.beta() == 2


def test_beta_deletion_contraction_recurrence(pentagon):
    m = pentagon.underlying
    rng = random.Random(1)
    for _ in range(3):
        e = rng.choice(m.ground)
        if is_coloop(m, e) or m.rank_of({e}) == 0:
            continue
        deleted = delete_atom(m, e)
        contracted = contract_atom(m, e)
        assert m.beta() == deleted.beta() + contracted.beta()


def test_minor_consistency_with_chirotope(line4):
    chi = cyclic_line_chirotope(3)
    by_chi = UnderlyingMatroid.from_chirotope(chi.contract(0))
    by_matroid = contract_atom(line4.underlying, 0)
    assert by_chi.fingerprint == by_matroid.fingerprint


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "parallel_pair", "nonpappus", "rank1",
                                  "rank1_parallel", "boolean3"])
def test_chirotope_fingerprint_matches_matroid(name, request):
    om = {"rank1": lambda: rank1_om(),
          "rank1_parallel": lambda: rank1_om((1, -1, 1)),
          "boolean3": lambda: boolean_om(3)}.get(
        name, lambda: request.getfixturevalue(name))()
    # rank 0 below the rank-1 cases
    contractions = [om.chi.contract(a) for a in om.atom_reps]
    for chi in [om.chi] + contractions:
        m = UnderlyingMatroid.from_chirotope(chi)
        assert (chi.ground, chi.rank, chi.support) == m.fingerprint
        assert ({frozenset(e for i, e in enumerate(m.ground) if b >> i & 1)
                 for b in m.bases}
                == {frozenset(key) for key in chi.nonzero_keys})


HERE = os.path.dirname(__file__)
DATA_FILES = {f: os.path.join(folder, f)
              for folder in (os.path.join(HERE, "..", "demos", "data"),
                             os.path.join(HERE, "data"))
              for f in sorted(os.listdir(folder)) if f.endswith(".json")}
ORACLE_INPUTS = FIXTURES + list(NONUNIFORM) + ["loops"] + list(DATA_FILES)


def named_input(name, request) -> tuple:
    """(chirotope, the matrix realizing it or None) for a fixture name,
    "loops" (rank 0 on a nonempty ground: three loops) or the file name of
    a `demos/data` or `tests/data` input."""
    if name == "loops":
        return Chirotope((0, 1, 2), 0, (1,)), None
    if name in DATA_FILES:
        with open(DATA_FILES[name]) as fh:
            parsed = parse_input(json.load(fh))
        return parsed.chi, parsed.matrix
    if name in NONUNIFORM:
        mat = nonuniform_matrix(*NONUNIFORM[name])
    elif name in ("pentagon", "pentagon_inf"):
        mat = request.getfixturevalue(f"{name}_matrix")
    else:
        mat = None
    return named_om(name, request).chi, mat


def assert_rewrite_circuits_are_oracle_circuits(m, oracle) -> int:
    """For every independent non-NBC set of atom representatives, as the
    label-frozenset oracle decides, `_rewrite_circuit` is one of the
    oracle's circuits whose minimum lies outside the set and whose broken
    part lies inside it.  Returns the number of sets checked."""
    circuits = set(oracle.atom_circuits())
    checked = 0
    for k in range(m.rank + 1):
        for key in combinations(m.atom_reps, k):
            if oracle.is_independent(key) and not oracle.is_nbc(key):
                c = m._rewrite_circuit(key)
                assert c in circuits, (key, c)
                assert c[0] not in key and set(c[1:]) <= set(key), (key, c)
                checked += 1
    return checked


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_matches_frozenset_oracle(name, request):
    """Every query of the support-mask matroid equals the label-frozenset
    matroid it replaced, under every relabelling; the Tutte polynomial by
    basis activities equals the oracle's deletion-contraction.  Where a
    matrix realizes the input, ranks equal the matrix ranks as well."""
    chi, mat = named_input(name, request)
    for variant in relabellings(chi):
        m = UnderlyingMatroid.from_chirotope(variant)
        oracle = FrozensetMatroid.from_chirotope(variant)
        ground = variant.ground
        original = dict(zip(ground, chi.ground))
        assert m.rank == oracle.rank
        for subset in chain.from_iterable(combinations(ground, k)
                                          for k in range(len(ground) + 1)):
            assert m.rank_of(subset) == oracle.rank_of(subset)
            if mat is not None:
                assert m.rank_of(subset) == oracle_rank(
                    mat, [original[e] for e in subset])
        assert m.atoms == oracle.atoms
        assert m.atom_reps == oracle.atom_reps
        assert_rewrite_circuits_are_oracle_circuits(m, oracle)
        for k in range(m.rank + 2):
            assert m.nbc_sets(k) == oracle.nbc_sets(k)
        assert m.tutte() == oracle.tutte()
        for e in ground if m.rank else ():
            assert atom_of(m, e) == oracle.atom_of(e)
            assert m.rep_of(e) == oracle.rep_of(e)
        for a in m.atom_reps:
            ground_a, rank_a, support_a = m.contraction_fingerprint(a)
            assert rank_a == m.rank - 1
            assert ((ground_a, support_bases(ground_a, rank_a, support_a))
                    == oracle.contraction_fingerprint(a))


NBC_CASES = (SEEDED_CASES + ["loops"]
             + [f"nonuniform_r{r}:{seed}" for r in (3, 4)
                for seed in range(10, 16)])


def nbc_case_chirotopes(name, request) -> list:
    """A `SEEDED_CASES` name, "loops" (`named_input`), or a NONUNIFORM
    shape at a further seed, under each relabelling."""
    if name == "loops":
        chi = named_input(name, request)[0]
    else:
        chi = named_om(name, request).chi
    return relabellings(chi)


@pytest.mark.parametrize("name", NBC_CASES)
def test_nbc_bitsets_match_broken_circuits(name, request):
    """The NBC sets grown from the basis bitsets are the broken-circuit
    NBC sets of the label-frozenset matroid at every grade 0..r+2, and the
    independence test the straightening asks agrees with `rank_of` on
    every set of atom representatives up to r+1 of them."""
    for chi in nbc_case_chirotopes(name, request):
        m = UnderlyingMatroid.from_chirotope(chi)
        oracle = FrozensetMatroid.from_chirotope(chi)
        for k in range(m.rank + 3):
            assert m.nbc_sets(k) == oracle.nbc_sets(k)
        for k in range(m.rank + 2):
            for key in combinations(m.atom_reps, k):
                assert m.is_independent(key) == (m.rank_of(key) == k)


def _det(rows: list) -> int:
    """The determinant of a small square int matrix, by fraction-free
    (Bareiss) elimination."""
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def random_matroids(count: int, seed: int) -> list:
    """count seeded (ground, rank, support) matroids of r x n int matrices,
    1 <= r <= 4, r <= n <= 7, entries in [-2, 2], about one column in four
    a multiple of an earlier one, so that parallel classes are common.  A
    zero column (a loop) or a rank below r is refused by the constructor,
    and that draw is skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(1, 4)
        n = rng.randint(r, 7)
        cols: list = []
        for _ in range(n):
            if cols and rng.random() < 0.25:
                c = rng.choice((-2, -1, 1, 2))
                cols.append([c * x for x in rng.choice(cols)])
            else:
                cols.append([rng.randint(-2, 2) for _ in range(r)])
        support = 0
        for i, key in enumerate(combinations(range(n), r)):
            if _det([[cols[j][row] for j in key] for row in range(r)]):
                support |= 1 << i
        try:
            out.append(UnderlyingMatroid(tuple(range(n)), r, support))
        except ValueError:  # no basis, or a loop
            continue
    return out


def test_nbc_bitsets_match_broken_circuits_on_random_matroids():
    """On 2,000 seeded random small matroids, parallel classes kept, the
    bitset NBC sets equal the broken-circuit NBC sets at every grade
    0..r+2, and the straightening's independence test equals `rank_of`."""
    cases = random_matroids(2000, seed=44)
    assert sum(len(m.atoms) < len(m.ground) for m in cases) > 500
    for m in cases:
        oracle = FrozensetMatroid.from_fingerprint(*m.fingerprint)
        for k in range(m.rank + 3):
            assert m.nbc_sets(k) == oracle.nbc_sets(k)
        for k in range(m.rank + 2):
            for key in combinations(m.atom_reps, k):
                assert m.is_independent(key) == (m.rank_of(key) == k)


def test_rewrite_circuits_match_the_oracle_on_random_matroids():
    """On 2,000 seeded random small matroids, parallel classes kept, the
    circuit `_rewrite_circuit` names in every independent non-NBC set of
    atom representatives is a circuit of the label-frozenset oracle, with
    its minimum outside the set and its broken part inside; and an NBC set
    of any grade is refused."""
    cases = random_matroids(2000, seed=45)
    assert sum(len(m.atoms) < len(m.ground) for m in cases) > 500
    checked = 0
    for m in cases:
        oracle = FrozensetMatroid.from_fingerprint(*m.fingerprint)
        checked += assert_rewrite_circuits_are_oracle_circuits(m, oracle)
        for key in chain.from_iterable(map(m.nbc_sets, range(m.rank + 1))):
            with pytest.raises(ValueError, match=" is NBC$"):
                m._rewrite_circuit(key)
    assert checked > 2000


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_tutte_identities(name, request):
    """T(1, 1) counts the bases and T(2, 2) = 2^n; T(2, 0) counts the topes
    (Las Vergnas 1975; Zaslavsky 1975), which the tope walk finds without
    the Tutte polynomial."""
    chi, _ = named_input(name, request)
    m = UnderlyingMatroid.from_chirotope(chi)
    t = m.tutte()
    assert tutte_eval(t, 1, 1) == len(m.bases) == len(chi.nonzero_keys)
    assert tutte_eval(t, 2, 2) == 2 ** len(chi.ground)
    assert (tutte_eval(t, 2, 0)
            == len(OrientedMatroid(chi, validate=False).topes))


def first_rep_atoms(m: UnderlyingMatroid) -> tuple:
    """The atoms as rank queries found them: each element joins the first
    class whose first element spans a rank-1 set with it."""
    classes: list = []
    for e in m.ground if m.rank else ():
        c = next((c for c in classes if m.rank_of({c[0], e}) == 1), None)
        if c is None:
            classes.append([e])
        else:
            c.append(e)
    return tuple(frozenset(c) for c in classes)


def test_atoms_need_no_rank_query(monkeypatch):
    """On seeded random supports, left unvalidated so that parallelism need
    not be transitive, the atoms read off the basis masks are those of the
    first-representative rank queries, and building asks no rank."""
    rng = random.Random(5)
    cases = []
    while len(cases) < 200:
        n, r = rng.randint(1, 7), rng.randint(1, 3)
        try:
            cases.append(UnderlyingMatroid(tuple(range(n)), r,
                                           rng.getrandbits(comb(n, r))))
        except ValueError:  # no basis, or a loop
            continue
    expected = [first_rep_atoms(m) for m in cases]

    def no_rank(self, subset):
        raise AssertionError("rank query while building")

    monkeypatch.setattr(UnderlyingMatroid, "rank_of", no_rank)
    assert [UnderlyingMatroid(m.ground, m.rank, m.support).atoms
            for m in cases] == expected


def test_rank0_has_only_loops():
    m = UnderlyingMatroid((0, 1, 2), 0, 1)
    assert m.atoms == m.atom_reps == ()
    assert m.rank_of({0, 1, 2}) == 0
    assert m.nbc_sets(0) == ((),)
    assert m.tutte() == {(0, 3): 1}
    with pytest.raises(ValueError, match="1 is a loop"):
        m.rep_of(1)


@pytest.mark.parametrize("ground, rank, support, message", [
    ((0, 1, 2), 2, 0, "a matroid needs at least one basis"),
    ((0, 1, 2), 2, 0b1000, "bits beyond the 3 keys"),
    ((0, 1, 2), 2, -1, "bits beyond the 3 keys"),
    ((0,), 2, 1, "bits beyond the 0 keys"),
    ((0, 1, 2), 2, 0b001, "loop: 2"),
    (("a", "b"), 1, 0b10, "loop: a"),
])
def test_constructor_rejects(ground, rank, support, message):
    with pytest.raises(ValueError, match=message):
        UnderlyingMatroid(ground, rank, support)


@pytest.mark.parametrize("label", [99, "x"])
def test_unknown_labels_raise(line4, label):
    """A label outside the ground set is not a loop: every lookup of it
    raises, as `Chirotope.contract` does."""
    m = line4.underlying
    calls = [lambda: m.rank_of({label}), lambda: m.rank_of([0, label]),
             lambda: m.rep_of(label),
             lambda: m.contraction_fingerprint(label)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"unknown element label {label!r}"):
            call()
