import random
from itertools import combinations

import pytest

from omcanon import UnderlyingMatroid, tutte_eval
from omcanon.matroid import chirotope_fingerprint

from conftest import (boolean_om, contract_atom, cyclic_line_chirotope,
                      delete_atom, rank1_om)


def is_coloop(m, e) -> bool:
    return all(e in b for b in m.bases)


def whitney_abs(m, k: int) -> int:
    """|w_k|: absolute value of the coefficient of t^{r-k} in the public
    characteristic polynomial."""
    return abs(m.characteristic_polynomial()[m.rank - k])


def test_rank_closure_hyperplanes_line4(line4):
    m = line4.underlying
    assert m.closure({1}) == {1}
    assert m.rank_of({1, 2, 3}) == 2
    assert m.hyperplanes() == frozenset(frozenset({e}) for e in m.ground)


def test_pentagon_pairs_independent(pentagon):
    m = pentagon.underlying
    assert m.rank_of({1, 3}) == 2
    assert all(m.rank_of({a, b}) == 2 for a, b in combinations(m.ground, 2))


def test_rank1_closure():
    m = rank1_om((1,)).underlying
    assert m.closure(set()) == set()
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
    for k in range(1, m.rank + 1):
        for key in m.nbc_sets(k):
            for sub in combinations(key, k - 1):
                assert m.is_nbc(sub)


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
    simple = UnderlyingMatroid((0, 1), frozenset([frozenset({0, 1})]))
    assert m.beta() == simple.beta() == 0

    # same check with a nonzero beta: duplicate one point of the line
    from omcanon import Chirotope
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
    contractions = [om.chi.contract(a, drop=om.underlying.atom_of(a) - {a})
                    for a in om.atom_reps]  # rank 0 below the rank-1 cases
    for chi in [om.chi] + contractions:
        assert (chirotope_fingerprint(chi)
                == UnderlyingMatroid.from_chirotope(chi).fingerprint)
