import pytest

from omcanon import NotATope, OrientedMatroid, SignVector, validate_chirotope
from omcanon.om import is_acyclic
from omcanon.signvec import all_full_support_vectors

from conftest import (PAPPUS_LINE, boolean_om, oracle_covectors,
                      oracle_topes, pappus_chirotope, rank1_om)


def test_circuits_line4(line4):
    supports = {c.support for c in line4.circuits}
    assert supports == {frozenset(s) for s in
                        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}
    pattern = next(c for c in line4.circuits
                   if c.support == {0, 1, 2} and c.value(0) == 1)
    assert (pattern.value(0), pattern.value(1), pattern.value(2)) == (1, -1, 1)
    assert all(-c in line4.circuits for c in line4.circuits)


def test_circuits_rank1_single():
    assert rank1_om((1,)).circuits == frozenset()


def test_circuits_pentagon(pentagon):
    supports = {c.support for c in pentagon.circuits}
    assert len(supports) == 5
    assert all(len(s) == 4 for s in supports)


def test_cocircuits_line4(line4):
    zero_sets = {c.zero_set for c in line4.cocircuits}
    assert zero_sets == {frozenset({e}) for e in line4.ground}
    y = next(c for c in line4.cocircuits
             if c.zero_set == {1} and c.value(0) == 1)
    assert (y.value(0), y.value(2), y.value(3)) == (1, -1, -1)


def test_cocircuits_rank1():
    om = rank1_om((1,))
    assert {tuple(c.signs) for c in om.cocircuits} == {(1,), (-1,)}


def test_cocircuits_pentagon(pentagon):
    assert len({c.zero_set for c in pentagon.cocircuits}) == 10


def test_topes_line4(line4, line4_topes):
    assert len(line4.topes) == 8
    assert {t for t in line4.topes if t.value(0) == 1} == set(line4_topes)
    assert line4.topes == oracle_topes(line4)


def test_topes_rank1():
    om = rank1_om((1,))
    assert {tuple(t.signs) for t in om.topes} == {(1,), (-1,)}


def test_topes_pentagon_brute_force(pentagon):
    assert pentagon.topes == oracle_topes(pentagon)


def test_covectors_match_orthogonality_oracle(line4, parallel_pair):
    assert line4.covectors == oracle_covectors(line4)
    assert parallel_pair.covectors == oracle_covectors(parallel_pair)


def test_faces_line4(line4, line4_topes):
    p1 = line4_topes[1]
    faces = line4.faces(p1)
    proper = [f for f in faces if not f.is_zero and f != p1]
    assert {f.zero_set for f in proper} == {frozenset({1}), frozenset({2})}
    assert all(f.value(0) == 1 for f in proper)
    p0 = line4_topes[0]
    assert any(f.value(0) == 0 for f in line4.faces(p0)
               if not f.is_zero and f != p0)


def test_faces_rank1():
    om = rank1_om((1,))
    plus = SignVector(om.ground, (1,))
    assert om.faces(plus) == {om.zero_vector(), plus}


def test_is_facet(line4, line4_topes):
    p1 = line4_topes[1]
    assert line4.is_facet(p1, 1)
    assert not line4.is_facet(p1, 3)


def test_pentagon_all_facets(pentagon):
    plus = SignVector(pentagon.ground, (1,) * 5)
    assert pentagon.facets(plus) == pentagon.atom_reps


def test_contract_line4(line4):
    sub = line4.contract(0)
    assert sub.rank == 1 and sub.ground == (1, 2, 3)
    assert sub.chi.value((1,)) == -1


def test_contract_pentagon(pentagon):
    sub = pentagon.contract(5)
    assert sub.rank == 2 and sub.ground == (1, 2, 3, 4)


def test_contract_rank1_gives_rank0():
    om = rank1_om((1,))
    sub = om.contract(0)
    assert sub.rank == 0 and sub.ground == ()
    assert len(sub.topes) == 1


def test_delete(line4, pentagon):
    sub = line4.delete(3)
    assert sub.ground == (0, 1, 2) and sub.rank == 2
    assert pentagon.delete(5).rank == 3
    with pytest.raises(ValueError, match="rank would drop"):
        rank1_om((1,)).delete(0)


def test_reorient_matches_fresh_construction(line4, line4_topes):
    p = line4_topes[1]
    fast = line4.reorient(p)
    fresh = OrientedMatroid(line4.chi.reorient(p), validate=False)
    assert fast.circuits == fresh.circuits
    assert fast.cocircuits == fresh.cocircuits
    assert fast.covectors == fresh.covectors
    assert fast.topes == fresh.topes
    assert fast.reorient(p).chi == line4.chi  # involution


def test_reoriented_topes_are_images(pentagon):
    plus = SignVector(pentagon.ground, (1,) * 5)
    flipped = pentagon.reorient(plus)
    assert flipped.topes == pentagon.topes


def test_orthogonality_invariant(line4, pentagon):
    for om in (line4, pentagon):
        for t in om.topes:
            assert all(t.is_orthogonal(c) for c in om.circuits)
        for x in om.covectors:
            assert all(x.is_orthogonal(c) for c in om.circuits)


def test_acyclicity(line4):
    assert line4.is_acyclic()
    anti = rank1_om((1, -1))
    assert not anti.is_acyclic()


@pytest.mark.parametrize(
    "name", ["line4", "pentagon", "parallel_pair", "nonpappus"])
def test_is_acyclic_matches_circuit_oracle(name, request):
    """is_acyclic(chi) against the circuits of a full OrientedMatroid, on
    every reorientation; the acyclic ones are exactly the topes."""
    om = request.getfixturevalue(name)
    acyclic = 0
    for x in all_full_support_vectors(om.ground):
        chi = om.chi.reorient(x)
        expected = not any(c.is_nonnegative for c in
                           OrientedMatroid(chi, validate=False).circuits)
        assert is_acyclic(chi) == expected == (x in om.topes)
        acyclic += expected
    assert 0 < acyclic < 2 ** len(om.ground)


def test_nonpappus_fixture(nonpappus):
    pappus = pappus_chirotope()
    validate_chirotope(pappus)
    validate_chirotope(nonpappus.chi)
    assert [k for k, s in zip(pappus.keys, pappus.signs) if s == 0] == [
        (0, 1, 2), (0, 4, 6), (0, 5, 7), (1, 3, 6), (1, 5, 8), (2, 3, 7),
        (2, 4, 8), (3, 4, 5), PAPPUS_LINE]
    assert [k for k, s, t in zip(pappus.keys, pappus.signs,
                                 nonpappus.chi.signs) if s != t] == [PAPPUS_LINE]
    assert len(nonpappus.topes) == 58
    assert nonpappus.underlying.beta() == 13


def test_bounded_topes_line4(line4, line4_topes):
    assert line4.bounded_topes(0) == {line4_topes[1], line4_topes[2]}


def test_bounded_topes_rank1():
    om = rank1_om((1,))
    assert om.bounded_topes(0) == {SignVector(om.ground, (1,))}


def test_bounded_topes_pentagon_inf(pentagon_inf):
    assert len(pentagon_inf.bounded_topes(0)) == pentagon_inf.underlying.beta()


def test_lex_extension_line4(line4):
    ext = line4.lex_extension(((0, 1), (1, 1)))
    assert ext.chi_ext.value((1, "q")) == -1
    assert ext.chi_ext.value((2, "q")) == -1
    assert ext.chi_ext.value((0, "q")) == 1
    # restriction to the old ground set is untouched
    assert all(ext.chi_ext.value(k) == line4.chi.value(k)
               for k in line4.chi.keys)


def test_lex_extension_rejects_non_basis(line4, parallel_pair):
    with pytest.raises(ValueError, match="basis"):
        line4.lex_extension(((0, 1), (0, -1)))
    with pytest.raises(ValueError, match="basis"):
        parallel_pair.lex_extension(((1, 1), (2, 1)))


def test_lex_extension_rank1():
    om = rank1_om((1,))
    ext = om.lex_extension(((0, 1),))
    assert ext.chi_ext.value(("q",)) == 1
    assert len(ext.bounded_topes()) == 1


def test_extension_bounded_topes_line4(line4, line4_topes):
    ext = line4.lex_extension(((0, 1), (1, -1)))
    assert ext.bounded_topes() == set(line4_topes[:3])
    other = line4.lex_extension(((0, 1), (1, 1)))
    assert other.bounded_topes() == set(line4_topes[1:])


def test_extension_bounded_matches_reduced_dim(pentagon):
    from omcanon import algebra_of
    ext = pentagon.lex_extension(((1, 1), (2, 1), (3, 1)))
    assert len(ext.bounded_topes()) == algebra_of(pentagon).reduced_dim(2)


def test_fundamental_circuit_line4(line4):
    ext = line4.lex_extension(((0, 1), (1, -1)))
    c = ext.fundamental_circuit((0, 1))
    assert c.value("q") == -1
    assert c.support <= {0, 1, "q"}
    assert all(c.is_orthogonal(y) for y in ext.om_ext.cocircuits)


def test_fundamental_circuit_boolean_full_support():
    om = boolean_om(3)
    ext = om.lex_extension(((0, 1), (1, 1), (2, 1)))
    c = ext.fundamental_circuit((0, 1, 2))
    assert c.support == {0, 1, 2, "q"}


def test_fundamental_circuit_pentagon(pentagon):
    ext = pentagon.lex_extension(((1, 1), (2, 1), (3, 1)))
    c = ext.fundamental_circuit((1, 2, 5))
    assert c.value("q") == -1
    assert c.support <= {1, 2, 5, "q"}
    assert all(c.is_orthogonal(y) for y in ext.om_ext.cocircuits)


def test_extension_generality_certified(pentagon):
    # no hyperplane of M u q may be (hyperplane of M) plus q
    ext = pentagon.lex_extension(((2, -1), (4, 1), (5, -1)))
    m = ext.om_ext.underlying
    for flat in m.hyperplanes():
        if "q" in flat:
            assert m.rank_of(flat - {"q"}) < pentagon.rank - 1
    for hyp in pentagon.underlying.hyperplanes():
        assert m.rank_of(hyp | {"q"}) == pentagon.rank


def test_not_a_tope_raises(line4):
    bad = SignVector(line4.ground, (1, -1, 1, -1))
    with pytest.raises(NotATope):
        line4.require_tope(bad)


def test_extension_chirotope_is_valid(line4, pentagon):
    from omcanon import validate_chirotope
    for om, signatures in (
            (line4, [((0, 1), (1, -1)), ((2, 1), (3, 1))]),
            (pentagon, [((1, 1), (2, 1), (3, 1)), ((5, -1), (2, 1), (4, -1))])):
        for sig in signatures:
            validate_chirotope(om.lex_extension(sig).chi_ext)


def test_contraction_chirotope_is_valid(pentagon, pentagon_inf):
    from omcanon import validate_chirotope
    for om in (pentagon, pentagon_inf):
        for e in om.ground:
            validate_chirotope(om.contract(e).chi)
