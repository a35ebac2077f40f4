import json
import os
import random
from itertools import combinations, product

import pytest

from omcanon import (Chirotope, NotATope, OrientedMatroid, SignVector,
                     UnderlyingMatroid, algebra_of, bounded_extension,
                     build_flag, canonical_form_tope, check_residue_axioms,
                     chirotope_from_matrix, nonreduced_canonical_form,
                     perturbation_signature, simplex_identity_check,
                     validate_chirotope)
from omcanon import om as om_module
from omcanon._memo import cache_sizes
from omcanon.cli import run
from omcanon.om import _circuits, _conformal_rows, _facet_classes, is_acyclic

import label_walk
import oracle_ops
import tope_walk
from conftest import (FIXTURES, NONUNIFORM, PAPPUS_LINE, SEEDED_CASES,
                      all_full_support_vectors, boolean_om, facet_elements,
                      named_om, nonuniform_matrix, nonuniform_om,
                      oracle_covectors, oracle_topes, outcome,
                      pappus_chirotope, rank1_om, relabellings)
from frozenset_matroid import UnderlyingMatroid as FrozensetMatroid
from oracle_ops import (compose, conforms_to, extend, is_nonnegative,
                        is_orthogonal, is_zero, restrict, support,
                        value_cocircuits)
from tuple_signvec import SignVector as TupleSignVector
from tuple_signvec import covector_closure as tuple_covector_closure

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_DATA = os.path.join(HERE, os.pardir, "demos", "data")


def zero_vector(om) -> SignVector:
    return SignVector(om.ground, (0,) * len(om.ground))


def test_circuits_line4(line4):
    supports = {support(c) for c in line4.circuits}
    assert supports == {frozenset(s) for s in
                        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}
    pattern = next(c for c in line4.circuits
                   if support(c) == {0, 1, 2} and c.value(0) == 1)
    assert (pattern.value(0), pattern.value(1), pattern.value(2)) == (1, -1, 1)
    assert all(-c in line4.circuits for c in line4.circuits)


def test_circuits_rank1_single():
    assert rank1_om((1,)).circuits == frozenset()


def test_circuits_pentagon(pentagon):
    supports = {support(c) for c in pentagon.circuits}
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


@pytest.mark.parametrize(
    "name", ["line4", "pentagon", "parallel_pair", "nonpappus"])
def test_is_tope_matches_closure(name, request):
    """is_tope (conformal cocircuit composition) against membership in the
    covector closure: every full-support vector, and every sign vector of
    the small fixtures."""
    om = request.getfixturevalue(name)
    vectors = list(all_full_support_vectors(om.ground))
    if name in ("line4", "pentagon"):
        vectors = all_sign_vectors(om.ground)
    closure = {x for x in om.covectors if x.has_full_support}
    for x in vectors:
        assert om.is_tope(x) == (x in closure)
    t = next(iter(closure))
    assert om.is_tope(t)
    other = tuple(reversed(om.ground))
    assert not om.is_tope(SignVector(other, t.signs))
    assert not om.is_tope(extend(t, om.ground + ("q",), fill=1))
    assert not om.is_tope(SignVector((), ()))


def _plain(vectors) -> set:
    assert all(type(x) is SignVector for x in vectors)
    return {(x.ground, x.signs) for x in vectors}


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "parallel_pair", "nonpappus", "rank1",
                                  "boolean3", "uniform_r4"])
def test_closure_matches_tuple_oracle(name, request):
    """Covectors, topes, sorted topes and the faces of every tope equal the
    closure of the tuple-based sign vectors over the same cocircuits."""
    om = named_om(name, request)
    cocircuits = [TupleSignVector(om.ground, y.signs) for y in om.cocircuits]
    covectors = tuple_covector_closure(om.ground, cocircuits)
    topes = [x for x in covectors if x.has_full_support]
    assert _plain(om.covectors) == {(x.ground, x.signs) for x in covectors}
    assert _plain(om.topes) == {(x.ground, x.signs) for x in topes}
    assert ([x.signs for x in om.sorted_topes()]
            == [x.signs for x in sorted(topes, key=TupleSignVector.sort_key)])
    for t in topes:
        faces = tuple_covector_closure(
            om.ground, [y for y in cocircuits if y.conforms_to(t)])
        assert (_plain(om.faces(SignVector(t.ground, t.signs)))
                == {(x.ground, x.signs) for x in faces})


WALK_SEEDS = [f"{name}-{seed}" for name in NONUNIFORM for seed in range(6)]


def walk_oms(name, request) -> list:
    """[a fixture by name], [`uniform_r4`], [the non-realizable
    `tests/data/nonpappus_ext10.json`], or, for "shape-seed", the NONUNIFORM
    shape at that seed under each of its relabellings."""
    if name in WALK_SEEDS:
        shape, seed = name.rsplit("-", 1)
        chi = nonuniform_om(*NONUNIFORM[shape], seed=int(seed)).chi
        return [OrientedMatroid(variant) for variant in relabellings(chi)]
    return [named_om(name, request)]


@pytest.mark.parametrize("name", FIXTURES + ["uniform_r4", "nonpappus_ext10"]
                         + WALK_SEEDS)
def test_tope_walk_matches_closure(name, request):
    """The topes (the scatter of `OrientedMatroid.topes`) and the
    tope-graph walk of `tope_walk.walk_topes` both give the full-support
    members of the covector closure, and, up to n = 8, the full-support
    vectors orthogonal to every circuit; the bounded topes at every element
    are those of the closure that the sign-vector walk finds bounded."""
    for om in walk_oms(name, request):
        closure = frozenset(x for x in om.covectors if x.has_full_support)
        assert om.topes == closure == tope_walk.walk_topes(om)
        assert om.sorted_topes() == sorted(closure, key=SignVector.sort_key)
        if len(om.ground) <= 8:
            assert om.topes == oracle_topes(om)
        for e in om.ground:
            assert om.bounded_topes(e) == frozenset(
                t for t in closure if tope_walk.bounded_tope(om, t, e))


def test_tope_walk_rank0_has_no_topes():
    """Rank 0 on a nonempty ground set: every element is a loop, the
    composition of no cocircuits is the zero vector, and neither the
    scatter nor the walk nor the closure has a tope."""
    om = OrientedMatroid(EDGE_CHIROTOPES["rank0"])
    assert om.topes == tope_walk.walk_topes(om) == frozenset()
    assert not any(x.has_full_support for x in om.covectors)
    assert om.sorted_topes() == []


def scatter_oms(name, request) -> list:
    """The oriented matroid of a `SEEDED_CASES` name under each of its
    relabellings, or, for "random_r3-seed" and "random_r4-seed", that of a
    seeded 3 x 8 or 4 x 8 matrix with a vanishing minor and a parallel
    class (`nonuniform_matrix`, entries in [-2, 2])."""
    if name.startswith("random_r"):
        shape, seed = name.rsplit("-", 1)
        mat = nonuniform_matrix(int(shape[-1]), 8, 2, seed=int(seed))
        return [OrientedMatroid(chirotope_from_matrix(mat))]
    return [OrientedMatroid(chi)
            for chi in relabellings(named_om(name, request).chi)]


SCATTER_CASES = (SEEDED_CASES
                 + [f"random_r{r}-{seed}" for r in (3, 4)
                    for seed in range(10, 16)])


@pytest.mark.parametrize("name", SCATTER_CASES)
def test_scatter_matches_walk(name, request):
    """The compositions of the NBC bases' fundamental cocircuits
    (`OrientedMatroid.topes`) are the topes the tope-graph walk finds and,
    on the first variant, the full-support vectors orthogonal to every
    circuit; a relabelling keeps them position by position."""
    oms = scatter_oms(name, request)
    first = oms[0]
    assert first.topes == oracle_topes(first)
    for om in oms:
        assert om.topes == tope_walk.walk_topes(om)
        assert ({(t.plus, t.minus) for t in om.topes}
                == {(t.plus, t.minus) for t in first.topes})


def fundamental_compositions(om, key) -> list:
    """The 2^r compositions e_1 C_1 o ... o e_r C_r at the NBC basis key,
    C_j(e) = chi(key with k_j replaced by e) chi(key), from
    `Chirotope.value` and `oracle_ops.compose` alone."""
    chi = om.chi
    out = [SignVector(om.ground, (0,) * len(om.ground))]
    for j, k in enumerate(key):
        c = SignVector(om.ground, tuple(
            chi.value(key[:j] + (e,) + key[j + 1:]) * chi.value(key)
            for e in om.ground))
        out = [compose(x, y) for x in out for y in (c, -c)]
    return out


@pytest.mark.parametrize("name", SCATTER_CASES)
def test_scatter_counts_two_to_the_rank_per_nbc_basis(name, request):
    """At each NBC basis K the 2^r compositions of its fundamental
    cocircuits, computed from chirotope values, are distinct topes and are
    the topes whose top-grade form holds e_K (Finding 1's corollary): so
    there are 2^r dim A^r of them in all, and together they reach every
    tope."""
    om = scatter_oms(name, request)[0]
    r = om.rank
    keys = om.underlying.nbc_sets(r)
    holding: dict = {key: set() for key in keys}
    for t in om.topes:
        for key in nonreduced_canonical_form(om, t).terms:
            holding[key].add(t)
    reached = set()
    total = 0
    for key in keys:
        found = fundamental_compositions(om, key)
        total += len(found)
        assert len(set(found)) == 2 ** r
        assert set(found) == holding[key] <= om.topes
        reached.update(found)
    assert total == 2 ** r * algebra_of(om).dim(r)
    assert reached == om.topes


@pytest.mark.parametrize("chi, topes", [
    (Chirotope((), 0, (1,)), {()}),
    (Chirotope((), 0, (-1,)), {()}),
    (Chirotope((0,), 0, (1,)), set()),
    (Chirotope((0, 1, 2), 0, (1,)), set()),
    (Chirotope((0,), 1, (1,)), {(1,), (-1,)}),
    (Chirotope((0, 1, 2), 1, (1, -1, 1)), {(1, -1, 1), (-1, 1, -1)}),
])
def test_scatter_edge_cases(chi, topes):
    """Rank 0: the one NBC set is empty and composes to the zero vector, a
    tope on an empty ground set and none on a nonempty one.  Rank 1: every
    NBC basis is one atom representative, whose cocircuit is chi itself."""
    om = OrientedMatroid(chi)
    assert {t.signs for t in om.topes} == topes
    assert om.topes == tope_walk.walk_topes(om)
    assert om.sorted_topes() == sorted(om.topes, key=SignVector.sort_key)


def test_tope_walk_flips_whole_parallel_classes(parallel_pair):
    """Every tope of parallel_pair has both classes, {0} and the parallel
    {1, 2}, as facets; flipping a class gives a tope, flipping 1 or 2 alone
    does not."""
    om = OrientedMatroid(parallel_pair.chi)
    classes = om.underlying._atom_masks
    assert sorted(classes) == [0b001, 0b110]
    assert len(om.topes) == 4
    for t in om.topes:
        facets = _facet_classes(3, _conformal_rows(om.chi, t.minus).values(),
                                classes)
        assert sorted(facets) == [0b001, 0b110]
        for c in (0b001, 0b110, 0b010, 0b100):
            flip = SignVector._from_masks(om.ground, t.plus ^ c, t.minus ^ c)
            assert (flip in om.topes) == (c in classes)


def test_loop_still_raises():
    for validate in (True, False):
        with pytest.raises(ValueError, match="^loop: 2$"):
            OrientedMatroid(EDGE_CHIROTOPES["loop"], validate=validate)


def test_topes_never_build_the_covector_closure(pentagon_inf, monkeypatch,
                                                capsys):
    """Topes, sorted topes, both bounded-tope queries and `omcanon info`
    walk the tope graph; only covectors and faces build the closure."""
    def no_closure(ground, cocircuits):
        raise AssertionError("the covector closure was built")

    monkeypatch.setattr(om_module, "_covector_closure", no_closure)
    om = OrientedMatroid(pentagon_inf.chi)
    assert om.sorted_topes() == pentagon_inf.sorted_topes()
    assert om.topes == pentagon_inf.topes
    assert om.bounded_topes(0) == pentagon_inf.bounded_topes(0)
    ext = om.lex_extension(perturbation_signature(om))
    assert ext.bounded_topes() == pentagon_inf.lex_extension(
        perturbation_signature(pentagon_inf)).bounded_topes()
    assert run(["info", "--input",
                os.path.join(DEMO_DATA, "pentagon_inf.json")]) == 0
    assert json.loads(capsys.readouterr().out)["n_topes"] == len(om.topes)
    with pytest.raises(AssertionError, match="closure was built"):
        om.covectors


def test_faces_line4(line4, line4_topes):
    p1 = line4_topes[1]
    faces = line4.faces(p1)
    proper = [f for f in faces if not is_zero(f) and f != p1]
    assert {f.zero_set for f in proper} == {frozenset({1}), frozenset({2})}
    assert all(f.value(0) == 1 for f in proper)
    p0 = line4_topes[0]
    assert any(f.value(0) == 0 for f in line4.faces(p0)
               if not is_zero(f) and f != p0)


def test_faces_rank1():
    om = rank1_om((1,))
    plus = SignVector(om.ground, (1,))
    assert om.faces(plus) == {zero_vector(om), plus}


def test_is_facet(line4, line4_topes):
    facets = facet_elements(line4.chi.reorient(line4_topes[1]),
                            line4.underlying)
    assert 1 in facets
    assert 3 not in facets


def test_pentagon_all_facets(pentagon):
    plus = SignVector(pentagon.ground, (1,) * 5)
    facets = facet_elements(pentagon.chi.reorient(plus), pentagon.underlying)
    assert all(a in facets for a in pentagon.atom_reps)


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


@pytest.mark.parametrize("label", [99, "x"])
def test_unknown_labels_raise_value_error(line4, line4_topes, pentagon_matrix,
                                          label):
    """Contractions, extensions, sign-vector lookups and matrix columns
    reject a label outside the ground set with the ValueError of
    `Chirotope.contract`, not a bare KeyError."""
    t = line4_topes[0]
    mat = pentagon_matrix
    calls = [lambda: line4.contract(label),
             lambda: line4.chi.contract(label),
             lambda: line4.lex_extension(((0, 1), (label, 1))),
             lambda: t.value(label), lambda: restrict(t, (0, label)),
             lambda: mat.column(label),
             lambda: mat.functional(label, (1,) * mat.nrows)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"unknown element label {label!r}"):
            call()


def test_reoriented_topes_are_images(pentagon):
    """Reorienting the chirotope by p maps every circuit, covector and tope
    X of the oriented matroid to X with its signs flipped on p's minus part."""
    plus = SignVector(pentagon.ground, (1,) * 5)
    assert OrientedMatroid(pentagon.chi.reorient(plus)).topes == pentagon.topes
    tope = pentagon.sorted_topes()[3]
    nontope = SignVector(pentagon.ground, (1, -1, 1, -1, 1))
    assert nontope not in pentagon.topes
    for p in (tope, nontope):
        flipped = OrientedMatroid(pentagon.chi.reorient(p))

        def image(x, p=p):
            return SignVector(x.ground, tuple(
                a * b for a, b in zip(x.signs, p.signs)))

        assert flipped.circuits == {image(c) for c in pentagon.circuits}
        assert flipped.covectors == {image(x) for x in pentagon.covectors}
        assert flipped.topes == {image(t) for t in pentagon.topes}
        assert (plus in flipped.topes) == (p in pentagon.topes)


def test_orthogonality_invariant(line4, pentagon):
    for om in (line4, pentagon):
        for t in om.topes:
            assert all(is_orthogonal(t, c) for c in om.circuits)
        for x in om.covectors:
            assert all(is_orthogonal(x, c) for c in om.circuits)


def test_acyclicity(line4):
    assert line4.is_acyclic()
    anti = rank1_om((1, -1))
    assert not anti.is_acyclic()


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_tope_reorientations_are_acyclic(name, request):
    """The reorientation by a tope has the all-plus vector as a tope, so it
    is acyclic: the triangulation suite places it without a test."""
    om = named_om(name, request)
    assert om.topes
    assert all(is_acyclic(om.chi.reorient(t)) for t in om.topes)


# Chirotopes no fixture has: rank 0 on two elements, and rank 2 with the
# loop 2, which the validator and UnderlyingMatroid refuse.
EDGE_CHIROTOPES = {
    "rank0": Chirotope((0, 1), 0, (1,)),
    "loop": Chirotope.from_map((0, 1, 2), 2, {(0, 1): 1}),
}


@pytest.mark.parametrize(
    "name", ["line4", "pentagon", "parallel_pair", "nonpappus", "rank1",
             "boolean3", "rank0", "loop"])
def test_is_acyclic_matches_circuit_oracle(name, request):
    """is_acyclic(chi) against the signed circuits, on every reorientation.
    With rank at least 1 and no loop the acyclic ones are exactly the
    topes; rank 0 and n == r count as acyclic, and a loop is a positive
    circuit, so no reorientation of "loop" is acyclic."""
    om = None if name in EDGE_CHIROTOPES else named_om(name, request)
    base = EDGE_CHIROTOPES[name] if om is None else om.chi
    acyclic = 0
    for x in all_full_support_vectors(base.ground):
        chi = base.reorient(x)
        expected = not any(map(is_nonnegative, _circuits(chi)))
        assert is_acyclic(chi) == expected
        if om is not None:
            assert expected == (x in om.topes)
            assert OrientedMatroid(chi, validate=False).is_acyclic() == expected
        elif name == "rank0":
            assert OrientedMatroid(chi).is_acyclic()
        acyclic += expected
    every = 2 ** len(base.ground)
    if name in ("rank0", "boolean3"):
        assert acyclic == every
    elif name == "loop":
        assert acyclic == 0
    else:
        assert 0 < acyclic < every


# ---- reference: cocircuits and facets by chirotope evaluation -------------


def reachable_contractions(chis) -> set:
    """The chirotopes and every one reached from them by contracting atoms."""
    seen: set = set()
    stack = list(chis)
    while stack:
        chi = stack.pop()
        if chi in seen:
            continue
        seen.add(chi)
        if chi.rank:
            m = UnderlyingMatroid.from_chirotope(chi)
            stack.extend(chi.contract(a) for a in m.atom_reps)
    return seen


FACET_FIXTURES = ["line4", "pentagon", "pentagon_inf", "parallel_pair",
                  "nonpappus", "rank1", "boolean3"]


def tope_contractions(om) -> set:
    """Every acyclic reorientation of om and every contraction of them."""
    return reachable_contractions(
        [om.chi] + [om.chi.reorient(t) for t in om.topes])


@pytest.mark.parametrize("name", FACET_FIXTURES)
def test_cocircuits_match_value_oracle(name, request):
    """Cocircuits read off the sign table against chirotope evaluation."""
    for chi in tope_contractions(named_om(name, request)):
        cocircuits = OrientedMatroid(chi, validate=False).cocircuits
        assert cocircuits == value_cocircuits(chi)


@pytest.mark.parametrize("name", FACET_FIXTURES)
def test_facet_reader_matches_acyclicity_and_is_facet(name, request):
    """On every acyclic chirotope reached, an atom is read as a facet iff
    its contraction is acyclic iff the zero-out rule of `tope_walk` says so
    for the all-plus tope; the reader names whole parallel classes."""
    outcomes = set()
    for chi in tope_contractions(named_om(name, request)):
        if not is_acyclic(chi):
            continue
        om = OrientedMatroid(chi, validate=False)
        facets = facet_elements(chi, om.underlying)
        plus = SignVector(chi.ground, (1,) * len(chi.ground))
        assert facets <= set(chi.ground)
        for a in om.atom_reps:
            atom = oracle_ops.atom_of(om.underlying, a)
            contracted = is_acyclic(chi.contract(a))
            assert contracted == tope_walk.is_facet(om, plus, a)
            assert all((e in facets) == contracted for e in atom)
            outcomes.add(contracted)
    assert True in outcomes
    if name in ("line4", "pentagon", "pentagon_inf", "nonpappus"):
        assert False in outcomes


# ---- reference: tope questions by sign-vector walks ----------------------


def differential_om(name, request):
    """A fixture or NONUNIFORM oriented matroid, or (for "nonpappus_ext")
    the extension of non-Pappus by a seeded random signature."""
    if name != "nonpappus_ext":
        return named_om(name, request)
    om = request.getfixturevalue("nonpappus")
    signature = label_walk.random_signature(om, random.Random(0))
    return om.lex_extension(signature, label=9).om_ext


def full_support_sample(om) -> list:
    """Every full-support vector at n <= 6, else a seeded sample of 200
    distinct minus masks (all 128 at n = 7)."""
    n = len(om.ground)
    if n <= 6:
        return list(all_full_support_vectors(om.ground))
    return [SignVector._from_masks(om.ground, ~m & (1 << n) - 1, m)
            for m in random.Random(n).sample(range(1 << n), min(200, 1 << n))]


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM)
                         + ["nonpappus_ext"])
def test_tope_queries_match_sign_vector_walk(name, request):
    """Facets on every tope x atom, bounded topes at every element, and the
    covector, tope and boundedness tests on every full-support vector at
    n <= 6 and on a seeded sample of 200 of them (at most all) above,
    against the sign-vector walks they replaced.  Extensions by the
    perturbation signature and two seeded random ones get the same bounded
    topes too."""
    om = differential_om(name, request)
    facets = 0
    for t in om.topes:
        read = facet_elements(om.chi.reorient(t), om.underlying)
        for a in om.atom_reps:
            got = a in read
            assert got == tope_walk.is_facet(om, t, a)
            facets += got
    assert facets
    bounded = {e: om.bounded_topes(e) for e in om.ground}
    for e in om.ground:
        assert bounded[e] == frozenset(
            t for t in om.topes if tope_walk.bounded_tope(om, t, e))
    vectors = full_support_sample(om)
    if len(om.ground) > 6:
        assert not all(om.is_tope(x) for x in vectors)
    for x in vectors:
        assert om.is_covector(x) == tope_walk.is_covector(om, x)
        assert om.is_tope(x) == tope_walk.is_covector(om, x)
        for e in om.ground:
            assert (x in bounded[e]) == tope_walk.bounded_tope(om, x, e)
    rng = random.Random(0)
    for signature in [perturbation_signature(om),
                      label_walk.random_signature(om, rng),
                      label_walk.random_signature(om, rng)]:
        ext = om.lex_extension(signature)
        assert ext.bounded_topes() == tope_walk.extension_bounded_topes(ext)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM)
                         + ["nonpappus_ext"])
def test_memoized_forms_still_refuse_non_topes(name, request):
    """Once both forms of every tope are memoized, each non-tope of
    `full_support_sample`, and the complement of each, still raises
    NotATope with `require_tope`'s message from both form calls, and no
    memo entry is added; a tope of the sample, or its complement, reads
    its memoized forms.  A memo hit is a tope."""
    om = differential_om(name, request)
    memoized = {t: (canonical_form_tope(om, t),
                    nonreduced_canonical_form(om, t)) for t in om.topes}
    sizes = cache_sizes()
    refused = 0
    for x in full_support_sample(om):
        for y in (x, -x):
            if y in memoized:
                assert (canonical_form_tope(om, y),
                        nonreduced_canonical_form(om, y)) == memoized[y]
                continue
            refused += 1
            for form in (canonical_form_tope, nonreduced_canonical_form):
                with pytest.raises(NotATope) as info:
                    form(om, y)
                assert str(info.value) == f"{y} is not a tope"
    assert refused or name == "boolean3"
    assert cache_sizes() == sizes


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_residue_check_contracts_the_reoriented_chirotope(name, request):
    """At every facet of every tope, the contraction of the reoriented
    chirotope that `check_residue_axioms` reads is the contraction scaled
    by the tope's sign and reoriented by the restricted tope, which the
    check read before."""
    om = named_om(name, request)
    for t in om.topes:
        chi = om.chi.reorient(t)
        for a in facet_elements(chi, om.underlying) & set(om.atom_reps):
            assert chi.contract(a) == tope_walk.facet_chirotope(om, t, a)


def test_tope_queries_call_no_conforms_to(pentagon_inf, monkeypatch):
    """Every sign-vector question, tope or not, reads the hyperplane
    table's rows (`_conformal_rows`, or `Chirotope._cocircuit_rows` both
    signs), never the sign-vector conformality test of the reference
    walks: the tope questions, and the covector test and conformal
    cocircuits of every sign vector, the cocircuits and the covectors."""
    om = pentagon_inf
    ext = bounded_extension(om)
    topes = om.sorted_topes()
    expected = [tope_walk.conformal_cocircuits(om, t) for t in topes]
    vectors = all_sign_vectors(om.ground)
    answers = [(tope_walk.is_covector(om, x),
                set(tope_walk.conformal_cocircuits(om, x))) for x in vectors]
    cocircuits, covectors = om.cocircuits, om.covectors

    def no_conforms_to(x, y):
        raise AssertionError("oracle_ops.conforms_to called")

    monkeypatch.setattr(oracle_ops, "conforms_to", no_conforms_to)
    for t, conformal in zip(topes, expected):
        assert om.is_tope(t) and om.is_covector(t) and om.require_tope(t)
        assert sorted(om.conformal_cocircuits(t),
                      key=SignVector.sort_key) == sorted(
                          conformal, key=SignVector.sort_key)
        assert t in om.faces(t)
        assert (facet_elements(om.chi.reorient(t), om.underlying)
                & set(om.atom_reps))
        assert all(check_residue_axioms(om, t).values())
    assert om.bounded_topes(om.ground[0]) <= ext.bounded_topes()
    assert simplex_identity_check(ext, om.chi.nonzero_keys[0])["passed"]
    for x, (covector, conformal) in zip(vectors, answers):
        assert om.is_covector(x) == covector
        assert set(om.conformal_cocircuits(x)) == conformal
    fresh = OrientedMatroid(om.chi, validate=False)
    assert (fresh.cocircuits, fresh.covectors) == (cocircuits, covectors)


def all_sign_vectors(ground: tuple) -> list:
    return [SignVector(ground, s)
            for s in product((-1, 0, 1), repeat=len(ground))]


def sign_vector_sample(om) -> list:
    """Every sign vector at n <= 6; above, a seeded sample of 200 distinct
    ones, drawn by index among the 3^n, and every covector."""
    n = len(om.ground)
    if n <= 6:
        return all_sign_vectors(om.ground)
    drawn = random.Random(n).sample(range(3 ** n), 200)
    return [SignVector(om.ground, [d // 3 ** i % 3 - 1 for i in range(n)])
            for d in drawn] + sorted(om.covectors, key=SignVector.sort_key)


@pytest.mark.parametrize("name", FIXTURES + ["uniform_r4", "nonpappus_ext10"]
                         + list(NONUNIFORM))
def test_partial_support_questions_match_sign_vector_walk(name, request):
    """The covector test and the conformal cocircuits of every vector of
    `sign_vector_sample`, covector or not, zeros or not, and the faces of
    every tope, against the sign-vector walks and the covector closure."""
    om = named_om(name, request)
    covectors = om.covectors
    vectors = sign_vector_sample(om)
    kinds = {(x in covectors, x.has_full_support) for x in vectors}
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)} or name == "boolean3"
    for x in vectors:
        assert (om.is_covector(x) == tope_walk.is_covector(om, x)
                == (x in covectors))
        conformal = om.conformal_cocircuits(x)
        assert len(conformal) == len(set(conformal))
        assert set(conformal) == set(tope_walk.conformal_cocircuits(om, x))
    for t in om.topes:
        assert om.faces(t) == reference_faces(om, t)


def _conformal_rows_by_row(chi, m: int) -> dict | None:
    """`om._conformal_rows` read row by row over the whole hyperplane
    table, duplicates of parallel hyperplanes included."""
    full = (1 << len(chi.ground)) - 1
    rows = {h: p | q for h, (p, q) in enumerate(zip(*chi._hyperplanes))
            if (p or q) and (not (p & m or q & ~m) or not (q & m or p & ~m))}
    covered = 0
    for s in rows.values():
        covered |= s
    return rows if covered == full else None


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_tope_gate_reads_each_distinct_row_once(name, request):
    """`Chirotope._cocircuit_rows` holds each nonzero row of the hyperplane
    table once up to sign, with the indices of every H whose row it is,
    and `_conformal_rows` read on them gives, at every full-support mask,
    what reading every row gives; parallel hyperplanes share rows on the
    non-uniform cases."""
    chi = named_om(name, request).chi
    plus, minus = chi._hyperplanes
    seen, shared = {}, 0
    for p, q, hs in chi._cocircuit_rows:
        assert (p or q) and list(hs) == sorted(hs)
        assert {p, q} not in seen.values()
        for h in hs:
            assert {plus[h], minus[h]} == {p, q}
            seen[h] = {p, q}
        shared += len(hs) - 1
    assert sorted(seen) == [h for h, (p, q) in enumerate(zip(plus, minus))
                            if p or q]
    assert shared or 0 not in chi.signs
    for m in range(1 << len(chi.ground)):
        assert _conformal_rows(chi, m) == _conformal_rows_by_row(chi, m)


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
    for sign in (0, 2, -2):
        with pytest.raises(ValueError,
                           match=r"^signature signs must be \+1 or -1$"):
            line4.lex_extension(((0, 1), (1, sign)))


@pytest.mark.parametrize("sign", [1.5, "1", 1.0, True, -1.0])
def test_lex_extension_refuses_non_int_signs(line4, sign):
    """A signature sign that is not the int +1 or -1 is refused, not
    coerced: 1.5 and "1" would both read as 1 under int()."""
    with pytest.raises(ValueError,
                       match=r"^signature signs must be \+1 or -1$"):
        line4.lex_extension(((0, sign), (1, 1)))


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_lex_extension_matches_label_walk(name, request):
    """The perturbation signature of every element, seeded random basis
    signatures and seeded random r-subsets, dependent ones included: the
    same extended table as the label walk, or the same error."""
    om = named_om(name, request)
    rng = random.Random(0)
    signatures = [perturbation_signature(om, e) for e in om.ground]
    signatures += [label_walk.random_signature(om, rng) for _ in range(5)]
    signatures += [tuple((e, rng.choice((1, -1)))
                         for e in rng.sample(om.ground, om.rank))
                   for _ in range(5)]
    for signature in signatures:
        got = outcome(lambda: om.lex_extension(signature).chi_ext)
        assert got == outcome(label_walk.lex_extension, om, signature)


def test_lex_extension_names_first_non_general_set():
    """On an unvalidated table whose bases 01 and 23 share no element, [0, 1]
    gives 2 + q the sign 0 though 2 is independent: both paths name it."""
    om = OrientedMatroid(Chirotope.from_map(
        (0, 1, 2, 3), 2, {(0, 1): 1, (2, 3): 1}), validate=False)
    expected = (RuntimeError, "internal invariant violation: "
                "extension not general at (2,)")
    assert outcome(om.lex_extension, ((0, 1), (1, 1))) == expected
    assert outcome(label_walk.lex_extension, om, ((0, 1), (1, 1))) == expected


def test_lex_extension_reads_no_labels(nonpappus, monkeypatch):
    """The extended table and its generality check read the sign table by
    mask, never through `Chirotope.value`."""
    def no_value(self, seq):
        raise AssertionError("Chirotope.value called")

    signature = perturbation_signature(nonpappus)
    expected = label_walk.lex_extension(nonpappus, signature)
    monkeypatch.setattr(Chirotope, "value", no_value)
    assert nonpappus.lex_extension(signature).chi_ext == expected


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


# ---- reference: faces by a search over supports -------------------------


def reference_faces(om, tope) -> frozenset:
    """Breadth-first search over the supports of compositions of the
    conformal cocircuits, keeping one covector per support."""
    om.require_tope(tope)
    conformal = [y for y in om.cocircuits if conforms_to(y, tope)]
    supports = {frozenset(): zero_vector(om)}
    frontier = [zero_vector(om)]
    while frontier:
        nxt = []
        for x in frontier:
            for y in conformal:
                z = compose(x, y)
                s = support(z)
                if s not in supports:
                    supports[s] = z
                    nxt.append(z)
        frontier = nxt
    return frozenset(supports.values()) | {tope}


def reference_bounded_topes(om, base) -> frozenset:
    """Topes all of whose nonzero faces are strictly positive at base."""
    return frozenset(
        t for t in om.topes
        if t.value(base) == 1
        and all(is_zero(x) or x.value(base) == 1
                for x in reference_faces(om, t)))


def reference_extension_bounded_topes(ext) -> frozenset:
    """Topes P of M such that (P, +) is bounded at q in M u q."""
    out = []
    for t in ext.base.topes:
        lifted = extend(t, ext.chi_ext.ground, fill=1)
        if ext.om_ext.is_tope(lifted) and all(
                is_zero(x) or x.value(ext.label) == 1
                for x in reference_faces(ext.om_ext, lifted)):
            out.append(t)
    return frozenset(out)


def assert_matches_reference(om):
    for t in om.topes:
        assert om.faces(t) == reference_faces(om, t)
    for e in om.ground:
        assert om.bounded_topes(e) == reference_bounded_topes(om, e)


@pytest.mark.parametrize(
    "name", ["line4", "pentagon", "pentagon_inf", "parallel_pair", "nonpappus"])
def test_bounded_topes_match_face_search(name, request):
    om = request.getfixturevalue(name)
    assert_matches_reference(om)
    ext = bounded_extension(om)
    assert ext.bounded_topes() == reference_extension_bounded_topes(ext)
    for stage in build_flag(om).stages:
        assert_matches_reference(stage.om)
        assert (stage.ext.bounded_topes()
                == reference_extension_bounded_topes(stage.ext))


def test_bounded_topes_never_enumerate_faces(pentagon_inf, monkeypatch):
    def no_faces(self, tope):
        raise AssertionError("bounded-tope tests must not enumerate faces")

    monkeypatch.setattr(OrientedMatroid, "faces", no_faces)
    t0 = pentagon_inf.bounded_topes(0)
    assert len(t0) == pentagon_inf.underlying.beta()
    assert t0 <= bounded_extension(pentagon_inf).bounded_topes()


def test_fundamental_circuit_line4(line4):
    ext = line4.lex_extension(((0, 1), (1, -1)))
    c = ext.fundamental_circuit((0, 1))
    assert c.value("q") == -1
    assert support(c) <= {0, 1, "q"}
    assert all(is_orthogonal(c, y) for y in ext.om_ext.cocircuits)


def test_fundamental_circuit_boolean_full_support():
    om = boolean_om(3)
    ext = om.lex_extension(((0, 1), (1, 1), (2, 1)))
    c = ext.fundamental_circuit((0, 1, 2))
    assert support(c) == {0, 1, 2, "q"}


def test_fundamental_circuit_pentagon(pentagon):
    ext = pentagon.lex_extension(((1, 1), (2, 1), (3, 1)))
    c = ext.fundamental_circuit((1, 2, 5))
    assert c.value("q") == -1
    assert support(c) <= {1, 2, 5, "q"}
    assert all(is_orthogonal(c, y) for y in ext.om_ext.cocircuits)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM)
                         + list(EDGE_CHIROTOPES))
def test_circuits_match_label_walk(name, request):
    """The sign-table circuits equal the label walk they replaced, loops
    and rank 0 included, under every relabelling."""
    chi = (EDGE_CHIROTOPES[name] if name in EDGE_CHIROTOPES
           else named_om(name, request).chi)
    for variant in relabellings(chi):
        assert _circuits(variant) == label_walk.circuits(variant)


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_om_circuits_match_label_walk(name, request):
    """`OrientedMatroid.circuits`, read off the chirotope's circuit table,
    equals the label walk."""
    om = named_om(name, request)
    assert om.circuits == label_walk.circuits(om.chi)


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "nonpappus"])
def test_fundamental_circuit_matches_label_walk(name, request):
    """On the bounded extension, every r-subset in both orders: the same
    circuit, or the same "not a basis" error."""
    om = named_om(name, request)
    ext = bounded_extension(om)
    bases = 0
    for key in combinations(om.ground, om.rank):
        for basis in (key, key[::-1]):
            got = outcome(ext.fundamental_circuit, basis)
            assert got == outcome(label_walk.fundamental_circuit, ext, basis)
        bases += isinstance(got, SignVector)
        if not isinstance(got, SignVector):
            assert got == (ValueError, "not a basis")
    assert bases == len(om.chi.nonzero_keys)


@pytest.mark.parametrize("basis, label", [((0, 9), 9), ((0, "q"), "q")])
def test_fundamental_circuit_unknown_label(line4, basis, label):
    """A label outside the base ground set, the extension's own included,
    is reported by name, as `Chirotope.contract` does."""
    ext = bounded_extension(line4)
    with pytest.raises(ValueError,
                       match=f"^unknown element label {label!r}$"):
        ext.fundamental_circuit(basis)


def test_extension_generality_certified(pentagon):
    # no hyperplane of M u q may be (hyperplane of M) plus q
    ext = pentagon.lex_extension(((2, -1), (4, 1), (5, -1)))
    m = ext.om_ext.underlying
    for flat in FrozensetMatroid.from_chirotope(ext.chi_ext).hyperplanes():
        if "q" in flat:
            assert m.rank_of(flat - {"q"}) < pentagon.rank - 1
    for hyp in FrozensetMatroid.from_chirotope(pentagon.chi).hyperplanes():
        assert m.rank_of(hyp | {"q"}) == pentagon.rank


def test_not_a_tope_raises(line4):
    bad = SignVector(line4.ground, (1, -1, 1, -1))
    with pytest.raises(NotATope, match=r"^\(\+,-,\+,-\) is not a tope$"):
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
