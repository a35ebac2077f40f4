import random
from functools import lru_cache

import pytest

from omcanon import (OrientedMatroid, SignVector, algebra_of,
                     canonical_form_from_triangulation, canonical_form_om,
                     canonical_form_tope, check_residue_axioms,
                     chirotope_from_matrix, linalg, nonreduced_canonical_form,
                     nonreduced_from_triangulation, oriented_matroid_for,
                     os_algebra_for)
from omcanon.forms import contracted_tope_chirotope

from conftest import boolean_om, rank1_om, uniform_r4_matrix


def ebasis(alg, e):
    return alg.monomial((e,))


def test_rank1_base_cases():
    om = rank1_om((1,))
    alg = algebra_of(om)
    assert canonical_form_om(om) == alg.one()
    anti = rank1_om((1, -1))  # antiparallel pair, not acyclic
    assert canonical_form_om(anti).is_zero


def test_nonacyclic_vanishes(line4, line4_topes):
    # a non-tope reorientation is not acyclic; its form is zero
    bad = SignVector(line4.ground, (1, -1, 1, -1))
    assert bad not in line4.topes
    om2 = oriented_matroid_for(line4.chi.reorient(bad))
    assert not om2.is_acyclic()
    assert canonical_form_om(om2).is_zero


def test_line4_tope_forms(line4, line4_topes):
    alg = algebra_of(line4)
    e = lambda i: ebasis(alg, i)
    expected = [e(1) - e(0), e(2) - e(1), e(3) - e(2), e(0) - e(3)]
    for tope, want in zip(line4_topes, expected):
        assert canonical_form_tope(line4, tope) == want


def test_triangulation_path_line4(line4, line4_topes):
    p1 = line4_topes[1]
    chi = line4.chi.reorient(p1)
    value = canonical_form_from_triangulation(chi, [(1, 2)])
    assert value == canonical_form_tope(line4, p1)


def test_pentagon_plus_form(pentagon):
    alg = algebra_of(pentagon)
    plus = SignVector(pentagon.ground, (1,) * 5)
    d = lambda key: alg.boundary(alg.monomial(key))
    expected = d((1, 2, 5)) + d((2, 3, 5)) - d((1, 4, 5))
    assert canonical_form_tope(pentagon, plus) == expected
    assert canonical_form_om(pentagon) == expected  # +^5 reorientation is trivial


def test_pentagon_both_paths_agree(pentagon, pentagon_matrix):
    from omcanon import placing_triangulation
    plus = SignVector(pentagon.ground, (1,) * 5)
    tri = placing_triangulation(pentagon_matrix)
    value = canonical_form_from_triangulation(pentagon.chi, tri)
    assert value == canonical_form_tope(pentagon, plus)


def test_sign_flip_of_chirotope(line4, line4_topes):
    flipped = oriented_matroid_for(line4.chi.scale(-1))
    for t in line4_topes:
        assert (canonical_form_tope(flipped, t)
                == -canonical_form_tope(line4, t))


def test_antipodal_sign(line4, pentagon, line4_topes):
    for om, topes in ((line4, line4_topes),
                      (pentagon, list(pentagon.sorted_topes())[:4])):
        r = om.rank
        for t in topes:
            assert (canonical_form_tope(om, -t)
                    == (-1) ** r * canonical_form_tope(om, t))


def test_boundary_of_nonreduced_is_reduced(line4, pentagon, line4_topes):
    for om, topes in ((line4, line4_topes),
                      (pentagon, list(pentagon.sorted_topes())[:4])):
        alg = algebra_of(om)
        for t in topes:
            nr = nonreduced_canonical_form(om, t)
            assert alg.boundary(nr) == canonical_form_tope(om, t)
            assert nr.is_integral


def test_nonreduced_line4_value(line4, line4_topes):
    alg = algebra_of(line4)
    p1 = line4_topes[1]
    nr = nonreduced_canonical_form(line4, p1)
    # reoriented chirotope value on (1,2) is -1, so the form is -e_{12}
    assert nr == -alg.monomial((1, 2))
    tri_val = nonreduced_from_triangulation(line4.chi.reorient(p1), [(1, 2)])
    assert nr == tri_val


def test_nonreduced_rank0():
    om = rank1_om((1,)).contract(0)
    alg = algebra_of(om)
    empty = SignVector((), ())
    assert nonreduced_canonical_form(om, empty) == alg.one()


def test_nonreduced_residue_recursion(pentagon):
    # the top-grade recursion is sign-free: Res_a W = W(facet contraction)
    alg = algebra_of(pentagon)
    plus = SignVector(pentagon.ground, (1,) * 5)
    nr = nonreduced_canonical_form(pentagon, plus)
    for a in pentagon.atom_reps:
        res = alg.residue(a, nr)
        sub_chi = contracted_tope_chirotope(pentagon, plus, a)
        sub_om = oriented_matroid_for(sub_chi)
        sub_tope = plus.restrict(sub_chi.ground)
        expected = nonreduced_canonical_form(sub_om, sub_tope)
        assert res.terms == expected.terms


def test_check_residue_axioms_fixtures(line4, pentagon):
    for om in (line4, pentagon):
        for t in om.topes:
            report = check_residue_axioms(om, t)
            assert all(report.values()), (str(t), report)


def test_residue_of_nonfacet_vanishes(line4, line4_topes):
    alg = algebra_of(line4)
    p1 = line4_topes[1]
    form = canonical_form_tope(line4, p1)
    assert alg.residue(3, form).is_zero
    assert alg.residue(0, form).is_zero


def test_boolean_single_basis(line4):
    om = boolean_om(2)
    alg = algebra_of(om)
    plus = SignVector(om.ground, (1, 1))
    assert (canonical_form_tope(om, plus)
            == alg.boundary(alg.monomial((0, 1))))


def test_triangulation_rejects_non_basis(line4):
    with pytest.raises(ValueError, match="not a basis"):
        canonical_form_from_triangulation(line4.chi, [(1, 1)])


def test_forms_are_integral(pentagon, pentagon_inf):
    for om in (pentagon, pentagon_inf):
        for t in om.sorted_topes():
            assert canonical_form_tope(om, t).is_integral


def test_memoization_shares_minor_forms(pentagon):
    from omcanon.forms import _canonical_form
    before = _canonical_form.cache_info().hits
    for t in pentagon.sorted_topes()[:6]:
        canonical_form_tope(pentagon, t)
    after = _canonical_form.cache_info().hits
    assert after > before  # contractions overlap across topes


def test_random_nonacyclic_reorientations_vanish(pentagon):
    rng = random.Random(5)
    count = 0
    while count < 5:
        signs = tuple(rng.choice((1, -1)) for _ in pentagon.ground)
        x = SignVector(pentagon.ground, signs)
        if x in pentagon.topes:
            continue
        count += 1
        om2 = oriented_matroid_for(pentagon.chi.reorient(x))
        assert not om2.is_acyclic()
        assert canonical_form_om(om2).is_zero


# ---- reference recursion: one OrientedMatroid per node, Fraction solves ----


class _FractionStack:
    """Stacked residue maps of the top reduced grade and a Fraction left
    inverse."""

    def __init__(self, alg):
        r = alg.rank
        self.reduced = alg.reduced_basis(r - 1)
        self.blocks = [(a, alg.residue_algebra(a)) for a in alg.atoms]
        rows = []
        for a, target in self.blocks:
            if self.reduced and target.dim(r - 2):
                rows.extend(linalg.columns_matrix(
                    [target.dense(alg.residue(a, b), r - 2)
                     for b in self.reduced]))
        self.matrix = rows
        self.left = linalg.left_inverse(rows) if self.reduced else []
        assert not self.reduced or self.left is not None

    def solve(self, targets: dict, r: int) -> list:
        stacked = []
        for a, target in self.blocks:
            if self.reduced and target.dim(r - 2):
                stacked.extend(target.dense(targets[a], r - 2))
            else:
                assert targets[a].is_zero
        if not self.reduced:
            return []
        coeffs = linalg.mat_vec(self.left, stacked)
        assert linalg.mat_vec(self.matrix, coeffs) == stacked
        return coeffs


_FRACTION_STACKS: dict = {}


@lru_cache(maxsize=None)
def reference_form(chi):
    """The reduced form of (M, chi) by the residue recursion, building a
    full OrientedMatroid at every node."""
    om = OrientedMatroid(chi, validate=False)
    alg = os_algebra_for(om.underlying)
    r = chi.rank
    if any(c.is_nonnegative for c in om.circuits):
        return alg.zero(r - 1)
    if r == 1:
        return alg.one().scale(chi.value((chi.ground[0],)))
    stack = _FRACTION_STACKS.get(alg.matroid.fingerprint)
    if stack is None:
        stack = _FRACTION_STACKS[alg.matroid.fingerprint] = _FractionStack(alg)
    targets = {}
    for a, _ in stack.blocks:
        atom = om.underlying.atom_of(a)
        targets[a] = reference_form(
            chi.contract(a, drop=atom - {a})).scale(-1)
    out = alg.zero(r - 1)
    for c, b in zip(stack.solve(targets, r), stack.reduced):
        out = out + b.scale(c)
    assert out.is_integral
    return out


@pytest.fixture(scope="module")
def uniform_r4():
    return OrientedMatroid(chirotope_from_matrix(uniform_r4_matrix(seed=3)))


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus", "uniform_r4"])
def test_recursion_matches_reference(name, request):
    om = request.getfixturevalue(name)
    for t in om.sorted_topes():
        assert canonical_form_tope(om, t) == reference_form(
            om.chi.reorient(t))


def test_residue_axioms_nonpappus(nonpappus):
    """The recursion on an oriented matroid that no matrix realizes."""
    seen = set()
    for t in nonpappus.sorted_topes():
        if -t in seen:
            continue
        seen.add(t)
        report = check_residue_axioms(nonpappus, t)
        assert report and all(report.values())
    assert len(seen) == 29
