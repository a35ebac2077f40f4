"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every assertion is exact (tolerance zero).
"""

import random
from fractions import Fraction

import pytest

from omcanon import (OrientedMatroid, SignVector, algebra_of, aomoto,
                     bounded_extension, build_flag,
                     canonical_form_from_triangulation, canonical_form_om,
                     canonical_form_tope, check_residue_axioms,
                     chirotope_from_matrix, graded_basis,
                     nonreduced_canonical_form, oriented_matroid_for,
                     placing_triangulation, sample_weight_vectors,
                     simplex_identity_check, tq_basis)
from omcanon import linalg

from conftest import (exact_sequence_maps, iota, oracle_topes,
                      random_arrangements)
from oracle_ops import scale
from test_matroid import whitney_abs


@pytest.fixture(scope="module")
def random_instances():
    mats = random_arrangements(10, seed=0, min_lines=5, max_lines=8)
    return [(m, OrientedMatroid(chirotope_from_matrix(m), validate=False))
            for m in mats]


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_rank_two_reproduction(line4, line4_topes):
    alg = algebra_of(line4)
    e = lambda i: alg.monomial((i,))

    positive = {t for t in line4.topes if t.value(0) == 1}
    assert positive == set(line4_topes)

    expected = [e(1) - e(0), e(2) - e(1), e(3) - e(2), e(0) - e(3)]
    for tope, want in zip(line4_topes, expected):
        assert canonical_form_tope(line4, tope) == want

    ext = bounded_extension(line4, 0)
    assert ext.bounded_topes() == set(line4_topes[:3])
    assert line4.bounded_topes(0) == set(line4_topes[1:3])
    assert line4.underlying.beta() == 2

    generic = aomoto(line4, {1: 1, 2: 1, 3: 1}, base=0)
    assert generic.dim_h == 2 and generic.is_generic
    degenerate = aomoto(line4, {1: 1, 2: 1, 3: -2}, base=0)
    assert not degenerate.is_generic
    report(1, "four-point line: topes, forms, T^q, T^0, beta, weighted "
              "cohomology incl. degeneracy detection")


def test_criterion_2_rank_three_reproduction(pentagon_matrix, pentagon):
    chi = pentagon.chi
    assert chi.value((1, 2, 5)) == 1
    assert chi.value((2, 3, 5)) == 1
    assert chi.value((1, 4, 5)) == -1

    alg = algebra_of(pentagon)
    d = lambda key: alg.boundary(alg.monomial(key))
    target = d((1, 2, 5)) + d((2, 3, 5)) - d((1, 4, 5))

    plus = SignVector(pentagon.ground, (1,) * 5)
    recursion = canonical_form_tope(pentagon, plus)
    triangulation = canonical_form_from_triangulation(
        chi, placing_triangulation(pentagon_matrix))
    assert recursion == target
    assert triangulation == target
    report(2, "pentagon arrangement: residue recursion and placing "
              "triangulation agree on d125 + d235 - d145")


def test_criterion_3_path_independence(random_instances):
    rng = random.Random(100)
    checked = 0
    for mat, om in random_instances:
        topes = om.sorted_topes()[:3]
        assert len(topes) >= 3
        for tope in topes:
            chi_t = om.chi.reorient(tope)
            reoriented = mat.reorient(tope)
            values = set()
            orders = [list(mat.labels)]
            for _ in range(4):
                order = list(mat.labels)
                rng.shuffle(order)
                orders.append(order)
            for order in orders:
                tri = placing_triangulation(reoriented, order)
                value = canonical_form_from_triangulation(chi_t, tri)
                values.add(tuple(sorted(value.terms.items())))
            assert len(values) == 1
            recursion = canonical_form_tope(om, tope)
            assert values == {tuple(sorted(recursion.terms.items()))}
            checked += 1
    report(3, f"{checked} reorientations x 5 insertion orders, "
              "identical reduced forms (and equal to the recursion)")


def test_criterion_4_residue_axioms(line4, pentagon, random_instances):
    failures = 0
    topes_checked = 0
    oms = [line4, pentagon] + [om for _, om in random_instances]
    for om in oms:
        for tope in om.topes:
            result = check_residue_axioms(om, tope)
            topes_checked += 1
            failures += sum(1 for ok in result.values() if not ok)
    assert failures == 0
    report(4, f"facet residue recursion on {topes_checked} topes, "
              "zero failures")


def test_criterion_5_basis_and_dimensions(line4, pentagon, pentagon_inf,
                                          random_instances):
    oms = [line4, pentagon, pentagon_inf] + [om for _, om in random_instances]
    for om in oms:
        alg = algebra_of(om)
        ext = bounded_extension(om)
        tq_basis(ext)  # raises unless exact full rank
        flag = build_flag(om)
        for k in range(1, om.rank + 1):
            pairs = graded_basis(flag, k)  # raises unless exact full rank
            grade = om.rank - k
            assert len(pairs) == alg.reduced_dim(grade)
            nbc_derived = sum((-1) ** (grade - j) * alg.dim(j)
                              for j in range(grade + 1))
            assert len(pairs) == nbc_derived
    report(5, f"bounded-tope bases have exact full rank and match "
              f"NBC dimensions on {len(oms)} instances")


def test_criterion_6_simplex_identity_exhaustive(line4, pentagon):
    count = 0
    for om, base in ((line4, 0), (pentagon, 1)):
        ext = bounded_extension(om, base)
        for basis in om.chi.nonzero_keys:
            assert simplex_identity_check(ext, basis)["passed"]
            count += 1
    report(6, f"simplex expansion identity on all {count} bases of both "
              "golden fixtures")


def test_criterion_7_bounded_cohomology(line4, pentagon, pentagon_inf):
    for om, base in ((line4, 0), (pentagon, 1), (pentagon_inf, 0)):
        beta = om.underlying.beta()
        assert len(om.bounded_topes(base)) == beta
        found = None
        for weights in sample_weight_vectors(om, base, seed=0, count=5):
            result = aomoto(om, weights, base=base)
            if result.is_generic:
                found = result
                break
        assert found is not None
        assert found.dim_h == beta and found.v_spans
    report(7, "bounded-tope count equals beta and the bounded forms give "
              "the top cohomology basis for seeded generic weights")


def test_criterion_8_structural_suite(line4, pentagon, pentagon_inf):
    rng = random.Random(0)
    for om in (line4, pentagon, pentagon_inf):
        alg = algebra_of(om)
        r = om.rank

        for k in range(1, r + 1):
            for key in alg.nbc[k]:
                x = alg.from_terms(k, {key: Fraction(rng.randint(1, 5))})
                assert alg.boundary(alg.boundary(x)).is_zero

        for a in alg.atoms:
            for k in range(1, r + 1):
                inc, res = exact_sequence_maps(alg, a, k)
                assert inc.rank() + res.rank() == alg.dim(k)
                for b in inc.domain_basis:
                    assert alg.residue(a, iota(alg, a, b)).is_zero

        for d in range(1, r):
            basis = alg.reduced_basis(d)
            rows = []
            for a in alg.atoms:
                target = alg.residue_algebra(a)
                rows.extend(linalg.columns_matrix(
                    [alg.residue(a, b).terms for b in basis],
                    target.nbc[d - 1]))
            assert len(linalg.greedy_independent(rows)) == len(basis)

        flipped = oriented_matroid_for(scale(om.chi, -1))
        for tope in om.sorted_topes():
            form = canonical_form_tope(om, tope)
            assert canonical_form_tope(flipped, tope) == -form
            assert canonical_form_tope(om, -tope) == (-1) ** r * form
            nr = nonreduced_canonical_form(om, tope)
            assert alg.boundary(nr) == form
            assert form.is_integral and nr.is_integral
    report(8, "boundary squared, exact sequences, joint injectivity, "
              "sign laws, boundary lift, integrality on all fixtures")


def test_criterion_9_oracle_equivalence(line4, pentagon, pentagon_inf):
    for om in (line4, pentagon, pentagon_inf):
        assert len(om.ground) <= 8
        assert om.topes == oracle_topes(om)
        alg = algebra_of(om)
        for k in range(om.rank + 1):
            assert alg.dim(k) == whitney_abs(om.underlying, k)
    report(9, "tope enumeration matches the brute-force orthogonality "
              "oracle and NBC dimensions match Whitney numbers")
