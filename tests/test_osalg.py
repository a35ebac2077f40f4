import random
from fractions import Fraction

import pytest

from omcanon import algebra_of
from omcanon.chirotope import perm_parity_sign
from omcanon.osalg import OSElement

from conftest import rank1_om


def test_monomial_straightening_line4(line4):
    alg = algebra_of(line4)
    e12 = alg.monomial((1, 2))
    assert e12.terms == {(0, 2): Fraction(1), (0, 1): Fraction(-1)}
    assert alg.monomial((2, 1)) == -e12
    assert alg.monomial((1, 1)).is_zero


def test_monomial_maps_elements_to_atoms(parallel_pair):
    alg = algebra_of(parallel_pair)
    assert alg.monomial((2,)) == alg.monomial((1,))
    assert alg.monomial((1, 2)).is_zero  # same atom twice
    assert alg.dim(2) == 1


def test_monomial_unknown_label(line4):
    with pytest.raises(ValueError, match="unknown element"):
        algebra_of(line4).monomial((99,))


def test_dependent_sets_vanish(line4):
    alg = algebra_of(line4)
    assert alg.monomial((0, 1, 2)).is_zero  # rank 2, three generators


def test_wedge_examples(line4):
    alg = algebra_of(line4)
    d01 = alg.boundary(alg.monomial((0, 1)))
    d02 = alg.boundary(alg.monomial((0, 2)))
    d012 = alg.boundary(alg.monomial((0, 1, 2)))
    assert d01.wedge(d02) == d012
    x = alg.monomial((1,))
    assert x.wedge(x).is_zero


def test_wedge_skew_commutative(pentagon):
    alg = algebra_of(pentagon)
    x = alg.monomial((1,)) - 2 * alg.monomial((3,))
    y = alg.boundary(alg.monomial((2, 4)))
    assert x.wedge(y) == (-1) ** (x.grade * y.grade) * y.wedge(x)
    z = alg.monomial((5,))
    left = (x.wedge(y)).wedge(z)
    right = x.wedge(y.wedge(z))
    assert left == right


def test_wedge_grade_overflow_is_zero(line4):
    alg = algebra_of(line4)
    x = alg.boundary(alg.monomial((0, 1)))
    y = alg.monomial((2, 3))
    product = x.wedge(y)
    assert product.grade == 3 and product.is_zero


def test_product_formula(line4):
    # d e_S d e_T expands as the alternating sum over dropped T entries
    alg = algebra_of(line4)
    S, T = (0, 1), (0, 2)
    lhs = alg.boundary(alg.monomial(S)).wedge(alg.boundary(alg.monomial(T)))
    ell = len(T)
    rhs = alg.zero(lhs.grade)
    for i in range(ell):
        dropped = T[ell - 1 - i]
        seq = S + tuple(t for t in T if t != dropped)
        rhs = rhs + ((-1) ** (i + ell - 1)) * alg.boundary(alg.monomial(seq))
    assert lhs == rhs


def test_boundary_examples(line4):
    alg = algebra_of(line4)
    d12 = alg.boundary(alg.monomial((1, 2)))
    assert d12 == alg.monomial((1,)) - alg.monomial((2,))
    d012 = alg.boundary(alg.monomial((0, 1, 2)))
    expected = (alg.monomial((0, 1)) - alg.monomial((0, 2))
                + alg.monomial((1, 2)))
    assert d012 == expected
    assert alg.boundary(d012).is_zero


def test_boundary_squared_zero(pentagon):
    alg = algebra_of(pentagon)
    rng = random.Random(0)
    for _ in range(5):
        x = alg.zero(3)
        for key in alg.nbc[3]:
            x = x + alg.from_terms(3, {key: Fraction(rng.randint(-4, 4))})
        assert alg.boundary(alg.boundary(x)).is_zero


def test_residue_conventions(pentagon):
    alg = algebra_of(pentagon)
    e12 = alg.monomial((1, 2))
    r2 = alg.residue(2, e12)
    assert r2 == r2.algebra.monomial((1,))
    r1 = alg.residue(1, e12)
    assert r1 == -r1.algebra.monomial((2,))
    assert alg.residue(3, e12).is_zero


def test_residue_merges_atoms(pentagon_inf):
    # contracting the origin point makes 1,3 (and 2,4) parallel
    alg = algebra_of(pentagon_inf)
    target = alg.residue_algebra(0)
    assert target.matroid.rep_of(3) == 1
    x = alg.residue(0, alg.monomial((1, 3, 0)))  # e_{1,3} has repeated atom
    assert x.is_zero
    y = alg.residue(0, alg.monomial((1, 2, 0)))
    assert y == target.monomial((1, 2))


def test_residue_boundary_identity(pentagon):
    # Res_a(d e_{I,a,q}) = d e_{I,q} with the contracted atom second-to-last
    alg = algebra_of(pentagon)
    target = alg.residue_algebra(3)
    lhs = alg.residue(3, alg.boundary(alg.monomial((1, 3, 5))))
    rhs = target.boundary(target.monomial((1, 5)))
    assert lhs == rhs


def test_residue_iota_composition_zero(line4):
    alg = algebra_of(line4)
    src = alg.deletion_algebra(2)
    for key in src.nbc[1]:
        x = alg.iota(2, src.from_terms(1, {key: 1}))
        assert alg.residue(2, x).is_zero


def test_short_exact_sequence_ranks(line4, pentagon, parallel_pair):
    for om in (line4, pentagon, parallel_pair):
        alg = algebra_of(om)
        for a in alg.atoms:
            for k in range(1, om.rank + 1):
                iota = alg.iota_map(a, k)
                res = alg.residue_map(a, k)
                assert iota.rank() + res.rank() == alg.dim(k)
                for b in iota.domain_basis:
                    assert alg.residue(a, alg.iota(a, b)).is_zero


def test_joint_residue_injectivity(line4, pentagon, pentagon_inf):
    from omcanon import linalg
    for om in (line4, pentagon, pentagon_inf):
        alg = algebra_of(om)
        for d in range(1, om.rank):
            basis = alg.reduced_basis(d)
            rows = []
            for a in alg.atoms:
                target = alg.residue_algebra(a)
                cols = [target.dense(alg.residue(a, b), d - 1) for b in basis]
                if cols and cols[0]:
                    rows.extend(linalg.columns_matrix(cols))
            assert linalg.rank(rows) == len(basis)


def test_reduced_basis_dims(line4, pentagon):
    alg4 = algebra_of(line4)
    assert [alg4.reduced_dim(k) for k in range(2)] == [1, 3]
    span = {tuple(alg4.dense(b, 1)) for b in alg4.reduced_basis(1)}
    assert len(span) == 3
    alg5 = algebra_of(pentagon)
    assert [alg5.reduced_dim(k) for k in range(3)] == [1, 4, 6]


def test_reduced_dims_match_alternating_sums(line4, pentagon, pentagon_inf):
    for om in (line4, pentagon, pentagon_inf):
        alg = algebra_of(om)
        for k in range(om.rank):
            expected = sum((-1) ** (k - j) * alg.dim(j) for j in range(k + 1))
            assert alg.reduced_dim(k) == expected


def test_kernel_equals_reduced_span(pentagon):
    from omcanon import linalg
    alg = algebra_of(pentagon)
    for k in range(1, pentagon.rank):
        bmap = alg.boundary_map(k)
        kernel_dim = alg.dim(k) - bmap.rank()
        assert kernel_dim == alg.reduced_dim(k)
        for b in alg.reduced_basis(k):
            assert alg.boundary(b).is_zero


def test_coordinates_roundtrip(line4):
    alg = algebra_of(line4)
    basis = alg.reduced_basis(1)
    x = alg.monomial((1,)) - alg.monomial((0,))
    coords = alg.coordinates_in(x, basis)
    rebuilt = alg.zero(1)
    for c, b in zip(coords, basis):
        rebuilt = rebuilt + c * b
    assert rebuilt == x
    outside = alg.monomial((1,))
    assert alg.coordinates_in(outside, basis) is None


def test_boundary_map_rank_equals_reduced(line4):
    alg = algebra_of(line4)
    assert alg.boundary_map(2).rank() == 3


def test_inverse_boundary(line4):
    alg = algebra_of(line4)
    y = alg.monomial((1,)) - alg.monomial((0,))
    x = alg.inverse_boundary(y)
    assert x == -alg.monomial((0, 1))
    assert alg.inverse_boundary(alg.zero(1)).is_zero
    with pytest.raises(ValueError, match="boundary-closed"):
        alg.inverse_boundary(alg.monomial((1,)))


def straighten_randomized(alg, seq, rng) -> OSElement:
    """Straightening with random rewrite choices (confluence oracle)."""
    seq = tuple(alg.matroid.rep_of(e) for e in seq)
    if len(set(seq)) != len(seq):
        return alg.zero(len(seq))
    positions = [alg._pos[a] for a in seq]
    sign = perm_parity_sign(positions)
    ordered = tuple(a for _, a in sorted(zip(positions, seq)))
    expansion = alg._straighten_with(ordered, chooser=rng.choice)
    return OSElement(alg, len(seq), {k: sign * v for k, v in expansion.items()})


def test_straightening_confluence(pentagon_inf):
    alg = algebra_of(pentagon_inf)
    rng = random.Random(3)
    ground = pentagon_inf.ground
    for _ in range(25):
        size = rng.choice((2, 3))
        seq = rng.sample(ground, size)
        assert straighten_randomized(alg, seq, rng) == alg.monomial(seq)


def test_rank0_algebra():
    om = rank1_om((1,)).contract(0)
    alg = algebra_of(om)
    assert alg.dim(0) == 1
    assert alg.one().terms == {(): Fraction(1)}
