import inspect
import random
from fractions import Fraction
from itertools import combinations

import pytest

from omcanon import (LinearMap, UnderlyingMatroid, algebra_of,
                     canonical_form_tope, expand_in_basis, forms, linalg,
                     nonreduced_canonical_form, structure_constants,
                     tutte_eval)
from omcanon.bases import _weight_form, sample_weight_vectors
from omcanon.chirotope import perm_parity_sign
from omcanon.osalg import OSAlgebra, OSElement, _coeff
from omcanon.serialize import oselement_to_document

import fraction_linalg
import fraction_osalg

from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES, contract_atom,
                      deletion_algebra, exact_sequence_maps, iota,
                      linear_map, named_om, nbc_vector, rank1_om,
                      stack_solve)


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


@pytest.mark.parametrize("seq", [(99,), (0, 99), ("x", 1)])
def test_monomial_names_the_unknown_label(line4, seq):
    label = next(e for e in seq if e not in line4.ground)
    with pytest.raises(ValueError, match=f"unknown element label {label!r}"):
        algebra_of(line4).monomial(seq)


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
    src = deletion_algebra(alg, 2)
    for key in src.nbc[1]:
        x = iota(alg, 2, src.from_terms(1, {key: 1}))
        assert alg.residue(2, x).is_zero


def test_short_exact_sequence_ranks(line4, pentagon, parallel_pair):
    for om in (line4, pentagon, parallel_pair):
        alg = algebra_of(om)
        for a in alg.atoms:
            for k in range(1, om.rank + 1):
                inc, res = exact_sequence_maps(alg, a, k)
                assert inc.rank() + res.rank() == alg.dim(k)
                for b in inc.domain_basis:
                    assert alg.residue(a, iota(alg, a, b)).is_zero


def test_joint_residue_injectivity(line4, pentagon, pentagon_inf):
    from omcanon import linalg
    for om in (line4, pentagon, pentagon_inf):
        alg = algebra_of(om)
        for d in range(1, om.rank):
            basis = alg.reduced_basis(d)
            rows = []
            for a in alg.atoms:
                target = alg.residue_algebra(a)
                rows.extend(linalg.columns_matrix(
                    [alg.residue(a, b).terms for b in basis],
                    target.nbc[d - 1]))
            assert len(linalg.greedy_independent(rows)) == len(basis)


def test_reduced_basis_dims(line4, pentagon):
    alg4 = algebra_of(line4)
    assert [alg4.reduced_dim(k) for k in range(2)] == [1, 3]
    span = {tuple(sorted(b.terms.items())) for b in alg4.reduced_basis(1)}
    assert len(span) == 3
    alg5 = algebra_of(pentagon)
    assert [alg5.reduced_dim(k) for k in range(3)] == [1, 4, 6]


@pytest.mark.parametrize("name", FIXTURES)
def test_reduced_basis_is_empty_outside_its_grades(name, request):
    """Like `dim`, the reduced basis is empty below grade 0 and from the
    rank up, and has its alternating-sum dimension in between."""
    om = named_om(name, request)
    alg = algebra_of(om)
    for k in range(-2, om.rank + 2):
        expected = (sum((-1) ** (k - j) * alg.dim(j) for j in range(k + 1))
                    if 0 <= k < om.rank else 0)
        assert alg.reduced_dim(k) == len(alg.reduced_basis(k)) == expected, k


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "parallel_pair", "nonpappus", "rank1",
                                  "boolean3"])
def test_tope_count_identities(name, request):
    """n_topes = sum of OS dims = T(2, 0) (Zaslavsky; Las Vergnas for oriented
    matroids), and the OS dims sum to twice the reduced dims because
    A = reduced + e_a0 * reduced at the first atom a0."""
    om = named_om(name, request)
    alg = algebra_of(om)
    r = om.rank
    assert (len(om.topes) == sum(alg.dim(k) for k in range(r + 1))
            == 2 * sum(alg.reduced_dim(k) for k in range(r))
            == tutte_eval(om.underlying.tutte(), 2, 0))


def test_kernel_equals_reduced_span(pentagon):
    from omcanon import linalg
    alg = algebra_of(pentagon)
    for k in range(1, pentagon.rank):
        bmap = linear_map(alg, alg, k, k - 1, alg.boundary)
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
    assert linear_map(alg, alg, 2, 1, alg.boundary).rank() == 3


def test_inverse_boundary(line4):
    alg = algebra_of(line4)
    y = alg.monomial((1,)) - alg.monomial((0,))
    x = alg.inverse_boundary(y)
    assert x == -alg.monomial((0, 1))
    assert alg.inverse_boundary(alg.zero(1)).is_zero
    with pytest.raises(ValueError, match="boundary-closed"):
        alg.inverse_boundary(alg.monomial((1,)))


def _expand_randomized(alg, key: tuple, rng) -> dict:
    """e_key (ascending atoms) in NBC coordinates, rewriting at a random
    applicable broken circuit of the label-frozenset oracle each time; the
    library rewrites at the one its NBC criterion names."""
    if len(key) > alg.rank or alg.matroid.rank_of(key) < len(key):
        return {}
    pairs = fraction_osalg.oracle_broken_circuits(alg.matroid.fingerprint)
    options = [bc for bc in pairs if bc[0] <= set(key)]
    if not options:
        return {key: Fraction(1)}
    broken, circuit = rng.choice(options)
    rest = tuple(a for a in key if a not in broken)
    if circuit[0] in rest:
        return {}
    pos = alg._pos
    sign_outer = perm_parity_sign([pos[a] for a in circuit[1:] + rest])
    out: dict = {}
    for j in range(1, len(circuit)):
        # relation: e_broken = sum_j (-1)^{j+1} e_{circuit minus c_j}
        seq = tuple(a for a in circuit if a != circuit[j]) + rest
        coeff = ((-1) ** (j + 1) * sign_outer
                 * perm_parity_sign([pos[a] for a in seq]))
        sub = tuple(sorted(seq, key=pos.get))
        for k, v in _expand_randomized(alg, sub, rng).items():
            out[k] = out.get(k, 0) + coeff * v
    return {k: v for k, v in out.items() if v != 0}


def straighten_randomized(alg, seq, rng) -> OSElement:
    """Straightening with random rewrite choices (confluence oracle)."""
    seq = tuple(alg.matroid.rep_of(e) for e in seq)
    if len(set(seq)) != len(seq):
        return alg.zero(len(seq))
    positions = [alg._pos[a] for a in seq]
    sign = perm_parity_sign(positions)
    ordered = tuple(a for _, a in sorted(zip(positions, seq)))
    expansion = _expand_randomized(alg, ordered, rng)
    return OSElement(alg, len(seq), {k: sign * v for k, v in expansion.items()})


def test_straightening_confluence(pentagon_inf):
    alg = algebra_of(pentagon_inf)
    rng = random.Random(3)
    ground = pentagon_inf.ground
    for _ in range(25):
        size = rng.choice((2, 3))
        seq = rng.sample(ground, size)
        assert straighten_randomized(alg, seq, rng) == alg.monomial(seq)


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus", "rank1"])
def test_cached_minor_algebras_need_no_matroid_build(name, request,
                                                     monkeypatch):
    """Once the algebras of its minors are cached, an algebra finds the
    residue and deletion algebras by fingerprint alone."""
    if name == "rank1":
        om = rank1_om((1, -1, 1))
    else:
        om = request.getfixturevalue(name)
    alg = algebra_of(om)
    warm = {rep: (alg.residue_algebra(rep), deletion_algebra(alg, rep))
            for rep in alg.atoms}
    builds = []
    init = UnderlyingMatroid.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(UnderlyingMatroid, "__init__", counting_init)
    contract_atom(alg.matroid, alg.atoms[0])
    assert len(builds) == 1  # the counter sees builds, of rank 0 too
    builds.clear()
    fresh = OSAlgebra(alg.matroid)
    for rep in alg.atoms:
        residue, deletion = warm[rep]
        assert fresh.residue_algebra(rep) is residue
        assert deletion_algebra(fresh, rep) is deletion
    assert builds == []


def test_rank0_algebra():
    om = rank1_om((1,)).contract(0)
    alg = algebra_of(om)
    assert alg.dim(0) == 1
    assert alg.one().terms == {(): Fraction(1)}


# ---- the first-atom read-offs against the elimination they replace --------


def contraction_closure(alg) -> list:
    """alg and every algebra reachable from it by contracting atoms."""
    seen = {id(alg): alg}
    todo = [alg]
    while todo:
        current = todo.pop()
        for rep in current.atoms:
            minor = current.residue_algebra(rep)
            if id(minor) not in seen:
                seen[id(minor)] = minor
                todo.append(minor)
    return list(seen.values())


def greedy_reduced_basis(alg, k: int) -> list:
    """The earlier reduced_basis: the boundaries of all NBC (k+1)-monomials,
    thinned earliest-first by elimination."""
    if k == 0:
        return [alg.one()]
    if k >= alg.rank:
        return []
    candidates = [alg.boundary(alg.from_terms(k + 1, {key: 1}))
                  for key in alg.nbc[k + 1]]
    chosen = linalg.greedy_independent([c.terms for c in candidates])
    return [candidates[i] for i in chosen]


def solved_inverse_boundary(alg, y):
    """The earlier inverse_boundary: a solve of the boundary map."""
    r = alg.rank
    if y.grade != r - 1:
        raise ValueError(f"expected grade {r - 1}, got {y.grade}")
    if not alg.boundary(y).is_zero:
        raise ValueError("input is not boundary-closed")
    sol = linear_map(alg, alg, r, r - 1, alg.boundary).solve(
        nbc_vector(alg, y, r - 1))
    if sol is None:
        raise RuntimeError("element not in the boundary image")
    return alg.from_terms(r, dict(zip(alg.nbc[r], sol)))


def value_error(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_first_atom_read_offs_match_elimination(name, request):
    """reduced_basis and inverse_boundary equal the greedy elimination and
    the boundary-map solve on every contraction algebra, in every grade."""
    om = named_om(name, request)
    rng = random.Random(0)
    algebras = contraction_closure(algebra_of(om))
    assert 0 in {alg.rank for alg in algebras}
    for alg in algebras:
        r = alg.rank
        for k in range(r + 1):
            assert alg.reduced_basis(k) == greedy_reduced_basis(alg, k)
        wrong_grade = alg.zero(r)
        assert (value_error(alg.inverse_boundary, wrong_grade)
                == value_error(solved_inverse_boundary, alg, wrong_grade))
        if r == 0:
            continue
        if r >= 2:
            unclosed = alg.from_terms(r - 1, {alg.nbc[r - 1][-1]: 1})
            message = value_error(alg.inverse_boundary, unclosed)
            assert message == "input is not boundary-closed"
            assert message == value_error(solved_inverse_boundary, alg,
                                          unclosed)
        for _ in range(3):
            x = alg.from_terms(r, {key: rng.randint(-3, 3)
                                   for key in alg.nbc[r]})
            y = alg.boundary(x)
            assert alg.inverse_boundary(y) == solved_inverse_boundary(alg, y)
            assert alg.inverse_boundary(y) == x


def count_linalg_calls(monkeypatch) -> list:
    """Record the name of every linalg function called from here on."""
    calls = []
    for name, fn in list(vars(linalg).items()):
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            def counting(*args, _name=name, _fn=fn):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(linalg, name, counting)
    return calls


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_reduced_basis_and_lift_need_no_elimination(name, request,
                                                    monkeypatch):
    """Neither read-off calls linalg, even on algebras with empty memos."""
    om = named_om(name, request)
    fresh = [OSAlgebra(alg.matroid)
             for alg in contraction_closure(algebra_of(om))]
    calls = count_linalg_calls(monkeypatch)
    linalg.greedy_independent([[1]])
    # the counter sees calls
    assert "greedy_independent" in calls and "_eliminate" in calls
    calls.clear()
    for alg in fresh:
        for k in range(alg.rank + 1):
            alg.reduced_basis(k)
        r = alg.rank
        if r:
            top = alg.from_terms(r, {key: 1 for key in alg.nbc[r]})
            alg.inverse_boundary(alg.boundary(top))
    assert calls == []


def monomial_sum(alg, grade: int, pairs) -> OSElement:
    """Oracle: the sum as one monomial per pair, added one at a time."""
    out = alg.zero(grade)
    for seq, c in pairs:
        out = out + alg.monomial(seq, c)
    return out


def random_pairs(rng, ground, grade: int) -> list:
    """Seeded (seq, c) pairs of one grade: ground labels in any order, some
    repeating an element, some repeated with another coefficient."""
    pairs = []
    for _ in range(rng.randint(1, 8)):
        seq = rng.sample(ground, grade)
        if grade >= 2 and rng.random() < 0.25:
            seq[-1] = seq[0]  # repeats an atom, so contributes zero
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        pairs.append((tuple(seq), c))
        if rng.random() < 0.2:
            pairs.append((tuple(seq), -c))
    return pairs


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_combination_matches_monomial_sum(name, request):
    """One straightened sum equals the sum of the straightened monomials,
    on labels that are not atom representatives (parallel_pair, the
    non-uniform matrices), dependent and repeating sequences, grade 0 and
    the empty list."""
    om = named_om(name, request)
    alg = algebra_of(om)
    rng = random.Random(f"combination:{name}")
    for grade in range(min(alg.rank + 1, len(om.ground)) + 1):
        assert alg.combination(grade, []) == alg.zero(grade)
        for _ in range(6):
            pairs = random_pairs(rng, list(om.ground), grade)
            want = monomial_sum(alg, grade, pairs)
            assert alg.combination(grade, pairs) == want, pairs
            assert alg.combination(grade, iter(pairs)) == want
    assert alg.combination(0, [((), 3), ((), Fraction(-1, 2))]) == \
        alg.one().scale(Fraction(5, 2))


def test_combination_rejects_a_sequence_of_another_grade(line4):
    alg = algebra_of(line4)
    with pytest.raises(ValueError, match="expected 2 entries, got 1"):
        alg.combination(2, [((0, 1), 1), ((2,), 1)])


FLOAT_ENTRIES = {
    "monomial": lambda a: a.monomial((1,), 0.1),
    "combination": lambda a: a.combination(1, [((1,), 1), ((2,), 0.5)]),
    "combination of repeats": lambda a: a.combination(2, [((1, 1), 0.5)]),
    "wedge": lambda a: a.wedge(a.one(), a.monomial((1,), 0.25)),
    "from_terms": lambda a: a.from_terms(1, {(1,): 0.5}),
    "scale": lambda a: a.monomial((1,)).scale(0.5),
    "rmul": lambda a: 0.5 * a.monomial((1,)),
}


@pytest.mark.parametrize("entry", list(FLOAT_ENTRIES))
def test_float_coefficients_are_refused(entry, line4):
    """No float enters the algebra: Fraction(0.1) would keep its binary
    expansion, 3602879701896397/36028797018963968, as if it were exact."""
    with pytest.raises(TypeError, match="float"):
        FLOAT_ENTRIES[entry](algebra_of(line4))


def test_exact_coefficients_still_enter(line4):
    """An int, a Fraction and a numeric string are exact."""
    alg = algebra_of(line4)
    e12 = alg.monomial((1, 2))
    assert (alg.monomial((1, 2), "3/2") == e12.scale(Fraction(3, 2))
            == 3 * e12.scale("1/2"))


GRADE_MISMATCHED = {
    "coordinates_in": lambda a: a.coordinates_in(a.one(),
                                                 a.reduced_basis(1)),
    "coordinates_in mixed basis": lambda a: a.coordinates_in(
        a.reduced_basis(1)[0], a.reduced_basis(1) + [a.one()]),
    "expand_in_basis": lambda a: expand_in_basis(a.one(),
                                                 a.reduced_basis(1)),
    "expand_in_basis of zero": lambda a: expand_in_basis(
        a.zero(0), a.reduced_basis(1)),
    "structure_constants": lambda a: structure_constants(
        [a.monomial(a.atoms[:1]), a.monomial(a.atoms[1:2])],
        a.reduced_basis(1), 0, 1),
}


@pytest.mark.parametrize("entry", list(GRADE_MISMATCHED))
def test_elements_of_another_grade_are_refused(entry, pentagon):
    """An element of the wrong grade is named, not a bare KeyError."""
    with pytest.raises(ValueError, match=r"^expected grade 1, got [02]$"):
        GRADE_MISMATCHED[entry](algebra_of(pentagon))


MISMATCHED = {
    "boundary": lambda a, x, y: a.boundary(y),
    "residue": lambda a, x, y: a.residue(a.atoms[0], y),
    "inverse_boundary": lambda a, x, y: a.inverse_boundary(y),
    "coordinates_in element": lambda a, x, y: a.coordinates_in(y, [x]),
    "coordinates_in basis": lambda a, x, y: a.coordinates_in(x, [x, y]),
    "coordinates_in empty basis": lambda a, x, y: a.coordinates_in(y, []),
    "wedge left": lambda a, x, y: a.wedge(y, x),
    "wedge right": lambda a, x, y: x.wedge(y),
    "expand_in_basis": lambda a, x, y: expand_in_basis(x, [y, y]),
    "structure_constants": lambda a, x, y: structure_constants(
        [a.monomial((0,)), x], [y], 0, 1),
}


@pytest.mark.parametrize("method", list(MISMATCHED))
def test_operations_refuse_elements_of_another_algebra(method, line4,
                                                       pentagon_inf):
    """Every operation of line4's algebra refuses a degree-one element of
    pentagon_inf's algebra, even one whose keys it knows."""
    a, b = algebra_of(line4), algebra_of(pentagon_inf)
    x, y = a.monomial((1,)), b.monomial((1,))
    with pytest.raises(ValueError, match="^context mismatch$"):
        MISMATCHED[method](a, x, y)


# ---- sparse columns against dense Fraction eliminations ----------------------


def shuffled_terms(rng, x) -> dict:
    """x's terms in a seeded random insertion order."""
    items = list(x.terms.items())
    rng.shuffle(items)
    return dict(items)


def sparse_families(om) -> dict:
    """{(label, grade): elements}: the reduced basis of every grade, with
    the sum of its first and last elements appended, so that one column
    depends on the others; omega wedge each reduced basis element at every
    grade, for the first sampled weights; and the forms of every tope, in
    the top grade."""
    alg, r = algebra_of(om), om.rank
    base = om.ground[0]
    omega = _weight_form(alg, sample_weight_vectors(om, base)[0], base)
    families = {}
    for k in range(r):
        basis = alg.reduced_basis(k)
        families["reduced", k] = basis + [basis[0] + basis[-1]]
        families["aomoto", k + 1] = [omega.wedge(b) for b in basis]
    families["topes", r - 1] = [canonical_form_tope(om, t)
                                for t in om.sorted_topes()]
    return families


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_greedy_on_terms_matches_dense_fraction_oracle(name, request):
    """`greedy_independent` on term dicts, each in a shuffled insertion
    order, picks the indices that the Fraction elimination picks on the
    dense vectors over every NBC key of the grade."""
    om = named_om(name, request)
    alg = algebra_of(om)
    rng = random.Random(f"sparse columns:{name}")
    for (label, grade), elements in sparse_families(om).items():
        dense = [nbc_vector(alg, y, grade) for y in elements]
        got = linalg.greedy_independent(
            [shuffled_terms(rng, y) for y in elements])
        assert got == fraction_linalg.greedy_independent(dense), (label,
                                                                  grade)


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_expand_in_basis_matches_dense_fraction_solve(name, request):
    """`coordinates_in` and `expand_in_basis` on the reduced basis of every
    grade equal a Fraction solve on the dense vectors: for combinations of
    the basis, tope forms, zero and seeded elements of the grade, None (and
    the outside-the-span error) exactly where that solve finds none."""
    om = named_om(name, request)
    alg, r = algebra_of(om), om.rank
    rng = random.Random(f"sparse solve:{name}")
    outside = 0
    for k in range(r):
        basis = alg.reduced_basis(k)
        mat = linalg.columns_matrix([b.terms for b in basis], alg.nbc[k])
        xs = [alg.zero(k), sum((b.scale(rng.randint(-3, 3)) for b in basis),
                               alg.zero(k))]
        xs += [alg.from_terms(k, {key: rng.randint(-2, 2)
                                  for key in alg.nbc[k]}) for _ in range(3)]
        if k == r - 1:
            xs += [canonical_form_tope(om, t) for t in om.sorted_topes()[:4]]
        for x in xs:
            want = fraction_linalg.solve(mat, nbc_vector(alg, x, k))
            assert alg.coordinates_in(x, basis) == want
            if want is None:
                with pytest.raises(RuntimeError, match="outside the span"):
                    expand_in_basis(x, basis)
            else:
                assert expand_in_basis(x, basis) == want
            outside += want is None
    assert outside or r == 1  # grade 0 alone is spanned by its basis
    one = alg.one()
    assert alg.coordinates_in(alg.zero(1), []) == []
    assert alg.coordinates_in(one, []) is None
    with pytest.raises(RuntimeError, match="outside the span"):
        expand_in_basis(one, [])
    if r > 1:
        with pytest.raises(ValueError, match="^expected grade 0, got 1$"):
            expand_in_basis(alg.reduced_basis(1)[0], [one])


def test_linear_map_into_an_empty_codomain(line4):
    """A map into a grade with no NBC keys has no rows; its solve still
    gives one zero coordinate per domain element."""
    alg = algebra_of(line4)
    _, res = exact_sequence_maps(alg, alg.atoms[0], 0)
    assert res.matrix == [] and len(res.domain_basis) == 1
    assert res.rank() == 0
    assert res.solve([]) == [0]
    assert LinearMap(["b", "c"], [], []).solve([]) == [0, 0]


def test_coordinates_in_a_grade_without_nbc_keys(line4):
    """Every element of a grade with no NBC keys is zero, so its coordinates
    in a basis of k such elements are k zeros, as `LinearMap.solve` gives;
    the grade check still runs."""
    alg = algebra_of(line4)
    z = alg.zero(alg.rank + 1)
    assert alg.dim(z.grade) == 0
    assert alg.coordinates_in(z, [z, z]) == [0, 0]
    assert expand_in_basis(z, [z]) == [0]
    assert alg.coordinates_in(z, []) == []
    with pytest.raises(ValueError, match="expected grade 3, got 2"):
        alg.coordinates_in(z, [z, alg.zero(2)])


# ---- int coefficients against the Fraction-coefficient oracle ----------------

ORACLE_ALGEBRAS = FIXTURES + list(NONUNIFORM) + ["nonpappus_ext10"]


def exact_coefficient(rng):
    """A seeded int, Fraction(p, q) or numeric string such as "-3/2"."""
    p, q = rng.randint(-4, 4), rng.randint(1, 3)
    return rng.choice((p, Fraction(p, q), f"{p}/{q}"))


def exact_pairs(rng, ground, grade: int) -> list:
    """`random_pairs` with coefficients from `exact_coefficient`."""
    return [(seq, exact_coefficient(rng))
            for seq, _ in random_pairs(rng, ground, grade)]


def assert_matches_oracle(oracle: fraction_osalg.FractionAlgebra,
                          x: OSElement, want: tuple) -> None:
    assert (x.grade, x.terms) == want
    assert oselement_to_document(x) == oracle.document(want)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_int_kernel_matches_fraction_oracle(name, request):
    """combination, boundary, residue and wedge agree with the earlier
    Fraction-coefficient straightening on every grade, up to one past the
    rank, on seeded sums with int, Fraction and string coefficients: the
    same terms and the same document."""
    om = named_om(name, request)
    alg = algebra_of(om)
    oracle = fraction_osalg.FractionAlgebra(alg)
    ground = list(om.ground)
    rng = random.Random(f"fraction oracle:{name}")
    for grade in range(min(alg.rank + 1, len(ground)) + 1):
        for _ in range(4):
            pairs = exact_pairs(rng, ground, grade)
            x = alg.combination(grade, pairs)
            want = oracle.combination(grade, pairs)
            assert_matches_oracle(oracle, x, want)
            assert_matches_oracle(oracle, alg.boundary(x),
                                  oracle.boundary(want))
            for a in alg.atoms if grade else ():
                res = alg.residue(a, x)
                assert_matches_oracle(
                    fraction_osalg.FractionAlgebra(res.algebra), res,
                    oracle.residue(a, want))
            other = min(alg.rank + 1 - grade, len(ground))
            for g in {1, other} if other > 0 else ():
                pairs = exact_pairs(rng, ground, g)
                y = alg.combination(g, pairs)
                assert_matches_oracle(
                    oracle, x.wedge(y),
                    oracle.wedge(want, oracle.combination(g, pairs)))


def nbc_key_spellings(rng, alg, key: tuple) -> list:
    """key as a sequence: itself, shuffled, with its first two atoms swapped,
    spelled with seeded members of its parallel classes, and with an atom
    repeated."""
    members = {a: [e for e in alg.matroid.ground if alg.matroid.rep_of(e) == a]
               for a in key}
    out = [key, tuple(rng.sample(key, len(key))),
           tuple(rng.choice(members[a]) for a in key)]
    if len(key) >= 2:
        out += [(key[1], key[0]) + key[2:], key[:-1] + key[:1]]
    return out


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_nbc_keys_pass_through_as_the_oracle_straightens_them(name, request):
    """combination reads a tuple that is an NBC key of its grade as that
    basis element and every other spelling of it (permuted, through parallel
    members, repeating an atom, a list, a generator) as the earlier
    per-term path does: one pair at a time and all of a grade as one sum,
    with int, Fraction and string coefficients, in the fixture's algebra and
    those of its contractions, where atoms may merge."""
    alg = algebra_of(named_om(name, request))
    rng = random.Random(f"nbc pass-through:{name}")
    respelled = False
    for minor in [alg] + [alg.residue_algebra(a) for a in alg.atoms]:
        oracle = fraction_osalg.FractionAlgebra(minor)
        for grade, keys in minor.nbc.items():
            pairs = []
            for key in keys:
                for seq in nbc_key_spellings(rng, minor, key):
                    respelled |= not set(seq) <= set(minor.atoms)
                    c = exact_coefficient(rng)
                    want = oracle.combination(grade, [(seq, c)])
                    for spelt in (seq, list(seq), iter(seq)):
                        assert_matches_oracle(
                            oracle, minor.combination(grade, [(spelt, c)]),
                            want)
                    pairs.append((seq, c))
                if grade >= 2:  # an odd permutation straightens, with its sign
                    swapped = (key[1], key[0]) + key[2:]
                    assert minor.combination(grade, [(swapped, 3)]).terms == \
                        {key: -3}
            assert_matches_oracle(oracle, minor.combination(grade, pairs),
                                  oracle.combination(grade, pairs))
    if name in ("parallel_pair", "pentagon_inf", "rank1"):
        assert respelled


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_nbc_key_sums_add_no_straightening_entry(name, request):
    """A sum whose sequences are all NBC keys straightens nothing, so the
    algebra's `_straight_cache` stays empty; a permuted key fills it."""
    alg = OSAlgebra(algebra_of(named_om(name, request)).matroid)
    for grade, keys in alg.nbc.items():
        x = alg.combination(grade, [(key, i + 1) for i, key in enumerate(keys)])
        assert x.terms == {key: i + 1 for i, key in enumerate(keys)}
    assert alg._straight_cache == {}
    key = alg.nbc[alg.rank][-1]
    if len(key) >= 2:
        alg.combination(alg.rank, [(key[::-1], 1)])
        assert alg._straight_cache


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_straightening_reads_circuits_only_to_rewrite(name, request):
    """On a fresh matroid, every ascending set of up to r+1 atom
    representatives that `rank_of` finds dependent straightens to 0 and
    every NBC key to itself, and none of them asks for a circuit; the
    independent sets that are not NBC rewrite, and only they ask
    (`_rewrite_circuit`)."""
    matroid = UnderlyingMatroid(
        *algebra_of(named_om(name, request)).matroid.fingerprint)
    alg = OSAlgebra(matroid)
    calls = []
    rewrite_circuit = matroid._rewrite_circuit
    matroid._rewrite_circuit = (
        lambda key: calls.append(key) or rewrite_circuit(key))
    rewrite = []
    for k in range(alg.rank + 2):
        for key in combinations(alg.atoms, k):
            if matroid.rank_of(key) < k:
                assert alg._straighten(key) == {}
            elif key in alg._nbc_pos[k]:
                assert alg._straighten(key) == {key: 1}
            else:
                rewrite.append(key)
    assert not calls
    for key in rewrite:
        assert key not in alg._straighten(key)
    assert bool(calls) == bool(rewrite)
    assert set(calls) <= set(rewrite)
    if name in ("line4", "pentagon"):
        assert rewrite


@pytest.mark.parametrize("spell", [tuple, list, iter])
def test_combination_errors_keep_their_messages(spell, line4):
    """An unknown label is named, also from a generator, after the NBC keys
    before it; a sequence of another length is refused; a rank-0 algebra
    names its loops."""
    alg = algebra_of(line4)
    with pytest.raises(ValueError, match="^unknown element label 99$"):
        alg.combination(2, [((0, 1), 1), (spell((0, 99)), 1)])
    with pytest.raises(ValueError, match="^unknown element label 'x'$"):
        alg.combination(1, [(spell(("x",)), 1)])
    for seq in ((2,), (0,), (0, 1, 2)):
        with pytest.raises(ValueError,
                           match=f"^expected 2 entries, got {len(seq)}$"):
            alg.combination(2, [((0, 1), 1), (spell(seq), 1)])
    loops = OSAlgebra(UnderlyingMatroid((1, 2), 0, 1))
    with pytest.raises(ValueError, match="^2 is a loop, in no atom$"):
        loops.combination(1, [(spell((2,)), 1)])
    with pytest.raises(ValueError, match="^unknown element label 0$"):
        loops.combination(1, [(spell((0,)), 1)])


# ---- the coefficient type ----------------------------------------------------


def assert_coefficient_types(x: OSElement) -> OSElement:
    """Every coefficient is an int when integral and a Fraction when not;
    never a float or a bool."""
    for v in x.terms.values():
        assert type(v) is (int if v.denominator == 1 else Fraction), (x, v)
    return x


@pytest.mark.parametrize("value, want", [
    (3, 3), (-2, -2), (True, 1), (Fraction(4, 2), 2), ("6/3", 2), ("-3", -3),
    (Fraction(1, 2), Fraction(1, 2)), ("-3/2", Fraction(-3, 2))])
def test_coefficient_gate(value, want):
    """`_coeff` turns every integral value into an int before any
    arithmetic, and keeps a Fraction only when it is not integral."""
    got = _coeff(value)
    assert got == want and type(got) is type(want)


def test_algebra_operations_keep_the_coefficient_type(pentagon):
    alg = algebra_of(pentagon)
    check = assert_coefficient_types
    x = check(alg.combination(2, [((1, 2), 3), ((2, 4), Fraction(4, 2)),
                                  ((3, 5), "6/3"), ((1, 5), True)]))
    assert x.terms and all(type(v) is int for v in x.terms.values())
    half = check(alg.combination(1, [((1,), Fraction(1, 2)), ((3,), "1/2"),
                                     ((2,), 2)]))
    assert {type(v) for v in half.terms.values()} == {int, Fraction}
    check(alg.one())
    check(alg.monomial((2, 4)))
    check(alg.monomial((2, 4), "3/2"))
    check(alg.monomial((2, 4), Fraction(6, 3)))
    check(alg.from_terms(2, {key: Fraction(2, 1) for key in alg.nbc[2]}))
    check(alg.from_terms(2, {key: "1/3" for key in alg.nbc[2]}))
    check(half.scale(2))
    check(half.scale(Fraction(1, 3)))
    even = x.scale(2)
    assert even.scale(Fraction(1, 2)) == x
    assert all(type(v) is int
               for v in check(even.scale(Fraction(1, 2))).terms.values())
    check(x + x.scale(Fraction(1, 2)))
    check(x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)))
    check(x - x.scale(Fraction(1, 2)))
    check(x.scale(Fraction(3, 2)) - x.scale(Fraction(1, 2)))
    check(-half)
    check(half.wedge(half.scale(3)))
    check(half.wedge(alg.monomial((4,), Fraction(2, 1))))
    check(alg.boundary(x))
    check(alg.boundary(half.wedge(alg.monomial((5,), "2/1"))))
    for a in alg.atoms:
        check(alg.residue(a, x))
        check(alg.residue(a, x.scale(Fraction(1, 2))))
    top = alg.from_terms(alg.rank, {key: Fraction(4, 2)
                                    for key in alg.nbc[alg.rank]})
    check(alg.inverse_boundary(check(alg.boundary(top))))


@pytest.mark.parametrize("name", FIXTURES)
def test_tope_forms_have_int_coefficients(name, request):
    """Every tope's reduced and non-reduced form, and the residue stack's
    solve that builds them, give int coefficients."""
    om = named_om(name, request)
    for tope in om.sorted_topes():
        for form in (canonical_form_tope(om, tope),
                     nonreduced_canonical_form(om, tope)):
            assert all(type(v) is int for v in form.terms.values()), form


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_residue_stack_solve_gives_ints(name, request):
    """The residue stack of the fixture's positional class solves the
    residues of a seeded integral top element back to it, with int
    coefficients."""
    matroid = algebra_of(named_om(name, request)).matroid
    ground, r, support = matroid.fingerprint
    alg, blocks, columns, _, _ = forms._stack(len(ground), r, support)
    coeffs = [i % 5 - 2 for i in range(len(columns))]
    image: dict = {}
    for column, c in zip(columns, coeffs):
        for i, v in column:
            image[i] = image.get(i, 0) + c * v
    targets = {a: target.from_terms(r - 1, {
        key: Fraction(image.get(offset + i, 0))
        for i, key in enumerate(target.nbc[r - 1])})
        for a, (target, offset, _) in blocks.items()}
    x = stack_solve(alg, targets)
    assert x == alg.from_terms(r, dict(zip(alg.nbc[r], coeffs)))
    assert all(type(v) is int for v in x.terms.values())
