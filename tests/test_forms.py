import random
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product

import pytest

from omcanon import (InvalidChirotope, OrientedMatroid, RationalMatrix,
                     SignVector, algebra_of,
                     canonical_form_from_triangulation, canonical_form_om,
                     canonical_form_tope, check_residue_axioms,
                     chirotope_from_matrix, linalg, nonreduced_canonical_form,
                     nonreduced_from_triangulation, oriented_matroid_for,
                     os_algebra_for, validate_chirotope)
from omcanon import forms, osalg
from omcanon import om as om_module
from omcanon._memo import cache_sizes, clear_caches
from omcanon import chirotope as chirotope_module
from omcanon.chirotope import Chirotope
from omcanon.matroid import UnderlyingMatroid
from omcanon.om import NotATope, is_acyclic
from omcanon.osalg import OSAlgebra, OSElement, os_algebra_of_chirotope
from omcanon.realization import _placing
from omcanon.signvec import _labels

import fraction_linalg
import residue_recursion
from face_flag import face_flag_form
from oracle_ops import is_nonnegative, restrict, scale, value_cocircuits
from tope_walk import contracted_tope_chirotope
from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES, boolean_om,
                      facet_elements, named_om, nbc_vector, rank1_om,
                      relabellings, stack_solve, uniform_r4_matrix)


def ebasis(alg, e):
    return alg.monomial((e,))


@pytest.mark.parametrize("signs, bad", [((2, 1), 2), ((1, 1.5), 1.5),
                                         (("1", 0), "1"), ((1, None), None)])
def test_oriented_matroid_for_checks_signs(signs, bad):
    """`oriented_matroid_for` skips the axiom check but not its sign check:
    a sign that equals none of the ints -1, 0 and 1 raises
    `validate_chirotope`'s InvalidChirotope, naming the first one, before
    any form is read.  (A sign such as 1.0 or True makes a chirotope equal
    to the int one, so the memo may hand back that one's valid oriented
    matroid.)"""
    chi = Chirotope(("a", "b"), 1, signs)
    key = ("a",) if signs[0] is bad else ("b",)
    message = f"sign {bad!r} at {key} is not -1, 0 or 1"
    with pytest.raises(InvalidChirotope) as info:
        canonical_form_tope(oriented_matroid_for(chi),
                            SignVector(("a", "b"), (1, 1)))
    assert str(info.value) == info.value.diagnostic == message
    with pytest.raises(InvalidChirotope) as info:
        validate_chirotope(chi)
    assert str(info.value) == message
    good = Chirotope(("a", "b"), 1, (1, 1))
    assert oriented_matroid_for(good) is oriented_matroid_for(good)
    assert canonical_form_tope(oriented_matroid_for(good), SignVector(
        ("a", "b"), (1, 1))) == algebra_of(OrientedMatroid(good)).one()


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
    flipped = oriented_matroid_for(scale(line4.chi, -1))
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
    assert nonreduced_from_triangulation(om.chi, [()]) == alg.one()


def test_reduced_form_rank0_raises():
    chi = rank1_om((1,)).chi.contract(0)
    with pytest.raises(ValueError, match="rank at least 1"):
        forms._at(chi, 0, reduced=True)
    assert forms._forms(chi, 0)[1] is None
    with pytest.raises(ValueError):
        canonical_form_from_triangulation(chi, [()])


def _reads(om) -> list:
    """`canonical_form_om`, then the top-grade form, the reduced form and
    the residue check at each full-support sign vector in sign order (+
    before -): each read's value, or its exception's type and message."""
    reads = [partial(canonical_form_om, om)]
    for signs in product((1, -1), repeat=len(om.ground)):
        x = SignVector(om.ground, signs)
        reads += [partial(read, om, x) for read in (
            nonreduced_canonical_form, canonical_form_tope,
            check_residue_axioms)]
    out = []
    for read in reads:
        try:
            out.append(read())
        except (NotATope, ValueError) as err:
            out.append((type(err), str(err)))
    return out


def test_rank0_and_rank1_reads(request):
    """From empty memos, in order.  Rank 0 on the empty ground set: the
    top-grade form is the base value, and every reduced read raises
    ValueError.  Rank 0 on a nonempty ground set: no tope, so every read
    raises NotATope, the oriented matroid's form too, although
    `is_acyclic` says True there.  Rank 1 (three parallel elements, one
    reversed): both forms and the check at each of the two topes, and
    NotATope at every other sign vector."""
    no_rank = "the reduced form needs rank at least 1"
    clear_caches()
    empty = OrientedMatroid(Chirotope((), 0, (1,)))
    assert _reads(empty) == [(ValueError, no_rank), algebra_of(empty).one(),
                             (ValueError, no_rank), (ValueError, no_rank)]
    point = OrientedMatroid(Chirotope(("a",), 0, (1,)))
    assert point.is_acyclic() and not point.topes
    assert _reads(point) == [
        (NotATope, "rank 0 on a nonempty ground set has no tope")] + [
        (NotATope, f"({s}) is not a tope") for s in "+-" for _ in range(3)]
    om = named_om("rank1", request)
    alg = algebra_of(om)
    e0 = alg.monomial((0,))
    tope_forms = {(1, -1, 1): (e0, alg.one()),
                  (-1, 1, -1): (-e0, -alg.one())}
    want = [alg.zero(0)]
    for signs in product((1, -1), repeat=3):
        if signs in tope_forms:
            top, reduced = tope_forms[signs]
            want += [top, reduced, {0: True}]
        else:
            x = SignVector(om.ground, signs)
            want += [(NotATope, f"{x} is not a tope")] * 3
    assert _reads(om) == want
    # one entry on the empty ground set, one for rank 1's pair of topes
    assert forms._forms.cache_info().currsize == 2


def test_nonreduced_residue_recursion(pentagon):
    # the top-grade recursion is sign-free: Res_a W = W(facet contraction)
    alg = algebra_of(pentagon)
    plus = SignVector(pentagon.ground, (1,) * 5)
    nr = nonreduced_canonical_form(pentagon, plus)
    for a in pentagon.atom_reps:
        res = alg.residue(a, nr)
        sub_chi = contracted_tope_chirotope(pentagon, plus, a)
        sub_om = oriented_matroid_for(sub_chi)
        sub_tope = restrict(plus, sub_chi.ground)
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


def test_triangulation_names_the_first_non_basis(line4):
    """The bases are read in input order: the first one with chi = 0 is
    named, before a later one with an unknown label is read."""
    bases = iter([[0, 1], [2, 2], [1, 1], [0, 99]])
    with pytest.raises(ValueError, match=r"^\(2, 2\) is not a basis$"):
        nonreduced_from_triangulation(line4.chi, bases)
    assert next(bases) == [1, 1]


def test_forms_are_integral(pentagon, pentagon_inf):
    for om in (pentagon, pentagon_inf):
        for t in om.sorted_topes():
            assert canonical_form_tope(om, t).is_integral


def antipodal_pairs(topes) -> set:
    """The minus masks of topes and their negatives whose position 0 is
    plus: one per antipodal pair, the masks the form memos are keyed on."""
    return {m for t in topes for m in (t.minus, (-t).minus) if not m & 1}


def test_memoization_shares_minor_forms(pentagon):
    """The recursion through every minor (tests/residue_recursion.py)
    shares the forms of common minors across topes, and agrees with the
    library, whose one-level solve computes no minor's form: its memo holds
    one entry per antipodal pair of the topes asked for."""
    clear_caches()
    residue_recursion.cache_clear()
    topes = pentagon.sorted_topes()[:3]
    topes += [-t for t in topes]
    for t in topes:
        chi = pentagon.chi.reorient(t)
        assert (residue_recursion.recursive_form(chi)
                == nonreduced_canonical_form(pentagon, t).terms)
    assert residue_recursion.cache_info()["hits"] > 0  # minors overlap
    assert (forms._forms.cache_info().currsize
            == len(antipodal_pairs(topes)))


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
    """Stacked residue maps of the top reduced grade, solved node by node
    with the test-local `Fraction` Gauss-Jordan, not the library's
    elimination kernel."""

    def __init__(self, alg):
        r = alg.rank
        self.alg = alg
        self.reduced = alg.reduced_basis(r - 1)
        self.blocks = [(a, alg.residue_algebra(a)) for a in alg.atoms]
        rows = []
        for a, target in self.blocks:
            if self.reduced and target.dim(r - 2):
                rows.extend(linalg.columns_matrix(
                    [alg.residue(a, b).terms for b in self.reduced],
                    target.nbc[r - 2]))
        self.matrix = rows

    def solve(self, targets: dict, r: int) -> list:
        stacked = []
        for a, target in self.blocks:
            if self.reduced and target.dim(r - 2):
                stacked.extend(nbc_vector(target, targets[a], r - 2))
            else:
                assert targets[a].is_zero
        if not self.reduced:
            return []
        coeffs = fraction_linalg.solve(self.matrix, stacked)
        assert coeffs is not None
        assert linalg.mat_vec(self.matrix, coeffs) == stacked
        return coeffs


_FRACTION_STACKS: dict = {}  # matroid fingerprint -> its stack
_REFERENCE_FORMS: dict = {}  # positional class -> its reduced form


def reference_form(chi):
    """The reduced form of (M, chi) by the residue recursion, building a
    full OrientedMatroid at every node.  It is memoized per positional
    class (`residue_recursion.positional`), whose form carries over to chi
    with its labels and sign put back.  A memoized form or stack whose
    algebra is no longer the memoized one (after `clear_caches`) is built
    again, as in `residue_recursion.top_form`."""
    n, r, ground = len(chi.ground), chi.rank, chi.ground
    sign, key = residue_recursion.positional(n, r, chi.signs)
    core = _REFERENCE_FORMS.get(key)
    if core is None or core.algebra is not osalg._algebra(
            tuple(range(n)), r, chi.support):
        core = _REFERENCE_FORMS[key] = _reference_form(
            Chirotope(tuple(range(n)), r, key[2]))
    return osalg.OSElement(os_algebra_of_chirotope(chi), r - 1,
                           {tuple(ground[i] for i in k): sign * v
                            for k, v in core.terms.items()})


def _reference_form(chi):
    """`reference_form` of chi, solved."""
    om = OrientedMatroid(chi, validate=False)
    alg = os_algebra_for(om.underlying)
    r = chi.rank
    if any(map(is_nonnegative, om.circuits)):
        return alg.zero(r - 1)
    if r == 1:
        return alg.one().scale(chi.value((chi.ground[0],)))
    stack = _FRACTION_STACKS.get(alg.matroid.fingerprint)
    if stack is None or stack.alg is not alg:
        stack = _FRACTION_STACKS[alg.matroid.fingerprint] = _FractionStack(alg)
    targets = {}
    for a, _ in stack.blocks:
        targets[a] = reference_form(chi.contract(a)).scale(-1)
    out = alg.zero(r - 1)
    for c, b in zip(stack.solve(targets, r), stack.reduced):
        out = out + b.scale(c)
    assert out.is_integral
    return out


def test_reference_memo_revalidates_after_a_clear(pentagon):
    """After `clear_caches`, the reference memo solves again in the new
    algebras rather than return a form of the dropped ones."""
    t = pentagon.sorted_topes()[1]
    chi = pentagon.chi.reorient(t)
    before = reference_form(chi)
    assert before == canonical_form_tope(pentagon, t)
    clear_caches()
    after = reference_form(chi)
    assert after.algebra is algebra_of(pentagon) is not before.algebra
    assert after == canonical_form_tope(pentagon, t)


@pytest.fixture(scope="module")
def uniform_r4():
    return OrientedMatroid(chirotope_from_matrix(uniform_r4_matrix(seed=3)))


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus", "uniform_r4"])
def test_recursion_matches_reference(name, request):
    """Both forms of every tope against the reduced-grade recursion: the
    reduced form directly, the top-grade form through the boundary's
    inverse."""
    om = request.getfixturevalue(name)
    alg = algebra_of(om)
    for t in om.sorted_topes():
        want = reference_form(om.chi.reorient(t))
        assert canonical_form_tope(om, t) == want
        assert nonreduced_canonical_form(om, t) == alg.inverse_boundary(want)


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair"])
def test_nonreduced_form_needs_no_second_solve(name, request, monkeypatch):
    """The top-grade form comes out of the residue solve itself: neither
    the boundary's inverse nor row reduction runs, even with empty memos."""
    om = request.getfixturevalue(name)
    clear_caches()
    calls = []
    inverse_boundary = OSAlgebra.inverse_boundary
    rref = linalg.rref

    def counting_inverse_boundary(self, *args):
        calls.append("inverse_boundary")
        return inverse_boundary(self, *args)

    def counting_rref(*args):
        calls.append("rref")
        return rref(*args)

    monkeypatch.setattr(OSAlgebra, "inverse_boundary",
                        counting_inverse_boundary)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    alg = algebra_of(om)
    alg.inverse_boundary(alg.zero(om.rank - 1))
    linalg.rref([[1]])
    assert set(calls) == {"inverse_boundary", "rref"}  # the counters see calls
    calls.clear()
    for t in om.sorted_topes():
        nr = nonreduced_canonical_form(om, t)
        assert alg.boundary(nr) == canonical_form_tope(om, t)
    assert calls == []


def _contraction_algebras(alg) -> dict:
    """The algebra and every algebra reached from it by atom contractions,
    keyed by id."""
    out = {id(alg): alg}
    if alg.rank > 1:
        for a in alg.atoms:
            out.update(_contraction_algebras(alg.residue_algebra(a)))
    return out


def _stack_keys(om) -> list:
    """The (n, r, support) of every positional class of rank at least 1
    reachable from om's algebra by atom contractions."""
    keys = {}
    for alg in _contraction_algebras(algebra_of(om)).values():
        ground, rank, support = alg.matroid.fingerprint
        if rank >= 1:
            keys[len(ground), rank, support] = None
    return list(keys)


def _stacks(om) -> list:
    """The residue stack of every class in `_stack_keys`."""
    return [forms._stack(*key) for key in _stack_keys(om)]


def _left_times_matrix(stack) -> list:
    """The dense product left * matrix, where the left inverse holds the
    columns of S^-1 at the stack's own rows and zeros at every other row."""
    _, _, columns, own, inverse = stack
    product = [[0] * len(columns) for _ in columns]
    for c, column in enumerate(columns):
        column = dict(column)
        for i, feeds in zip(own, inverse):
            for j, x in feeds:  # left[j][i] = x
                product[j][c] += x * column.get(i, 0)
    return product


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus"])
def test_residue_stack_left_inverse(name, request):
    """Every stack reachable by atom contractions has left * matrix = I."""
    stacks = _stacks(request.getfixturevalue(name))
    assert stacks
    for stack in stacks:
        alg, _, columns, _, _ = stack
        n = alg.dim(alg.rank)
        assert len(columns) == n  # one sparse column per NBC monomial
        assert _left_times_matrix(stack) == _identity(n)


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_residue_stack_square_block(name, request):
    """Each column K of every reachable stack has its own row, the row of
    K minus K[-1] in K[-1]'s block, with entry 1; ordered by trailing atom,
    these rows form a unit upper triangular block, the inverse reads
    exactly them, and left * matrix = I."""
    for stack in _stacks(named_om(name, request)):
        alg, blocks, columns, own, inverse = stack
        keys = alg.nbc[alg.rank]
        want = []
        for key, column in zip(keys, columns):
            target, offset, _ = blocks[key[-1]]
            ground = alg.matroid.contraction_fingerprint(key[-1])[0]
            rest = tuple(ground.index(e) for e in key[:-1])
            index = target._nbc_pos[alg.rank - 1]
            assert rest in index
            want.append(offset + index[rest])
            assert dict(column)[want[-1]] == 1
        assert own == want
        order = sorted(range(len(own)),
                       key=lambda j: alg.key_sort(keys[j][-1:]))
        for u, j in enumerate(order):
            column = dict(columns[j])
            assert all(column.get(own[k], 0) == 0 for k in order[u + 1:])
        assert _left_times_matrix(stack) == _identity(len(own))
        assert all(inverse)  # S^-1 reads every own row


class _DenseStack:
    """The residue stack on dense int rows: a full `matrix` of stacked
    rows, its dense left inverse `left`, and dense solves.  Its blocks are
    the positional contraction algebras, as in the library's stack, or the
    labelled residue algebras with `positional=False`."""

    def __init__(self, alg, positional=True):
        self.alg = alg
        r = alg.rank
        columns = [alg.from_terms(r, {key: 1}) for key in alg.nbc[r]]
        rows: list = []
        self.blocks = []  # (atom, block algebra, contraction ground -> block)
        for a in alg.atoms:
            if positional:
                ground, rank, support = alg.matroid.contraction_fingerprint(a)
                target = osalg._algebra(tuple(range(len(ground))), rank,
                                        support)
                pos = dict(zip(ground, range(len(ground))))
            else:
                target = alg.residue_algebra(a)
                pos = {e: e for e in target.matroid.ground}
            self.blocks.append((a, target, pos))
            rows.extend(linalg.columns_matrix(
                [self.residue(a, b).terms for b in columns],
                target.nbc[r - 1]))
        if any(x.denominator != 1 for row in rows for x in row):
            raise RuntimeError("internal invariant violation: residue map "
                               "has non-integer entries")
        self.matrix = [[int(x) for x in row] for row in rows]
        inverse = linalg.left_inverse(self.matrix)
        if inverse is None:
            raise RuntimeError(
                "internal invariant violation: joint residue map is not "
                "injective (suspect an invalid chirotope)")
        self.left, self.denom = inverse

    def residue(self, a, x):
        """Res_a x in a's block algebra: the labelled residue, relabelled."""
        target, pos = next((t, p) for b, t, p in self.blocks if b == a)
        res = self.alg.residue(a, x)
        return target.from_terms(res.grade, {tuple(pos[e] for e in k): v
                                             for k, v in res.terms.items()})

    def residues(self, x) -> dict:
        return {a: self.residue(a, x) for a, _, _ in self.blocks}

    def solve(self, targets: dict):
        r = self.alg.rank
        stacked: list = []
        for a, target, _ in self.blocks:
            stacked.extend(nbc_vector(target, targets[a], r - 1))
        if any(v.denominator != 1 for v in stacked):
            raise RuntimeError("internal invariant violation: residue "
                               "targets have non-integer coordinates")
        stacked = [int(v) for v in stacked]
        nums = [sum(x * v for x, v in zip(row, stacked)) for row in self.left]
        if any(n % self.denom for n in nums):
            raise RuntimeError("internal invariant violation: canonical form "
                               "has non-integer coordinates")
        coeffs = [n // self.denom for n in nums]
        if [sum(x * c for x, c in zip(row, coeffs))
                for row in self.matrix] != stacked:
            raise RuntimeError(
                "internal invariant violation: residue system is "
                "inconsistent (suspect an invalid chirotope)")
        return self.alg.from_terms(r, dict(zip(self.alg.nbc[r], coeffs)))


def _solve_outcome(solve, *args):
    """solve(*args), or the message of the RuntimeError it raised."""
    try:
        return solve(*args)
    except RuntimeError as exc:
        return str(exc)


def _random_element(rng, alg, grade, values):
    return alg.from_terms(grade, {key: rng.choice(values)
                                  for key in alg.nbc[grade]})


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "parallel_pair", "nonpappus", "rank1",
                                  "boolean3", "uniform_r4",
                                  "nonpappus_ext10"])
def test_sparse_stack_matches_dense(name, request):
    """On every stack reachable from the fixture, the sparse solve agrees
    with the dense one: equal forms for residues of integral elements, and
    the same RuntimeError for non-integral or inconsistent targets."""
    om = named_om(name, request)
    rng = random.Random(name)
    errors = set()
    for stack in _stacks(om):
        alg, blocks = stack[:2]
        r = alg.rank
        dense = _DenseStack(alg)
        assert _left_times_matrix(stack) == _identity(alg.dim(r))
        elements = [alg.from_terms(r, {key: 1}) for key in alg.nbc[r]]
        elements += [_random_element(rng, alg, r, range(-3, 4))
                     for _ in range(3)]
        assert [(a, t) for a, (t, *_) in blocks.items()] == [
            (a, t) for a, t, _ in dense.blocks]
        for x in elements:
            targets = dense.residues(x)
            got = _solve_outcome(stack_solve, alg, targets)
            assert got == x == dense.solve(targets)
        for x in elements:
            targets = dense.residues(x.scale(Fraction(1, 2)))
            want = _solve_outcome(dense.solve, targets)
            assert _solve_outcome(stack_solve, alg, targets) == want
            if isinstance(want, str):
                errors.add(want)
        for _ in range(5):
            targets = {a: _random_element(rng, target, r - 1, (-1, 0, 0, 1))
                       for a, target, _ in dense.blocks}
            want = _solve_outcome(dense.solve, targets)
            assert _solve_outcome(stack_solve, alg, targets) == want
            if isinstance(want, str):
                errors.add(want)
    assert any("non-integer" in e for e in errors)
    if name != "rank1":  # one square stack: every target is consistent
        assert any("inconsistent" in e for e in errors)


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_stack_refuses_targets_outside_its_block_algebras(name, request):
    """Labelled residues land in the labelled contraction algebras, not in
    the stack's positional ones, and a fresh algebra on a block's matroid
    (as a memo clear makes) is not the block's algebra either; the solve
    refuses both rather than read their keys against the wrong NBC
    order."""
    labelled = 0
    for alg, blocks, *_ in _stacks(named_om(name, request)):
        x = alg.from_terms(alg.rank, {alg.nbc[alg.rank][0]: 1})
        residues = {a: alg.residue(a, x) for a in blocks}
        if any(residues[a].algebra is not t for a, (t, *_) in blocks.items()):
            labelled += 1
            with pytest.raises(RuntimeError, match="positional algebra"):
                stack_solve(alg, residues)
        for a, (target, *_) in blocks.items():
            fresh = OSAlgebra(target.matroid).zero(alg.rank - 1)
            with pytest.raises(RuntimeError, match="positional algebra"):
                stack_solve(alg, {a: fresh})
    # rank1's one contraction has an empty ground set, positional already
    assert labelled or name == "rank1"


def _block_residues(alg, blocks, x) -> dict:
    """{atom: Res_a x in a's block algebra} over every block of a stack."""
    out = {}
    for a, (target, *_) in blocks.items():
        ground = alg.matroid.contraction_fingerprint(a)[0]
        pos = dict(zip(ground, range(len(ground))))
        res = alg.residue(a, x)
        out[a] = target.from_terms(res.grade, {tuple(pos[e] for e in k): v
                                               for k, v in res.terms.items()})
    return out


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_stack_reads_absent_atoms_as_zero(name, request):
    """On every reachable stack, solving with the nonzero targets only gives
    what solving with every target, zeros included, gives: the element for
    residues of one, the same error for random targets."""
    rng = random.Random(name)
    dropped = 0
    for alg, blocks, *_ in _stacks(named_om(name, request)):
        r = alg.rank
        elements = [alg.from_terms(r, {key: 1}) for key in alg.nbc[r]]
        elements.append(_random_element(rng, alg, r, range(-2, 3)))
        for x in elements:
            full = _block_residues(alg, blocks, x)
            nonzero = {a: t for a, t in full.items() if not t.is_zero}
            dropped += len(full) - len(nonzero)
            assert stack_solve(alg, nonzero) == stack_solve(alg, full) == x
        for _ in range(3):
            full = {a: _random_element(rng, target, r - 1, (-1, 0, 0, 1))
                    for a, (target, *_) in blocks.items()}
            nonzero = {a: t for a, t in full.items() if not t.is_zero}
            dropped += len(full) - len(nonzero)
            assert (_solve_outcome(stack_solve, alg, nonzero)
                    == _solve_outcome(stack_solve, alg, full))
    assert dropped  # some solve ran with an atom absent


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_stack_build_requires_denominator_one(name, request, monkeypatch):
    """Each stack build calls `linalg.left_inverse` once, and refuses a left
    inverse of the square block with denominator 2."""
    keys = _stack_keys(named_om(name, request))
    left_inverse = linalg.left_inverse
    calls = []

    def doubled(mat):
        calls.append(mat)
        left, denom = left_inverse(mat)
        return [[2 * x for x in row] for row in left], 2 * denom

    monkeypatch.setattr(linalg, "left_inverse", doubled)
    for key in keys:
        calls.clear()
        with pytest.raises(RuntimeError, match="not injective"):
            forms._stack.__wrapped__(*key)
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["pentagon", "nonpappus"])
def test_recursion_visits_only_acyclic_chirotopes(name, request, monkeypatch):
    """The solve tests nothing for acyclicity: its callers read it at a
    tope's minus mask, or at the complement of one, with position 0 plus,
    so every (chirotope, mask) its memo holds reorients to an acyclic
    chirotope."""
    om = request.getfixturevalue(name)
    clear_caches()
    visited = []
    both_forms = forms._forms.__wrapped__

    def recording_forms(chi, m):
        visited.append((chi, m))
        return both_forms(chi, m)

    monkeypatch.setattr(forms, "_forms",
                        lru_cache(maxsize=None)(recording_forms))
    calls = []

    def counting_is_acyclic(chi):
        calls.append(chi)
        return is_acyclic(chi)

    def counting_method(self, _method=OrientedMatroid.is_acyclic):
        calls.append(self.chi)
        return _method(self)

    monkeypatch.setattr(om_module, "is_acyclic", counting_is_acyclic)
    monkeypatch.setattr(forms, "is_acyclic", counting_is_acyclic,
                        raising=False)
    monkeypatch.setattr(OrientedMatroid, "is_acyclic", counting_method)
    om.is_acyclic()
    assert calls  # the counter sees calls
    calls.clear()
    for t in om.sorted_topes():
        canonical_form_tope(om, t)
    assert calls == []
    assert len(visited) == len(om.topes) // 2
    for chi, m in visited:
        assert chi is om.chi and not m & 1
        assert is_acyclic(chi.reorient(SignVector._from_masks(
            chi.ground, ~m & (1 << len(chi.ground)) - 1, m)))


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


def test_residue_check_reads_the_cached_cocircuits(nonpappus, monkeypatch):
    """Once every tope was checked, checking them again from empty memos
    builds no hyperplane table: the facets come from the oriented matroid's
    cached cocircuits, and the forms from the tables cached on its
    chirotope and on its contractions."""
    topes = nonpappus.sorted_topes()
    reports = [check_residue_axioms(nonpappus, t) for t in topes]
    assert all(all(report.values()) for report in reports)
    clear_caches()
    calls = []
    slots = chirotope_module._hyperplane_slots

    def counting_slots(n, r):
        calls.append((n, r))
        return slots(n, r)

    monkeypatch.setattr(chirotope_module, "_hyperplane_slots", counting_slots)
    assert [check_residue_axioms(nonpappus, t) for t in topes] == reports
    assert calls == []
    chi = nonpappus.chi
    om_module.is_acyclic(Chirotope(chi.ground, chi.rank, chi.signs))
    assert calls == [(len(chi.ground), chi.rank)]  # the counter sees builds


def recording_tables(monkeypatch) -> list:
    """Patch `Chirotope._hyperplanes` to append each chirotope whose table
    it builds to the returned list."""
    built = []
    table = Chirotope.__dict__["_hyperplanes"].func

    def recording(self):
        built.append(self)
        return table(self)

    prop = cached_property(recording)
    prop.__set_name__(Chirotope, "_hyperplanes")
    monkeypatch.setattr(Chirotope, "_hyperplanes", prop)
    return built


@pytest.mark.parametrize("name", ["pentagon", "parallel_pair", "nonpappus",
                                  "uniform_r4", "rank1"])
def test_each_chirotope_builds_its_table_once(name, request, monkeypatch):
    """From a fresh oriented matroid and empty memos, the topes, both forms
    and the residue check of every tope build one hyperplane table for the
    input chirotope and one for each facet contraction the check reads:
    no chirotope's table twice, and none for a reorientation."""
    base = named_om(name, request)
    clear_caches()
    built = recording_tables(monkeypatch)
    om = OrientedMatroid(Chirotope(base.ground, base.rank, base.chi.signs),
                         validate=False)
    for t in om.sorted_topes():
        canonical_form_tope(om, t)
        nonreduced_canonical_form(om, t)
        assert all(check_residue_axioms(om, t).values())
    assert built[0] is om.chi and len(built) == len(set(built))
    if om.rank == 1:  # the check contracts nothing
        assert built == [om.chi]
    else:
        assert built[1:] and set(built[1:]) <= set(om._contractions.values())


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus"])
def test_cached_algebra_needs_no_matroid_build(name, request, monkeypatch):
    """Once a chirotope's algebras are cached, a fresh chirotope with the
    same underlying matroids finds them by fingerprint alone."""
    chi = request.getfixturevalue(name).chi
    first = forms._forms(chi, 0)
    builds = []
    init = UnderlyingMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnderlyingMatroid, "__init__", counting_init)
    UnderlyingMatroid.from_chirotope(chi)
    assert len(builds) == 1  # the counter sees builds
    builds.clear()
    # __wrapped__ skips the form memo, so the stack and algebra lookups run
    assert forms._forms.__wrapped__(chi, 0) == first
    fresh = Chirotope(chi.ground, chi.rank, chi.signs)
    assert forms._forms.__wrapped__(fresh, 0) == first
    assert forms._forms.__wrapped__(scale(chi, -1), 0) == tuple(
        form.scale(-1) for form in first)
    assert builds == []


# ---- the labelled recursion the positional one replaced ---------------------


_LABELLED_STACKS: dict = {}


@lru_cache(maxsize=None)
def labelled_top_form(chi):
    """The top-grade recursion on labelled chirotopes: every node solves in
    its own labelled algebra, against the labelled residue algebras."""
    r = chi.rank
    alg = os_algebra_of_chirotope(chi)
    if r == 0:
        return alg.one().scale(chi.value(()))
    stack = _LABELLED_STACKS.get(id(alg))
    if stack is None:
        stack = _LABELLED_STACKS[id(alg)] = _DenseStack(alg, positional=False)
    facets = facet_elements(chi, alg.matroid)
    targets = {}
    for a in alg.atoms:
        if a in facets:
            targets[a] = labelled_top_form(chi.contract(a))
        else:
            targets[a] = alg.residue_algebra(a).zero(r - 1)
    return stack.solve(targets)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_positional_recursion_matches_labelled(name, request):
    """Both forms of every tope equal those of the labelled recursion, in
    the same algebra."""
    om = named_om(name, request)
    for t in om.sorted_topes():
        want = labelled_top_form(om.chi.reorient(t))
        assert nonreduced_canonical_form(om, t) == want
        assert canonical_form_tope(om, t) == want.algebra.boundary(want)


def relabelled(om, labels) -> OrientedMatroid:
    """om with its i-th element renamed labels[i]; ground order kept."""
    return OrientedMatroid(Chirotope(tuple(labels), om.rank, om.chi.signs),
                           validate=False)


@pytest.mark.parametrize("name", ["pentagon", "parallel_pair", "nonpappus",
                                  "nonuniform_r3"])
def test_relabelled_and_negated_forms(name, request):
    """Relabelling the ground set in order (integers, descending integers,
    strings) relabels both forms of every tope, and -chi negates them; none
    of these builds a residue stack, and each adds one memo entry per
    antipodal pair of topes."""
    om = named_om(name, request)
    n = len(om.ground)
    topes = om.sorted_topes()
    clear_caches()
    forms_of = {t: (canonical_form_tope(om, t),
                    nonreduced_canonical_form(om, t)) for t in topes}
    entries = forms._forms.cache_info().currsize
    assert entries == len(topes) // 2
    builds = forms._stack.cache_info().misses
    assert builds  # the forms above were solved with stacks
    for labels in ([10 * i + 7 for i in range(n)], [n - i for i in range(n)],
                   [f"x{n - i}" for i in range(n)]):
        other = relabelled(om, labels)
        rename = dict(zip(om.ground, labels))
        for t in topes:
            u = SignVector(other.ground, t.signs)
            for got, want in zip((canonical_form_tope(other, u),
                                  nonreduced_canonical_form(other, u)),
                                 forms_of[t]):
                assert got.algebra is algebra_of(other)
                assert got.terms == {tuple(rename[e] for e in k): v
                                     for k, v in want.terms.items()}
    negated = OrientedMatroid(scale(om.chi, -1), validate=False)
    for t in topes:
        assert canonical_form_tope(negated, t) == -forms_of[t][0]
        assert nonreduced_canonical_form(negated, t) == -forms_of[t][1]
    assert forms._forms.cache_info().currsize == 5 * entries
    assert forms._stack.cache_info().misses == builds


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_minus_mask_forms_match_reorientations(name, request):
    """Under every relabelling, both forms of every tope T, read off the
    input's table at T's minus mask, equal those of om.chi.reorient(T) read
    at mask 0, in the same algebra; so does the top form solved directly at
    T's mask, with no antipodal sharing; and W(-T) = (-1)^r W(T).  The
    cases run from rank 1 to rank 4, odd and even."""
    om = named_om(name, request)
    r = om.rank
    for chi in relabellings(om.chi):
        other = OrientedMatroid(chi, validate=False)
        for t in om.sorted_topes():
            u = SignVector._from_masks(chi.ground, t.plus, t.minus)
            flipped = chi.reorient(u)
            top = nonreduced_canonical_form(other, u)
            both = (top, canonical_form_tope(other, u))
            assert forms._forms(flipped, 0) == both
            assert forms._forms.__wrapped__(chi, u.minus) == both
            assert nonreduced_canonical_form(other, -u) == (-1) ** r * top


def sweep_uniform_r4_matrix():
    """The 4 x 7 matrix of the benchmark's sweep_uniform_r4 workload at seed
    0: columns drawn from [-5, 5] until no maximal minor vanishes."""
    rng = random.Random("uniform:0")
    while True:
        cols = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(7)]
        mat = RationalMatrix.from_rows(
            tuple(range(7)), [[c[i] for c in cols] for i in range(4)])
        if (all(any(c) for c in cols)
                and 0 not in chirotope_from_matrix(mat).signs):
            return mat


def test_uniform_sweep_builds_one_stack_per_class(monkeypatch):
    """The forms of all 84 topes of a uniform (7, 4) matroid need one
    residue stack, of the rank-4 class, and two algebras: that class's and
    its block algebra, uniform (6, 3), which every atom's contraction
    shares.  No minor's form is solved, so the memo holds 42 forms, one
    per antipodal pair of topes, and nothing else."""
    clear_caches()
    om = OrientedMatroid(chirotope_from_matrix(sweep_uniform_r4_matrix()))
    algebras = []
    init = OSAlgebra.__init__

    def counting_init(self, *args):
        algebras.append(args)
        init(self, *args)

    monkeypatch.setattr(OSAlgebra, "__init__", counting_init)
    topes = om.sorted_topes()
    assert len(topes) == 84
    for t in topes:
        canonical_form_tope(om, t)
    assert len(algebras) == 2
    assert forms._stack.cache_info().misses == 1
    assert forms._forms.cache_info().currsize == 42


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_memo_holds_tope_classes_only(name, request):
    """After the forms of every tope, the form memo holds exactly one entry
    per antipodal pair of topes, the input chirotope at the pair's mask
    whose position 0 is plus: no minor's form."""
    om = named_om(name, request)
    clear_caches()
    both_forms = forms._forms.__wrapped__
    for t in om.sorted_topes():
        nonreduced_canonical_form(om, t)
    assert forms._forms.cache_info().currsize == len(om.topes) // 2
    for m in antipodal_pairs(om.topes):  # the entries the pairs read
        assert forms._forms(om.chi, m) == both_forms(om.chi, m)
    assert forms._forms.cache_info().currsize == len(om.topes) // 2


# ---- the recursion through every minor, kept as an oracle ----------------


def facet_gathers(chis, monkeypatch) -> list:
    """(node key, removed, i, gathered signs) for every facet contraction
    the recursion of tests/residue_recursion.py makes, from empty memos,
    on its way to the forms of chis."""
    clear_caches()
    residue_recursion.cache_clear()
    gathers = []
    gather = residue_recursion.contracted_signs

    def recording(n, r, signs, removed, i):
        out = gather(n, r, signs, removed, i)
        gathers.append(((n, r, signs), removed, i, out))
        return out

    monkeypatch.setattr(residue_recursion, "contracted_signs", recording)
    for chi in chis:
        residue_recursion.recursive_form(chi)
    monkeypatch.setattr(residue_recursion, "contracted_signs", gather)
    return gathers


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_facet_gathers_match_chirotope_contractions(name, request,
                                                    monkeypatch):
    """On the recursion's way to the forms of every tope, each facet
    contraction, one gather of the node's signs through `_minor_slots`,
    equals `Chirotope.contract` of the node's chirotope by the facet's
    atom, and its (sign, key) is the oracle's `positional` of that
    chirotope; every node's cocircuits, read off its hyperplane table, are
    those that evaluating its chirotope finds."""
    om = named_om(name, request)
    gathers = facet_gathers([om.chi.reorient(t) for t in om.sorted_topes()],
                            monkeypatch)
    assert gathers
    nodes = set()
    for (n, r, signs), removed, i, got in gathers:
        core = Chirotope(tuple(range(n)), r, signs)
        want = core.contract(i)
        assert got == want.signs
        assert want.ground == _labels(core.ground, ~removed)
        sub = residue_recursion.positional(n - removed.bit_count(), r - 1,
                                           got)
        assert sub == residue_recursion.positional(len(want.ground),
                                                   want.rank, want.signs)
        nodes |= {(n, r, signs), sub[1]}
    if name.startswith("nonpappus"):  # rank 2 contractions merge elements
        assert any(removed & (removed - 1) for _, removed, _, _ in gathers)
    for n, r, signs in nodes:
        core = Chirotope(tuple(range(n)), r, signs)
        assert ({pm for p, m in zip(*core._hyperplanes) if p or m
                 for pm in ((p, m), (m, p))}
                == {(y.plus, y.minus) for y in value_cocircuits(core)})


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_entry_gathers_match_labelled_contractions(name, request):
    """Under every relabelling of every tope's reorientation, the oracle's
    gather (tests/residue_recursion.py) of its positional class at each
    facet atom, with the entry's sign put back, is the sign table of the
    labelled `Chirotope.contract` by it."""
    om = named_om(name, request)
    for chi in relabellings(om.chi):
        m = UnderlyingMatroid.from_chirotope(chi)
        for t in om.sorted_topes():
            tope = chi.reorient(SignVector._from_masks(chi.ground, t.plus,
                                                       t.minus))
            sign, (n, r, signs) = residue_recursion.positional(
                len(tope.ground), tope.rank, tope.signs)
            facets = facet_elements(tope, m)
            for a, mask in zip(m.atom_reps, m._atom_masks):
                if a not in facets:
                    continue
                got = residue_recursion.contracted_signs(
                    n, r, signs, mask, chi.ground.index(a))
                want = tope.contract(a)
                assert tuple(sign * s for s in got) == want.signs


@pytest.mark.parametrize("name", ["uniform_r4", "nonpappus"])
def test_cold_sweep_builds_chirotopes_only_to_reorient(name, request,
                                                       monkeypatch):
    """From empty memos, the forms of every tope build no chirotope: each
    is read off the input chirotope's table at the tope's minus mask, with
    no reorientation, and the solve builds none."""
    om = named_om(name, request)
    topes = om.sorted_topes()
    clear_caches()
    built = []
    init = Chirotope.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Chirotope, "__init__", counting_init)
    Chirotope(om.chi.ground, om.rank, om.chi.signs)
    assert len(built) == 1  # the counter sees builds
    built.clear()
    for t in topes:
        canonical_form_tope(om, t)
        nonreduced_canonical_form(om, t)
    assert built == []


@pytest.mark.parametrize("name", ["pentagon", "pentagon_inf"])
def test_triangulation_evaluators_build_no_oriented_matroid(
        name, request, monkeypatch):
    """On the placing triangulation of every tope, the reduced evaluation is
    the boundary of the non-reduced one, and neither builds an
    OrientedMatroid."""
    om = request.getfixturevalue(name)
    clear_caches()  # so entries left by earlier tests cannot hide builds
    alg = algebra_of(om)
    builds = []
    init = OrientedMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrientedMatroid, "__init__", counting_init)
    OrientedMatroid(om.chi, validate=False)
    assert len(builds) == 1  # the counter sees builds
    builds.clear()
    for t in om.sorted_topes():
        chi = om.chi.reorient(t)
        tri = _placing(chi)
        assert (canonical_form_from_triangulation(chi, tri)
                == alg.boundary(nonreduced_from_triangulation(chi, tri)))
    assert builds == []


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_residue_check_builds_no_oriented_matroid(name, request, monkeypatch):
    """The residue check passes at every atom of every tope, and builds no
    OrientedMatroid for the facets it contracts."""
    om = named_om(name, request)
    topes = om.sorted_topes()
    clear_caches()  # so entries left by earlier tests cannot hide builds
    builds = []
    init = OrientedMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrientedMatroid, "__init__", counting_init)
    for t in topes:
        report = check_residue_axioms(om, t)
        assert list(report) == list(om.atom_reps)
        assert all(report.values()), (str(t), report)
    assert builds == []


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM) + ["uniform_r4"])
def test_face_flag_matches_nonreduced_form(name, request):
    """The face-flag read-off (tests/face_flag.py) equals the library's
    top-grade form on every tope.  It reads `nbc_sets` and the cocircuits,
    not the residue solve."""
    om = named_om(name, request)
    terms = 0
    for tope in om.sorted_topes():
        form = nonreduced_canonical_form(om, tope)
        assert form.terms == face_flag_form(om.chi.reorient(tope))
        terms += len(form.terms)
    assert terms >= len(om.topes)


def _differential_matrices(rank: int, count: int) -> list:
    """count seeded rank x 7 integer matrices with entries in [-2, 2]: small
    entries make vanishing minors, parallel elements and classes that merge
    in a contraction common."""
    rng = random.Random(f"differential:{rank}")
    out = []
    while len(out) < count:
        rows = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(rank)]
        try:
            chi = chirotope_from_matrix(
                RationalMatrix.from_rows(tuple(range(7)), rows))
        except ValueError:  # a zero column, or rank deficient
            continue
        out.append(OrientedMatroid(chi, validate=False))
    return out


def _element_targets(stack: tuple, chi: Chirotope, m: int) -> dict:
    """{a: W(chi_m/a) in a's block algebra} over the facet atoms a of the
    all-plus tope of chi_m, the reorientation of chi by the position mask
    m, read by Finding 1 (`forms._facet_targets`) as the library read them
    before it wrote them at the stack's rows: off two reoriented copies of
    chi's hyperplane table, one element per facet, keyed by the block's NBC
    keys."""
    alg, blocks = stack[:2]
    n, r, signs = len(chi.ground), alg.rank, chi.signs
    plus = [p & ~m | q & m for p, q in zip(*chi._hyperplanes)]
    minus = [q & ~m | p & m for p, q in zip(*chi._hyperplanes)]
    rows = om_module._conformal_rows(chi, m)
    starts = list(rows.items()) + [(None, 0)]
    targets = {}
    for mask in om_module._facet_classes(n, {*rows.values()},
                                         alg.matroid._atom_masks):
        a = (mask & -mask).bit_length() - 1
        block, first, lifts = blocks[a]
        face = ~mask & (1 << n) - 1
        terms = {}
        for h, start in starts:
            for row, key, b, odd, reads in lifts.get(h, ()):
                p = start
                for bit, g in reads:
                    gp, gm = plus[g], minus[g]
                    if gm & bit:
                        gp, gm = gm, gp
                    if gm & ~p:
                        break
                    p |= gp
                else:
                    if p == face:
                        flip = (odd + (key & m).bit_count()) & 1
                        terms[block.nbc[r - 1][row - first]] = (
                            -signs[b] if flip else signs[b])
        targets[a] = OSElement(block, r - 1, terms)
    return targets


def _assert_forms_agree(om) -> int:
    """The library's top-grade form of every tope of om equals the stack's
    solve of the per-facet element targets it replaced (`_element_targets`,
    `conftest.stack_solve`), relabelled key by key, the recursion's
    through every minor (tests/residue_recursion.py) and the face-flag
    read-off (tests/face_flag.py).  From an empty form table, both reads of
    every tope and of its negative come from one entry per antipodal pair:
    the reduced form is the boundary of the top-grade one, and -T reads
    (-1)^r times T in both grades.  Then every full-support mask of no tope
    raises NotATope in the form table and leaves every memo as it was.
    Returns the number of topes."""
    topes = om.sorted_topes()
    ground, n, r = om.ground, len(om.ground), om.rank
    stack = forms._stack(n, r, om.chi.support)
    forms._forms.cache_clear()  # the algebras and stacks stay
    for t in topes:
        chi = om.chi.reorient(t)
        top = nonreduced_canonical_form(om, t)
        reduced = canonical_form_tope(om, t)
        assert reduced == top.algebra.boundary(top), str(t)
        assert nonreduced_canonical_form(om, -t) == (-1) ** r * top, str(t)
        assert canonical_form_tope(om, -t) == (-1) ** r * reduced, str(t)
        got = top.terms
        old = stack_solve(stack[0], _element_targets(stack, om.chi, t.minus))
        assert got == {tuple(ground[i] for i in k): v
                       for k, v in old.terms.items()}, str(t)
        assert got == residue_recursion.recursive_form(chi), str(t)
        assert got == face_flag_form(chi), str(t)
    assert forms._forms.cache_info().currsize == len(topes) // 2
    masks = {t.minus for t in topes}
    sizes = cache_sizes()
    for m in range(1 << n):
        if m not in masks:
            with pytest.raises(NotATope):
                forms._forms(om.chi, m)
    assert cache_sizes() == sizes
    return len(topes)


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_forms_match_recursion_and_face_flags(name, request):
    """Under every relabelling (`relabellings`), the one-level solve's forms
    equal those of the element targets it replaced, of the recursion
    through every minor and of the face-flag read-off, on every tope."""
    om = named_om(name, request)
    for chi in relabellings(om.chi):
        assert _assert_forms_agree(OrientedMatroid(chi, validate=False))


def _contraction_classes(chi: Chirotope) -> list:
    """chi and one chirotope of every (ground, rank, support) reached from
    it by contracting atoms, down to rank 0."""
    seen, todo = {}, [chi]
    while todo:
        c = todo.pop()
        if seen.setdefault((c.ground, c.rank, c.support), c) is c and c.rank:
            todo += [c.contract(a) for a in os_algebra_of_chirotope(c).atoms]
    return list(seen.values())


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_labelled_nbc_keys_are_positional_keys_relabelled(name, request):
    """Under every relabelling, on every class reached by contractions,
    parallel classes merged included, each grade's NBC keys of the
    chirotope's algebra are those of its positional class with each
    position i read as ground[i], in the same order: the order in which
    `forms._forms` zips the solve's coefficients with the keys."""
    merged = 0
    for chi in relabellings(named_om(name, request).chi):
        for c in _contraction_classes(chi):
            alg = os_algebra_of_chirotope(c)
            positional = osalg._algebra(tuple(range(len(c.ground))), c.rank,
                                        c.support)
            for k in range(c.rank + 1):
                assert alg.nbc[k] == tuple(tuple(c.ground[i] for i in key)
                                           for key in positional.nbc[k])
            merged += len(alg.atoms) < len(c.ground)
    assert merged or name == "boolean3"


@pytest.mark.parametrize("rank", [3, 4])
def test_forms_match_recursion_on_random_matrices(rank):
    """Seeded random matrices of rank 3 and 4 with small entries: the four
    routes agree on every tope, and some contraction merges parallel
    classes, so a block's keys are not the atoms of the matroid minus one."""
    merged = 0
    for om in _differential_matrices(rank, 6):
        assert _assert_forms_agree(om)
        m = om.underlying
        for rep in m.atom_reps:
            sub = UnderlyingMatroid(*m.contraction_fingerprint(rep))
            merged += len(sub.atoms) < len(m.atoms) - 1
    assert merged


@pytest.mark.parametrize("name", ["pentagon", "nonpappus"])
def test_residue_check_catches_a_corrupted_minor_form(name, request,
                                                      monkeypatch):
    """The residue check compares each facet residue with the contraction's
    own solve, a second computation: with one coefficient flipped in the
    form of every chirotope of rank r-1, every facet atom of every tope fails
    and every other atom passes, since the tope's own solve reads its
    targets off its table, not off those forms."""
    om = request.getfixturevalue(name)
    both_forms = forms._forms

    def corrupted(chi, m):
        form, _ = both = both_forms(chi, m)
        if chi.rank != om.rank - 1:
            return both
        terms = dict(form.terms)
        first = next(iter(terms))
        terms[first] = -terms[first]
        form = osalg.OSElement(form.algebra, form.grade, terms)
        return form, form.algebra.boundary(form)

    clear_caches()
    monkeypatch.setattr(forms, "_forms", corrupted)
    try:
        for t in om.sorted_topes():
            report = check_residue_axioms(om, t)
            facets = facet_elements(om.chi.reorient(t), om.underlying)
            assert facets
            assert {a for a, ok in report.items() if not ok} == (
                facets & set(om.atom_reps)), str(t)
    finally:
        monkeypatch.undo()
        clear_caches()  # drop the corrupted forms memoized by the check
