import random
from fractions import Fraction
from functools import lru_cache

import pytest

from omcanon import (OrientedMatroid, RationalMatrix, SignVector, algebra_of,
                     canonical_form_from_triangulation, canonical_form_om,
                     canonical_form_tope, check_residue_axioms,
                     chirotope_from_matrix, linalg, nonreduced_canonical_form,
                     nonreduced_from_triangulation, oriented_matroid_for,
                     os_algebra_for)
from omcanon import forms, osalg
from omcanon import om as om_module
from omcanon._memo import clear_caches
from omcanon.chirotope import Chirotope
from omcanon.matroid import UnderlyingMatroid
from omcanon.om import is_acyclic
from omcanon.osalg import OSAlgebra, os_algebra_of_chirotope
from omcanon.realization import _placing
from omcanon.signvec import _labels

import fraction_linalg
from face_flag import face_flag_form
from oracle_ops import is_nonnegative, restrict, scale, value_cocircuits
from tope_walk import contracted_tope_chirotope
from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES, boolean_om,
                      facet_elements, named_om, nbc_vector, rank1_om,
                      relabellings, stack_solve, uniform_r4_matrix)


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
        forms._canonical_form(chi)
    with pytest.raises(ValueError):
        canonical_form_from_triangulation(chi, [()])


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


def test_memoization_shares_minor_forms(pentagon):
    clear_caches()
    before = forms._top_form.cache_info().hits
    for t in pentagon.sorted_topes()[:6]:
        canonical_form_tope(pentagon, t)
    after = forms._top_form.cache_info().hits
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
    """Stacked residue maps of the top reduced grade, solved node by node
    with the test-local `Fraction` Gauss-Jordan, not the library's
    elimination kernel."""

    def __init__(self, alg):
        r = alg.rank
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


_FRACTION_STACKS: dict = {}


@lru_cache(maxsize=None)
def reference_form(chi):
    """The reduced form of (M, chi) by the residue recursion, building a
    full OrientedMatroid at every node."""
    om = OrientedMatroid(chi, validate=False)
    alg = os_algebra_for(om.underlying)
    r = chi.rank
    if any(map(is_nonnegative, om.circuits)):
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
    """The top-grade form comes out of the recursion itself: neither the
    boundary's inverse nor row reduction runs, even with empty memos."""
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
    """Every stack the recursion solves with has left * matrix = I."""
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
            target, offset = blocks[key[-1]]
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
        assert [(a, t) for a, (t, _) in blocks.items()] == [
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
        if any(residues[a].algebra is not t for a, (t, _) in blocks.items()):
            labelled += 1
            with pytest.raises(RuntimeError, match="positional algebra"):
                stack_solve(alg, residues)
        for a, (target, _) in blocks.items():
            fresh = OSAlgebra(target.matroid).zero(alg.rank - 1)
            with pytest.raises(RuntimeError, match="positional algebra"):
                stack_solve(alg, {a: fresh})
    # rank1's one contraction has an empty ground set, positional already
    assert labelled or name == "rank1"


def _block_residues(alg, blocks, x) -> dict:
    """{atom: Res_a x in a's block algebra} over every block of a stack."""
    out = {}
    for a, (target, _) in blocks.items():
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
                    for a, (target, _) in blocks.items()}
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
    """The recursion tests no node for acyclicity: it contracts at facets
    only, so every positional class its memo holds is acyclic."""
    om = request.getfixturevalue(name)
    clear_caches()
    visited = []
    top_form = forms._top_form.__wrapped__

    def recording_top_form(key):
        visited.append(key)
        return top_form(key)

    monkeypatch.setattr(forms, "_top_form",
                        lru_cache(maxsize=None)(recording_top_form))
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
    cores = [Chirotope(tuple(range(n)), r, signs) for n, r, signs in visited]
    assert visited and all(is_acyclic(core) for core in cores)
    assert all(forms._positional(len(core.ground), core.rank, core.signs)
               == (1, key) for core, key in zip(cores, visited))


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
    """Once every tope was checked, checking them again rebuilds no
    cocircuits: the facets come from the oriented matroid's cached table,
    not from the reoriented chirotope."""
    topes = nonpappus.sorted_topes()
    reports = [check_residue_axioms(nonpappus, t) for t in topes]
    assert all(all(report.values()) for report in reports)
    calls = []
    cocircuit_masks = om_module._cocircuit_masks

    def counting_cocircuit_masks(n, r, signs):
        calls.append(signs)
        return cocircuit_masks(n, r, signs)

    monkeypatch.setattr(om_module, "_cocircuit_masks",
                        counting_cocircuit_masks)
    assert [check_residue_axioms(nonpappus, t) for t in topes] == reports
    assert calls == []
    facet_elements(nonpappus.chi, nonpappus.underlying)
    assert len(calls) == 1  # the counter sees calls


@pytest.mark.parametrize("name", ["line4", "pentagon", "parallel_pair",
                                  "nonpappus"])
def test_cached_algebra_needs_no_matroid_build(name, request, monkeypatch):
    """Once a chirotope's algebras are cached, a fresh chirotope with the
    same underlying matroids finds them by fingerprint alone."""
    chi = request.getfixturevalue(name).chi
    first = forms._labelled_top_form(chi)
    _, key = forms._positional(len(chi.ground), chi.rank, chi.signs)
    builds = []
    init = UnderlyingMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnderlyingMatroid, "__init__", counting_init)
    UnderlyingMatroid.from_chirotope(chi)
    assert len(builds) == 1  # the counter sees builds
    builds.clear()
    # __wrapped__ skips the memo for the top node, so its lookup runs
    assert forms._top_form.__wrapped__(key) == forms._top_form(key)
    fresh = Chirotope(chi.ground, chi.rank, chi.signs)
    assert forms._labelled_top_form(fresh) == first
    assert forms._labelled_top_form(scale(chi, -1)) == first.scale(-1)
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
            atom = alg.matroid.atom_of(a)
            targets[a] = labelled_top_form(chi.contract(a, drop=atom - {a}))
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
    of these adds a core memo entry or builds a residue stack."""
    om = named_om(name, request)
    n = len(om.ground)
    topes = om.sorted_topes()
    forms_of = {t: (canonical_form_tope(om, t),
                    nonreduced_canonical_form(om, t)) for t in topes}
    entries = forms._top_form.cache_info().currsize
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
    assert forms._top_form.cache_info().currsize == entries
    assert forms._stack.cache_info().misses == builds


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
    """Every contraction of a uniform (7, 4) matroid is uniform again, so
    the forms of all its topes need one algebra per rank 4..0 and one
    residue stack per rank 4..1."""
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
    assert len(algebras) == 5
    assert forms._stack.cache_info().misses == 4


# ---- the sign-table node against the chirotope path it replaced -----------


def facet_gathers(chis, monkeypatch) -> list:
    """(node key, removed, i, gathered signs) for every facet contraction the
    recursion makes, from empty memos, on its way to the forms of chis."""
    clear_caches()
    gathers = []
    gather = forms._contracted_signs

    def recording(n, r, signs, removed, i):
        out = gather(n, r, signs, removed, i)
        gathers.append(((n, r, signs), removed, i, out))
        return out

    monkeypatch.setattr(forms, "_contracted_signs", recording)
    for chi in chis:
        forms._labelled_top_form(chi)
    monkeypatch.setattr(forms, "_contracted_signs", gather)
    return gathers


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_facet_gathers_match_chirotope_contractions(name, request,
                                                    monkeypatch):
    """On the way to the forms of every tope, each facet contraction, one
    gather of the node's signs, equals `Chirotope.contract` of the node's
    chirotope by the facet's atom, and its (sign, key) is that chirotope's
    `_positional`; every node's cocircuits, read off its signs, are those
    that evaluating its chirotope finds."""
    om = named_om(name, request)
    gathers = facet_gathers([om.chi.reorient(t) for t in om.sorted_topes()],
                            monkeypatch)
    assert gathers
    nodes = set()
    for (n, r, signs), removed, i, got in gathers:
        core = Chirotope(tuple(range(n)), r, signs)
        want = core.contract(i, drop=set(_labels(core.ground, removed)) - {i})
        assert got == want.signs
        sub = forms._positional(n - removed.bit_count(), r - 1, got)
        assert sub == forms._positional(len(want.ground), want.rank,
                                        want.signs)
        nodes |= {(n, r, signs), sub[1]}
    if name.startswith("nonpappus"):  # rank 2 contractions merge elements
        assert any(removed & (removed - 1) for _, removed, _, _ in gathers)
    for n, r, signs in nodes:
        masks = om_module._cocircuit_masks(n, r, signs)
        want = value_cocircuits(Chirotope(tuple(range(n)), r, signs))
        assert ({pm for p, m in masks for pm in ((p, m), (m, p))}
                == {(y.plus, y.minus) for y in want})


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_entry_gathers_match_labelled_contractions(name, request):
    """Under every relabelling of every tope's reorientation, the gather of
    its positional class at each facet atom, with the entry's sign put
    back, is the sign table of the labelled `Chirotope.contract` by it."""
    om = named_om(name, request)
    for chi in relabellings(om.chi):
        m = UnderlyingMatroid.from_chirotope(chi)
        for t in om.sorted_topes():
            tope = chi.reorient(SignVector._from_masks(chi.ground, t.plus,
                                                       t.minus))
            sign, (n, r, signs) = forms._positional(
                len(tope.ground), tope.rank, tope.signs)
            facets = facet_elements(tope, m)
            for a, atom, mask in zip(m.atom_reps, m.atoms, m._atom_masks):
                if a not in facets:
                    continue
                got = forms._contracted_signs(n, r, signs, mask,
                                              chi.ground.index(a))
                want = tope.contract(a, drop=atom - {a})
                assert tuple(sign * s for s in got) == want.signs


@pytest.mark.parametrize("name", ["uniform_r4", "nonpappus"])
def test_cold_sweep_builds_chirotopes_only_to_reorient(name, request,
                                                       monkeypatch):
    """From empty memos, the forms of every tope build one chirotope per
    tope, its reorientation, and none inside the recursion."""
    om = named_om(name, request)
    topes = om.sorted_topes()
    reoriented = [om.chi.reorient(t) for t in topes]
    clear_caches()
    built = []
    depth = [0]
    init = Chirotope.__init__
    top_form = forms._top_form.__wrapped__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, depth[0]))

    def tracking_top_form(key):
        depth[0] += 1
        try:
            return top_form(key)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Chirotope, "__init__", counting_init)
    monkeypatch.setattr(forms, "_top_form",
                        lru_cache(maxsize=None)(tracking_top_form))
    for t in topes:
        canonical_form_tope(om, t)
    assert built == [(chi, 0) for chi in reoriented]


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
    not the residue recursion."""
    om = named_om(name, request)
    terms = 0
    for tope in om.sorted_topes():
        form = nonreduced_canonical_form(om, tope)
        assert form.terms == face_flag_form(om.chi.reorient(tope))
        terms += len(form.terms)
    assert terms >= len(om.topes)
