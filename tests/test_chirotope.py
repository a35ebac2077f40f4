import random
from itertools import combinations, product
from math import comb

import pytest

from omcanon import (Chirotope, InvalidChirotope, OrientedMatroid,
                     SignVector, UnderlyingMatroid, validate_chirotope)
from omcanon.chirotope import (_bits, _earliest_basis, _earliest_mask,
                               _keys_through, _mask_index, _minor_slots,
                               chirotope_diagnostic, perm_parity_sign)
from omcanon.signvec import _labels, ground_positions

import label_walk
from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES,
                      all_full_support_vectors, boolean_om,
                      cyclic_line_chirotope, deletion_fingerprint, named_om,
                      relabellings)
from oracle_ops import atom_of, negative_part


def test_validate_line4():
    validate_chirotope(cyclic_line_chirotope(3))


def test_validate_smallest_rank1():
    validate_chirotope(Chirotope.from_map((0,), 1, {(0,): 1}))


def test_loop_diagnostic():
    chi = Chirotope.from_map((0, 1, 2), 2, {(0, 1): 1, (0, 2): 0, (1, 2): 0})
    with pytest.raises(InvalidChirotope, match="loop: 2"):
        validate_chirotope(chi)
    assert chirotope_diagnostic(chi) == "loop: 2"


@pytest.mark.parametrize("bad", [2, -2, 1.5, 1.0, "1", True, None])
def test_signs_must_be_ints_in_minus_one_to_one(bad):
    """A sign that is not the int -1, 0 or 1 is refused, and the diagnostic
    names the first such key in sign-table order, before any axiom."""
    chi = Chirotope(("a", "b", "c"), 2, (1, bad, bad))
    message = f"sign {bad!r} at ('a', 'c') is not -1, 0 or 1"
    with pytest.raises(InvalidChirotope) as err:
        validate_chirotope(chi)
    assert err.value.diagnostic == message
    assert chirotope_diagnostic(chi) == message
    with pytest.raises(InvalidChirotope):
        OrientedMatroid(chi)


@pytest.mark.parametrize("chi, key", [(Chirotope((), 0, (2,)), "()"),
                                      (Chirotope(("a", "b"), 1, (2, 1)),
                                       "('a',)")])
def test_a_sign_of_two_is_refused_in_low_rank(chi, key):
    """The rank-1 table (2, 1) once validated, and its all-plus tope had
    the form 2*1."""
    assert chirotope_diagnostic(chi) == f"sign 2 at {key} is not -1, 0 or 1"


def test_from_map_keeps_signs_as_given():
    """`from_map` does not coerce: 1.5 and 0.4 reach the check as they are
    (int() made them 1 and 0, losing the basis ac)."""
    values = {("a", "b"): 1.5, ("a", "c"): 0.4, ("b", "c"): 1}
    chi = Chirotope.from_map(("a", "b", "c"), 2, values)
    assert chi.signs == (1.5, 0.4, 1)
    assert (chirotope_diagnostic(chi)
            == "sign 1.5 at ('a', 'b') is not -1, 0 or 1")


def test_identically_zero_rejected():
    chi = Chirotope.from_map((0, 1), 2, {(0, 1): 0})
    with pytest.raises(InvalidChirotope, match="zero"):
        validate_chirotope(chi)


def test_three_term_violation_detected():
    # rank 2 on 4 elements: flip one sign of the cyclic pattern so the
    # three-term relation on (0,1,2,3) fails
    values = {(0, 1): 1, (0, 2): 1, (0, 3): 1,
              (1, 2): 1, (1, 3): -1, (2, 3): 1}
    chi = Chirotope.from_map((0, 1, 2, 3), 2, values)
    assert chirotope_diagnostic(chi) is not None


def test_alternating_evaluation():
    chi = cyclic_line_chirotope(3)
    assert chi.value((1, 2)) == 1
    assert chi.value((2, 1)) == -1
    assert chi.value((1, 1)) == 0
    with pytest.raises(ValueError):
        chi.value((0,))
    with pytest.raises(ValueError):
        chi.value((0, 99))


def test_reorient_examples():
    chi = cyclic_line_chirotope(3)
    p1 = SignVector(chi.ground, (1, 1, -1, -1))
    assert chi.reorient(p1).value((1, 2)) == -1
    plus = SignVector(chi.ground, (1, 1, 1, 1))
    assert chi.reorient(plus) == chi
    minus = SignVector(chi.ground, (-1, -1, -1, -1))
    assert chi.reorient(minus) == chi  # (-1)^r with r = 2


def test_reorient_involution():
    chi = cyclic_line_chirotope(3)
    p = SignVector(chi.ground, (1, -1, 1, -1))
    assert chi.reorient(p).reorient(p) == chi


def test_contract_line4():
    chi = cyclic_line_chirotope(3)
    sub = chi.contract(0)
    assert sub.ground == (1, 2, 3)
    assert sub.rank == 1
    assert sub.value((1,)) == chi.value((1, 0)) == -1


def test_contract_to_rank_zero():
    chi = Chirotope.from_map((0,), 1, {(0,): 1})
    sub = chi.contract(0)
    assert sub.rank == 0 and sub.ground == ()
    assert sub.value(()) == 1


def reference_contract(chi: Chirotope, element, drop=()) -> Chirotope:
    """`Chirotope.contract` before it read the parent's ascending keys."""
    removed = {element, *drop}
    new_ground = tuple(e for e in chi.ground if e not in removed)
    values = {key: chi.value(key + (element,))
              for key in combinations(new_ground, chi.rank - 1)}
    return Chirotope.from_map(new_ground, chi.rank - 1, values)


def dict_contract(chi: Chirotope, element, drop=()) -> Chirotope:
    """`Chirotope.contract` when it collected {key: sign} from the parent's
    ascending keys and rebuilt the table with `from_map`."""
    removed = {element, *drop}
    new_ground = tuple(e for e in chi.ground if e not in removed)
    new_rank = chi.rank - 1
    values = {}
    for key, s in zip(chi.keys, chi.signs):
        if s and element in key:
            i = key.index(element)
            rest = key[:i] + key[i + 1:]
            if removed.isdisjoint(rest):
                values[rest] = -s if (new_rank - i) % 2 else s
    return Chirotope.from_map(new_ground, new_rank, values)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_contract_matches_reference(name, request):
    """Every element on a few reorientations under every relabelling,
    against both earlier contractions given the rest of its parallel
    class."""
    om = named_om(name, request)
    for t in om.sorted_topes()[:4]:
        for chi in relabellings(om.chi.reorient(t)):
            relabel = dict(zip(om.ground, chi.ground))
            for e in om.ground:
                a = relabel[e]
                rest = tuple(relabel[f] for f in sorted(
                    atom_of(om.underlying, e) - {e}, key=om.ground.index))
                assert (chi.contract(a)
                        == reference_contract(chi, a, rest)
                        == dict_contract(chi, a, rest))
    with pytest.raises(ValueError, match="unknown element"):
        om.chi.contract("no such label")


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_contract_drops_exactly_the_parallel_class(name, request):
    """A contraction's ground set is the parent's less the contracted
    element's parallel class: every element sharing a basis with it is
    kept (dropping one would delete it as well), and no parallel element
    stays behind as a loop."""
    om = named_om(name, request)
    for e, f in product(om.ground, repeat=2):
        kept = f in om.chi.contract(e).ground
        assert kept == (f not in atom_of(om.underlying, e))


def test_contract_refuses_every_element_of_a_rank_zero_table():
    """Every element of a rank-0 table is a loop: contracting one fails
    with the message `OrientedMatroid.contract` gives, not with
    itertools' own error."""
    rank0 = Chirotope(("a", "b"), 0, (1,))
    for e in rank0.ground:
        with pytest.raises(ValueError, match=f"^{e!r} is a loop, in no atom$"):
            rank0.contract(e)


def test_contract_refuses_a_zero_row():
    """An element in no basis of an unvalidated table is a loop:
    contracting it fails, where it gave an all-zero rank-1 table, and
    contracting another element keeps it, as a loop."""
    chi = Chirotope.from_map(("a", "b", "l"), 2, {("a", "b"): 1})
    with pytest.raises(ValueError, match="^'l' is a loop, in no atom$"):
        chi.contract("l")
    assert chi.contract("a") == Chirotope(("b", "l"), 1, (-1, 0))


def sign_table_contract(chi: Chirotope, element) -> Chirotope:
    """`Chirotope.contract` when it found the class it drops in one pass
    over the sign table."""
    i = chi.ground.index(element)
    n, r, signs = len(chi.ground), chi.rank, chi.signs
    nonloops = spanned = 0
    for k, s in zip(_mask_index(n, r), signs):
        if s:
            nonloops |= k
            if k >> i & 1:
                spanned |= k
    if not spanned:
        raise ValueError(f"{element!r} is a loop, in no atom")
    removed = nonloops & ~spanned | 1 << i
    return Chirotope(_labels(chi.ground, ~removed), r - 1,
                     tuple(-signs[k >> 1] if k & 1 else signs[k >> 1]
                           for k in _minor_slots(n, r, removed, i)))


def list_filter_earliest_mask(chi: Chirotope, places) -> int:
    """`chirotope._earliest_mask` when it filtered a list of basis masks."""
    bases = [m for m, s in zip(_mask_index(len(chi.ground), chi.rank),
                               chi.signs) if s]
    kept = 0
    for i in places:
        within = [b for b in bases if b & 1 << i]
        if within:
            bases = within
            kept |= 1 << i
    return kept


def list_scan_diagnostic(chi: Chirotope) -> str | None:
    """The first violation of `validate_chirotope`'s checks before the
    three-term one, when the loop check and the exchange check scanned the
    list of basis masks; None if there is none."""
    if chi.rank == 0:
        return "identically zero" if chi.signs[0] == 0 else None
    ground = chi.ground
    bases = [m for m, s in zip(_mask_index(len(ground), chi.rank),
                               chi.signs) if s]
    if not bases:
        return "identically zero"
    missing = (1 << len(ground)) - 1
    for b in bases:
        missing &= ~b
    if missing:
        return f"loop: {ground[(missing & -missing).bit_length() - 1]}"
    reach: dict = {}
    for b in bases:
        for x in _bits(b):
            reach[b ^ x] = reach.get(b ^ x, 0) | x
    for b1 in bases:
        fail = None
        for x in _bits(b1):
            j = next((k for k, b2 in enumerate(bases)
                      if not b2 & reach[b1 ^ x]), len(bases))
            if j < len(bases) and (fail is None or j < fail[0]):
                fail = (j, x)
        if fail is not None:
            j, x = fail
            return (f"basis exchange fails for "
                    f"{tuple(sorted(_labels(ground, b1)))} / "
                    f"{tuple(sorted(_labels(ground, bases[j])))} "
                    f"at {ground[x.bit_length() - 1]}")
    return None


def random_sign_tables(count: int, seed: int) -> list:
    """count seeded unvalidated sign tables of rank 0 to 4 on 1 to 7
    letters in seeded order, each sign zero with a seeded probability.
    About one table in three gets a zero row (an element in no basis), and
    about one in three has every key through {a, b} or {b, c} zeroed for
    seeded a, b, c, so that sharing no basis need not be transitive."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.randint(0, 4)
        n = rng.randint(max(r, 1), 7)
        zero = rng.random()
        signs = [0 if rng.random() < zero else rng.choice((-1, 1))
                 for _ in range(comb(n, r))]
        keys = list(map(set, combinations(range(n), r)))
        if rng.random() < 1 / 3:
            row = rng.randrange(n)
            signs = [0 if row in k else s for k, s in zip(keys, signs)]
        if n >= 3 and rng.random() < 1 / 3:
            a, b, c = rng.sample(range(n), 3)
            signs = [0 if {a, b} <= k or {b, c} <= k else s
                     for k, s in zip(keys, signs)]
        ground = tuple(rng.sample("abcdefg", n))
        out.append(Chirotope(ground, r, tuple(signs)))
    return out


def nontransitive(chi: Chirotope) -> bool:
    """True iff some non-loops a, b, c with a != c have a and b, and b and
    c, in no common basis, while a and c share one."""
    through = [chi.support & keys
               for keys in _keys_through(len(chi.ground), chi.rank)]
    apart = {(i, j) for i, t in enumerate(through)
             for j, u in enumerate(through) if t and u and not t & u}
    return any((b, c) in apart and a != c and (a, c) not in apart
               for a, b in apart for c in range(len(through)))


def test_bitset_paths_match_the_sign_table_passes():
    """On 2,000 seeded unvalidated sign tables, zero rows and
    non-transitive "parallelism" included: `Chirotope.contract` drops the
    same class and refuses the same loops as a pass over the sign table,
    `_earliest_mask` keeps what the list filter keeps on three seeded
    orders, and `validate_chirotope` names the first loop or exchange
    failure that scanning the basis list names."""
    tables = random_sign_tables(2000, seed=45)
    assert sum(not all(chi.support & keys for keys in _keys_through(
        len(chi.ground), chi.rank)) for chi in tables if chi.rank) > 300
    assert sum(map(nontransitive, tables)) > 200
    refused = 0
    for k, chi in enumerate(tables):
        for e in chi.ground:
            want = _raised(sign_table_contract, chi, e)
            assert _raised(chi.contract, e) == want
            refused += want is not None
            if want is None:
                assert chi.contract(e) == sign_table_contract(chi, e)
        rng = random.Random(k)
        n = len(chi.ground)
        for places in (rng.sample(range(n), n), rng.sample(range(n), n),
                       rng.sample(range(n), rng.randint(0, n))):
            assert (_earliest_mask(chi, places)
                    == list_filter_earliest_mask(chi, places))
        want = list_scan_diagnostic(chi)
        got = chirotope_diagnostic(chi)
        if want is None:
            assert got is None or got.startswith("three-term")
        else:
            assert got == want
    assert refused > 1000


def reference_delete(chi: Chirotope, element) -> Chirotope:
    """The deletion of one element: each key of the new ground evaluated on
    chi, as `Chirotope.delete` did before it was a gather."""
    new_ground = tuple(e for e in chi.ground if e != element)
    return Chirotope.from_map(new_ground, chi.rank, {
        key: chi.value(key) for key in combinations(new_ground, chi.rank)})


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_delete_matches_reference(name, request):
    """The deletion fingerprint that the Orlik-Solomon deletion-restriction
    tests build (`conftest.deletion_fingerprint`), against deleting the
    atom's elements one by one through `reference_delete`, at every atom
    that is not a coloop, under every relabelling.  At a coloop it is the
    contraction's fingerprint."""
    om = named_om(name, request)
    for chi in relabellings(om.chi):
        m = UnderlyingMatroid.from_chirotope(chi)
        for rep in m.atom_reps:
            atom = atom_of(m, rep)
            deleted = chi
            for e in sorted(atom, key=chi.ground.index):
                deleted = reference_delete(deleted, e)
            got = deletion_fingerprint(m, rep)
            if any(deleted.signs):
                assert got == (deleted.ground, deleted.rank, deleted.support)
            else:  # the atom is a coloop
                assert got == m.contraction_fingerprint(rep)


def test_boolean_validates():
    validate_chirotope(boolean_om(3).chi)


def reference_value(chi: Chirotope, seq) -> int:
    """`Chirotope.value` before its ascending-key fast path."""
    seq = tuple(seq)
    if len(seq) != chi.rank:
        raise ValueError(f"expected {chi.rank} entries, got {len(seq)}")
    pos = ground_positions(chi.ground)
    try:
        positions = [pos[e] for e in seq]
    except KeyError as exc:
        raise ValueError(f"unknown element label {exc.args[0]!r}") from None
    if len(set(positions)) != len(positions):
        return 0
    order = sorted(range(len(seq)), key=lambda i: positions[i])
    key = tuple(seq[i] for i in order)
    return perm_parity_sign(positions) * chi.signs[chi.keys.index(key)]


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["line4", "pentagon", "nonpappus"])
def test_value_matches_reference(name, request):
    chi = request.getfixturevalue(name).chi
    for seq in product(chi.ground, repeat=chi.rank):
        assert chi.value(seq) == reference_value(chi, seq)
        assert chi.value(list(seq)) == reference_value(chi, seq)
    g = chi.ground
    bad = [g[:chi.rank - 1], g[:chi.rank] + g[:1], (),
           ("no such label",) + g[1:chi.rank], g[:chi.rank - 1] + (None,)]
    for seq in bad:
        message = _raised(reference_value, chi, seq)
        assert message is not None and _raised(chi.value, seq) == message


# ---- differential tests against the label-walking paths ---------------------


def reference_diagnostic(chi: Chirotope) -> str | None:
    """`chirotope_diagnostic` when `validate_chirotope` walked labels through
    `Chirotope.value`: the first violation's message, or None."""
    if chi.rank == 0:
        return "identically zero" if chi.signs[0] == 0 else None
    keys = chi.nonzero_keys
    nonzero = [set(k) for k in keys]
    if not nonzero:
        return "identically zero"
    for e in chi.ground:
        if not any(e in b for b in nonzero):
            return f"loop: {e}"
    pos = ground_positions(chi.ground)
    for k1, b1 in zip(keys, nonzero):
        for k2, b2 in zip(keys, nonzero):
            for x in (e for e in k1 if e not in b2):
                if not any(chi.value(tuple(sorted((b1 - {x}) | {y},
                                                  key=pos.get))) != 0
                           for y in k2 if y not in b1):
                    return (f"basis exchange fails for {tuple(sorted(b1))} / "
                            f"{tuple(sorted(b2))} at {x}")
    if chi.rank < 2:
        return None
    for stem in combinations(chi.ground, chi.rank - 2):
        rest = [e for e in chi.ground if e not in stem]
        for a, b, c, d in combinations(rest, 4):
            p1 = chi.value(stem + (a, b)) * chi.value(stem + (c, d))
            p2 = chi.value(stem + (a, c)) * chi.value(stem + (b, d))
            p3 = chi.value(stem + (a, d)) * chi.value(stem + (b, c))
            terms = [p1, -p2, p3]
            if any(terms) and not (min(terms) < 0 < max(terms)):
                return (f"three-term relation fails on stem {stem}, "
                        f"quadruple {(a, b, c, d)}")
    return None


def mutations(chi: Chirotope, count: int, seed: int) -> list:
    """Seeded copies of chi with one or two sign-table entries flipped,
    zeroed or set."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        signs = list(chi.signs)
        for i in rng.sample(range(len(signs)),
                            min(len(signs), rng.randint(1, 2))):
            signs[i] = rng.choice([s for s in (-1, 0, 1) if s != signs[i]])
        out.append(Chirotope(chi.ground, chi.rank, tuple(signs)))
    return out


def nonpappus_extensions(om, count: int) -> list:
    """Chirotopes of seeded lex extensions of om by basis signatures."""
    rng = random.Random("extensions")
    out = []
    while len(out) < count:
        signature = tuple((b, rng.choice((1, -1)))
                          for b in rng.sample(om.ground, om.rank))
        if om.chi.value(tuple(b for b, _ in signature)):
            out.append(om.lex_extension(signature, label=len(om.ground))
                       .chi_ext)
    return out


@pytest.mark.parametrize("name", FIXTURES + ["extensions"])
def test_validation_matches_label_walk(name, request):
    """Same diagnostic as the label walk on the fixture (or two seeded lex
    extensions of non-Pappus), on seeded mutations of its sign table, and
    under every relabelling; both valid and invalid tables occur."""
    if name == "extensions":
        chis = nonpappus_extensions(request.getfixturevalue("nonpappus"), 2)
    else:
        chis = [named_om(name, request).chi]
    # The label walk is slow on large tables: they get fewer mutations,
    # each under one relabelling in turn.
    large = len(chis[0].signs) > 20
    outcomes = set()
    for k, chi in enumerate(chis):
        assert chirotope_diagnostic(chi) is None
        cases = [chi] + mutations(chi, 4 if large else 12, seed=k)
        for j, case in enumerate(cases):
            variants = relabellings(case)
            for variant in ([variants[j % 4]] if large else variants):
                expected = reference_diagnostic(variant)
                assert chirotope_diagnostic(variant) == expected
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_exchange_diagnostic_names_first_element():
    """With bases {0, 1} and {2, 3} only, both elements of the first basis
    fail the exchange; the diagnostic names the first in ground order."""
    chi = Chirotope.from_map((0, 1, 2, 3), 2, {(0, 1): 1, (2, 3): 1})
    assert (chirotope_diagnostic(chi)
            == "basis exchange fails for (0, 1) / (2, 3) at 0")
    for variant in relabellings(chi):
        assert chirotope_diagnostic(variant) == reference_diagnostic(variant)


def label_reorient(chi: Chirotope, tope: SignVector) -> Chirotope:
    """`Chirotope.reorient` when it intersected each key with the negative
    part of the tope."""
    neg = negative_part(tope)
    return Chirotope(chi.ground, chi.rank, tuple(
        s * (-1 if len(set(key) & neg) % 2 else 1)
        for key, s in zip(chi.keys, chi.signs)))


@pytest.mark.parametrize("name", FIXTURES)
def test_reorient_matches_label_walk(name, request):
    """Reorientation by every full-support sign vector, under every
    relabelling."""
    om = named_om(name, request)
    for chi in relabellings(om.chi):
        for x in all_full_support_vectors(chi.ground):
            assert chi.reorient(x) == label_reorient(chi, x)


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_earliest_basis_matches_min_core(name, request):
    """The greedy pick equals the min over the bases of their sorted places,
    on 25 seeded insertion orders under every relabelling; an unknown label
    is reported wherever it stands."""
    chi = named_om(name, request).chi
    for variant in relabellings(chi):
        for seed in range(25):
            order = random.Random(seed).sample(variant.ground,
                                               len(variant.ground))
            assert (_earliest_basis(variant, order)
                    == label_walk.min_core(variant, order))
        with pytest.raises(ValueError, match="^unknown element label 99$"):
            _earliest_basis(variant, list(variant.ground) + [99])


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_reoriented_circuit_table(name, request):
    """Reorienting by a tope's minus mask m flips the signs of each circuit
    at m, and the whole circuit of s when |s & m| is odd: set by set,
    chi's circuit table read so is that of chi.reorient(t)."""
    om = named_om(name, request)
    table = om.chi._circuit_table
    for t in om.sorted_topes():
        m = t.minus
        flipped = om.chi.reorient(t)._circuit_table
        assert flipped.keys() == table.keys()
        for s, (plus, minus) in table.items():
            pair = (plus & ~m | minus & m, minus & ~m | plus & m)
            if (s & m).bit_count() & 1:
                pair = pair[::-1]
            assert flipped[s] == pair
