from itertools import combinations, product

import pytest

from omcanon import Chirotope, InvalidChirotope, SignVector, validate_chirotope
from omcanon.chirotope import _key_index, chirotope_diagnostic, perm_parity_sign
from omcanon.signvec import ground_positions

from conftest import boolean_om, cyclic_line_chirotope


def test_validate_line4():
    validate_chirotope(cyclic_line_chirotope(3))


def test_validate_smallest_rank1():
    validate_chirotope(Chirotope.from_map((0,), 1, {(0,): 1}))


def test_loop_diagnostic():
    chi = Chirotope.from_map((0, 1, 2), 2, {(0, 1): 1, (0, 2): 0, (1, 2): 0})
    with pytest.raises(InvalidChirotope, match="loop: 2"):
        validate_chirotope(chi)
    assert chirotope_diagnostic(chi) == "loop: 2"


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


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "parallel_pair", "nonpappus"])
def test_contract_matches_reference(name, request):
    """Every element, alone and with the rest of its parallel class."""
    om = request.getfixturevalue(name)
    for t in om.sorted_topes()[:4]:
        chi = om.chi.reorient(t)
        for e in chi.ground:
            rest = tuple(sorted(om.underlying.atom_of(e) - {e},
                                key=chi.ground.index))
            for drop in ((), rest):
                assert chi.contract(e, drop) == reference_contract(chi, e, drop)
    with pytest.raises(ValueError, match="unknown element"):
        om.chi.contract("no such label")


def test_delete_restriction_and_coloop():
    chi = cyclic_line_chirotope(3)
    sub = chi.delete(3)
    assert sub.ground == (0, 1, 2)
    assert all(sub.value(k) == 1 for k in ((0, 1), (0, 2), (1, 2)))
    single = Chirotope.from_map((0,), 1, {(0,): 1})
    with pytest.raises(ValueError, match="rank would drop"):
        single.delete(0)


def test_delete_contract_commute():
    chi = cyclic_line_chirotope(4)
    a, b = 1, 3
    left = chi.delete(a).contract(b)
    right = chi.contract(b).delete(a)
    assert left.ground == right.ground
    assert left.signs == right.signs


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
    return perm_parity_sign(positions) * chi.signs[
        _key_index(chi.ground, chi.rank)[key]]


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
