import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omcanon import SignVector

from oracle_ops import (compose, conforms_to, extend, is_nonnegative,
                        is_orthogonal, is_zero, negative_part, restrict,
                        support, zero_out)
from tuple_signvec import SignVector as TupleSignVector

G = ("a", "b", "c", "d")


def sv(*signs):
    return SignVector(G, signs)


def test_accessors():
    x = sv(1, 0, -1, -1)
    assert support(x) == {"a", "c", "d"}
    assert x.zero_set == {"b"}
    assert negative_part(x) == {"c", "d"}
    assert x.value("c") == -1
    assert not x.has_full_support
    assert sv(1, 1, -1, -1).has_full_support


def test_composition_first_nonzero_wins():
    x = sv(1, 0, 0, -1)
    y = sv(-1, 1, 0, 1)
    assert compose(x, y) == sv(1, 1, 0, -1)
    assert compose(y, x) == sv(-1, 1, 0, 1)
    assert compose(x, x) == x


def test_orthogonality():
    assert is_orthogonal(sv(1, 1, 0, 0), sv(1, -1, 0, 0))
    assert not is_orthogonal(sv(1, 1, 0, 0), sv(1, 1, 0, 0))
    assert is_orthogonal(sv(1, 0, 0, 0), sv(0, 1, 1, 1))  # disjoint supports
    assert not is_orthogonal(sv(1, 0, 0, 0), sv(1, 0, 1, 0))


def test_conformal():
    t = sv(1, 1, -1, -1)
    assert conforms_to(sv(1, 0, -1, 0), t)
    assert not conforms_to(sv(-1, 0, 0, 0), t)
    assert conforms_to(sv(0, 0, 0, 0), t)


def test_restrict_extend_zero_out():
    x = sv(1, 0, -1, 1)
    assert restrict(x, ("b", "d")) == SignVector(("b", "d"), (0, 1))
    back = extend(restrict(x, ("b", "d")), G)
    assert back == sv(0, 0, 0, 1)
    assert zero_out(x, {"a", "d"}) == sv(0, 0, -1, 0)


def test_sort_key_orders_plus_zero_minus():
    order = sorted([sv(-1, 1, 1, 1), sv(0, 1, 1, 1), sv(1, 1, 1, 1)],
                   key=SignVector.sort_key)
    assert order == [sv(1, 1, 1, 1), sv(0, 1, 1, 1), sv(-1, 1, 1, 1)]


@pytest.mark.parametrize("bad", [2, -2, None])
def test_signs_outside_minus_one_zero_one_are_rejected(bad):
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        SignVector(("a", "b"), (bad, 0))


def test_a_sign_vector_built_on_a_list_is_the_tuple_one():
    """The ground is kept as a tuple, as a chirotope's is: a sign vector
    built on a list equals the tuple-built one and hashes alike (it once
    compared unequal, and hashing it raised TypeError)."""
    x = SignVector(("a", "b"), (1, 0))
    for y in (SignVector(["a", "b"], [1, 0]),
              SignVector.from_map(["a", "b"], {"a": 1})):
        assert type(y.ground) is tuple
        assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("values, label", [({"c": 1}, "'c'"),
                                           ({"a": 1, 0: -1, "d": 1}, "0")])
def test_from_map_refuses_unknown_labels(values, label):
    """A key that is no ground label is refused, the first one named;
    such keys were once dropped, reading as 0."""
    with pytest.raises(ValueError) as err:
        SignVector.from_map(("a", "b"), values)
    assert str(err.value) == f"unknown element label {label}"


def test_from_map_rejects_bad_signs():
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        SignVector.from_map(("a", "b"), {"b": 2})


@pytest.mark.parametrize("cls", [SignVector, TupleSignVector])
@pytest.mark.parametrize("bad", [1.5, "1", 1.0, True, -1.0])
def test_signs_are_not_coerced(cls, bad):
    """Only the ints -1, 0 and 1 are signs, at both entry points and in the
    tuple twin: a float, a numeric string or a bool is refused, not read
    as the int it would convert to."""
    with pytest.raises(ValueError, match=f"^sign {bad!r} is not -1, 0 or 1$"):
        cls(("a", "b"), (bad, 0))
    with pytest.raises(ValueError, match=f"^sign {bad!r} is not -1, 0 or 1$"):
        cls.from_map(("a", "b"), {"a": 1, "b": bad})


def test_length_mismatch_is_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        SignVector(G, (1, 0))


def test_immutable_and_picklable():
    x = sv(1, 0, -1, 1)
    for name in ("ground", "plus", "minus", "signs"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        del x.plus
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x and copy.copy(x) == x


# ---- differential test against the tuple-based implementation ---------------

LABELS = st.one_of(st.integers(-20, 20),
                   st.text(alphabet="abcxyz", min_size=1, max_size=2))
SIGNS = st.sampled_from((-1, 0, 1))


@st.composite
def vector_cases(draw):
    """Two sign vectors over one ground set of 0 to 12 int and str labels,
    a permutation of that ground, a sub-ground, a super-ground and a fill."""
    ground = tuple(draw(st.lists(LABELS, max_size=12, unique=True)))
    n = len(ground)
    signs = [tuple(draw(st.lists(SIGNS, min_size=n, max_size=n)))
             for _ in range(2)]
    permuted = tuple(draw(st.permutations(ground)))
    sub = tuple(e for e in permuted if draw(st.booleans()))
    extra = draw(st.lists(LABELS.filter(lambda e: e not in ground),
                          max_size=3, unique=True))
    sup = tuple(draw(st.permutations(ground + tuple(extra))))
    zeroed = {e for e in sup if draw(st.booleans())}
    return ground, signs, permuted, sub, sup, draw(SIGNS), zeroed


def same(x: SignVector, ox: TupleSignVector) -> bool:
    return (type(x) is SignVector and x.ground == ox.ground
            and x.signs == ox.signs)


@given(vector_cases())
def test_matches_tuple_oracle(case):
    ground, (s, t), permuted, sub, sup, fill, zeroed = case
    x, y = SignVector(ground, s), SignVector(ground, t)
    ox, oy = TupleSignVector(ground, s), TupleSignVector(ground, t)
    assert same(x, ox) and same(y, oy)
    assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
    assert hash(x) == hash(SignVector(ground, s))
    if x == y:
        assert hash(x) == hash(y)
    moved = SignVector(permuted, s)
    assert (x == moved) == (ox == TupleSignVector(permuted, s))
    assert len({x, y, moved}) == len({ox, oy, TupleSignVector(permuted, s)})
    assert x.sort_key() == ox.sort_key()
    assert str(x) == str(ox) and repr(x) == repr(ox)
    assert all(x.value(e) == ox.value(e) for e in ground)
    assert same(-x, -ox)
    assert same(compose(x, y), ox.compose(oy))
    assert conforms_to(x, y) == ox.conforms_to(oy)
    assert conforms_to(y, x) == oy.conforms_to(ox)
    assert is_orthogonal(x, y) == ox.is_orthogonal(oy)
    assert support(x) == ox.support
    assert negative_part(x) == ox.negative_part
    assert is_zero(x) == ox.is_zero
    for attr in ("zero_set", "has_full_support"):
        assert getattr(x, attr) == getattr(ox, attr), attr
    assert is_nonnegative(x) == ox.is_nonnegative
    assert same(restrict(x, sub), ox.restrict(sub))
    assert same(extend(x, sup, fill=fill), ox.extend(sup, fill=fill))
    assert same(extend(x, sup), ox.extend(sup))
    assert same(zero_out(x, zeroed), ox.zero_out(zeroed))
    values = dict(zip(ground, s))
    assert same(SignVector.from_map(sup, values),
                TupleSignVector.from_map(sup, values))


@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.tuples(*[SIGNS] * n), max_size=8)))
def test_sort_order_matches_tuple_oracle(signs):
    ground = tuple(range(len(signs[0]))) if signs else ()
    got = sorted((SignVector(ground, s) for s in signs),
                 key=SignVector.sort_key)
    want = sorted((TupleSignVector(ground, s) for s in signs),
                  key=TupleSignVector.sort_key)
    assert [x.signs for x in got] == [x.signs for x in want]
