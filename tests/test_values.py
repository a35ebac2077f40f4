"""The nine record classes keep the value semantics of their `@dataclass`
twins in `value_twins.py` (equality, hash, repr, immutability, copies,
pickles and keyword construction), and importing the command line loads
neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import omcanon
from omcanon import bases, chirotope, om, osalg, realization, serialize
from omcanon.forms import algebra_of

import value_twins
from conftest import cyclic_line_chirotope

SRC = os.path.dirname(os.path.dirname(os.path.abspath(omcanon.__file__)))

LIBRARY = {
    "Chirotope": chirotope.Chirotope,
    "OSElement": osalg.OSElement,
    "LinearMap": osalg.LinearMap,
    "Extension": om.Extension,
    "RationalMatrix": realization.RationalMatrix,
    "FlagStage": bases.FlagStage,
    "Flag": bases.Flag,
    "AomotoReport": bases.AomotoReport,
    "ParsedInput": serialize.ParsedInput,
}
NAMES = sorted(LIBRARY)


def arguments(name: str) -> tuple:
    """Constructor arguments for `name`: two argument tuples of equal but
    distinct values, then one of a different value."""
    chi = cyclic_line_chirotope(3)
    chi2 = chirotope.Chirotope(tuple(list(chi.ground)), chi.rank,
                               tuple(list(chi.signs)))
    line = om.OrientedMatroid(chi)
    ext = bases._perturbation(line)
    ext_args = (line, ext.label, ext.signature)
    ext2 = om.Extension(line, ext.label, tuple(list(ext.signature)))
    ext3 = om.Extension(line, "r", ext.signature)
    # an oriented matroid compares by identity
    line2 = om.OrientedMatroid(cyclic_line_chirotope(4))
    alg = algebra_of(line)
    k0, k1, k2 = alg.nbc[1][:3]
    matrix = realization.RationalMatrix(("a", "b"), ((1, 2), (0, 3)))
    return {
        "Chirotope": (
            (chi.ground, chi.rank, chi.signs),
            (chi2.ground, chi2.rank, chi2.signs),
            (chi.ground, chi.rank, tuple(-s for s in chi.signs))),
        "OSElement": (
            (alg, 1, {k0: 1, k1: Fraction(4, 2)}),
            (alg, 1, {k1: 2, k0: Fraction(1), k2: 0}),
            (alg, 1, {k0: 1, k1: Fraction(1, 2)})),
        "LinearMap": (
            (["a"], ["b", "c"], [[1], [Fraction(1, 2)]]),
            (["a"], ["b", "c"], [[1], [Fraction(1, 2)]]),
            (["a"], ["b", "c"], [[0], [1]])),
        "Extension": (
            ext_args, (line, ext2.label, ext2.signature),
            (line, "r", ext.signature)),
        "RationalMatrix": (
            (("a", "b"), ((1, "1/2"), (0, 3))),
            (("a", "b"), [[Fraction(1), Fraction(1, 2)], ["0", 3]]),
            (("a", "b"), ((1, 2), (0, 3)))),
        "FlagStage": ((ext,), (ext2,), (ext3,)),
        "Flag": ((line,), (line,), (line2,)),
        "AomotoReport": (
            (0, 1, False, True, True, [line.sorted_topes()[0]], [],
             {"0": Fraction(2)}),
            (0, 1, False, True, True, [line.sorted_topes()[0]], [],
             {"0": 2}),
            (1, 1, True, True, True, [], [], {"0": 2})),
        "ParsedInput": (
            (chi, None), (chi2, None), (chi, matrix)),
    }[name]


def build(name: str) -> tuple:
    """(library instances, twin instances, frozen) on `arguments(name)`."""
    lib, twin = LIBRARY[name], getattr(value_twins, name)
    args = arguments(name)
    return ([lib(*a) for a in args], [twin(*a) for a in args],
            twin.__dataclass_params__.frozen)


def init_fields(name: str) -> list:
    twin = getattr(value_twins, name)
    return [f.name for f in dataclasses.fields(twin) if f.init]


def comparisons(a, a2, b) -> tuple:
    return (a == a2, a2 == a, a != a2, a == b, a != b, a == "x", a != "x",
            "x" != a)


@pytest.mark.parametrize("name", NAMES)
def test_equality_agrees_with_the_dataclass(name):
    (a, a2, b), (ta, ta2, tb), _ = build(name)
    assert comparisons(a, a2, b) == comparisons(ta, ta2, tb) == (
        True, True, False, False, True, False, True, True)


@pytest.mark.parametrize("name", NAMES)
def test_hash_agrees_with_the_dataclass(name):
    (a, a2, b), (ta, ta2, tb), frozen = build(name)
    if frozen:
        assert hash(a) == hash(a2) == hash(ta) == hash(ta2)
        assert hash(b) == hash(tb)
    else:
        for x in (a, ta):
            with pytest.raises(TypeError):
                hash(x)


@pytest.mark.parametrize("name", NAMES)
def test_repr_agrees_with_the_dataclass(name):
    lib, twin, _ = build(name)
    assert [repr(x) for x in lib] == [repr(x) for x in twin]


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_agree_with_the_dataclass(name):
    (a, a2, b), (ta, ta2, tb), frozen = build(name)
    for field in init_fields(name):
        for x, other in ((a, b), (ta, tb)):
            value = getattr(other, field)
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(x, field, value)
                with pytest.raises(AttributeError):
                    delattr(x, field)
                with pytest.raises(AttributeError):
                    setattr(x, "extra", value)
            else:
                setattr(x, field, value)
    if frozen:
        assert repr(a) == repr(a2) == repr(ta)
    else:  # every field now holds b's value, and deletion is allowed
        assert (a == b, ta == tb, repr(a)) == (True, True, repr(ta))
        for x in (a, ta):
            delattr(x, init_fields(name)[0])
            assert not hasattr(x, init_fields(name)[0])


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trips_agree_with_the_dataclass(name):
    lib, twin, _ = build(name)
    for a, ta in zip(lib, twin):
        # one pickle for both, so the round trips share their nested values
        rt, trt = pickle.loads(pickle.dumps((a, ta)))
        assert (type(rt), type(trt)) == (type(a), type(ta))
        assert repr(rt) == repr(trt)
        assert list(vars(rt)) == list(vars(trt))
        assert (rt == a) == (trt == ta)
        c, tc = copy.copy(a), copy.copy(ta)
        assert c is not a and tc is not ta
        assert (c == a, repr(c)) == (tc == ta, repr(tc)) == (True, repr(a))


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction_agrees_with_the_dataclass(name):
    lib, twin = LIBRARY[name], getattr(value_twins, name)
    fields = init_fields(name)
    assert list(inspect.signature(lib).parameters) == fields
    assert list(getattr(lib, "_fields", fields)) == fields
    for args in arguments(name):
        kwargs = dict(zip(fields, args))
        assert lib(**kwargs) == lib(*args)
        assert repr(lib(**kwargs)) == repr(twin(**kwargs))


@pytest.mark.parametrize("name, args", [
    ("Chirotope", ((0, 1), 1, (1,))),
    ("RationalMatrix", (("a", "b"), ((1, 2), (3,)))),
    ("RationalMatrix", (("a",), ((0.5,),))),
])
def test_constructor_checks_agree_with_the_dataclass(name, args):
    lib, twin = LIBRARY[name], getattr(value_twins, name)
    with pytest.raises((TypeError, ValueError)) as got:
        lib(*args)
    with pytest.raises((TypeError, ValueError)) as want:
        twin(*args)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, `import omcanon.cli` leaves neither module in
    sys.modules.  -S keeps site hooks (.pth files), which are not the
    library's imports, out of the count."""
    code = ("import sys, omcanon.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
