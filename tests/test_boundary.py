"""One gate per input kind: every public entry that takes a coefficient, a
label or a tope answers a bad one as the kind's one gate does.

- A coefficient passes `osalg._coeff`: a float is refused with one
  TypeError, a numeric string is read exactly, and an integral Fraction
  becomes an int.
- A label passes `signvec._position`: an unknown one is refused with one
  ValueError that names it.
- A tope passes `OrientedMatroid.require_tope`: a non-tope is refused with
  one NotATope that prints it.
"""

import re
from fractions import Fraction

import pytest

from omcanon import (NotATope, OSElement, SignVector, algebra_of, aomoto,
                     bounded_extension, canonical_form_tope,
                     check_residue_axioms, interior_point,
                     nonreduced_canonical_form, perturbation_signature,
                     sample_weight_vectors)


def coefficient_entries(line4) -> dict:
    """name -> c -> what the entry makes of the coefficient c."""
    alg = algebra_of(line4)
    key = alg.nbc[1][1]
    x = alg.from_terms(1, {key: 1})

    def weights(c):
        return {e: c if e == 1 else 2 for e in line4.ground[1:]}

    def report(c):
        fields = vars(aomoto(line4, weights(c)))
        return {k: v for k, v in fields.items() if k != "weights"}

    return {
        "OSElement": lambda c: OSElement(alg, 1, {key: c}),
        "from_terms": lambda c: alg.from_terms(1, {key: c}),
        "scale": lambda c: x.scale(c),
        "combination": lambda c: alg.combination(1, [(key, c)]),
        "aomoto": report,
    }


def label_entries(line4) -> dict:
    """name -> a call of the entry on the unknown label 99."""
    return {
        "bounded_topes": lambda: line4.bounded_topes(99),
        "bounded_extension": lambda: bounded_extension(line4, 99),
        "perturbation_signature": lambda: perturbation_signature(line4, 99),
        "sample_weight_vectors": lambda: sample_weight_vectors(line4, 99),
        "aomoto": lambda: aomoto(line4, {e: 1 for e in line4.ground},
                                 base=99),
    }


def tope_entries(pentagon, pentagon_matrix, x) -> dict:
    """name -> a call of the entry on the sign vector x."""
    return {
        "canonical_form_tope": lambda: canonical_form_tope(pentagon, x),
        "nonreduced_canonical_form":
            lambda: nonreduced_canonical_form(pentagon, x),
        "check_residue_axioms": lambda: check_residue_axioms(pentagon, x),
        "faces": lambda: pentagon.faces(x),
        "interior_point": lambda: interior_point(pentagon_matrix, pentagon, x),
    }


def read(value):
    """An element as its grade and its terms with their types, since
    2 == Fraction(2); anything else as it is."""
    if isinstance(value, OSElement):
        return value.grade, sorted((k, type(v), v)
                                   for k, v in value.terms.items())
    if isinstance(value, dict):
        return {k: read(v) for k, v in value.items()}
    if isinstance(value, list):
        return [read(v) for v in value]
    return value


COEFFICIENT_NAMES = ["OSElement", "from_terms", "scale", "combination",
                     "aomoto"]
LABEL_NAMES = ["bounded_topes", "bounded_extension", "perturbation_signature",
               "sample_weight_vectors", "aomoto"]
TOPE_NAMES = ["canonical_form_tope", "nonreduced_canonical_form",
              "check_residue_axioms", "faces", "interior_point"]
CASES = ([("float", n) for n in COEFFICIENT_NAMES]
         + [("string", n) for n in COEFFICIENT_NAMES]
         + [("integral Fraction", n) for n in COEFFICIENT_NAMES]
         + [("unknown label", n) for n in LABEL_NAMES]
         + [("non-tope", n) for n in TOPE_NAMES])


@pytest.mark.parametrize("kind, name", CASES)
def test_one_outcome_per_input_kind(kind, name, line4, pentagon,
                                    pentagon_matrix):
    if kind == "float":
        call = coefficient_entries(line4)[name]
        with pytest.raises(TypeError,
                           match="^0.5 is a float; pass an exact number$"):
            call(0.5)
    elif kind == "string":
        call = coefficient_entries(line4)[name]
        assert read(call("3/2")) == read(call(Fraction(3, 2)))
    elif kind == "integral Fraction":
        call = coefficient_entries(line4)[name]
        assert read(call(Fraction(4, 2))) == read(call(2))
    elif kind == "unknown label":
        with pytest.raises(ValueError, match="^unknown element label 99$"):
            label_entries(line4)[name]()
    else:
        x = SignVector(pentagon.ground, (1, -1, 1, -1, 1))
        assert x not in pentagon.topes
        with pytest.raises(NotATope,
                           match=f"^{re.escape(str(x))} is not a tope$"):
            tope_entries(pentagon, pentagon_matrix, x)[name]()
