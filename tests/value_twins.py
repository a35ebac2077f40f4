"""The library's nine record classes as `@dataclass` declarations: the same
fields, flags and `__post_init__` hooks they were declared with before
they defined their own equality, hash and repr, plus `OSElement`'s own
`__eq__` and `__repr__`.  `test_values.py` checks that each class agrees
with its twin here.  The names match the library's, so the dataclass repr
prints the same class name, and pickle finds each twin in this module."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from omcanon.linalg import _exact
from omcanon.om import OrientedMatroid


@dataclass(frozen=True)
class Chirotope:
    ground: tuple
    rank: int
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != comb(len(self.ground), self.rank):
            raise ValueError("chirotope sign table has wrong length")


@dataclass
class OSElement:
    algebra: object
    grade: int
    terms: dict

    def __post_init__(self):
        self.terms = {k: v if type(v) is int or v.denominator != 1
                      else v.numerator
                      for k, v in self.terms.items() if v}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, OSElement)
                and self.algebra is other.algebra
                and self.grade == other.grade
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for key in sorted(self.terms, key=self.algebra.key_sort):
            c = self.terms[key]
            name = "e_{%s}" % ",".join(str(a) for a in key) if key else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


@dataclass
class LinearMap:
    domain_basis: list
    codomain_basis: list
    matrix: list


@dataclass(frozen=True)
class Extension:
    base: OrientedMatroid
    label: object
    signature: tuple
    chi_ext: object
    om_ext: OrientedMatroid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "om_ext",
                           OrientedMatroid(self.chi_ext, validate=False))


@dataclass(frozen=True)
class RationalMatrix:
    labels: tuple
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(_exact, row)) for row in self.rows)
        if any(len(row) != len(self.labels) for row in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class FlagStage:
    om: OrientedMatroid
    ext: object


@dataclass(frozen=True)
class Flag:
    stages: tuple


@dataclass
class AomotoReport:
    dim_h: int
    beta: int
    dim_matches_beta: bool
    v_spans: bool
    is_generic: bool
    bounded_topes: list
    basis_forms: list
    weights: dict


@dataclass
class ParsedInput:
    labels: tuple
    rank: int
    chi: object
    matrix: object
