"""Rational matrix realizations.

Columns are exact-rational linear functionals on V = Q^r, indexed by the
ground set.  The chirotope is the sign of the maximal minors, each the
determinant of integer columns; chambers are located by evaluating the
functionals; placing (beneath-beyond) triangulations feed the
triangulation evaluation of canonical forms.  Their facet and cone tests
read circuits off the chirotope's circuit table by position mask, and a
triangulation of a reorientation reads the table of the chirotope it
reorients, with the signs at the reorientation mask flipped (`_place`):
the triangulations of all the topes of one input read one table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from . import linalg
from ._record import FrozenRecord
from .chirotope import Chirotope, _bits, _earliest_mask
from .linalg import _exact
from .om import OrientedMatroid, is_acyclic
from .signvec import SignVector, _labels, _position, ground_positions


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class RationalMatrix(FrozenRecord):
    """Entries are ints, Fractions or numeric strings, kept as Fractions;
    a float is refused (TypeError), as it is not exact.  A frozen value:
    equal iff labels and rows are equal, hashed by them, printed as
    `RationalMatrix(labels=..., rows=...)`, and AttributeError on
    assignment or deletion."""

    _fields = ("labels", "rows")

    def __init__(self, labels: tuple, rows):
        # r rows, each a tuple of Fractions, one per label
        rows = tuple(tuple(map(_exact, row)) for row in rows)
        if any(len(row) != len(labels) for row in rows):
            raise ValueError("ragged matrix")
        self.__dict__.update(labels=labels, rows=rows)

    @classmethod
    def from_rows(cls, labels, rows) -> "RationalMatrix":
        return cls(tuple(labels), rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column(self, label) -> list:
        j = _position(ground_positions(self.labels), label)
        return [row[j] for row in self.rows]

    def functional(self, label, point) -> Fraction:
        if len(point) != self.nrows:
            raise ValueError(f"point has {len(point)} coordinates, "
                             f"expected {self.nrows}")
        col = self.column(label)
        return sum((c * _exact(p) for c, p in zip(col, point)), Fraction(0))

    def reorient(self, tope: SignVector) -> "RationalMatrix":
        """Negate the columns on the tope's negative part."""
        if tope.ground != self.labels or not tope.has_full_support:
            raise ValueError("reorientation requires a full-support sign vector")
        neg = tope.minus
        return RationalMatrix(self.labels, tuple(
            tuple(-x if neg >> j & 1 else x for j, x in enumerate(row))
            for row in self.rows))


def chirotope_from_matrix(mat: RationalMatrix) -> Chirotope:
    """The signs of the maximal minors.  Each column is scaled once by the
    lcm of its denominators, a positive factor that changes no minor's
    sign, so every minor is the determinant of an int matrix, taken with
    its columns as rows: a matrix and its transpose have one determinant."""
    r = mat.nrows
    cols = []
    for j, e in enumerate(mat.labels):
        col = [row[j] for row in mat.rows]
        if not any(col):
            raise ValueError(f"zero column: {e!r}")
        m = lcm(*(x.denominator for x in col))
        cols.append([x.numerator * (m // x.denominator) for x in col])
    signs = tuple(_sign(linalg.det(key)) for key in combinations(cols, r))
    if not any(signs):
        raise ValueError("matrix is rank deficient")
    return Chirotope(tuple(mat.labels), r, signs)


def chamber_of(mat: RationalMatrix, point) -> SignVector:
    """The tope of a point off all hyperplanes."""
    signs = [_sign(mat.functional(e, point)) for e in mat.labels]
    if 0 in signs:
        raise ValueError("point lies on the hyperplane of "
                         f"{mat.labels[signs.index(0)]!r}")
    return SignVector(mat.labels, signs)


def cocircuit_point(mat: RationalMatrix, cocircuit: SignVector) -> list:
    """An exact point of V realizing the given cocircuit's sign vector."""
    zero = sorted(cocircuit.zero_set, key=ground_positions(mat.labels).get)
    system = [mat.column(e) for e in zero]  # rows: <col_e, x> = 0
    if not system:
        system = [[Fraction(0)] * mat.nrows]
    kernel = linalg.nullspace(system)
    if len(kernel) != 1:
        raise ValueError("zero set does not span a hyperplane")
    x = kernel[0]
    for e in mat.labels:
        v = mat.functional(e, x)
        if v != 0:
            if _sign(v) != cocircuit.value(e):
                x = [-c for c in x]
            break
    got = {e: _sign(mat.functional(e, x)) for e in mat.labels}
    if any(got[e] != cocircuit.value(e) for e in mat.labels):
        raise ValueError("sign vector is not a cocircuit of the realization")
    return x


def interior_point(mat: RationalMatrix, om: OrientedMatroid,
                   tope: SignVector) -> list:
    """An exact interior point of the tope's chamber."""
    om.require_tope(tope)
    point = [Fraction(0)] * mat.nrows
    for y in om.conformal_cocircuits(tope):
        x = cocircuit_point(mat, y)
        point = [a + b for a, b in zip(point, x)]
    if chamber_of(mat, point) != tope:
        raise RuntimeError("internal invariant violation: "
                           "interior point landed outside its chamber")
    return point


def acyclicity_witness(mat: RationalMatrix) -> list:
    """A point where every functional is strictly positive.

    Raises ValueError when the configuration is not acyclic.  The witness
    is certificate-checked before being returned.
    """
    om = OrientedMatroid(chirotope_from_matrix(mat), validate=False)
    plus = SignVector(mat.labels, (1,) * len(mat.labels))
    if not om.is_acyclic():
        raise ValueError("configuration is not acyclic")
    return interior_point(mat, om, plus)


def placing_triangulation(mat: RationalMatrix,
                          insertion_order=None) -> list:
    """Beneath-beyond triangulation of an acyclic configuration.

    Returns a list of ascending bases whose cones triangulate the hull
    cone.  Different insertion orders may give different triangulations;
    all of them evaluate to the same canonical form.  Acyclicity and ranks
    come from the chirotope alone, without an oriented matroid.
    """
    return _placing(chirotope_from_matrix(mat), insertion_order)


def _placing(chi: Chirotope, insertion_order=None) -> list:
    """`placing_triangulation` on the chirotope of the configuration."""
    if not is_acyclic(chi):
        raise ValueError("configuration is not acyclic")
    return [_labels(chi.ground, b)
            for b in _place(chi, *_insertion(chi, insertion_order))]


def _insertion(chi: Chirotope, insertion_order=None) -> tuple:
    """(places, core) of insertion_order (the ground by default): its
    positions, checked to be a permutation, and the mask of the core basis
    that greedy insertion picks along them.  The support fixes both."""
    order = list(insertion_order if insertion_order is not None else chi.ground)
    places = [_position(ground_positions(chi.ground), e) for e in order]
    if sorted(places) != list(range(len(chi.ground))):
        raise ValueError("insertion order must be a permutation of the labels")
    core = _earliest_mask(chi, places)
    if core.bit_count() < chi.rank:
        raise ValueError("matrix is rank deficient")
    return places, core


def _place(chi: Chirotope, places: list, core: int, m: int = 0) -> list:
    """The placing triangulation of chi reoriented by the position mask m,
    from an `_insertion` (places, core), as position masks of its simplices,
    without `_placing`'s acyclicity test: for a caller that knows that
    reorientation acyclic, as when m is the minus mask of a tope.

    Both geometric tests read the circuit of one (r+1)-set off chi's
    circuit table: p is beyond the facet F with apex a iff the circuit of
    F + a + p has the same sign at a and p, and p lies in the closed cone
    of the simplex B iff it is alone on its side of the circuit of B + p
    (Cramer's rule).  Reoriented by m, the chirotope reads chi(B) *
    (-1)^|B & m|, so the circuit (plus, minus) of the (r+1)-set s becomes
    ((plus & ~m) | (minus & m), (minus & ~m) | (plus & m)) times
    (-1)^|s & m|: each sign at m flips, and so does the whole circuit when
    |s & m| is odd.  Neither test reads that global sign, as both ask only
    whether two elements share a side, or one stands alone on its side.
    The facet map grows with the simplices: a placed simplex enters each
    of its facets, and a facet entered twice is interior."""
    table = chi._circuit_table

    def circuit(s: int) -> tuple:
        plus, minus = table[s]
        return (plus & ~m | minus & m, minus & ~m | plus & m)

    simplices = []
    facet_apex: dict = {}  # facet -> its apex, None once it is shared

    def add(simplex: int) -> None:
        simplices.append(simplex)
        for apex in _bits(simplex):
            facet = simplex ^ apex
            facet_apex[facet] = None if facet in facet_apex else apex

    add(core)
    for p in (1 << i for i in places if not core >> i & 1):
        beyond = []
        for facet, apex in facet_apex.items():
            if apex is None:
                continue
            both = apex | p
            plus, minus = circuit(facet | both)
            if plus & both == both or minus & both == both:
                beyond.append(facet | p)
        # p alone on its side of the circuit: one of its masks is p
        if not beyond and not any(p in circuit(b | p) for b in simplices):
            raise RuntimeError(
                "degenerate placing: point beyond no facet yet outside "
                "the hull; try another insertion order")
        for simplex in beyond:
            add(simplex)
    return simplices
