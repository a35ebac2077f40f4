"""Operations that only the tests use, as plain functions.

The library needs none of them.  The tests use them as tools and oracles:
composition, support, negative part, zero test, orthogonality,
conformality, restriction, extension, zeroing and nonnegativity of sign
vectors (`SignVector`'s masks give each one in a few bitwise operations),
the negated chirotope, the cocircuits by chirotope evaluation, the
characteristic polynomial, which gives the Whitney numbers, and the atom
(parallel class) of an element of a matroid.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from omcanon import Chirotope, SignVector
from omcanon.signvec import _labels, ground_positions


def atom_of(m, e) -> frozenset:
    """The atom of the matroid m holding the element e, as labels, found
    through its representative."""
    return m.atoms[m.atom_reps.index(m.rep_of(e))]


def compose(x: SignVector, y: SignVector) -> SignVector:
    """(X o Y)(e) = X(e) if nonzero else Y(e)."""
    if y.ground != x.ground:
        raise ValueError("composition needs a common ground set")
    free = ~(x.plus | x.minus)
    return SignVector._from_masks(x.ground, x.plus | (y.plus & free),
                                  x.minus | (y.minus & free))


def support(x: SignVector) -> frozenset:
    return frozenset(_labels(x.ground, x.plus | x.minus))


def negative_part(x: SignVector) -> frozenset:
    return frozenset(_labels(x.ground, x.minus))


def is_zero(x: SignVector) -> bool:
    return not (x.plus | x.minus)


def is_orthogonal(x: SignVector, y: SignVector) -> bool:
    """Products over the common support are empty or take both signs."""
    pos = (x.plus & y.plus) | (x.minus & y.minus)
    neg = (x.plus & y.minus) | (x.minus & y.plus)
    return (pos == 0) == (neg == 0)


def conforms_to(x: SignVector, y: SignVector) -> bool:
    """True iff x(e) in {0, y(e)} for every e."""
    return not (x.plus & ~y.plus | x.minus & ~y.minus)


def restrict(x: SignVector, ground: tuple) -> SignVector:
    """Restriction to a sub-ground-set, keeping its order."""
    return SignVector(ground, tuple(x.value(e) for e in ground))


def extend(x: SignVector, ground: tuple, fill: int = 0) -> SignVector:
    """Extension to a larger ground set, new entries = fill."""
    pos = ground_positions(x.ground)
    return SignVector(ground, tuple(
        x.value(e) if e in pos else fill for e in ground))


def zero_out(x: SignVector, elements) -> SignVector:
    elements = set(elements)
    keep = ~sum(1 << i for i, e in enumerate(x.ground) if e in elements)
    return SignVector._from_masks(x.ground, x.plus & keep, x.minus & keep)


def is_nonnegative(x: SignVector) -> bool:
    return not x.minus


def scale(chi: Chirotope, sign: int) -> Chirotope:
    """chi times the sign +1 or -1."""
    if sign == 1:
        return chi
    return Chirotope(chi.ground, chi.rank, tuple(-s for s in chi.signs))


def characteristic_polynomial(m) -> list:
    """Coefficients [c_0, ..., c_r] of p(t) = sum c_k t^k, read off the
    Tutte polynomial of the matroid m: p(t) = (-1)^r T(1 - t, 0)."""
    r = m.rank
    coeffs = [0] * (r + 1)
    for (i, j), c in m.tutte().items():
        if j != 0:
            continue
        # contribute c * (1-t)^i, then global (-1)^r
        for k in range(i + 1):
            coeffs[k] += c * comb(i, k) * (-1) ** k
    sign = (-1) ** r
    return [sign * c for c in coeffs]


def value_cocircuits(chi) -> frozenset:
    """Cocircuits by evaluating chi on each (r-1)-subset plus one element."""
    if chi.rank == 0:
        return frozenset()
    out = set()
    for hyp in combinations(chi.ground, chi.rank - 1):
        values = {e: chi.value(hyp + (e,)) for e in chi.ground if e not in hyp}
        if not any(values.values()):
            continue
        vec = SignVector.from_map(chi.ground, values)
        out.add(vec)
        out.add(-vec)
    return frozenset(out)
