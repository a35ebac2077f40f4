"""Reference tope questions, as they were before they read the chirotope's
hyperplane table through one rule (`om._conformal_rows`).

They walk `SignVector` objects: the cocircuits conformal to a sign vector
are picked from the public `cocircuits` set with `oracle_ops.conforms_to`,
a facet of a tope is an atom whose zeroing leaves a covector, an
extension's bounded topes are lifted with `oracle_ops.extend`, and the
residue check's facet form is that of the contraction of the chirotope,
scaled by the tope's sign at the atom and reoriented by the restricted
tope.  They are kept as the oracles that `OrientedMatroid.is_covector`
and `is_tope`, the facets `om._facet_classes` reads off the rows
`om._conformal_rows` keeps, both `bounded_topes` and
`forms.check_residue_axioms` are compared against.

`walk_topes` is the tope enumeration that `OrientedMatroid.topes` had
before it composed the fundamental cocircuits of the NBC bases: a
breadth-first walk of the tope graph that flips facet classes.  It is
kept as the oracle of that composition.
"""

from __future__ import annotations

from omcanon.om import _conformal_rows, _facet_classes
from omcanon.signvec import SignVector

import oracle_ops


def walk_topes(om) -> frozenset:
    """A breadth-first walk of the tope graph, which is connected
    (Bjoerner et al., Oriented Matroids, 4.2): it starts at the
    composition of every row of the hyperplane table, and a tope's
    neighbours flip one of its facet classes.  Without a full-support
    start (rank 0 on a nonempty ground set) there is no tope."""
    n = len(om.ground)
    plus = minus = 0
    for p, m in zip(*om.chi._hyperplanes):
        free = ~(plus | minus)
        plus, minus = plus | p & free, minus | m & free
    if plus | minus != (1 << n) - 1:
        return frozenset()
    classes = om.underlying._atom_masks
    seen = {(plus, minus)}
    queue = [(plus, minus)]
    for plus, minus in queue:
        for c in _facet_classes(
                n, _conformal_rows(om.chi, minus).values(), classes):
            flip = (plus ^ c, minus ^ c)
            if flip not in seen:
                seen.add(flip)
                queue.append(flip)
    return frozenset(SignVector._from_masks(om.ground, p, m)
                     for p, m in seen)


def conformal_cocircuits(om, x: SignVector) -> list:
    return [y for y in om.cocircuits if oracle_ops.conforms_to(y, x)]


def composes_to(om, x: SignVector, ys: list) -> bool:
    """True iff x, over om's ground set, is the composition of ys.  All of
    ys conform to x, so they compose by taking the union of their masks."""
    plus = minus = 0
    for y in ys:
        plus |= y.plus
        minus |= y.minus
    return x.ground == om.ground and x.plus == plus and x.minus == minus


def is_covector(om, x: SignVector) -> bool:
    return composes_to(om, x, conformal_cocircuits(om, x))


def is_facet(om, tope: SignVector, rep) -> bool:
    """True iff zeroing the atom of rep yields a covector."""
    atom = oracle_ops.atom_of(om.underlying, rep)
    return is_covector(om, oracle_ops.zero_out(tope, atom))


def bounded_tope(om, x: SignVector, e) -> bool:
    """True iff the full-support x is a tope whose nonzero faces are all
    positive at e: none of its conformal cocircuits vanishes at e, and
    together they compose to x."""
    if x.value(e) != 1:
        return False
    ys = conformal_cocircuits(om, x)
    return all(y.value(e) for y in ys) and composes_to(om, x, ys)


def extension_bounded_topes(ext) -> frozenset:
    """Topes P of M such that (P, +) is bounded at q in M u q."""
    ground = ext.chi_ext.ground
    return frozenset(t for t in ext.base.topes
                     if bounded_tope(ext.om_ext,
                                     oracle_ops.extend(t, ground, fill=1),
                                     ext.label))


def contracted_tope_chirotope(om, tope: SignVector, rep):
    """chi/P at an atom: value on (I, i) scaled by the tope sign at i."""
    chi = om.chi.contract(rep)
    return oracle_ops.scale(chi, tope.value(rep))


def facet_chirotope(om, tope: SignVector, rep):
    """The chirotope whose form the residue check expects at a facet:
    `contracted_tope_chirotope` reoriented by the tope restricted to it."""
    sub = contracted_tope_chirotope(om, tope, rep)
    return sub.reorient(oracle_ops.restrict(tope, sub.ground))
