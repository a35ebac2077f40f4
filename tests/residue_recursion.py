"""The residue recursion through every minor: a second route to the
library's top-grade forms, which read each facet's target off the input
chirotope's hyperplane table instead (`forms._facet_targets`).

A positional class (n, r, signs) of rank r >= 1 is solved by its residue
stack (`forms._stack`, `forms._solve`) against the forms of its facet
contractions, each one gather of the class's sign table through
`chirotope._minor_slots` (`contracted_signs`) and solved by this recursion
in turn, down to rank 0, where the form is the base value 1.  A facet's
contraction is acyclic again, so every class the recursion visits is.
Forms are memoized per positional class (`positional`), so topes of one
oriented matroid share the forms of their common minors.
"""

from __future__ import annotations

from omcanon import forms
from omcanon.chirotope import Chirotope, _minor_slots, _support
from omcanon.om import _conformal_rows, _facet_classes
from omcanon.osalg import _algebra

_FORMS: dict = {}  # positional class -> its form
_STATS = {"hits": 0, "misses": 0}


def positional(n: int, r: int, signs: tuple) -> tuple:
    """(sign, key): the rank-r table signs on n elements is sign times that
    of key = (n, r, signs'), on ground range(n), whose first nonzero sign is
    positive.  An order-preserving relabelling keeps a sign table aligned
    with the ascending keys, so key reuses signs, negated if sign is -1."""
    if next(filter(None, signs), 1) > 0:
        return 1, (n, r, signs)
    return -1, (n, r, tuple(-s for s in signs))


def contracted_signs(n: int, r: int, signs, removed: int, i: int) -> tuple:
    """The sign table of the contraction of signs, of rank r over range(n),
    by the position i, evaluated last, without the positions in removed:
    the gather `Chirotope.contract` makes."""
    return tuple(-signs[k >> 1] if k & 1 else signs[k >> 1]
                 for k in _minor_slots(n, r, removed, i))


def cache_info() -> dict:
    """{"hits", "misses", "entries"} of the recursion's memo."""
    return dict(_STATS, entries=len(_FORMS))


def cache_clear() -> None:
    _FORMS.clear()
    _STATS.update(hits=0, misses=0)


def top_form(key: tuple):
    """The top-grade form of the acyclic positional class key, in the
    positional algebra of its matroid.  A memoized form whose algebra is no
    longer the memoized one (after `_memo.clear_caches`) is solved again."""
    n, r, signs = key
    alg = _algebra(tuple(range(n)), r, _support(signs))
    form = _FORMS.get(key)
    if form is not None and form.algebra is alg:
        _STATS["hits"] += 1
        return form
    _STATS["misses"] += 1
    if r == 0:
        form = alg.one()
    else:
        stack = forms._stack(n, r, _support(signs))
        m = alg.matroid
        rows = _conformal_rows(Chirotope(tuple(range(n)), r, signs), 0)
        facets = _facet_classes(n, rows.values(), m._atom_masks)
        targets = {}
        for a, mask in zip(m.atom_reps, m._atom_masks):
            if mask in facets:
                sign, sub = positional(
                    n - mask.bit_count(), r - 1,
                    contracted_signs(n, r, signs, mask, a))
                targets[a] = top_form(sub).scale(sign)
        form = forms._solve(stack, targets)
    _FORMS[key] = form
    return form


def recursive_form(chi) -> dict:
    """The terms of the top-grade form of the acyclic chi by the recursion,
    keyed by label tuples."""
    sign, key = positional(len(chi.ground), chi.rank, chi.signs)
    ground = chi.ground
    return {tuple(ground[i] for i in k): sign * v
            for k, v in top_form(key).terms.items()}
