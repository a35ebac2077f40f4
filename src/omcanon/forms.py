"""Canonical forms of oriented matroids and their topes.

One recursion is computed, in the top grade A^r: the non-reduced form W of
an acyclic pair is pinned down by its residues at atom contractions,

    Res_a W(M, chi) = W(M/a, chi/a)   (a a facet of the all-plus tope,
                                       0 otherwise),

with base value chi(()) in rank 0.  A node's form is solved from these
residues by its class's residue stack (`_stack`): the facet forms are
written at their blocks' rows, every other atom's rows read zero, and the
inverse of one unit triangular square block of the stacked residue maps
gives the form, which is then checked against every stacked row.  The
facets are read off the nonnegative cocircuits as parallel-class masks
(`om._facet_classes`); a facet's contraction is acyclic again, so the
recursion only ever visits, and its memo only ever holds, acyclic
chirotopes, and no node tests acyclicity.  The boundary is injective
on A^r and the reduced form is dW; as Res_a d = -d Res_a, it obeys the
reduced recursion Res_a dW = -dW(M/a, chi/a) with rank-1 base value
chi(i), which is the one `check_residue_axioms` checks.  The
triangulation evaluation sum_B chi(B) e_B satisfies the top-grade
recursion, so both paths agree.

The recursion runs on order-isomorphism classes.  A relabelling of the
ground set that keeps its order keeps atom representatives, NBC sets,
circuit order and straightening signs, which read positions only, so it
carries algebras, residue stacks and forms onto each other.  A global sign
does too: W(-chi) = -W(chi), since the facets depend only on the zero sets
of the cocircuits, (-chi)/a = -(chi/a), the residue solve is linear and the
base value chi(()) flips.  So the memo is keyed on the positional class
(`_positional`: (n, r, signs) with the first nonzero sign positive).  A
node reads its support, facets and facet contractions (one gather each,
`chirotope._contracted_signs`) off that table and builds no chirotope.
Each class's residue stack solves against the positional algebras of its
contractions, and a labelled chirotope's form is its class's form with
the labels and the sign put back, once, at the entry points.
"""

from __future__ import annotations

from . import linalg
from ._memo import memo
from .chirotope import (Chirotope, _contracted_signs, _mask, _mask_index,
                        _support)
from .om import OrientedMatroid, _facet_classes, _one_signed
from .osalg import (OSAlgebra, OSElement, _algebra, _residue_key,
                    os_algebra_for, os_algebra_of_chirotope)
from .signvec import SignVector, _labels, _position, ground_positions


@memo
def oriented_matroid_for(chi: Chirotope) -> OrientedMatroid:
    return OrientedMatroid(chi, validate=False)


def algebra_of(om: OrientedMatroid) -> OSAlgebra:
    return os_algebra_for(om.underlying)


def _positional(n: int, r: int, signs: tuple) -> tuple:
    """(sign, key): the rank-r table signs on n elements is sign times that
    of key = (n, r, signs'), on ground range(n), whose first nonzero sign is
    positive.  An order-preserving relabelling keeps a sign table aligned
    with the ascending keys, so key reuses signs, negated if sign is -1."""
    if next(filter(None, signs), 1) > 0:
        return 1, (n, r, signs)
    return -1, (n, r, tuple(-s for s in signs))


@memo
def _stack(n: int, r: int, support: int) -> tuple:
    """(alg, blocks, columns, own, inverse): the stacked residue maps on the
    top grade of the positional algebra alg of (range(n), r, support).

    Each atom a contributes a block, the top grade r-1 of its contraction
    relabelled through the order-preserving map of its ground set onto
    range(n'): contractions that differ only by such a relabelling have the
    same support and so share that positional algebra, and the forms of
    positional chirotopes land in it as they are (see `_positional`).
    blocks[a] is (block algebra, first stacked row).  Canonical forms are
    integral, so the map is kept over int; it is almost empty, and
    columns[j] lists the (stacked row, value) pairs of the residues of the
    j-th NBC r-monomial.

    The solve reads one square block S of the stack (the NBC
    deletion-contraction bijection: Bjorner 1992, 7; Orlik-Terao 3.1).
    Give column K, with trailing atom j = K[-1], its own row, the row of
    K minus j in j's block:
      - Res_j e_K = +e_(K minus j), as j is the trailing entry;
      - K minus j is NBC in M/j: a circuit C of M/j inside it, C or C + j
        is a circuit of M with minimum min C, and its broken part
        C - min C or (C - min C) + j would lie in K.  So the entry is 1;
      - a column K' meets j's block only if j is in K', so j <= K'[-1],
        with equality only for K' = K, whose residue is the one key.
    own[u] is column u's own row, and S is the stack on the own rows, both
    in column order.  Ordered by trailing atom, rows and columns alike, S
    is unit upper triangular, so S is a simultaneous row and column
    permutation of a unit triangular matrix and its inverse is integral;
    the build checks that `linalg.left_inverse(S)` has denominator 1.
    inverse[u] lists the (coefficient, value) pairs of column u of S^-1,
    which the residue at own[u] feeds.
    """
    alg = _algebra(tuple(range(n)), r, support)
    keys = alg.nbc[r]
    blocks = {}
    columns = [[] for _ in keys]
    own = [None] * len(keys)
    first = 0
    for a in alg.atoms:
        ground, rank, sub = alg.matroid.contraction_fingerprint(a)
        block = _algebra(tuple(range(len(ground))), rank, sub)
        pos = ground_positions(ground)
        blocks[a] = (block, first)
        index = block._nbc_pos[r - 1]
        for j, (key, column) in enumerate(zip(keys, columns)):
            res = _residue_key(key, a)
            if res is None:
                continue
            rest, sign = res
            rest = tuple(pos[e] for e in rest)
            if key[-1] == a and rest in index:
                own[j] = first + index[rest]
            for k, v in block.monomial(rest, coeff=sign).terms.items():
                if type(v) is not int:
                    raise RuntimeError("internal invariant violation: "
                                       "residue map has non-integer entries")
                column.append((first + index[k], v))
        first += block.dim(r - 1)
    if None in own:
        raise RuntimeError("internal invariant violation: an NBC monomial "
                           "has no row of its own in the residue stack")
    square = linalg.columns_matrix([dict(column) for column in columns], own)
    found = linalg.left_inverse(square)
    if found is None or found[1] != 1:
        raise RuntimeError("internal invariant violation: joint residue map "
                           "is not injective (suspect an invalid chirotope)")
    inverse = [[(j, row[u]) for j, row in enumerate(found[0]) if row[u]]
               for u in range(len(own))]
    return alg, blocks, columns, own, inverse


@memo
def _top_form(key: tuple) -> OSElement:
    """Top-grade form of the positional chirotope of key (see
    `_positional`), which callers guarantee acyclic."""
    n, r, signs = key
    if r == 0:  # the base value, the one sign, is positive
        return _algebra(tuple(range(n)), 0, 1).one()
    alg, blocks, columns, own, inverse = _stack(n, r, _support(signs))
    m = alg.matroid
    facets = _facet_classes(n, _one_signed(n, r, signs), m._atom_masks)
    stacked = {}  # stacked row -> residue coordinate; other rows read 0
    for a, mask in zip(m.atom_reps, m._atom_masks):
        if mask not in facets:
            continue
        # Res_a W = W(M/a, chi/a) in a's block algebra; label a = position a
        sign, sub = _positional(n - mask.bit_count(), r - 1,
                                _contracted_signs(n, r, signs, mask, a))
        form = _top_form(sub)
        block, first = blocks[a]
        if form.algebra is not block:
            raise RuntimeError("internal invariant violation: residue target "
                               "is not in its block's positional algebra")
        index = block._nbc_pos[r - 1]
        for k, v in form.terms.items():
            if type(v) is not int:
                raise RuntimeError("internal invariant violation: residue "
                                   "targets have non-integer coordinates")
            stacked[first + index[k]] = sign * v
    coeffs = [0] * len(columns)
    for i, feeds in zip(own, inverse):
        v = stacked.get(i)
        if v:
            for j, x in feeds:
                coeffs[j] += x * v
    image: dict = {}
    for column, c in zip(columns, coeffs):
        if c:
            for i, x in column:
                image[i] = image.get(i, 0) + x * c
    if {i: v for i, v in image.items() if v} != stacked:
        raise RuntimeError("internal invariant violation: residue system is "
                           "inconsistent (suspect an invalid chirotope)")
    return OSElement(alg, r, dict(zip(alg.nbc[r], coeffs)))


def _labelled_top_form(chi: Chirotope) -> OSElement:
    """Top-grade form of an acyclic chi, in os_algebra_of_chirotope(chi):
    the form of its positional class with every position key k read as the
    labels chi.ground[i], i in k, and the sign put back."""
    sign, key = _positional(len(chi.ground), chi.rank, chi.signs)
    form = _top_form(key)
    if chi.ground != form.algebra.matroid.ground:  # else it is chi's algebra
        ground = chi.ground
        form = OSElement(os_algebra_of_chirotope(chi), form.grade,
                         {tuple(ground[i] for i in k): v
                          for k, v in form.terms.items()})
    return form if sign == 1 else -form


@memo
def _canonical_form(chi: Chirotope) -> OSElement:
    if chi.rank == 0:
        raise ValueError("the reduced form needs rank at least 1")
    top = _labelled_top_form(chi)
    return top.algebra.boundary(top)


def canonical_form_om(om: OrientedMatroid) -> OSElement:
    """Reduced canonical form of (M, chi); zero when M is not acyclic."""
    if not om.is_acyclic():
        return os_algebra_of_chirotope(om.chi).zero(om.rank - 1)
    return _canonical_form(om.chi)


def canonical_form_tope(om: OrientedMatroid, tope: SignVector) -> OSElement:
    """Reduced canonical form of a tope: reorient so the tope is all-plus."""
    om.require_tope(tope)
    return _canonical_form(om.chi.reorient(tope))


def canonical_form_from_triangulation(chi: Chirotope, bases) -> OSElement:
    """sum over the triangulation of chi(B) d e_B.

    The bases are trusted to triangulate the (acyclic) oriented matroid;
    garbage in, garbage out.
    """
    if chi.rank == 0:
        raise ValueError("the reduced form needs rank at least 1")
    top = nonreduced_from_triangulation(chi, bases)
    return top.algebra.boundary(top)


def nonreduced_from_triangulation(chi: Chirotope, bases) -> OSElement:
    """sum over the triangulation of chi(B) e_B (top grade, non-reduced).

    A basis may list its labels in any order: chi(B) e_B does not depend
    on it, so each one is read as the mask of its positions."""
    pos, r = ground_positions(chi.ground), chi.rank

    def masks():
        for basis in map(tuple, bases):
            if len(basis) != r:
                raise ValueError(f"expected {r} entries, got {len(basis)}")
            mask = _mask({_position(pos, e) for e in basis})
            if mask.bit_count() < r:
                raise ValueError(f"{basis} is not a basis")
            yield mask
    return _triangulation_sum(chi, masks())


def _triangulation_sum(chi: Chirotope, masks, m: int = 0) -> OSElement:
    """sum of chi_m(B) e_B over the position masks B of a triangulation,
    where chi_m, the reorientation of chi by the position mask m, reads
    chi(B) * (-1)^|B & m| off chi's sign table; in the algebra of chi,
    which is that of chi_m.  A mask of sign 0 is refused as no basis."""
    ground, signs = chi.ground, chi.signs
    index = _mask_index(len(ground), chi.rank)

    def signed():
        for b in masks:
            sign = signs[index[b]]
            if sign == 0:
                raise ValueError(f"{_labels(ground, b)} is not a basis")
            if (b & m).bit_count() & 1:
                sign = -sign
            yield _labels(ground, b), sign
    return os_algebra_of_chirotope(chi).combination(chi.rank, signed())


def nonreduced_canonical_form(om: OrientedMatroid, tope: SignVector) -> OSElement:
    """Top-grade form of a tope: the unique boundary preimage of the
    reduced form."""
    om.require_tope(tope)
    return _labelled_top_form(om.chi.reorient(tope))


def check_residue_axioms(om: OrientedMatroid, tope: SignVector) -> dict:
    """Per-atom check of the facet recursion for a tope's reduced form.

    With chi_T the chirotope reoriented by the tope, for a facet atom the
    residue must equal minus the form of the contraction chi_T/a; for a
    non-facet atom it must vanish.  That form is not recomputed
    independently: it comes from the same recursion, whose memo already
    holds it as the target the tope's own solve was given, so the check
    confirms that the solve met its targets and zeros.  At rank 1,
    where the facet has rank 0 and no reduced form, the single atom checks
    the base value chi_T(rep) * 1 instead.  The facets are read off om's
    cached cocircuits conformal to the tope.  Returns {atom rep: bool}.
    """
    om.require_tope(tope)
    alg = algebra_of(om)
    chi = om.chi.reorient(tope)
    form = _canonical_form(chi)
    if om.rank == 1:
        rep, = om.atom_reps
        return {rep: form == alg.one().scale(chi.value((rep,)))}
    masks = om.underlying._atom_masks
    facets = _facet_classes(len(om.ground),
                            om._conformal(tope.plus, tope.minus), masks)
    report = {}
    for a, mask in zip(om.atom_reps, masks):
        res = alg.residue(a, form)
        if mask in facets:
            expected = _canonical_form(chi.contract(a))
            report[a] = (res == expected.scale(-1))
        else:
            report[a] = res.is_zero
    return report
