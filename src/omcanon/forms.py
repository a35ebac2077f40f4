"""Canonical forms of oriented matroids and their topes.

The non-reduced form W of an acyclic pair, in the top grade A^r, is pinned
down by its residues at atom contractions,

    Res_a W(M, chi) = W(M/a, chi/a)   (a a facet of the all-plus tope,
                                       0 otherwise),

with base value chi(()) in rank 0.  A tope's form is solved from these
residues in one step, with no recursion into minors: each facet's target
W(chi/a) is read off chi's own hyperplane table straight into its block's
rows of the matroid's residue stack (`_stack`), in one pass that returns
{stacked row: +-1} (`_facet_targets`, which states and proves the rule,
Finding 1).  Every other row reads zero, and the inverse of one unit
triangular square block of the stacked residue maps gives the form's
coefficients (`_solve`), which are then checked against every stacked row:
so every target, facets and zeros alike, is checked against the residue
system.  The facets are read by `om._conformal_rows`, the rule of every
tope question.  The boundary is injective on A^r and the reduced form is
dW; as Res_a d = -d Res_a, it obeys the reduced recursion Res_a dW =
-dW(M/a, chi/a) with rank-1 base value chi(i), which
`check_residue_axioms` checks against a second computation: the form of
each facet contraction comes from that contraction's own solve, read off
its own table, not from the targets the tope's solve was given.  The
triangulation evaluation sum_B chi(B) e_B satisfies the top-grade
recursion, so both paths agree.

A tope T with minus mask m reads its form off the input chirotope's own
hyperplane table (`Chirotope._hyperplanes`): the reorientation chi_m, in
which T is all-plus, has that table with plus and minus swapped at m, and
chi_m(B) = (-1)^|B & m| chi(B), so no reorientation is built.  The residue
stack reads positions only (atom representatives, NBC sets, circuit order
and straightening signs), so one stack serves every input of a positional
class (n, r, support); the solved coefficients follow the class's NBC
keys, and the input's algebra lists the same keys relabelled, in the same
order, so the labels go back by zipping the two (`_top_form`).  Forms are
memoized per (chi, m); as chi_(~m) = (-1)^r chi_m and the solve is linear,
W(-T) = (-1)^r W(T), and a tope and its negative share the entry at the
mask whose position 0 is plus (`_at`).  The table read that finds a tope's
facets is also its tope test: `_facet_targets` raises NotATope when the
rows it reads do not cover the ground set, before anything is memoized, so
a memo hit is a tope and the form calls need no separate scan (`_read`).
"""

from __future__ import annotations

from . import linalg
from ._memo import memo
from .chirotope import Chirotope, _check_fields, _mask, _mask_index
from .om import NotATope, OrientedMatroid, _conformal_rows, _facet_classes
from .osalg import (OSAlgebra, OSElement, _algebra, _residue_key,
                    os_algebra_for, os_algebra_of_chirotope)
from .signvec import SignVector, _labels, _position, ground_positions


@memo
def oriented_matroid_for(chi: Chirotope) -> OrientedMatroid:
    """The oriented matroid of chi, memoized, without the axiom check;
    its labels and signs are checked (`chirotope._check_fields`), so that
    no repeated label and no sign other than -1, 0 or 1 reaches a form."""
    _check_fields(chi)
    return OrientedMatroid(chi, validate=False)


def algebra_of(om: OrientedMatroid) -> OSAlgebra:
    return os_algebra_for(om.underlying)


@memo
def _stack(n: int, r: int, support: int) -> tuple:
    """(alg, blocks, columns, own, inverse): the stacked residue maps on the
    top grade of the positional algebra alg of (range(n), r, support).

    Each atom a contributes a block, the top grade r-1 of its contraction
    relabelled through the order-preserving map of its ground set onto
    range(n'): contractions that differ only by such a relabelling have the
    same support and so share that positional algebra.  The stacked rows
    are the blocks' NBC keys, block after block, each block in its NBC
    order from its first row on.  blocks[a] is (block algebra, first row,
    lifts): what `_facet_targets` reads for the NBC keys K' = (k_1, k_2,
    ...) of the block, in positions of range(n), grouped by the index h of
    K - k_1 among the ascending (r-1)-subsets, where K = K' + a.  lifts[h]
    lists, for each such K', its stacked row, the mask of K, its index in
    the rank-r sign table, the parity of the number of entries of K' above
    a, and for k_2, k_3, ..., ascending, the pairs (bit of k, index of K
    minus k).  The empty key of a rank-0 block has no k_1 and is grouped
    under None.  Canonical forms are integral, so the map is kept over
    int; it is almost empty, and columns[j] lists the (stacked row, value)
    pairs of the residues of the j-th NBC r-monomial.

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
    bases, hyperplanes = _mask_index(n, r), _mask_index(n, r - 1)
    blocks = {}
    columns = [[] for _ in keys]
    own = [None] * len(keys)
    first = 0
    for a in alg.atoms:
        ground, rank, sub = alg.matroid.contraction_fingerprint(a)
        block = _algebra(tuple(range(len(ground))), rank, sub)
        pos = ground_positions(ground)
        index = block._nbc_pos[r - 1]
        lifts: dict = {}
        for row, rest in enumerate(block.nbc[r - 1], first):
            ks = [ground[i] for i in rest]
            key = _mask(ks) | 1 << a
            reads = [(1 << k, hyperplanes[key ^ 1 << k]) for k in ks]
            lifts.setdefault(reads[0][1] if reads else None, []).append(
                (row, key, bases[key], sum(k > a for k in ks) & 1,
                 tuple(reads[1:])))
        blocks[a] = (block, first, lifts)
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


def _facet_targets(stack: tuple, chi: Chirotope, m: int) -> dict:
    """{stacked row: +-1}: the forms W(chi_m/a) over the facet atoms a of
    the all-plus tope of chi_m, the reorientation of chi by the position
    mask m (NotATope when it is not acyclic, see below), each written at
    the rows of a's block in stack, the residue stack (`_stack`) of chi's
    positional class; every row it leaves out reads 0.  Each row of chi's
    hyperplane table (`Chirotope._hyperplanes`) is read where a lift
    composes it, with plus and minus swapped at m, and each chi_m(K) is
    chi(K) times (-1)^|K & m|: no reorientation, contraction or element is
    built and no form of a minor is solved.

    Finding 1, which extends the face-flag theorem of `tests/face_flag.py`.
    Let K = (k_1 < ... < k_r) be an NBC basis and C_j its fundamental
    cocircuit at k_j: zero set cl(K - k_j), signed so that C_j(k_j) = +,
    which gives C_j(e) = chi(K with k_j replaced by e) chi(K).  Then for
    every tope T the coefficient of e_K in T's top-grade form is
    chi(K) T(k_1)...T(k_r) if T = T(k_1)C_1 o T(k_2)C_2 o ... o T(k_r)C_r,
    and 0 otherwise.
      - If.  The face-flag theorem gives e_K a nonzero coefficient iff
        every flat cl{k_j, ..., k_r} is the zero set of a face of T.  If T
        is the composition, the composition of its first j terms is a face
        of T, whose zero set is the intersection of the fundamental
        hyperplanes cl(K - k_i), i <= j: that is cl{k_(j+1), ..., k_r}.
        So every flat of the chain is a face zero set.
      - Only if.  Take the faces of T on the chain.  Above a covector X,
        the covectors whose zero set is one rank lower are exactly X o +-C
        for one cocircuit C, since the upper interval above X is the
        covector lattice of the restriction to z(X) (Bjoerner et al.,
        Oriented Matroids, ch. 4).  So T is that composition, with the
        signs T(k_j).

    Here, with chi standing for chi_m, T is the all-plus tope of chi/a,
    the contraction by a facet atom a with a evaluated last, whose
    cocircuits are those of chi that vanish on a.  An NBC key K' of a's
    block (representatives of chi/a) lifts to the basis K = K' + a of
    chi, and C_(K - k), the cocircuit of the hyperplane spanned by K - k,
    signed + at k, is the fundamental cocircuit of K' at k in chi/a.  So
    the coefficient of e_K' is chi(K', a) = chi(K) (-1)^#{k in K' : k > a}
    when these cocircuits, in ascending order of k, compose to a
    nonnegative vector whose zero set is exactly a's parallel class, and 0
    otherwise.  The first cocircuit is the composition of one term, so it
    must itself be nonnegative: only the keys whose K - k_1 spans a
    one-signed cocircuit are read, and that cocircuit, signed + at k_1, is
    its support.  A composition that stays nonnegative only adds plus
    signs, so it fails at the first cocircuit with a minus sign outside
    the plus signs gathered so far, and otherwise grows by that
    cocircuit's support.  In chi_m a row's minus signs are its minus mask
    with the support's bits at m flipped, and the rest of its support when
    k is among them.  The empty key of rank 0 composes nothing, to the
    zero vector.  Rows and facets are `om._conformal_rows` at m; the atoms
    that are no facet get no target: their residues are 0.  When the rows
    do not cover the ground set, m is the minus mask of no tope, and
    NotATope is raised: this read is the forms' tope gate.
    """
    alg, blocks = stack[:2]
    n, signs = len(chi.ground), chi.signs
    plus, minus = chi._hyperplanes
    rows = _conformal_rows(chi, m)
    if rows is None:
        raise NotATope(f"no tope has the minus mask {m}")
    starts = list(rows.items()) + [(None, 0)]
    stacked = {}
    for mask in _facet_classes(n, {*rows.values()}, alg.matroid._atom_masks):
        lifts = blocks[(mask & -mask).bit_length() - 1][2]
        face = ~mask & (1 << n) - 1
        for h, start in starts:
            for row, key, b, odd, reads in lifts.get(h, ()):
                p = start
                for bit, g in reads:
                    s = plus[g] | minus[g]
                    down = minus[g] ^ s & m  # the minus signs in chi_m
                    if down & bit:  # signed + at k
                        down ^= s
                    if down & ~p:
                        break
                    p |= s
                else:
                    if p == face:
                        flip = (odd + (key & m).bit_count()) & 1
                        stacked[row] = -signs[b] if flip else signs[b]
    return stacked


def _solve(stack: tuple, stacked: dict) -> list:
    """The coefficients, over the stack's NBC r-keys in order, of the
    element x of its top grade whose residues read stacked[i] at each
    stacked row i that stacked holds and 0 at every other.  They are read
    off the own rows through S^-1 (see `_stack`) and then checked against
    every stacked row, so residues that no element meets raise."""
    columns, own, inverse = stack[2:]
    if any(type(v) is not int for v in stacked.values()):
        raise RuntimeError("internal invariant violation: residue "
                           "targets have non-integer coordinates")
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
    return coeffs


@memo
def _top_form(chi: Chirotope, m: int) -> OSElement:
    """Top-grade form of chi reoriented by the position mask m, in
    alg = os_algebra_of_chirotope(chi): one residue solve of the facet
    targets read off chi's table at m into the rows of the residue stack
    of chi's positional class.  The solve's coefficients follow that
    class's NBC r-keys, and alg.nbc[r] lists the same keys, each position
    i read as the label chi.ground[i], in the same order: NBC sets read
    only positions and the support (`UnderlyingMatroid._nbc`), and an
    atom's representative is the label at its lowest position.  So the
    coefficients are zipped with alg's own keys.  When m is the minus mask
    of no tope, so that the reorientation is not acyclic, NotATope is
    raised and nothing is memoized."""
    n, r = len(chi.ground), chi.rank
    if r == 0:  # the base value, at the one tope of an empty ground set
        if n:
            raise NotATope("rank 0 on a nonempty ground set has no tope")
        return OSElement(os_algebra_of_chirotope(chi), 0, {(): chi.signs[0]})
    stack = _stack(n, r, chi.support)
    coeffs = _solve(stack, _facet_targets(stack, chi, m))
    alg = os_algebra_of_chirotope(chi)
    return OSElement(alg, r, dict(zip(alg.nbc[r], coeffs)))


@memo
def _canonical_form(chi: Chirotope, m: int) -> OSElement:
    """dW, memoized: `verify`'s simplex suite reads each tope's form once per
    basis it meets (without it, `cli_stream` wall +5%, p90 +7-10%).  The
    top-grade form is read first, so a mask of no tope raises NotATope
    before a rank-0 chirotope is refused."""
    top = _top_form(chi, m)
    if chi.rank == 0:
        raise ValueError("the reduced form needs rank at least 1")
    return top.algebra.boundary(top)


def _at(table, chi: Chirotope, m: int) -> OSElement:
    """table(chi, m) for a form memo table, read at whichever of m and its
    complement leaves position 0 plus: W(chi reoriented by the complement)
    is (-1)^r W(chi reoriented by m)."""
    if not m & 1:
        return table(chi, m)
    form = table(chi, ~m & (1 << len(chi.ground)) - 1)
    return -form if chi.rank & 1 else form


def _read(table, om: OrientedMatroid, tope: SignVector) -> OSElement:
    """`_at` of a form memo table at the tope's minus mask, or NotATope
    with `require_tope`'s message.  Past the ground and full-support check
    the tope test is the form's own table read, which raises before
    anything is memoized; so a memo hit is a tope, as the complement that
    `_at` may read instead is no tope either when the tope is none."""
    if tope.ground == om.ground and tope.has_full_support:
        try:
            return _at(table, om.chi, tope.minus)
        except NotATope:
            pass
    raise NotATope(f"{tope} is not a tope")


def canonical_form_om(om: OrientedMatroid) -> OSElement:
    """Reduced canonical form of (M, chi); zero when M is not acyclic."""
    if not om.is_acyclic():
        return os_algebra_of_chirotope(om.chi).zero(om.rank - 1)
    return _canonical_form(om.chi, 0)


def canonical_form_tope(om: OrientedMatroid, tope: SignVector) -> OSElement:
    """Reduced canonical form of a tope: that of the chirotope reoriented
    so the tope is all-plus, read at the tope's minus mask; a non-tope
    raises NotATope (`_read`)."""
    return _read(_canonical_form, om, tope)


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
    reduced form; a non-tope raises NotATope (`_read`)."""
    return _read(_top_form, om, tope)


def check_residue_axioms(om: OrientedMatroid, tope: SignVector) -> dict:
    """Per-atom check of the facet recursion for a tope's reduced form.

    With chi_T the chirotope reoriented by the tope, for a facet atom a
    the residue must equal minus the form of chi_T/a, which is T(a) times
    that of om.chi/a reoriented by the tope restricted to its ground; for
    a non-facet atom it must vanish.  That form is a second computation:
    the contraction's own solve, read off its own hyperplane table, while
    the tope's solve read its facet targets off om.chi's table and
    computed no form of a minor.  At rank 1, where the facet has rank 0
    and no reduced form, the single atom checks the base value
    chi_T(rep) * 1 instead.  The facets are read as the tope's solve reads
    them (`om._conformal_rows`).  Returns {atom rep: bool}.
    """
    form = _read(_canonical_form, om, tope)
    alg = algebra_of(om)
    minus = tope.minus
    if om.rank == 1:
        rep, = om.atom_reps
        base = om.chi.value((rep,)) * tope.value(rep)
        return {rep: form == alg.one().scale(base)}
    masks = om.underlying._atom_masks
    facets = _facet_classes(len(om.ground),
                            _conformal_rows(om.chi, minus).values(), masks)
    pos = ground_positions(om.ground)
    report = {}
    for a, mask in zip(om.atom_reps, masks):
        res = alg.residue(a, form)
        if mask in facets:
            minor = om._contractions[a]
            expected = _at(_canonical_form, minor,
                           _mask(i for i, e in enumerate(minor.ground)
                                 if minus >> pos[e] & 1))
            report[a] = res == (expected if minus & mask & -mask
                                else -expected)
        else:
            report[a] = res.is_zero
    return report
