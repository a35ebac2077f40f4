"""Oriented matroids from chirotopes.

Derived data (signed circuits, cocircuits, covectors, topes) is computed
once, on first use, deterministically from the chirotope, and never
mutated afterwards.  Sign-vector sets are closed under negation.
Circuits (the chirotope's circuit table, and `chirotope._circuit` for a
fundamental circuit) and cocircuits are read off the ascending sign table
as (plus, minus) masks, and so are the facets of the all-plus tope of an
acyclic chirotope; a lexicographic extension's table is built on that
table by position mask.  The cocircuits are kept as one table of mask
pairs, both signs, and every tope question reads it: the cocircuits
conformal to a sign vector are the pairs inside its masks, and compose by
taking the union of their masks.
A covector is their composition, the faces of a tope are their closure,
and a tope is bounded at e iff none of them vanishes at e.  A facet of a
tope T is a facet of the all-plus tope of the reorientation by T; one
rule (`_facet_classes`) reads a tope's facet classes off its conformal
cocircuits.  The topes come from a walk of the tope graph that flips facet
classes, and acyclicity asks whether the all-plus vector is a tope, which
is whether the one-signed cocircuits cover the ground set.  Only
enumerating covectors or the faces of a tope builds a covector closure,
which runs on (plus, minus) mask pairs and builds each SignVector once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb

from ._memo import memo
from ._record import FrozenRecord
from .chirotope import (Chirotope, _bits, _circuit, _mask, _mask_index,
                        validate_chirotope)
from .matroid import UnderlyingMatroid
from .signvec import SignVector, _labels, _position, ground_positions


class NotATope(ValueError):
    pass


class OrientedMatroid:
    def __init__(self, chi: Chirotope, validate: bool = True):
        if validate:
            validate_chirotope(chi)
        self.chi = chi
        self.ground = chi.ground
        self.rank = chi.rank
        self.underlying = UnderlyingMatroid.from_chirotope(chi)

    @cached_property
    def circuits(self) -> frozenset:
        return _circuits(self.chi)

    @cached_property
    def _cocircuit_table(self) -> frozenset:
        """(plus, minus) masks of every cocircuit, both signs."""
        masks = _cocircuit_masks(len(self.ground), self.rank, self.chi.signs)
        return frozenset(pm for p, m in masks for pm in ((p, m), (m, p)))

    @cached_property
    def cocircuits(self) -> frozenset:
        return frozenset(SignVector._from_masks(self.ground, p, m)
                         for p, m in self._cocircuit_table)

    @cached_property
    def covectors(self) -> frozenset:
        return _covector_closure(self.ground, self._cocircuit_table)

    @cached_property
    def topes(self) -> frozenset:
        """A breadth-first walk of the tope graph, which is connected
        (Bjoerner et al., Oriented Matroids, 4.2): it starts at the
        composition of every cocircuit, and a tope's neighbours flip one of
        its facet classes.  Without a full-support start (rank 0 on a
        nonempty ground set) there is no tope."""
        n = len(self.ground)
        plus = minus = 0
        for p, m in self._cocircuit_table:
            free = ~(plus | minus)
            plus, minus = plus | p & free, minus | m & free
        if plus | minus != (1 << n) - 1:
            return frozenset()
        classes = self.underlying._atom_masks
        seen = {(plus, minus)}
        queue = [(plus, minus)]
        for plus, minus in queue:
            for c in _facet_classes(n, self._conformal(plus, minus),
                                    classes):
                flip = (plus ^ c, minus ^ c)
                if flip not in seen:
                    seen.add(flip)
                    queue.append(flip)
        return frozenset(SignVector._from_masks(self.ground, p, m)
                         for p, m in seen)

    # ---- basic structure -------------------------------------------------

    @property
    def atoms(self) -> tuple:
        return self.underlying.atoms

    @property
    def atom_reps(self) -> tuple:
        return self.underlying.atom_reps

    def sorted_topes(self) -> list:
        return sorted(self.topes, key=SignVector.sort_key)

    def is_tope(self, x: SignVector) -> bool:
        """Full-support covector test by conformal cocircuit composition."""
        return (x.ground == self.ground and x.has_full_support
                and self.is_covector(x))

    def require_tope(self, x: SignVector) -> SignVector:
        if not self.is_tope(x):
            raise NotATope(f"{x} is not a tope")
        return x

    def is_acyclic(self) -> bool:
        """`is_acyclic` of the chirotope."""
        return is_acyclic(self.chi)

    # ---- covector machinery ----------------------------------------------

    def _conformal(self, plus: int, minus: int) -> list:
        """The cocircuit mask pairs conformal to the sign vector (plus,
        minus): those inside its masks."""
        out_plus, out_minus = ~plus, ~minus
        return [(p, m) for p, m in self._cocircuit_table
                if not (p & out_plus or m & out_minus)]

    def _composes(self, plus: int, minus: int, positive: int = 0) -> bool:
        """True iff (plus, minus) is the composition of its conformal
        cocircuits, each of them positive on the mask positive, which plus
        must contain: a covector, all of whose nonzero faces are positive
        there.  Conforming, the cocircuits compose by taking the union of
        their masks."""
        if positive & ~plus:
            return False
        p = m = 0
        for yp, ym in self._conformal(plus, minus):
            if positive & ~yp:
                return False
            p |= yp
            m |= ym
        return p == plus and m == minus

    def conformal_cocircuits(self, x: SignVector) -> list:
        return [SignVector._from_masks(self.ground, p, m)
                for p, m in self._conformal(x.plus, x.minus)]

    def is_covector(self, x: SignVector) -> bool:
        """Conformal cocircuit composition test (no full enumeration)."""
        return x.ground == self.ground and self._composes(x.plus, x.minus)

    def faces(self, tope: SignVector) -> frozenset:
        """Covectors conformal to the tope, including 0 and the tope itself."""
        self.require_tope(tope)
        return _covector_closure(self.ground,
                                 self._conformal(tope.plus, tope.minus))

    def bounded_topes(self, base) -> frozenset:
        """Topes all of whose nonzero faces are strictly positive at base."""
        if base not in self.ground:
            raise ValueError(f"unknown element {base!r}")
        bit = 1 << ground_positions(self.ground)[base]
        return frozenset(t for t in self.topes
                         if self._composes(t.plus, t.minus, bit))

    # ---- minors -----------------------------------------------------------

    def contract(self, element) -> "OrientedMatroid":
        """Contraction by the parallel class of element (evaluated last)."""
        atom = self.underlying.atom_of(element)
        chi = self.chi.contract(element, drop=atom - {element})
        return OrientedMatroid(chi, validate=False)

    # ---- single-element lexicographic extensions ---------------------------

    def lex_extension(self, signature, label="q") -> "Extension":
        """Extension by q = [b1^s1, ..., br^sr]; the signature must be a basis.

        The extended table is built on positions, q last (Bjoerner et al.,
        Oriented Matroids, 7.2): a key K + q takes the first nonzero
        s_i chi(K + b_i) with b_i evaluated last, which is
        (-1)^popcount(K >> b_i) times the sign at K | b_i."""
        if label in self.ground:
            raise ValueError(f"label {label!r} already in the ground set")
        signature = tuple((b, int(s)) for b, s in signature)
        if any(s not in (1, -1) for _, s in signature):
            raise ValueError("signature signs must be +1 or -1")
        pos = ground_positions(self.ground)
        steps = [(_position(pos, b), s) for b, s in signature]
        n, r, signs = len(self.ground), self.rank, self.chi.signs
        index = _mask_index(n, r)
        basis = _mask(i for i, _ in steps)
        if len(steps) != r or basis.bit_count() != r or not signs[index[basis]]:
            raise ValueError("signature elements must form a basis")

        def cascade(k: int) -> int:
            for i, s in steps:
                v = 0 if k >> i & 1 else signs[index[k | 1 << i]]
                if v:
                    return -s * v if (k >> i).bit_count() & 1 else s * v
            return 0

        q = 1 << n
        table = []
        for m in _mask_index(n + 1, r):
            if not m & q:
                table.append(signs[index[m]])
                continue
            k = m ^ q
            v = cascade(k)
            # K is independent iff it lies in a basis; the keys K + q come
            # in combinations order of K, so the first violation is named
            if not v and any(b & k == k for b in self.underlying.bases):
                raise RuntimeError(
                    "internal invariant violation: extension not general at "
                    f"{_labels(self.ground, k)}")
            table.append(v)
        chi_ext = Chirotope(self.ground + (label,), r, tuple(table))
        return Extension(self, label, signature, chi_ext)


class Extension(FrozenRecord):
    """A general single-element extension M u q with its extended chirotope.

    A frozen value over base, label, signature and chi_ext: equal iff those
    are equal (base by identity), hashed by them, printed with them, and
    AttributeError on assignment or deletion.  `om_ext`, the oriented
    matroid of chi_ext, is built here and is not a field."""

    _fields = ("base", "label", "signature", "chi_ext")

    def __init__(self, base: OrientedMatroid, label, signature: tuple,
                 chi_ext: Chirotope):
        self.__dict__.update(base=base, label=label, signature=signature,
                             chi_ext=chi_ext,
                             om_ext=OrientedMatroid(chi_ext, validate=False))

    def bounded_topes(self) -> frozenset:
        """Topes P of M such that (P, +) is bounded at q in M u q; q is the
        last position of the extended ground."""
        q = 1 << len(self.base.ground)
        return frozenset(t for t in self.base.topes
                         if self.om_ext._composes(t.plus | q, t.minus, q))

    def fundamental_circuit(self, basis) -> SignVector:
        """The signed circuit in basis u {q}, normalized to value - at q."""
        chi, pos = self.chi_ext, ground_positions(self.base.ground)
        s = q = 1 << len(pos)  # q comes last in the extended ground
        for e in basis:
            s |= 1 << _position(pos, e)
        index = _mask_index(len(chi.ground), chi.rank)
        if s.bit_count() != chi.rank + 1 or not chi.signs[index[s ^ q]]:
            raise ValueError("not a basis")
        plus, minus = _circuit(chi.signs, index, s)
        if plus & q:
            plus, minus = minus, plus
        return SignVector._from_masks(chi.ground, plus, minus)


# ---- derived sign-vector data -------------------------------------------


def _circuits(chi: Chirotope) -> frozenset:
    """The signed circuits, read off chi's circuit table: one from each
    (r+1)-subset of rank r, and their negatives (none in rank 0)."""
    if chi.rank == 0:
        return frozenset()
    pairs = set(chi._circuit_table.values())
    return frozenset(SignVector._from_masks(chi.ground, *pm)
                     for p, m in pairs - {(0, 0)} for pm in ((p, m), (m, p)))


def is_acyclic(chi: Chirotope) -> bool:
    """True iff no signed circuit of chi is nonnegative.  By the Farkas
    lemma (Bjoerner et al., Oriented Matroids, 3.4) every element lies in
    a nonnegative circuit or in a nonnegative cocircuit, never both, so chi
    is acyclic iff the one-signed cocircuits cover the ground set: iff the
    all-plus vector is a tope."""
    n, r = len(chi.ground), chi.rank
    if r == 0 or n <= r:
        return True
    return _facet_classes(n, _one_signed(n, r, chi.signs), ()) is not None


@memo
def _hyperplane_slots(n: int, r: int) -> tuple:
    """For each ascending r-subset B of range(n), in sign-table order, the
    triples (index of B minus B[i] among the (r-1)-subsets, bit of B[i],
    parity of r-1-i), i = 0..r-1."""
    index = {h: j for j, h in enumerate(combinations(range(n), r - 1))}
    return tuple(tuple((index[key[:i] + key[i + 1:]], 1 << key[i],
                        (r - 1 - i) % 2) for i in range(r))
                 for key in combinations(range(n), r))


def _cocircuit_masks(n: int, r: int, signs) -> set:
    """(plus, minus) masks of the cocircuits, one sign of each at least,
    read off signs, the ascending rank-r sign table chi over range(n).  The
    cocircuit of the hyperplane spanned by H = B minus B[i], for a basis B,
    takes the sign (-1)^(r-1-i) chi(B) at B[i]: moving B[i] to the end of B
    takes r-1-i transpositions."""
    if r == 0:
        return set()
    plus, minus = [0] * comb(n, r - 1), [0] * comb(n, r - 1)
    for s, slots in zip(signs, _hyperplane_slots(n, r)):
        if s:
            for h, bit, odd in slots:
                if (s > 0) != odd:
                    plus[h] |= bit
                else:
                    minus[h] |= bit
    return {pm for pm in zip(plus, minus) if pm != (0, 0)}


def _one_signed(n: int, r: int, signs) -> list:
    """(plus, minus) masks of the one-signed cocircuits of the sign table
    (see `_cocircuit_masks`), one sign of each: their zero sets are those
    of the cocircuits conformal to the all-plus vector."""
    return [(p, m) for p, m in _cocircuit_masks(n, r, signs) if not p or not m]


def _facet_classes(n: int, pairs, classes) -> list | None:
    """The facet classes of a full-support sign vector X on n positions,
    from pairs, the (plus, minus) masks of the cocircuits conformal to X
    (the one-signed ones after reorienting by X's minus mask): None when
    they do not compose to X, so X is not a tope, and else the members of
    classes, parallel classes as position masks, that are facets of X.

    The conformal cocircuits vanishing at a position compose to the largest
    face of X that vanishes there; its zero set is the intersection of
    theirs (every position if there are none).  That face is a facet iff
    this zero set is the position's parallel class.
    """
    full = (1 << n) - 1
    covered = 0
    face = [full] * n
    for plus, minus in pairs:
        covered |= plus | minus
        zero = full & ~(plus | minus)
        for bit in _bits(zero):
            face[bit.bit_length() - 1] &= zero
    if covered != full:
        return None
    return [c for c in classes if face[(c & -c).bit_length() - 1] == c]


def _covector_closure(ground: tuple, cocircuits) -> frozenset:
    """All compositions of the cocircuit mask pairs, plus the zero
    covector.  The closure runs on (plus, minus) mask pairs:
    x o y = (xp | yp & ~(xp | xm), xm | ym & ~(xp | xm)); sign vectors are
    built once, at the end."""
    gens = list(cocircuits)
    seen = {(0, 0)} | set(gens)
    frontier = gens
    while frontier:
        nxt = []
        for xp, xm in frontier:
            free = ~(xp | xm)
            for yp, ym in gens:
                z = (xp | yp & free, xm | ym & free)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(SignVector._from_masks(ground, p, m) for p, m in seen)
