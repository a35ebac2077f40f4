"""Oriented matroids from chirotopes.

Derived data (signed circuits, cocircuits, covectors, topes) is computed
once, on first use, deterministically from the chirotope, and never
mutated afterwards.  Sign-vector sets are closed under negation.
Circuits (the chirotope's circuit table, and `chirotope._circuit` for a
fundamental circuit) and cocircuits (its hyperplane table) are read off
the ascending sign table as (plus, minus) masks; a lexicographic
extension's table is built on that table by position mask.  Every
sign-vector question reads the hyperplane table's distinct rows
(`Chirotope._cocircuit_rows`), both signs, through one rule,
`_conformal_rows`: a vector is a covector iff the rows conformal to it
cover its support (a tope if it has full support; acyclicity asks this
of the all-plus vector), a tope is bounded at e iff each is nonzero at e
(`_bounded`), its faces are their compositions, and `_facet_classes`
reads its facets off their supports.  The topes are the compositions of
the fundamental cocircuits of the NBC bases, both signs of each (the
scatter of `topes`): rows of the same table, with no tope test.  Only
enumerating covectors or the faces of a tope builds a covector closure,
on mask pairs, building each SignVector once.
"""

from __future__ import annotations

from functools import cached_property

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
    def cocircuits(self) -> frozenset:
        return frozenset(SignVector._from_masks(self.ground, p, m)
                         for p, m in _cocircuit_masks(self.chi))

    @cached_property
    def covectors(self) -> frozenset:
        return _covector_closure(self.ground, _cocircuit_masks(self.chi))

    @cached_property
    def topes(self) -> frozenset:
        """Every composition e_1 C_1 o ... o e_r C_r, signs e_j = +-1, over
        the NBC bases K = (k_1 < ... < k_r), C_j the row of K - k_j in the
        hyperplane table: the cocircuit with zero set cl(K - k_j).
          - Each is a tope.  A composition of covectors is a covector, and
            its zero set is the intersection of the cl(K - k_j), the
            closure of the empty set: the loops, none here.
          - Each tope T is one.  Its top-grade form is nonzero: its
            residue at a facet is the facet's form, nonzero by induction
            on the rank down to chi(()).  By Finding 1 (`forms`'
            `_facet_targets`) a nonzero coefficient at an NBC basis K
            makes T the composition at K with e_j = T(k_j).
        In rank 0 the one NBC set is empty and composes to the zero vector:
        a tope on an empty ground set, none on a nonempty one."""
        n, r = len(self.ground), self.rank
        plus, minus = self.chi._hyperplanes
        index = _mask_index(n, r - 1) if r else {}
        pos = self.underlying._pos
        seen = set()
        for key in self.underlying.nbc_sets(r):
            bits = [1 << pos[e] for e in key]
            basis = sum(bits)
            level = [(0, 0)]
            for bit in bits:
                h = index[basis ^ bit]
                p, m = plus[h], minus[h]
                grown = []
                for xp, xm in level:
                    free = ~(xp | xm)
                    grown += ((xp | p & free, xm | m & free),
                              (xp | m & free, xm | p & free))
                level = grown
            seen.update(level)
        full = (1 << n) - 1
        return frozenset(SignVector._from_masks(self.ground, p, m)
                         for p, m in seen if p | m == full)

    # ---- basic structure -------------------------------------------------

    @property
    def atom_reps(self) -> tuple:
        return self.underlying.atom_reps

    def sorted_topes(self) -> list:
        return sorted(self.topes, key=SignVector.sort_key)

    def is_tope(self, x: SignVector) -> bool:
        """True iff x is a covector of full support."""
        return x.has_full_support and self.is_covector(x)

    def require_tope(self, x: SignVector) -> SignVector:
        self._tope_rows(x)
        return x

    def _tope_rows(self, x: SignVector) -> dict:
        """`_conformal_rows` at the tope x, or NotATope."""
        full = x.ground == self.ground and x.has_full_support
        rows = _conformal_rows(self.chi, x.minus) if full else None
        if rows is None:
            raise NotATope(f"{x} is not a tope")
        return rows

    def is_acyclic(self) -> bool:
        """`is_acyclic` of the chirotope."""
        return is_acyclic(self.chi)

    # ---- covector machinery ----------------------------------------------

    def conformal_cocircuits(self, x: SignVector) -> list:
        """The cocircuits inside x's masks, x a covector or not."""
        out_plus, out_minus = ~x.plus, ~x.minus
        return [SignVector._from_masks(self.ground, p, m)
                for p, m in _cocircuit_masks(self.chi)
                if not (p & out_plus or m & out_minus)]

    def is_covector(self, x: SignVector) -> bool:
        """True iff x's conformal cocircuits compose to it: cover its
        support (`_conformal_rows` at its zero mask; no enumeration)."""
        zero = (1 << len(self.ground)) - 1 & ~(x.plus | x.minus)
        return (x.ground == self.ground
                and _conformal_rows(self.chi, x.minus, zero) is not None)

    def faces(self, tope: SignVector) -> frozenset:
        """Covectors conformal to the tope, 0 and the tope included: the
        compositions of its conformal cocircuits, the tope on each support."""
        rows, plus, minus = self._tope_rows(tope), tope.plus, tope.minus
        return _covector_closure(self.ground, [(s & plus, s & minus)
                                               for s in set(rows.values())])

    def bounded_topes(self, base) -> frozenset:
        """Topes all of whose nonzero faces are strictly positive at base."""
        bit = 1 << _position(ground_positions(self.ground), base)
        return frozenset(t for t in self.topes
                         if _bounded(self.chi, t.minus, bit))

    # ---- minors -----------------------------------------------------------

    def contract(self, element) -> "OrientedMatroid":
        """Contraction by the parallel class of element (evaluated last)."""
        return OrientedMatroid(self.chi.contract(element), validate=False)

    @cached_property
    def _contractions(self) -> dict:
        """{atom rep: the chirotope's contraction by it}, built once, so
        that each contraction's hyperplane table is built once too."""
        return {a: self.chi.contract(a) for a in self.atom_reps}

    # ---- single-element lexicographic extensions ---------------------------

    def lex_extension(self, signature, label="q") -> "Extension":
        """`Extension(self, label, signature)`."""
        return Extension(self, label, signature)


class Extension(FrozenRecord):
    """The general lexicographic extension M u q by q = [b1^s1, ..., br^sr];
    the signature must be a basis, and the extension general.

    Its chirotope `chi_ext` is built on positions, q last (Bjoerner et al.,
    Oriented Matroids, 7.2): a key K + q takes the first nonzero
    s_i chi(K + b_i) with b_i evaluated last, which is
    (-1)^popcount(K >> b_i) times the sign at K | b_i.  A frozen value over
    base, label and signature: equal iff those are (base by identity),
    hashed by them, printed with them, AttributeError on assignment or
    deletion.  `chi_ext` and its oriented matroid `om_ext` are derived."""

    _fields = ("base", "label", "signature")

    def __init__(self, base: OrientedMatroid, label, signature: tuple):
        if label in base.ground:
            raise ValueError(f"label {label!r} already in the ground set")
        signature = tuple((b, s) for b, s in signature)
        if any(type(s) is not int or s not in (1, -1) for _, s in signature):
            raise ValueError("signature signs must be +1 or -1")
        pos = ground_positions(base.ground)
        steps = [(_position(pos, b), s) for b, s in signature]
        n, r, signs = len(base.ground), base.rank, base.chi.signs
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
            k = m ^ q
            v = cascade(k) if m & q else signs[index[m]]
            # K + q in combinations order of K: the first violation is named
            if not v and m & q and base.underlying.is_independent(
                    _labels(base.ground, k)):
                raise RuntimeError(
                    "internal invariant violation: extension not general at "
                    f"{_labels(base.ground, k)}")
            table.append(v)
        chi_ext = Chirotope(base.ground + (label,), r, tuple(table))
        self.__dict__.update(base=base, label=label, signature=signature,
                             chi_ext=chi_ext,
                             om_ext=OrientedMatroid(chi_ext, validate=False))

    def bounded_topes(self) -> frozenset:
        """Topes P of M such that (P, +) is bounded at q in M u q, q the
        last position of the extended ground: a tope of M u q, read at P's
        minus mask, bounded at q (`_bounded`)."""
        q = 1 << len(self.base.ground)
        return frozenset(t for t in self.base.topes
                         if _bounded(self.chi_ext, t.minus, q))

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
    (r+1)-subset of rank r, and their negatives; none in rank 0, where
    each element is a loop, so that rank 0 counts as acyclic."""
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
    all-plus vector is a tope, in rank >= 1.  Rank 0 counts as acyclic
    (`_circuits` lists no loop), though a nonempty ground has no tope."""
    return (chi.rank == 0 or len(chi.ground) <= chi.rank
            or _conformal_rows(chi, 0) is not None)


def _conformal_rows(chi: Chirotope, m: int, zero: int = 0) -> dict | None:
    """{index of H: support of C_H} over the rows of chi's hyperplane table
    (`Chirotope._hyperplanes`) that are faces of the vector X with minus
    mask m, zero mask zero and plus elsewhere, or None when X is no
    covector (at zero = 0: no tope).  They are the nonzero rows that avoid
    zero and are one-signed once plus and minus are swapped at m: with
    -C_H, the cocircuits conformal to X (a dependent H has the zero row).
    Conforming, these compose by the union of their supports, so to X iff
    they cover its support.  Each distinct row is tested once
    (`Chirotope._cocircuit_rows`), and its verdict read at every H."""
    w, m, rows, covered = ~m, m | zero, {}, 0
    for p, q, hs in chi._cocircuit_rows:
        if not (p & m or q & w) or not (q & m or p & w):
            covered |= (s := p | q)
            for h in hs:
                rows[h] = s
    return rows if covered == (1 << len(chi.ground)) - 1 & ~zero else None


def _bounded(chi: Chirotope, m: int, bit: int) -> bool:
    """True iff the vector with minus mask m is a tope of chi, plus at bit,
    with every conformal cocircuit nonzero there: iff all its nonzero faces
    are plus at bit."""
    rows = None if m & bit else _conformal_rows(chi, m)
    return rows is not None and all(s & bit for s in rows.values())


def _cocircuit_masks(chi: Chirotope) -> list:
    """chi's cocircuits as (plus, minus) masks: its rows, both signs."""
    return [pm for p, q, _ in chi._cocircuit_rows for pm in ((p, q), (q, p))]


def _facet_classes(n: int, supports, classes) -> list:
    """The members of classes, parallel classes as position masks, that
    are facets of a tope X on n positions, from supports, those of the
    cocircuits conformal to X (`_conformal_rows`).

    The conformal cocircuits vanishing at a position compose to the largest
    face of X that vanishes there; its zero set is the intersection of
    theirs (every position if there are none).  That face is a facet iff
    this zero set is the position's parallel class.
    """
    full = (1 << n) - 1
    face = [full] * n
    for support in supports:
        zero = full & ~support
        for bit in _bits(zero):
            face[bit.bit_length() - 1] &= zero
    return [c for c in classes if face[(c & -c).bit_length() - 1] == c]


def _covector_closure(ground: tuple, cocircuits: list) -> frozenset:
    """All compositions of the cocircuit mask pairs, plus the zero
    covector.  The closure runs on (plus, minus) mask pairs:
    x o y = (xp | yp & ~(xp | xm), xm | ym & ~(xp | xm)); sign vectors are
    built once, at the end."""
    seen = {(0, 0)}
    queue = [(0, 0)]
    for xp, xm in queue:
        free = ~(xp | xm)
        for yp, ym in cocircuits:
            z = (xp | yp & free, xm | ym & free)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return frozenset(SignVector._from_masks(ground, p, m) for p, m in seen)
