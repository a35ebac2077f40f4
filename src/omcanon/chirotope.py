"""Chirotopes: alternating sign functions on ordered r-tuples of a ground set.

Values are stored on ascending r-subsets only (ascending in ground order).
Everything runs on ground positions: an r-subset is a bitmask over them
and the sign table is indexed by mask (`_mask_index`).  `value` reads an
ordered tuple at the mask of its positions, times the parity of sorting
them (tuples with repeats evaluate to 0); validation, circuits
(`_circuit`) and the greedy basis (`_earliest_mask`) scan the table by
mask, and a contraction's table is a gather from its parent's through a
slot table cached per shape (`_minor_slots`), so none of them walks keys
of labels.  A chirotope keeps the circuit of every (r+1)-set in one table
(`Chirotope._circuit_table`), built on first use and dropped with it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb

from ._memo import memo
from ._record import FrozenRecord
from .signvec import SignVector, _labels, _position, ground_positions


class InvalidChirotope(ValueError):
    """Raised by validate_chirotope; .diagnostic names the first violation."""

    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


def perm_parity_sign(positions) -> int:
    """Sign of the permutation sorting the given distinct position sequence."""
    inv = 0
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            if positions[i] > positions[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _mask(positions) -> int:
    return sum(1 << i for i in positions)


def _bits(mask: int) -> list:
    """The one-bit masks of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


@memo
def _mask_index(n: int, r: int) -> dict:
    """{mask of B: index of B} over the ascending r-subsets B of range(n);
    the dict iterates in sign-table order."""
    return {_mask(key): i for i, key in enumerate(combinations(range(n), r))}


@memo
def _minor_slots(n: int, r: int, removed: int, element: int) -> tuple:
    """Gather table of the contraction by the position element of a rank-r
    table over range(n), whose ground is range(n) outside the mask removed.
    For each ascending key K of the contraction, in sign-table order, one
    int: (index of K plus element) << 1 | the parity of moving element from
    its place in that key to the end, which is the number of entries of K
    above it."""
    index = _mask_index(n, r)
    kept = [i for i in range(n) if not removed >> i & 1]
    bit = 1 << element
    return tuple(index[m | bit] << 1 | (m >> element).bit_count() & 1
                 for m in map(_mask, combinations(kept, r - 1)))


def _contracted_signs(n: int, r: int, signs, removed: int, i: int) -> tuple:
    """The sign table of the contraction of signs, of rank r over range(n),
    by the position i, evaluated last, without the positions in removed."""
    return tuple(-signs[k >> 1] if k & 1 else signs[k >> 1]
                 for k in _minor_slots(n, r, removed, i))


def _support(signs) -> int:
    """`Chirotope.support` of the sign table signs."""
    return sum(1 << i for i, s in enumerate(signs) if s)


def _circuit(signs, index: dict, s: int) -> tuple:
    """(plus, minus) masks of the circuit in the (r+1)-mask s, (0, 0) if s
    has rank below r: its sign at the i-th element s_i of s is (-1)^i
    signs[index[s - s_i]] (Bjoerner et al., Oriented Matroids, 3.5)."""
    plus = minus = 0
    for i, bit in enumerate(_bits(s)):
        v = signs[index[s ^ bit]] * (-1) ** i
        plus |= bit if v > 0 else 0
        minus |= bit if v < 0 else 0
    return plus, minus


def _earliest_basis(chi: Chirotope, order) -> list:
    """The basis greedy insertion along order (distinct labels) picks, in
    order: the one whose sorted places in order are lexicographically
    least (`_earliest_mask`)."""
    pos = ground_positions(chi.ground)
    kept = _earliest_mask(chi, [_position(pos, e) for e in order])
    return [e for e in order if kept >> pos[e] & 1]


def _earliest_mask(chi: Chirotope, places) -> int:
    """The mask of the basis greedy insertion along places (distinct
    positions) picks.  It keeps each position that a basis holding the
    kept ones holds."""
    bases = [m for m, s in zip(_mask_index(len(chi.ground), chi.rank),
                               chi.signs) if s]
    kept = 0
    for i in places:
        bit = 1 << i
        within = [b for b in bases if b & bit]
        if within:
            bases = within
            kept |= bit
    return kept


class Chirotope(FrozenRecord):
    """A frozen value: equal iff ground, rank and signs are equal, hashed
    by them, printed as `Chirotope(ground=..., rank=..., signs=...)`, and
    AttributeError on assignment or deletion (`_record`).  It is a memo key
    on every tope query, so `__eq__` and `__hash__` read the three fields
    directly rather than through the generic field tuple."""

    _fields = ("ground", "rank", "signs")

    def __init__(self, ground: tuple, rank: int, signs: tuple):
        # signs is aligned with combinations(ground, rank)
        if len(signs) != comb(len(ground), rank):
            raise ValueError("chirotope sign table has wrong length")
        self.__dict__.update(ground=ground, rank=rank, signs=signs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ground, self.rank, self.signs)
                == (other.ground, other.rank, other.signs))

    def __hash__(self) -> int:
        return hash((self.ground, self.rank, self.signs))

    @classmethod
    def from_map(cls, ground: tuple, rank: int, values: dict) -> "Chirotope":
        """Build from {ascending tuple: sign}; missing keys default to 0."""
        signs = tuple(int(values.get(key, 0)) for key in combinations(ground, rank))
        return cls(tuple(ground), rank, signs)

    @property
    def keys(self) -> tuple:
        return tuple(combinations(self.ground, self.rank))

    def value(self, seq) -> int:
        """Value on an arbitrary ordered tuple (repeats give 0): the sign at
        the mask of its positions times the parity of sorting them."""
        seq = tuple(seq)
        if len(seq) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(seq)}")
        pos = ground_positions(self.ground)
        positions = [_position(pos, e) for e in seq]
        if len(set(positions)) != len(positions):
            return 0
        return perm_parity_sign(positions) * self.signs[
            _mask_index(len(self.ground), self.rank)[_mask(positions)]]

    @cached_property
    def support(self) -> int:
        """The bases as an int: bit i is set iff signs[i] is nonzero."""
        return _support(self.signs)

    @cached_property
    def _circuit_table(self) -> dict:
        """{(r+1)-mask s: the (plus, minus) masks of `_circuit` in s}, over
        every (r+1)-subset of positions: the one place circuits are read
        by (r+1)-set."""
        n, r = len(self.ground), self.rank
        index = _mask_index(n, r)
        return {s: _circuit(self.signs, index, s)
                for s in _mask_index(n, r + 1)}

    @property
    def nonzero_keys(self) -> tuple:
        return tuple(k for k, s in zip(self.keys, self.signs) if s != 0)

    def reorient(self, tope: SignVector) -> "Chirotope":
        """Reorientation: value on B multiplied by (-1)^{|B n P^-|}."""
        if tope.ground != self.ground or not tope.has_full_support:
            raise ValueError("reorientation requires a full-support sign vector")
        neg = tope.minus
        signs = tuple(-s if (m & neg).bit_count() & 1 else s for m, s in zip(
            _mask_index(len(self.ground), self.rank), self.signs))
        return Chirotope(self.ground, self.rank, signs)

    def contract(self, element, drop=()) -> "Chirotope":
        """Contraction by one element, contracted element evaluated LAST.

        drop lists further elements removed from the ground set (loops of
        the contraction, i.e. the rest of the contracted parallel class); an
        unknown label, or one that shares a basis with element, is refused.
        """
        pos = ground_positions(self.ground)
        i = _position(pos, element)
        removed = _mask({i, *(_position(pos, e) for e in drop)})
        n, r, signs = len(self.ground), self.rank, self.signs
        if removed != 1 << i:
            spanned = 0  # the elements that share a basis with element
            for k, s in zip(_mask_index(n, r), signs):
                if s and k >> i & 1:
                    spanned |= k
            bad = _labels(self.ground, removed & spanned & ~(1 << i))
            if bad:
                raise ValueError(f"{bad[0]!r} is not parallel to {element!r}")
        return Chirotope(_labels(self.ground, ~removed), r - 1,
                         _contracted_signs(n, r, signs, removed, i))


def validate_chirotope(chi: Chirotope) -> None:
    """Chirotope axioms, exhaustively; raises InvalidChirotope on failure.

    Checks: not identically zero, no loops, basis exchange on the nonzero
    supports, and all three-term Grassmann-Pluecker sign relations.  Each
    check walks bases in sign-table order and elements in ground order, so
    the diagnostic names the same first violation for any labels and does
    not depend on the hash seed.
    """
    if chi.rank == 0:
        if chi.signs[0] == 0:
            raise InvalidChirotope("identically zero")
        return
    n = len(chi.ground)
    index = _mask_index(n, chi.rank)
    bases = [m for m, s in zip(index, chi.signs) if s]
    if not bases:
        raise InvalidChirotope("identically zero")
    missing = (1 << n) - 1
    for b in bases:
        missing &= ~b
    if missing:
        low = missing & -missing
        raise InvalidChirotope(f"loop: {chi.ground[low.bit_length() - 1]}")
    _check_exchange(chi.ground, bases)
    if chi.rank >= 2:
        _check_three_term(chi, index)


def _check_exchange(ground: tuple, bases: list) -> None:
    """For bases B1, B2 and x in B1 - B2, some y in B2 - B1 makes B1 - x + y
    a basis.  With H = B1 - x, the elements completing H to a basis, x among
    them, are the bits of reach[H]; so the exchange fails iff B2 misses
    reach[H].  The first violation is the first B1, then the first B2, then
    the first x."""
    reach: dict = {}
    for b in bases:
        for x in _bits(b):
            reach[b ^ x] = reach.get(b ^ x, 0) | x
    first: dict = {}  # reach mask -> index of the first basis missing it
    for b1 in bases:
        fail = None
        for x in _bits(b1):
            m = reach[b1 ^ x]
            j = first.get(m)
            if j is None:
                j = first[m] = next((k for k, b2 in enumerate(bases)
                                     if not b2 & m), len(bases))
            if j < len(bases) and (fail is None or j < fail[0]):
                fail = (j, x)
        if fail is not None:
            j, x = fail
            raise InvalidChirotope(
                f"basis exchange fails for "
                f"{tuple(sorted(_labels(ground, b1)))} / "
                f"{tuple(sorted(_labels(ground, bases[j])))} "
                f"at {ground[x.bit_length() - 1]}")


def _check_three_term(chi: Chirotope, index: dict) -> None:
    """For each stem S, an ascending (r-2)-subset, the signs of the keys
    S + {a, b} are read once by mask.  chi(S + (a, b)) differs from that
    sign by e_a * e_b, with e_i = -1 iff an odd number of S lies above i, so
    each of p1, p2, p3 differs by e_a e_b e_c e_d: the relation's sign
    pattern is at most negated, and the check reads the signs as they are."""
    ground, signs = chi.ground, chi.signs
    n = len(ground)
    for stem in combinations(range(n), chi.rank - 2):
        s = _mask(stem)
        rest = [i for i in range(n) if not s >> i & 1]
        v = [[signs[index[s | 1 << i | 1 << j]] if i < j else 0
              for j in rest] for i in rest]
        for a, b, c, d in combinations(range(len(rest)), 4):
            p1 = v[a][b] * v[c][d]
            p2 = v[a][c] * v[b][d]
            p3 = v[a][d] * v[b][c]
            # realizable model: p1 - p2 + p3 = 0
            terms = [p1, -p2, p3]
            if any(terms) and not (min(terms) < 0 < max(terms)):
                raise InvalidChirotope(
                    f"three-term relation fails on stem "
                    f"{tuple(ground[i] for i in stem)}, quadruple "
                    f"{tuple(ground[rest[i]] for i in (a, b, c, d))}")


def chirotope_diagnostic(chi: Chirotope) -> str | None:
    """None if valid, else the first violation message."""
    try:
        validate_chirotope(chi)
    except InvalidChirotope as exc:
        return exc.diagnostic
    return None
