"""Chirotopes: alternating sign functions on ordered r-tuples of a ground set.

Values are stored on ascending r-subsets only (ascending in ground order).
Everything runs on ground positions: an r-subset is a bitmask over them
and the sign table is indexed by mask (`_mask_index`).  `value` reads an
ordered tuple at the mask of its positions, times the parity of sorting
them (tuples with repeats evaluate to 0).  The three-term check and the
circuits (`_circuit`) read the table by mask; loops, basis exchange, a
contraction's parallel class and the greedy basis (`_earliest_mask`) read
the support bits at the keys through each position (`_keys_through`); a
contraction's table is a gather through a slot table cached per shape
(`_minor_slots`); none of them walks keys of labels.  A chirotope keeps
the circuit of every (r+1)-set in one table (`Chirotope._circuit_table`)
and the cocircuit of every (r-1)-set in another (`Chirotope._hyperplanes`,
whose distinct rows `Chirotope._cocircuit_rows` keeps once each), which
each reorientation reads at its minus mask; they are built on first use
and dropped with the chirotope.
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
def _keys_through(n: int, r: int) -> tuple:
    """For each position i of range(n), the int whose bit j is set iff the
    j-th ascending r-subset of range(n), in sign-table order, holds i."""
    out = [0] * n
    for j, key in enumerate(combinations(range(n), r)):
        for i in key:
            out[i] |= 1 << j
    return tuple(out)


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


@memo
def _hyperplane_slots(n: int, r: int) -> tuple:
    """For each ascending r-subset B of range(n), in sign-table order, the
    pair (even, odd) of tuples of (index of B minus B[i] among the
    (r-1)-subsets, bit of B[i]) over i = 0..r-1, split by the parity of
    r-1-i."""
    index = {h: j for j, h in enumerate(combinations(range(n), r - 1))}
    return tuple(tuple(tuple((index[key[:i] + key[i + 1:]], 1 << key[i])
                             for i in range(r) if (r - 1 - i) % 2 == odd)
                       for odd in (0, 1))
                 for key in combinations(range(n), r))


def _support(signs) -> int:
    """`Chirotope.support` of the sign table signs, read as a binary
    numeral, signs[0] its lowest digit."""
    return int("0" + "".join(["1" if s else "0" for s in reversed(signs)]), 2)


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
    kept ones holds: held, the support bits of those bases, meets the keys
    through it."""
    through = _keys_through(len(chi.ground), chi.rank)
    held, kept = chi.support, 0
    for i in places:
        if held & through[i]:
            held &= through[i]
            kept |= 1 << i
    return kept


class Chirotope(FrozenRecord):
    """A frozen value: equal iff ground, rank and signs are equal, hashed
    by them, printed as `Chirotope(ground=..., rank=..., signs=...)`, and
    AttributeError on assignment or deletion (`_record`).  It is a memo key
    on every tope query, so `__eq__` reads the three fields directly rather
    than through the generic field tuple, and the hash of them is taken
    once per instance."""

    _fields = ("ground", "rank", "signs")

    def __init__(self, ground: tuple, rank: int, signs: tuple):
        # signs is aligned with combinations(ground, rank); both kept tuples
        ground, signs = tuple(ground), tuple(signs)
        if len(signs) != comb(len(ground), rank):
            raise ValueError("chirotope sign table has wrong length")
        self.__dict__.update(ground=ground, rank=rank, signs=signs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ground, self.rank, self.signs)
                == (other.ground, other.rank, other.signs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Pickle and copy through the constructor, so that no cached hash
        (of labels whose hash may differ in another process) or table is
        carried."""
        return self.__class__, (self.ground, self.rank, self.signs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.ground, self.rank, self.signs))

    @classmethod
    def from_map(cls, ground: tuple, rank: int, values: dict) -> "Chirotope":
        """Build from {ascending tuple: sign} as given; missing keys are 0,
        and the first key that is no ascending r-subset is refused."""
        table = dict.fromkeys(combinations(ground, rank), 0)
        bad = [key for key in values if key not in table]
        if bad:
            raise ValueError(f"key {bad[0]!r} is not an ascending "
                             f"{rank}-subset of the ground set")
        table.update(values)
        return cls(ground, rank, tuple(table.values()))

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
        every (r+1)-subset of positions, read by `OrientedMatroid.circuits`
        and the placing triangulation.  `Extension.fundamental_circuit`
        calls `_circuit` directly, on the one (r+1)-set it needs."""
        n, r = len(self.ground), self.rank
        index = _mask_index(n, r)
        return {s: _circuit(self.signs, index, s)
                for s in _mask_index(n, r + 1)}

    @cached_property
    def _hyperplanes(self) -> tuple:
        """(plus, minus): for each (r-1)-subset H of positions, in
        combinations order, the masks of the signs of the cocircuit
        C_H(e) = chi(H, e) of the hyperplane H spans (zero when H is
        dependent; no H in rank 0).  For a basis B and H = B minus B[i],
        C_H(B[i]) = (-1)^(r-1-i) chi(B): moving B[i] to the end of B takes
        r-1-i transpositions.  The reorientation by a position mask m has
        this table with plus and minus swapped at m."""
        n, r = len(self.ground), self.rank
        if r == 0:
            return [], []
        plus, minus = [0] * comb(n, r - 1), [0] * comb(n, r - 1)
        for s, (even, odd) in zip(self.signs, _hyperplane_slots(n, r)):
            if s:
                if s < 0:
                    even, odd = odd, even
                for h, bit in even:
                    plus[h] |= bit
                for h, bit in odd:
                    minus[h] |= bit
        return plus, minus

    @cached_property
    def _cocircuit_rows(self) -> tuple:
        """((plus, minus, hs), ...): each distinct nonzero row of
        `_hyperplanes` once, up to sign, with the ascending indices hs of
        the (r-1)-sets H whose row it is, up to sign (the sets spanning one
        hyperplane share its cocircuit)."""
        rows: dict = {}
        for h, (p, q) in enumerate(zip(*self._hyperplanes)):
            if p or q:
                rows.setdefault((p, q) if p < q else (q, p), []).append(h)
        return tuple((p, q, tuple(hs)) for (p, q), hs in rows.items())

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

    def contract(self, element) -> "Chirotope":
        """Contraction by the parallel class of element, which is evaluated
        LAST: the class, element and every non-loop that shares no basis
        with it, is read off the support bits at the keys through each
        position and leaves the ground set.  An unknown label, or a loop
        (every element of a rank-0 table, a zero row of an unvalidated one),
        is refused."""
        i = _position(ground_positions(self.ground), element)
        n, r, signs = len(self.ground), self.rank, self.signs
        through = [self.support & keys for keys in _keys_through(n, r)]
        if not through[i]:
            raise ValueError(f"{element!r} is a loop, in no atom")
        removed = _mask(j for j, t in enumerate(through)
                        if t and not t & through[i]) | 1 << i
        return Chirotope(_labels(self.ground, ~removed), r - 1,
                         tuple(-signs[k >> 1] if k & 1 else signs[k >> 1]
                               for k in _minor_slots(n, r, removed, i)))


def validate_chirotope(chi: Chirotope) -> None:
    """Chirotope axioms, exhaustively; raises InvalidChirotope on failure.

    Checks: distinct labels, signs the ints -1, 0, 1, not identically zero,
    no loops, basis exchange on the nonzero supports, and all three-term
    Grassmann-Pluecker sign relations.  Each check walks bases in sign-table
    order and elements in ground order, so the diagnostic names the same
    first violation for any labels and does not depend on the hash seed.
    """
    _check_fields(chi)
    if not chi.support:
        raise InvalidChirotope("identically zero")
    if chi.rank:
        index = _mask_index(len(chi.ground), chi.rank)
        through = [chi.support & keys
                   for keys in _keys_through(len(chi.ground), chi.rank)]
        if 0 in through:  # the support bits through a loop: none
            raise InvalidChirotope(f"loop: {chi.ground[through.index(0)]}")
        _check_exchange(chi, index, through)
        if chi.rank >= 2:
            _check_three_term(chi, index)


def _check_fields(chi: Chirotope) -> None:
    """The first check of `validate_chirotope`, alone: the labels are
    distinct and every sign is the int -1, 0 or 1, else InvalidChirotope
    names the first repeat in ground order or the first other sign in
    sign-table order.  `forms.oriented_matroid_for` runs it too."""
    if len(set(chi.ground)) < len(chi.ground):
        e = next(e for i, e in enumerate(chi.ground) if e in chi.ground[:i])
        raise InvalidChirotope(f"label {e!r} repeats an earlier label")
    for key, s in zip(combinations(chi.ground, chi.rank), chi.signs):
        if type(s) is not int or s not in (-1, 0, 1):
            raise InvalidChirotope(f"sign {s!r} at {key} is not -1, 0 or 1")


def _check_exchange(chi: Chirotope, index: dict, through: list) -> None:
    """For bases B1, B2 and x in B1 - B2, some y in B2 - B1 makes B1 - x + y
    a basis.  With H = B1 - x, the elements completing H to a basis, x among
    them, are the bits of reach[H]; so the exchange fails iff B2 misses
    reach[H].  The bases missing a mask are the support bits outside the
    bitsets through[i] of its positions i, and the first is the lowest.  The
    first violation is the first B1, then the first B2, then the first x."""
    ground, support = chi.ground, chi.support
    bases = [m for m, s in zip(index, chi.signs) if s]
    reach: dict = {}
    for b in bases:
        for x in _bits(b):
            reach[b ^ x] = reach.get(b ^ x, 0) | x
    first: dict = {}  # reach mask -> lowest support bit of a basis missing it
    for b1 in bases:
        fail = None
        for x in _bits(b1):
            m = reach[b1 ^ x]
            low = first.get(m)
            if low is None:
                missing = support
                for y in _bits(m):
                    missing &= ~through[y.bit_length() - 1]
                low = first[m] = missing & -missing
            if low and (fail is None or low < fail[0]):
                fail = (low, x)
        if fail is not None:
            low, x = fail
            b2 = bases[(support & (low - 1)).bit_count()]
            raise InvalidChirotope(
                f"basis exchange fails for "
                f"{tuple(sorted(_labels(ground, b1)))} / "
                f"{tuple(sorted(_labels(ground, b2)))} "
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
