"""Underlying (unoriented) matroid services.

A matroid is (ground, rank, support): bit i of the int support is set iff
the i-th key of combinations(ground, rank) is a basis.  That is the order
of a chirotope's sign table, so the matroid of a chirotope is its nonzero
signs (`Chirotope.support`), and an order-preserving relabelling of the
ground set leaves support as it is.  The bases are kept as masks over
ground positions, and rank(S) = max |B n S| over bases B is one popcount
maximum, not cached.  The Tutte polynomial is read off the same masks by
basis activities, with no deletion-contraction recursion.  The labels are
distinct: a repeated one is refused (ValueError).
Atoms are the parallel classes, keyed by the earliest element in ground
order, and found without a rank query: two elements are parallel iff no
basis holds both.  The Orlik-Solomon side works entirely on atom
representatives.
NBC has one definition, Bjoerner's closure criterion on the bitsets of the
bases through each element (`_nbc`, which states and proves it): the NBC
sets of every grade are grown by it, a straightening asks independence of
the same bitsets, and the circuit a rewrite uses is the one the criterion
names (`_rewrite_circuit`).  In rank 0 the only basis is empty (support
1), every element is a loop and there are no atoms.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .chirotope import (Chirotope, _bits, _keys_through, _mask, _mask_index,
                        _minor_slots)
from .signvec import _check_distinct, _labels, _position, ground_positions


class UnderlyingMatroid:
    def __init__(self, ground: tuple, rank: int, support: int):
        self.ground = tuple(ground)
        _check_distinct(self.ground)
        self.rank = rank
        self.support = support
        n = len(self.ground)
        size = comb(n, rank)
        if not support:
            raise ValueError("a matroid needs at least one basis")
        if support >> size:
            raise ValueError(f"support has bits beyond the {size} keys of "
                             f"rank {rank} on {n} elements")
        self.bases = [m for i, m in enumerate(_mask_index(n, rank))
                      if support >> i & 1]
        self._pos = ground_positions(self.ground)
        # bit j of through[i]: the j-th key, in sign-table order, is a
        # basis that holds i
        through = [support & keys for keys in _keys_through(n, rank)]
        if rank and 0 in through:
            raise ValueError(f"loop: {self.ground[through.index(0)]}")
        self._through = through
        # two elements are parallel iff no basis holds both
        classes: list = []  # the atoms as position masks
        self._atom_at: list = []  # position -> index in classes
        for i in range(n if rank else 0):
            k = next((k for k, c in enumerate(classes)
                      if not through[(c & -c).bit_length() - 1] & through[i]),
                     len(classes))
            if k == len(classes):
                classes.append(0)
            classes[k] |= 1 << i
            self._atom_at.append(k)
        self._atom_masks = classes
        self.atoms = tuple(frozenset(_labels(self.ground, c)) for c in classes)
        self.atom_reps = tuple(self.ground[(c & -c).bit_length() - 1]
                               for c in classes)

    @classmethod
    def from_chirotope(cls, chi: Chirotope) -> "UnderlyingMatroid":
        return cls(chi.ground, chi.rank, chi.support)

    @property
    def fingerprint(self) -> tuple:
        """The key identifying the matroid: (ground, rank, support)."""
        return self.ground, self.rank, self.support

    # ---- rank oracle and derived notions -------------------------------

    def rank_of(self, subset) -> int:
        mask = _mask({_position(self._pos, e) for e in subset})
        return max((b & mask).bit_count() for b in self.bases)

    def is_independent(self, reps) -> bool:
        """True iff some basis holds all of reps, distinct ground labels:
        iff the bitsets of the bases through each of them meet."""
        held = self.support
        for e in reps:
            held &= self._through[self._pos[e]]
        return held != 0

    def _atom_index(self, e) -> int:
        i = _position(self._pos, e)
        if not self.rank:
            raise ValueError(f"{e!r} is a loop, in no atom")
        return self._atom_at[i]

    def rep_of(self, e):
        return self.atom_reps[self._atom_index(e)]

    # ---- minors ---------------------------------------------------------

    def contraction_fingerprint(self, rep) -> tuple:
        """The fingerprint of the contraction by the atom of rep.  A key K
        of it is a basis iff K plus rep is one here, so its support is
        gathered through the slot table that `Chirotope.contract` uses."""
        atom = self._atom_masks[self._atom_index(rep)]
        ground = _labels(self.ground, ~atom)
        support = 0
        for j, slot in enumerate(_minor_slots(len(self.ground), self.rank,
                                              atom, self._pos[rep])):
            support |= (self.support >> (slot >> 1) & 1) << j
        return ground, self.rank - 1, support

    # ---- NBC sets and rewrite circuits (on atoms) -----------------------

    @cached_property
    def _nbc(self) -> tuple:
        """The NBC sets of grades 0..r, ascending tuples of atom
        representatives, each grade lexicographic in ground order.

        An independent K = (k_1 < ... < k_p) is NBC iff for no j does a
        representative f < k_j lie in cl{k_j, ..., k_p} (Bjoerner, "The
        homology and shellability of matroids and geometric lattices",
        1992, 7): a broken circuit C - c in K puts c < min(C - c) = k_j in
        cl(C - c); such an f closes a circuit with minimum f inside
        {f, k_j, ..., k_p}, whose broken part lies in K.  (A dependent set
        holds a circuit, so its broken part.)  So grade p prepends e < min S
        to each NBC (p-1)-set S: with t the bitset of the bases holding S
        and e (as `through`), e + S is NBC iff t != 0 and t meets
        through[f] for every representative f < e.  Taking e ascending,
        each with the previous grade's sets that start after it, keeps
        each grade lexicographic."""
        through = [self._through[(c & -c).bit_length() - 1]
                   for c in self._atom_masks]
        # (index of the first representative, key, bitset of its bases)
        grade = [(len(through), (), self.support)]
        grades = [((),)]
        for _ in range(self.rank):
            grown = []
            first = 0  # grade[first:] are the sets that start after e
            for i, (e, own) in enumerate(zip(self.atom_reps, through)):
                while first < len(grade) and grade[first][0] <= i:
                    first += 1
                below = through[:i]
                for _, rest, held in grade[first:]:
                    t = held & own
                    if t:
                        for other in below:
                            if not t & other:
                                break
                        else:
                            grown.append((i, (e, *rest), t))
            grade = grown
            grades.append(tuple(key for _, key, _ in grade))
        return tuple(grades)

    def _rewrite_circuit(self, key: tuple) -> tuple:
        """The circuit at which straightening rewrites key, an independent,
        ascending, non-NBC tuple of atom representatives: f, the first
        representative below key[j] in cl S for the shortest suffix S =
        key[j:] that has one (its bitset misses S's, `_nbc`'s criterion),
        then each k in S with S - k + f independent.  S is independent and
        S + f is not, so these are the one circuit in S + f: its minimum f
        is not in key (key would be dependent), its broken part lies in S."""
        pos, through, held = self._pos, self._through, self.support
        for j in range(len(key) - 1, -1, -1):
            held &= through[pos[key[j]]]
            for f in self.atom_reps[:self._atom_at[pos[key[j]]]]:
                if not held & through[pos[f]]:  # f in cl S
                    s = key[j:]
                    return (f, *(k for k in s if self.is_independent(
                        (f, *(e for e in s if e != k)))))
        raise ValueError(f"{key} is NBC")

    def nbc_sets(self, k: int) -> tuple:
        """All NBC k-subsets of atoms (`_nbc`), lexicographic in ground
        order."""
        if not 0 <= k:
            raise ValueError("grade must be nonnegative")
        return self._nbc[k] if k <= self.rank else ()

    # ---- Tutte polynomial and beta invariant ---------------------------

    def tutte(self) -> dict:
        """Tutte polynomial as {(i, j): coefficient of x^i y^j}, computed
        once per matroid."""
        return self._tutte

    @cached_property
    def _tutte(self) -> dict:
        """The sum over bases B of x^(internal activity) y^(external
        activity) (Crapo 1969), in ground order.  Each exchange B - b + e
        that is a basis puts e in the fundamental cocircuit of b and b in
        the fundamental circuit of e, so the later of b and e is not the
        least of its (co)circuit: it is inactive."""
        bases = set(self.bases)
        full = (1 << len(self.ground)) - 1
        poly: dict = {}
        for basis in self.bases:
            inactive = 0
            for b in _bits(basis):
                for e in _bits(full & ~basis):
                    if basis ^ b | e in bases:  # B - b + e
                        inactive |= max(b, e)
            key = ((basis & ~inactive).bit_count(),
                   (full & ~basis & ~inactive).bit_count())
            poly[key] = poly.get(key, 0) + 1
        return poly

    def beta(self) -> int:
        return self.tutte().get((1, 0), 0)


def tutte_eval(poly: dict, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in poly.items())
