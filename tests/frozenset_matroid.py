"""Reference matroid stored as a set of label bases.

This is the library's earlier `UnderlyingMatroid`: bases as a frozenset of
label frozensets, ranks as max |B n S| over them, a rank-0 subclass, and a
contraction walk that removes the atom from every basis meeting it.  It is
kept as the oracle that the support-mask `UnderlyingMatroid` in
`omcanon.matroid` is compared against.
"""

from __future__ import annotations

from itertools import combinations

from omcanon.signvec import ground_positions


def support_bases(ground, rank, support) -> frozenset:
    """The bases of a (ground, rank, support) fingerprint, as label sets."""
    return frozenset(frozenset(key) for i, key
                     in enumerate(combinations(ground, rank))
                     if support >> i & 1)


def basis_fingerprint(ground, bases) -> tuple:
    """The key identifying a matroid: its ground tuple and set of bases."""
    return (tuple(ground), frozenset(frozenset(b) for b in bases))


class UnderlyingMatroid:
    def __init__(self, ground: tuple, bases: frozenset):
        self.ground = tuple(ground)
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        self.rank = len(next(iter(self.bases)))
        self._rank_cache: dict = {}
        for e in self.ground:
            if self.rank_of([e]) != 1:
                raise ValueError(f"loop: {e}")
        self._pos = ground_positions(self.ground)
        self.atoms = self._parallel_classes()
        self.atom_reps = tuple(min(a, key=self._pos.get) for a in self.atoms)
        self._atom_of = {e: rep for a, rep in zip(self.atoms, self.atom_reps)
                         for e in a}

    @classmethod
    def from_chirotope(cls, chi) -> "UnderlyingMatroid":
        if chi.rank == 0:
            return _RankZeroMatroid(chi.ground)
        return cls(chi.ground, frozenset(frozenset(k) for k in chi.nonzero_keys))

    @classmethod
    def from_fingerprint(cls, ground: tuple, rank: int,
                         support: int) -> "UnderlyingMatroid":
        """The oracle of a library matroid's (ground, rank, support)."""
        if rank == 0:
            return _RankZeroMatroid(ground)
        return cls(ground, support_bases(ground, rank, support))

    @property
    def fingerprint(self) -> tuple:
        return basis_fingerprint(self.ground, self.bases)

    # ---- rank oracle and derived notions -------------------------------

    def rank_of(self, subset) -> int:
        key = frozenset(subset)
        cached = self._rank_cache.get(key)
        if cached is None:
            cached = max((len(b & key) for b in self.bases), default=0)
            self._rank_cache[key] = cached
        return cached

    def is_independent(self, subset) -> bool:
        subset = frozenset(subset)
        return self.rank_of(subset) == len(subset)

    def closure(self, subset) -> frozenset:
        subset = frozenset(subset)
        r = self.rank_of(subset)
        return frozenset(e for e in self.ground
                         if self.rank_of(subset | {e}) == r)

    def hyperplanes(self) -> frozenset:
        """The corank-1 flats."""
        if self.rank == 0:
            return frozenset()
        out = set()
        for key in combinations(self.ground, self.rank - 1):
            if self.is_independent(key):
                out.add(self.closure(key))
        return frozenset(out)

    def _parallel_classes(self) -> tuple:
        classes: list[set] = []
        for e in self.ground:
            for cls_ in classes:
                if self.rank_of({e, next(iter(cls_))}) == 1:
                    cls_.add(e)
                    break
            else:
                classes.append({e})
        return tuple(frozenset(c) for c in classes)

    def atom_of(self, e) -> frozenset:
        rep = self._atom_of[e]
        return next(a for a in self.atoms if rep in a)

    def rep_of(self, e):
        return self._atom_of[e]

    # ---- minors ---------------------------------------------------------

    def contraction_fingerprint(self, rep) -> tuple:
        """The fingerprint of the contraction by the atom of rep."""
        atom = self.atom_of(rep)
        ground = tuple(e for e in self.ground if e not in atom)
        return basis_fingerprint(ground, (b - atom for b in self.bases
                                          if b & atom))

    # ---- broken circuits and NBC sets (on atoms) ------------------------

    def atom_rank(self, reps) -> int:
        return self.rank_of(frozenset(reps))

    def atom_circuits(self) -> tuple:
        """Minimal dependent sets of atom representatives, ascending tuples."""
        cached = getattr(self, "_atom_circuits", None)
        if cached is not None:
            return cached
        circuits: list[tuple] = []
        found: list[frozenset] = []
        for size in range(2, self.rank + 2):
            for key in combinations(self.atom_reps, size):
                s = frozenset(key)
                if any(c <= s for c in found):
                    continue
                if self.atom_rank(s) < size:
                    circuits.append(key)
                    found.append(s)
        self._atom_circuits = tuple(circuits)
        return self._atom_circuits

    def broken_circuits(self) -> tuple:
        """Pairs (broken circuit as frozenset, full circuit ascending tuple)."""
        cached = getattr(self, "_broken", None)
        if cached is not None:
            return cached
        out = tuple((frozenset(c[1:]), c) for c in self.atom_circuits())
        self._broken = out
        return out

    def is_nbc(self, reps: tuple) -> bool:
        s = frozenset(reps)
        if self.atom_rank(s) < len(s):
            return False
        return not any(b <= s for b, _ in self.broken_circuits())

    def nbc_sets(self, k: int) -> tuple:
        """All NBC k-subsets of atoms, lexicographic in ground order."""
        if not 0 <= k:
            raise ValueError("grade must be nonnegative")
        if k > self.rank:
            return ()
        return tuple(key for key in combinations(self.atom_reps, k)
                     if self.is_nbc(key))

    # ---- Tutte polynomial -----------------------------------------------

    def tutte(self) -> dict:
        """Tutte polynomial as {(i, j): coefficient of x^i y^j}."""
        cached = getattr(self, "_tutte", None)
        if cached is not None:
            return cached
        memo: dict = {}

        def minor_rank(contracted: frozenset, s) -> int:
            return self.rank_of(set(s) | contracted) - self.rank_of(contracted)

        def rec(rem: tuple, contracted: frozenset) -> dict:
            key = (frozenset(rem), contracted)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if not rem:
                res = {(0, 0): 1}
            else:
                e, rest = rem[0], rem[1:]
                if minor_rank(contracted, [e]) == 0:
                    res = _poly_shift(rec(rest, contracted), 0, 1)  # loop: y*
                elif minor_rank(contracted, rem) - minor_rank(contracted, rest) == 1:
                    res = _poly_shift(rec(rest, contracted | {e}), 1, 0)  # coloop: x*
                else:
                    res = _poly_add(rec(rest, contracted),
                                    rec(rest, contracted | {e}))
            memo[key] = res
            return res

        self._tutte = rec(self.ground, frozenset())
        return self._tutte


class _RankZeroMatroid(UnderlyingMatroid):
    def __init__(self, ground: tuple):
        self.ground = tuple(ground)
        self.bases = frozenset([frozenset()])
        self.rank = 0
        self._rank_cache = {}
        self._pos = {}
        self.atoms = ()
        self.atom_reps = ()
        self._atom_of = {}

    def rank_of(self, subset) -> int:
        return 0


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _poly_shift(p: dict, dx: int, dy: int) -> dict:
    return {(i + dx, j + dy): c for (i, j), c in p.items()}

