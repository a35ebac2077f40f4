"""Chirotopes: alternating sign functions on ordered r-tuples of a ground set.

Values are stored on ascending r-subsets only (ascending in ground order);
arbitrary ordered tuples are resolved by permutation parity, tuples with
repeats evaluate to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

from .signvec import SignVector, ground_positions


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


@lru_cache(maxsize=None)
def _key_index(ground: tuple, rank: int) -> dict:
    return {key: i for i, key in enumerate(combinations(ground, rank))}


@dataclass(frozen=True)
class Chirotope:
    ground: tuple
    rank: int
    signs: tuple  # aligned with combinations(ground, rank)

    def __post_init__(self):
        if len(self.signs) != comb(len(self.ground), self.rank):
            raise ValueError("chirotope sign table has wrong length")

    @classmethod
    def from_map(cls, ground: tuple, rank: int, values: dict) -> "Chirotope":
        """Build from {ascending tuple: sign}; missing keys default to 0."""
        signs = tuple(int(values.get(key, 0)) for key in combinations(ground, rank))
        return cls(tuple(ground), rank, signs)

    @property
    def keys(self) -> tuple:
        return tuple(combinations(self.ground, self.rank))

    @cached_property
    def _index(self) -> dict:
        return _key_index(self.ground, self.rank)

    def value(self, seq) -> int:
        """Value on an arbitrary ordered tuple (repeats give 0)."""
        seq = tuple(seq)
        try:
            i = self._index.get(seq)
        except TypeError:  # unhashable labels: the general path reports them
            i = None
        if i is not None:  # ascending: no sort, no parity
            return self.signs[i]
        if len(seq) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(seq)}")
        pos = ground_positions(self.ground)
        try:
            positions = [pos[e] for e in seq]
        except KeyError as exc:
            raise ValueError(f"unknown element label {exc.args[0]!r}") from None
        if len(set(positions)) != len(positions):
            return 0
        order = sorted(range(len(seq)), key=lambda i: positions[i])
        key = tuple(seq[i] for i in order)
        sign = perm_parity_sign(positions)
        return sign * self.signs[self._index[key]]

    @property
    def nonzero_keys(self) -> tuple:
        return tuple(k for k, s in zip(self.keys, self.signs) if s != 0)

    def scale(self, sign: int) -> "Chirotope":
        if sign == 1:
            return self
        return Chirotope(self.ground, self.rank, tuple(-s for s in self.signs))

    def reorient(self, tope: SignVector) -> "Chirotope":
        """Reorientation: value on B multiplied by (-1)^{|B n P^-|}."""
        if tope.ground != self.ground or not tope.has_full_support:
            raise ValueError("reorientation requires a full-support sign vector")
        neg = tope.negative_part
        signs = tuple(
            s * (-1 if len(set(key) & neg) % 2 else 1)
            for key, s in zip(self.keys, self.signs))
        return Chirotope(self.ground, self.rank, signs)

    def contract(self, element, drop=()) -> "Chirotope":
        """Contraction by one element, contracted element evaluated LAST.

        drop lists further elements removed from the ground set (loops of
        the contraction, i.e. the rest of the contracted parallel class).
        """
        if element not in self.ground:
            raise ValueError(f"unknown element label {element!r}")
        removed = {element, *drop}
        new_ground = tuple(e for e in self.ground if e not in removed)
        new_rank = self.rank - 1
        values = {}
        # The index holds the ascending keys in table order.  Moving the
        # element from position i to the end takes new_rank - i swaps.
        for key, s in zip(self._index, self.signs):
            if s and element in key:
                i = key.index(element)
                rest = key[:i] + key[i + 1:]
                if removed.isdisjoint(rest):
                    values[rest] = -s if (new_rank - i) % 2 else s
        return Chirotope.from_map(new_ground, new_rank, values)

    def delete(self, element) -> "Chirotope":
        """Restriction to the complement of one element; rank must not drop."""
        if not any(element not in key for key in self.nonzero_keys):
            raise ValueError(f"rank would drop: {element!r} is a coloop")
        new_ground = tuple(e for e in self.ground if e != element)
        values = {key: self.value(key) for key in combinations(new_ground, self.rank)}
        return Chirotope.from_map(new_ground, self.rank, values)


def validate_chirotope(chi: Chirotope) -> None:
    """Chirotope axioms, exhaustively; raises InvalidChirotope on failure.

    Checks: not identically zero, no loops, basis exchange on the nonzero
    supports, and all three-term Grassmann-Pluecker sign relations.
    """
    if chi.rank == 0:
        if chi.signs[0] == 0:
            raise InvalidChirotope("identically zero")
        return
    keys = chi.nonzero_keys
    nonzero = [set(k) for k in keys]
    if not nonzero:
        raise InvalidChirotope("identically zero")
    for e in chi.ground:
        if not any(e in b for b in nonzero):
            raise InvalidChirotope(f"loop: {e}")
    pos = ground_positions(chi.ground)
    # Differences are walked in ground order (keys are ascending), so the
    # diagnostic does not depend on the hash seed.
    for k1, b1 in zip(keys, nonzero):
        for k2, b2 in zip(keys, nonzero):
            for x in (e for e in k1 if e not in b2):
                if not any(chi.value(tuple(sorted((b1 - {x}) | {y},
                                                  key=pos.get))) != 0
                           for y in k2 if y not in b1):
                    raise InvalidChirotope(
                        f"basis exchange fails for {tuple(sorted(b1))} / "
                        f"{tuple(sorted(b2))} at {x}")
    if chi.rank >= 2:
        _check_three_term(chi)


def _check_three_term(chi: Chirotope) -> None:
    ground = chi.ground
    r = chi.rank
    for stem in combinations(ground, r - 2):
        rest = [e for e in ground if e not in stem]
        for a, b, c, d in combinations(rest, 4):
            p1 = chi.value(stem + (a, b)) * chi.value(stem + (c, d))
            p2 = chi.value(stem + (a, c)) * chi.value(stem + (b, d))
            p3 = chi.value(stem + (a, d)) * chi.value(stem + (b, c))
            # realizable model: p1 - p2 + p3 = 0
            terms = [p1, -p2, p3]
            if any(terms) and not (min(terms) < 0 < max(terms)):
                raise InvalidChirotope(
                    f"three-term relation fails on stem {stem}, "
                    f"quadruple {(a, b, c, d)}")


def chirotope_diagnostic(chi: Chirotope) -> str | None:
    """None if valid, else the first violation message."""
    try:
        validate_chirotope(chi)
    except InvalidChirotope as exc:
        return exc.diagnostic
    return None
