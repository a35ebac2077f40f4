"""Reference sign vectors stored as sign tuples.

This is the library's earlier tuple-based `SignVector` (and the covector
closure over it), kept as the oracle that the bitmask `SignVector` in
`omcanon.signvec` and the mask-pair closure in `omcanon.om` are compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def ground_positions(ground: tuple) -> dict:
    return {e: i for i, e in enumerate(ground)}


@dataclass(frozen=True)
class SignVector:
    ground: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.ground) != len(self.signs):
            raise ValueError("sign vector length mismatch")
        for s in self.signs:
            if type(s) is not int or s not in (-1, 0, 1):
                raise ValueError(f"sign {s!r} is not -1, 0 or 1")

    @classmethod
    def from_map(cls, ground: tuple, values: dict) -> "SignVector":
        return cls(ground, tuple(values.get(e, 0) for e in ground))

    def value(self, e) -> int:
        return self.signs[ground_positions(self.ground)[e]]

    def __neg__(self) -> "SignVector":
        return SignVector(self.ground, tuple(-s for s in self.signs))

    @property
    def support(self) -> frozenset:
        return frozenset(e for e, s in zip(self.ground, self.signs) if s != 0)

    @property
    def zero_set(self) -> frozenset:
        return frozenset(e for e, s in zip(self.ground, self.signs) if s == 0)

    @property
    def negative_part(self) -> frozenset:
        return frozenset(e for e, s in zip(self.ground, self.signs) if s < 0)

    @property
    def is_zero(self) -> bool:
        return all(s == 0 for s in self.signs)

    @property
    def has_full_support(self) -> bool:
        return all(s != 0 for s in self.signs)

    @property
    def is_nonnegative(self) -> bool:
        return all(s >= 0 for s in self.signs)

    def compose(self, other: "SignVector") -> "SignVector":
        """(X o Y)(e) = X(e) if nonzero else Y(e)."""
        if other.ground != self.ground:
            raise ValueError("composition needs a common ground set")
        return SignVector(self.ground, tuple(
            a if a != 0 else b for a, b in zip(self.signs, other.signs)))

    def is_orthogonal(self, other: "SignVector") -> bool:
        """Products over the common support are empty or take both signs."""
        pos = neg = False
        for a, b in zip(self.signs, other.signs):
            p = a * b
            if p > 0:
                pos = True
            elif p < 0:
                neg = True
        return pos == neg

    def conforms_to(self, other: "SignVector") -> bool:
        """True iff self(e) in {0, other(e)} for every e."""
        return all(a == 0 or a == b for a, b in zip(self.signs, other.signs))

    def restrict(self, ground: tuple) -> "SignVector":
        """Restriction to a sub-ground-set, keeping its order."""
        pos = ground_positions(self.ground)
        return SignVector(ground, tuple(self.signs[pos[e]] for e in ground))

    def extend(self, ground: tuple, fill: int = 0) -> "SignVector":
        """Extension to a larger ground set, new entries = fill."""
        pos = ground_positions(self.ground)
        return SignVector(ground, tuple(
            self.signs[pos[e]] if e in pos else fill for e in ground))

    def zero_out(self, elements) -> "SignVector":
        elements = set(elements)
        return SignVector(self.ground, tuple(
            0 if e in elements else s for e, s in zip(self.ground, self.signs)))

    def sort_key(self) -> tuple:
        """Deterministic order: + before 0 before - per coordinate."""
        rank = {1: 0, 0: 1, -1: 2}
        return tuple(rank[s] for s in self.signs)

    def __str__(self) -> str:
        chars = {1: "+", 0: "0", -1: "-"}
        return "(" + ",".join(chars[s] for s in self.signs) + ")"


def covector_closure(ground: tuple, cocircuits) -> frozenset:
    """All compositions of cocircuits, plus the zero covector."""
    zero = SignVector(ground, (0,) * len(ground))
    seen = {zero} | set(cocircuits)
    frontier = list(cocircuits)
    while frontier:
        nxt = []
        for x in frontier:
            for y in cocircuits:
                z = x.compose(y)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)
