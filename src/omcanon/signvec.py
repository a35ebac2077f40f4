"""Sign vectors over an ordered ground set.

Signs are the integers -1, 0, +1.  Element order is always the order of the
owning ground tuple, never the natural order of the labels.  A sign vector
stores two bitmasks over that order: bit i of `plus` (of `minus`) is set iff
the i-th ground element has sign +1 (-1).  Negation and the zero set are
then a few bitwise operations.
"""

from __future__ import annotations

from ._memo import memo


@memo
def ground_positions(ground: tuple) -> dict:
    return {e: i for i, e in enumerate(ground)}


def _position(pos: dict, e) -> int:
    """The place of label e in a `ground_positions` dict: the one lookup
    of a label, and the one error for an unknown one."""
    i = pos.get(e)
    if i is None:
        raise ValueError(f"unknown element label {e!r}")
    return i


def _labels(ground: tuple, mask: int) -> tuple:
    """The labels at the set bits of mask, in ground order."""
    return tuple(e for i, e in enumerate(ground) if mask >> i & 1)


class SignVector:
    """An immutable sign vector; equal iff ground and signs are equal."""

    __slots__ = ("ground", "plus", "minus")

    def __init__(self, ground: tuple, signs):
        signs = tuple(signs)
        if len(ground) != len(signs):
            raise ValueError("sign vector length mismatch")
        plus = minus = 0
        for i, s in enumerate(signs):
            if type(s) is not int or s not in (-1, 0, 1):
                raise ValueError(f"sign {s!r} is not -1, 0 or 1")
            plus |= (s > 0) << i
            minus |= (s < 0) << i
        _set_masks(self, ground, plus, minus)

    @classmethod
    def _from_masks(cls, ground: tuple, plus: int, minus: int) -> "SignVector":
        """The sign vector with these disjoint masks over ground (unchecked)."""
        x = object.__new__(cls)
        _set_masks(x, ground, plus, minus)
        return x

    @classmethod
    def from_map(cls, ground: tuple, values: dict) -> "SignVector":
        return cls(ground, tuple(values.get(e, 0) for e in ground))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Pickle and copy through the constructor: restoring the slots
        one by one would go through the refusing __setattr__."""
        return SignVector, (self.ground, self.signs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.plus == other.plus and self.minus == other.minus
                and self.ground == other.ground)

    def __hash__(self) -> int:
        return hash((self.plus, self.minus, self.ground))

    def __repr__(self) -> str:
        return f"SignVector(ground={self.ground!r}, signs={self.signs!r})"

    @property
    def signs(self) -> tuple:
        p, m = self.plus, self.minus
        return tuple((p >> i & 1) - (m >> i & 1) for i in range(len(self.ground)))

    def value(self, e) -> int:
        i = _position(ground_positions(self.ground), e)
        return (self.plus >> i & 1) - (self.minus >> i & 1)

    def __neg__(self) -> "SignVector":
        return SignVector._from_masks(self.ground, self.minus, self.plus)

    @property
    def zero_set(self) -> frozenset:
        return frozenset(_labels(self.ground, ~(self.plus | self.minus)))

    @property
    def has_full_support(self) -> bool:
        return (self.plus | self.minus) == (1 << len(self.ground)) - 1

    def sort_key(self) -> tuple:
        """Deterministic order: + before 0 before - per coordinate."""
        return tuple(1 - s for s in self.signs)

    def __str__(self) -> str:
        return "(" + ",".join("0+-"[s] for s in self.signs) + ")"


def _set_masks(x: SignVector, ground: tuple, plus: int, minus: int) -> None:
    object.__setattr__(x, "ground", ground)
    object.__setattr__(x, "plus", plus)
    object.__setattr__(x, "minus", minus)
