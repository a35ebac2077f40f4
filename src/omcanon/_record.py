"""Value semantics for the library's record classes, written out rather than
generated by `dataclasses`, whose import alone brings `inspect`, `ast`,
`dis` and `tokenize` into every process that imports omcanon.

A subclass names its fields in `_fields`, in constructor order, and sets
them in its own `__init__`.  Two records are equal iff they are of the same
class and their fields are equal, in order; a record prints as
`Name(field=value, ...)` with each value's repr.  A `Record` is mutable and
unhashable.  A `FrozenRecord` hashes by the tuple of its fields and refuses
assignment and deletion with AttributeError, so its `__init__` (and any
`cached_property`) writes to `self.__dict__`.  Copies and pickles carry the
instance dict, as they would for any plain class."""


class Record:
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
