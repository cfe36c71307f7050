"""Slots bases of the value types, in place of dataclasses: importing that (with
inspect, ast, dis and tokenize) took 12 ms of the 25 ms `import qhowe` (CPython 3.11)."""


class Record:
    """Mutable and unhashable; a subclass lists its fields in __slots__, in
    constructor order, and equality and repr are the dataclass ones over them."""

    __slots__ = ()
    __hash__ = None

    @property
    def _key(self) -> tuple:
        return (type(self), *map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, Record) else NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key[1:]))
        return f"{type(self).__qualname__}({body})"


class Frozen(Record):
    """Immutable and hashable.  __init__ validates the fields and hands them to
    _store, which also keeps the key (type, *fields): values of different
    types, tuples included, never compare equal (the _cached keys mix
    Module, SlotModule and HoweSpace)."""

    __slots__ = ("_key",)

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", (type(self), *values))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key[1:]

    def __hash__(self) -> int:
        return hash(self._key)
