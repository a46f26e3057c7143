"""Exact balancing-number sequences, identity suites, and bounded power searches."""

__version__ = "0.1.0"


class Value:
    """Base of the library's value classes: ==, hash and repr read __slots__ in order.

    A subclass lists its fields in __slots__ and sets them in its own
    __init__.  This stands in for dataclasses, whose import and per-class
    code generation every CLI call would pay for (see ballab.cli).  Instances
    are treated as immutable, since their hash reads their fields.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
