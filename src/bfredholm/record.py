"""Immutable records: the base class of the AST nodes and of the value
types (sequences, blocks, operators, reports).

A record names its fields in ``__slots__`` and sets each one once, in its
own ``__init__``, with ``_set``.  It equals only a record of its own type
with equal fields, its repr is ``Name(field=value, ...)``, it pickles and
copies through its constructor, and assignment raises AttributeError.  No
class code is generated, so defining a record costs what a class costs.
"""

_set = object.__setattr__


class Record:
    """An immutable record; its fields are its __slots__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
