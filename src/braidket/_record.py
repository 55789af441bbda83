"""The shared base of the package's small value classes.

A subclass lists its fields, one or more, in ``__slots__`` and sets them in
its own ``__init__`` through ``set_field``.  The base gives it
what ``@dataclass(frozen=True)`` would: equality between instances of the
same class, field by field; the hash of the field tuple; the repr
``Name(field=value, ...)``; and no assignment or deletion after
``__init__``.  The dataclasses module costs more to import than the whole
exact engine takes on a small input, so the package does without it.
"""

from operator import attrgetter

#: Sets a field past the frozen ``__setattr__``.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # A further subclass compares, hashes and prints these same fields,
        # as a plain subclass of a dataclass does.
        if Record in cls.__bases__:
            cls.__match_args__ = cls.__slots__
            # attrgetter of one name returns the bare value, not a 1-tuple.
            get = attrgetter(*cls.__slots__)
            cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = zip(self.__match_args__, self._values(self))
        fields = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
