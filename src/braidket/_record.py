"""The shared base of the package's small value classes.

A subclass lists its fields, one or more, in ``__slots__`` and sets them in
its own ``__init__`` through ``set_field``.  The base gives it
what ``@dataclass(frozen=True)`` would: equality between instances of the
same class, field by field; the hash of the field tuple; the repr
``Name(field=value, ...)``; and no assignment or deletion after
``__init__``.  The dataclasses module costs more to import than the whole
exact engine takes on a small input, so the package does without it.

A subclass may also name, in ``_derived``, slots that its ``__init__``
computes from the fields: equality, hashing, the repr, ``__match_args__``
and pickling skip them, as they skip a dataclass field declared with
``init=False, repr=False, compare=False``.  And it may name, in
``_arrays``, fields that hold arrays, which equality compares by value
(their ``tolist()``) where ``==`` on two arrays would give an array.
"""

from operator import attrgetter

#: Sets a field past the frozen ``__setattr__``.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _derived: tuple[str, ...] = ()
    _arrays: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # A further subclass compares, hashes and prints these same fields,
        # as a plain subclass of a dataclass does.
        if Record in cls.__bases__:
            fields = tuple(name for name in cls.__slots__ if name not in cls._derived)
            cls.__match_args__ = fields
            get = attrgetter(*fields)
            # attrgetter of one name returns the bare value, not a 1-tuple.
            values = get if len(fields) > 1 else lambda self: (get(self),)
            arrays = {fields.index(name) for name in cls._arrays}

            def compared(self):
                return [v.tolist() if k in arrays else v for k, v in enumerate(values(self))]

            cls._values = staticmethod(values)
            cls._compared = staticmethod(compared if arrays else values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared(self) == self._compared(other)

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
