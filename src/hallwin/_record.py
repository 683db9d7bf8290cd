"""Immutable value records, the base of the library's small value classes.

A record class lists its fields in `__slots__`, returns their values in
that order from `_values`, and sets them in its own `__init__`, after
whatever checks it makes, with `_set` (assignment from outside raises
AttributeError).  Records compare equal when their classes match and their
field values are equal, hash as the tuple of their field values, print as
`Name(field=value, ...)`, and copy and pickle through their constructor.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
