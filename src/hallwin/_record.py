"""Immutable value records, the base of the library's small value classes.

A record class names its fields once, in order, in `__slots__`.  Records
compare equal when their classes match and their field values are equal,
hash as the tuple of their field values, print as `Name(field=value, ...)`,
and copy and pickle through their constructor; assignment from outside
raises AttributeError.  `_values`, the tuple of field values in slot order,
is built from `__slots__` for each class.

A class that checks its input (Quiver, Weight, Truncation, KernelParams)
writes its own `__init__` and sets each field with `_set` after the checks.
A class that defines no `__init__` (Node, StandardForm, SlopeTree,
EnumResult, BijectionReport) gets one generated from `__slots__`, as `dataclasses` generates it (a module the
library does not import, to keep the CLI's start fast): a real signature
with the fields as positional-or-keyword parameters in slot order, and one
`_set` per field, the code a handwritten one would run.  A generic
`__init__(self, *args, **kwargs)` would match its arguments to the slots
on every call, and records are built on the library's hot paths.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__slots__
        get = attrgetter(*fields)
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))
        if "__init__" not in cls.__dict__:
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
            namespace = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}",
                 {"_set": _set, "__name__": cls.__module__}, namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = zip(self.__slots__, self._values)
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
