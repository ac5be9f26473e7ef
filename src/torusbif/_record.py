"""The one base of torusbif's immutable records.

A record names its fields in ``_fields``, in declaration order, and keeps
them, with anything it derives from them, in ``__slots__``.  The base
``__init__`` stores the fields, given by position or by name, and raises
``TypeError`` when one is missing, unknown or given twice.  A record that
validates or derives writes each slot once through ``_set`` in its own
``__init__`` instead; after construction, assigning or deleting any
attribute raises ``AttributeError``.
Equality and hashing compare the tuple of fields, ``repr`` is
``Name(field=value!r, ...)``, and pickle, ``copy`` and ``deepcopy`` rebuild
a record through its constructor from its fields, so derived slots are
recomputed.  ``__replace__`` (what ``copy.replace`` calls from Python 3.13)
rebuilds one through its constructor too, with the named fields changed.
A record may define its own ``__eq__`` and ``__hash__``.
"""

# Writes a slot past the frozen __setattr__; only a record's own
# construction calls it.
_set = object.__setattr__


class Record:
    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{self.__class__.__qualname__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{self.__class__.__qualname__} got field {name!r} twice")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{self.__class__.__qualname__} is missing field {name!r}")
            _set(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __replace__(self, **changes):
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{self.__class__.__qualname__} has no field {min(unknown)!r}")
        return self.__class__(*[changes.get(name, getattr(self, name)) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
