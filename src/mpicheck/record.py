"""Record classes without generated code.

A record lists its fields in ``_fields`` and sets them in its own
``__init__``.  The base gives it the repr, equality and hashing that the
standard library's data classes generate, without importing that module
(and ``inspect``) or compiling methods per class when the package loads.
Equality holds only between records of one class.
"""


class Record:
    """A mutable record; unhashable, as it compares by value."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class Frozen(Record):
    """An immutable record, hashed as the tuple of its fields.  Its
    ``__init__`` writes the fields into ``__dict__``, as a
    ``cached_property`` does."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
