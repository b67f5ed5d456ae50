"""Field-based equality, hashing and repr for the package's plain classes.

A subclass names its fields in ``_fields`` and keeps each as an instance
attribute.  Two instances of one class are equal when their fields are,
and the repr reads ``Name(field=value, ...)``.  A ``FrozenRecord`` also
hashes by its fields and refuses assignment, so its ``__init__`` fills
``self.__dict__`` directly.  Records that need neither a mutable default
nor a ``count`` field are ``typing.NamedTuple`` classes instead.

The standard library's record decorator is not used: importing it loads
``inspect``, and each decorated class ``exec``s its generated methods, about
25 ms of every CLI call together.
"""


class Record:
    """Equal by ``_fields`` within one class; unhashable, since its fields may change."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A ``Record`` whose fields never change: hashable, and assignment raises."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
