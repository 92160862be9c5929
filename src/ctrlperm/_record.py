"""Immutable value records with ``__slots__``.

Every immutable value type of the library derives from :class:`Record`
instead of being a frozen dataclass or writing its own equality and
hashing.  Importing :mod:`dataclasses` pulls in
:mod:`inspect` and :mod:`ast`, and every decoration compiles its methods
with ``exec``; together that was about a third of ``import ctrlperm.cli``.

A subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__`` that validates its arguments and stores each
field with :func:`setfield`.  The base derives from the slot names:

* immutability: assignment and deletion raise :class:`AttributeError`;
* equality with instances of the same class only, and a hash consistent
  with it;
* the repr ``Name(field=value, ...)``, unless the subclass writes its own;
* pickling and copying, which call the class again with the field values;
* ``__match_args__``, the fields in constructor order.

A subclass may set ``_compared`` to the fields that equality, hashing and
the repr read; by default they read every field.  One that keeps a field
in a private slot behind a property sets ``__match_args__`` to its public
field names.  A subclass of a record that declares no fields of its own
keeps its parent's.

``cls._trusted(*values)`` is the one unchecked constructor: it stores the
values in slot order with :func:`setfield` and checks nothing.  A caller
passes the values the checked ``__init__`` would have stored, one per
slot, private slots included.
"""

from operator import attrgetter

# stores a field past the raising __setattr__; a global, so an __init__
# pays one lookup per field, as a frozen dataclass's generated one does
setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__")
        if fields:
            cls._slots = fields
            cls.__match_args__ = cls.__dict__.get("__match_args__", fields)
            cls._compared = cls.__dict__.get("_compared", fields)
            # a plain class attribute, not a method: called as self._key(self)
            cls._key = attrgetter(*cls._compared)

    @classmethod
    def _trusted(cls, *values):
        record = cls.__new__(cls)
        for name, value in zip(cls._slots, values):
            setfield(record, name, value)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # the default reduction restores slots with setattr, which raises here
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])
