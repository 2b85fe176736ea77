"""Plain record classes: the base of the package's small value types.

A record names its fields in `__slots__`, in order, and writes its own
`__init__` taking them in that order.  `Record` gives equality with a
record of the same class, field by field, a `Name(field=value, ...)` repr
and copying and pickling by the constructor; it is unhashable.  A `Frozen`
record refuses assignment and deletion once built, so its `__init__` stores
each field with `setfield`, and it hashes as the tuple of its fields.

Only `GraphPoint` keeps an `__eq__` and `__hash__` of its own, written out
on its three fields.  Points key the Green and resistance tables: at seed 1
a benchmark item hashes 11 to 168 of them (einv-chords 14.2, fiber-chains
168.0, point-queries 11.4, batch-small 145.5), where it hashes or compares
no edge, component, node or node type.  The generic hash of a vertex point
takes 0.51 µs against 0.22 µs for the written-out one (`timeit`, best of 7,
CPython 3.11 on an Intel Xeon), some 48 µs per fiber-chains item.

No method is generated or compiled when a record class is made, so
importing `mg` needs no class generator from the standard library, nor the
`inspect` and `ast` modules such a generator imports.
"""

setfield = object.__setattr__


def _values(record) -> tuple:
    return tuple([getattr(record, name) for name in record.__slots__])


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, _values(self)


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(_values(self))
