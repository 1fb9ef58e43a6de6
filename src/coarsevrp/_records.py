"""Record base classes, which import no `dataclasses`. A record's `__slots__`
is its field list, in constructor order. Its __init__ sets the fields with
`_fill` or, in a record built in bulk, one by one with `_set`, which is faster."""

_set = object.__setattr__


def _fill(record, values: tuple):
    for name, value in zip(record.__slots__, values):
        _set(record, name, value)


class Record:
    """A dataclass's repr, without the fields named in `_hidden`, equality with
    a record of the same class, field by field, and pickling; unhashable."""
    __slots__ = ()
    _hidden = ()
    __setstate__ = _fill

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if name not in self._hidden)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented


class Frozen(Record):
    """A Record that hashes and refuses to assign or delete a field."""
    __slots__ = ()

    def __hash__(self):
        return hash(self.__getstate__())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
