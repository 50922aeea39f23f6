"""``record``: a dataclass whose ``==``, hash and ``repr`` are shared by every
class declared with it.

``dataclasses.dataclass`` compiles a new ``__eq__``, ``__repr__`` and, for a
frozen class, ``__hash__`` for each class it decorates, and at import that is
most of what the package's model types cost. ``record`` has it compile only
``__init__`` (plus a frozen class's ``__setattr__`` and ``__delattr__``) and
installs one function of each other kind. These read the class's field names,
found once when it is decorated, and give what the generated methods give:
``==`` compares the ``compare`` fields as tuples, and only with an instance of
the very same class; a frozen class hashes the tuple of its ``hash`` fields
(its ``compare`` ones where ``hash`` is None); any other class is unhashable;
``repr`` is ``Qualname(field=value!r, ...)`` over the ``repr`` fields and reads
``...`` where it recurs into itself. A method the class defines itself is
kept, as ``dataclass`` keeps it. ``dataclasses.fields``, ``replace`` and
``asdict`` work as on any dataclass; ``__dataclass_params__`` reads
``eq=False, repr=False``.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from threading import get_ident


def _getter(names: list[str]):
    """A function from an instance to the tuple of its ``names`` attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self.__class__._record_compare
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__._record_hash(self))


_repr_running: set[tuple[int, int]] = set()


def _repr(self):
    key = id(self), get_ident()
    if key in _repr_running:
        return "..."
    _repr_running.add(key)
    try:
        cells = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__class__._record_repr)
    finally:
        _repr_running.discard(key)
    return f"{self.__class__.__qualname__}({cells})"


def record(cls=None, /, *, frozen: bool = False, init: bool = True):
    """``dataclass(cls, frozen=frozen, init=init)`` with the shared ``__eq__``,
    ``__hash__`` and ``__repr__``; use as ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, init=init)
    own = cls.__dict__
    # as in ``dataclass``: a __hash__ of None next to an own __eq__ is Python's
    own_hash = own.get("__hash__") is not None or "__hash__" in own and "__eq__" not in own
    cls = dataclasses.dataclass(cls, eq=False, repr=False, frozen=frozen, init=init)
    fields = dataclasses.fields(cls)
    cls._record_repr = tuple(f.name for f in fields if f.repr)
    cls._record_compare = _getter([f.name for f in fields if f.compare])
    cls._record_hash = _getter([f.name for f in fields
                                if (f.compare if f.hash is None else f.hash)])
    for name, method in (("__repr__", _repr), ("__eq__", _eq)):
        if name not in own:
            setattr(cls, name, method)
    if not own_hash:
        cls.__hash__ = _hash if frozen else None
    return cls
