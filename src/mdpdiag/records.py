"""Value classes: a class decorator that gives a class with annotated fields
an __init__, repr, equality and, when frozen, a hash, and a function that
copies such a record with some fields changed.

The package builds its value classes with record rather than
dataclasses.dataclass: importing dataclasses also imports inspect, and
building the methods of a dataclass runs several exec calls and, for a
class without a docstring, inspect.signature. Every query is a fresh
process, so that cost was paid at every start-up. record compiles one
piece of source per class and reads only the class's own annotations.
"""

from __future__ import annotations


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


def record(cls=None, *, frozen=False):
    """Make cls a value class over the fields annotated in its body.

    The fields are the names in cls's own __annotations__, in order, and
    __match_args__ holds them. A field assigned in the body has that value
    as its default; a list default is copied for each instance. __init__
    takes the fields as parameters, sets them and then calls __post_init__
    if cls has one. Two records are equal when they are of the same class
    and the tuples of their fields are equal; a record shows as
    Name(field=value!r, ...). A frozen record hashes as the tuple of its
    fields and raises FrozenRecordError on assignment or deletion; a record
    that is not frozen is unhashable. All of this is what
    dataclass(frozen=frozen) gives the same class, less the docstring it
    makes up for a class without one.
    """
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def replace(obj, /, **changes):
    """A new record of obj's class with the fields named in changes set to
    their values and the others taken from obj. __init__ runs again, so
    __post_init__ checks the result; an unknown field raises TypeError."""
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)


def _build(cls, frozen):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        value = name
        if name in cls.__dict__:
            default = namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
            if isinstance(default, list):
                delattr(cls, name)
                value = f"{name}[:] if {name} is _default_{name} else {name}"
        else:
            params.append(name)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")

    def fields(obj):
        return "(" + "".join(f"{obj}.{name}," for name in names) + ")"

    source = [f"def __init__({', '.join(params)}):",
              *(f"    {line}" for line in body or ["pass"]),
              "def __eq__(self, other):",
              "    if other.__class__ is self.__class__:",
              f"        return {fields('self')} == {fields('other')}",
              "    return NotImplemented"]
    if frozen:
        source += ["def __hash__(self):", f"    return hash({fields('self')})"]
    exec("\n".join(source), namespace)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__ = namespace["__init__"]
    cls.__repr__ = __repr__
    cls.__eq__ = namespace["__eq__"]
    cls.__match_args__ = names
    if frozen:
        cls.__hash__ = namespace["__hash__"]
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
    else:
        cls.__hash__ = None
    return cls


def _refuse_assignment(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")
