"""``record``: the package's frozen value classes.

``@record`` takes a class's fields from its own annotations, in order; a
class attribute of a field's name is that field's default.  It adds
``__init__`` (unless the class defines its own), which sets the fields and
then calls ``__post_init__`` when the class has one, ``__repr__``
(``Name(field=value, ...)``), ``__eq__`` (same class and equal field
tuples, else NotImplemented), ``__hash__`` (the hash of the field tuple),
and a ``__setattr__`` and ``__delattr__`` that refuse.  These behave as
the methods of the standard library's frozen data classes, with the same
repr, equality and hash, but no method source is generated and compiled,
and nothing more is imported.  The standard module brings in ``inspect``,
``ast`` and ``dis`` and compiles six methods per class; without it,
importing ``simpson_nd.cli`` and building its parser takes 0.015 s instead
of 0.037 s on a 2-vCPU Xeon (``BENCH_cold_start.json``).  Fields live in
the instance ``__dict__``; a class's own constructor sets them with
``object.__setattr__``.
"""

from operator import attrgetter

_set = object.__setattr__


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} values are immutable")


def _bind(cls, names, defaults, args, kwargs) -> tuple:
    """The field values of a call that is not all positional, checked as
    Python checks a call of ``__init__(self, <names>)``."""
    head = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{head} takes {len(names)} arguments but {len(args)} were given")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{head} got an unexpected keyword argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{head} got multiple values for argument {name!r}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs[name])
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{head} missing required argument {name!r}")
    return tuple(values)


def _values(names):
    """self -> the tuple of its fields' values.  attrgetter gives a bare
    value for one name and refuses none."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


def record(cls):
    """``cls`` as a frozen record, as the module docstring describes."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    size = len(names)
    post = hasattr(cls, "__post_init__")
    values = _values(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = _bind(cls, names, defaults, args, kwargs)
        # a counted index: about 0.2 us less than zip(names, args) per call
        i = 0
        for name in names:
            _set(self, name, args[i])
            i += 1
        if post:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls
