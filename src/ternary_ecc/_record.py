"""The base of the package's immutable value types; it imports no module of ours."""

from operator import attrgetter


class Record:
    """Immutable record whose fields are the public names in __slots__.

    A subclass declares its fields once, in __slots__, in the order its
    constructor takes them. The one __init__ here binds positional and
    keyword arguments to them as a function with those parameters would; a
    field left out takes its value from the class's _defaults table, which
    names trailing fields only. A subclass that validates its arguments
    keeps an __init__ of its own that checks them and then calls this one.
    Slots with a leading underscore are caches: they stay out of equality,
    hashing, repr and pickling. Records compare and hash by the tuple of
    their field values, and pickle and copy by calling the class with those
    values, so each copy passes the class's validation again.
    """

    __slots__ = ()
    _defaults: dict = {}  # field name -> value taken when the field is left out

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)
        # each slot's own setter writes past __setattr__, faster than object.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        setters, fields = self._setters, self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            values = {**self._defaults, **kwargs}
            if len(args) > len(fields) or kwargs.keys() - rest or set(rest) - values.keys():
                raise TypeError(f"{type(self).__qualname__}{fields} cannot take {args}, {kwargs}")
            args += tuple(map(values.__getitem__, rest))
        for setter, value in zip(setters, args):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
