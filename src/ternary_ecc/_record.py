"""The base of the package's immutable value types; it imports no module of ours."""

from operator import attrgetter


class Record:
    """Immutable record whose fields are the public names in __slots__.

    A subclass lists its fields in __slots__, in the order its __init__ takes
    them, and sets each once there with object.__setattr__. Slots with a
    leading underscore are caches: they stay out of equality, hashing, repr
    and pickling. Records compare and hash by the tuple of their field
    values, and pickle and copy by calling the class with those values, so
    each copy passes the class's validation again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

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
