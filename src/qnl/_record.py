"""Record: the base of the package's immutable value classes.  A subclass's fields are its
annotations, after its base's; a class attribute of the same name is a field's default.
__init__ (then __post_init__), ==, hash and repr act as @dataclass(frozen=True) makes them,
but are written once, here: no code is generated per class."""


class Record:
    _fields: dict = {}  # name: annotation text, in field order
    _defaults: dict = {}  # name: default, of the fields that have one

    def __init_subclass__(cls) -> None:
        cls._fields = {**cls._fields, **cls.__dict__.get("__annotations__", {})}
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        fields, given = self._fields, zip(self._fields, args)
        if kwargs or len(args) != len(fields):
            # TypeError for too many arguments, a field given twice, one missing or an unknown name
            given = dict(given)
            clash = len(args) > len(fields) or not given.keys().isdisjoint(kwargs)
            given = {**self._defaults, **given, **kwargs}
            if clash or given.keys() != fields.keys():
                raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(given)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__  # as a dataclass: no subclass, no other class
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
