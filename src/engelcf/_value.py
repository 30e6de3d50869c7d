"""The value semantics shared by the validated types.

A subclass lists its fields in ``_fields``, in the order its ``__init__``
takes them, sets them once through ``_init`` and raises unless they meet its
condition, so every instance does, copies included. Equality and hash go by
those fields within one class, the repr names the class and the fields, and
assignment raises. ``__slots__`` holds the fields and any cached attribute
that is not part of the value.
"""


class _Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates again.
        return type(self), self._key()
