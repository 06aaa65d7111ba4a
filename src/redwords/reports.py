"""The shared base of the immutable records, and the result record of the
executable identity checks."""

from __future__ import annotations


class Frozen:
    """Base of the immutable records.

    A record keeps its fields in ``__slots__`` and sets each once in
    ``__init__`` through ``object.__setattr__``; assigning or deleting an
    attribute afterwards raises AttributeError.  ``__repr__`` shows the
    fields that ``_fields`` names, as ``Name(field=value, ...)``; derived
    fields left out of ``_fields`` take no part in it.  Each record writes
    its own ``__eq__`` and ``__hash__`` over the tuple of its fields, as
    ``@dataclass`` would: crystal vertices are hashed and compared in every
    position dict, where methods that read ``_fields`` in a loop are slower.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __setstate__(self, state) -> None:
        """Restore the slots that ``copy`` and ``pickle`` saved."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class CheckReport(Frozen):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.passed, self.detail) == (other.name, other.passed, other.detail)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.passed, self.detail))

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}" + (f": {self.detail}" if self.detail else "")
