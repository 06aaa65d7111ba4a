"""Finite symmetric-function expansions with exact integer coefficients.

An expansion is a basis tag ("monomial" or "schur") plus a finite map from
partitions to nonzero integers, stored as a sorted tuple so values compare
and hash structurally.
"""

from __future__ import annotations

from .partitions import Partition, dominates, is_partition, removable_corners, conjugate
from .reports import Frozen

BASES = ("monomial", "schur")


class SymFuncExpansion(Frozen):
    __slots__ = _fields = ("basis", "terms")

    def __init__(self, basis: str, terms: tuple[tuple[Partition, int], ...]) -> None:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        for shape, coeff in terms:
            if not is_partition(shape):
                raise ValueError(f"bad partition {shape!r}")
            if not isinstance(coeff, int) or coeff == 0:
                raise ValueError(f"coefficients must be nonzero integers, got {coeff!r}")
        keys = [shape for shape, _ in terms]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("terms must be sorted with distinct keys")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.basis, self.terms) == (other.basis, other.terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.basis, self.terms))

    @classmethod
    def from_dict(cls, basis: str, terms: dict[Partition, int]) -> "SymFuncExpansion":
        cleaned = {tuple(k): v for k, v in terms.items() if v != 0}
        return cls(basis, tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls, basis: str) -> "SymFuncExpansion":
        return cls(basis, ())

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.terms)

    def coefficient(self, shape: Partition) -> int:
        return self.as_dict().get(tuple(shape), 0)

    def support(self) -> tuple[Partition, ...]:
        return tuple(shape for shape, _ in self.terms)

    def add(self, other: "SymFuncExpansion") -> "SymFuncExpansion":
        if other.basis != self.basis:
            raise ValueError("cannot add expansions in different bases")
        merged = self.as_dict()
        for shape, coeff in other.terms:
            merged[shape] = merged.get(shape, 0) + coeff
        return SymFuncExpansion.from_dict(self.basis, merged)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        letter = self.basis[0]
        parts = []
        for shape, coeff in self.terms:
            if not shape:
                parts.append(str(coeff))
                continue
            body = f"{letter}[{','.join(str(p) for p in shape)}]"
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts)

    # ------------------------------------------------------------------
    # JSON wire format

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(shape), "coeff": coeff}
                for shape, coeff in self.terms
            ],
        }


def omega(expansion: SymFuncExpansion) -> SymFuncExpansion:
    """The transpose involution, acting on the schur basis."""
    if expansion.basis != "schur":
        raise ValueError("omega is applied in the schur basis")
    return SymFuncExpansion.from_dict(
        "schur", {conjugate(shape): coeff for shape, coeff in expansion.terms}
    )


def s1_perp(expansion: SymFuncExpansion) -> SymFuncExpansion:
    """Remove one corner cell in every way: the degree-lowering skew by s_1."""
    if expansion.basis != "schur":
        raise ValueError("s1_perp is applied in the schur basis")
    out: dict[Partition, int] = {}
    for shape, coeff in expansion.terms:
        for smaller in removable_corners(shape):
            out[smaller] = out.get(smaller, 0) + coeff
    return SymFuncExpansion.from_dict("schur", out)


def support_interval(expansion: SymFuncExpansion) -> tuple[Partition, Partition]:
    """Dominance-least and -greatest support partitions.

    Raises ValueError unless the support has a unique minimum and maximum,
    both with coefficient one; every other support partition then lies
    between them in dominance order.
    """
    keys = expansion.support()
    if not keys:
        raise ValueError("empty expansion has no support interval")
    lows = [k for k in keys if all(dominates(other, k) for other in keys)]
    highs = [k for k in keys if all(dominates(k, other) for other in keys)]
    if len(lows) != 1 or len(highs) != 1:
        raise ValueError(f"support of {expansion} is not a dominance interval")
    lo, hi = lows[0], highs[0]
    if expansion.coefficient(lo) != 1 or expansion.coefficient(hi) != 1:
        raise ValueError("extremal coefficients differ from one")
    return lo, hi
