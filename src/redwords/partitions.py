"""Integer partitions: conjugation, dominance order, corners, hook lengths.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the partition of 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True for a weakly decreasing tuple of positive integers."""
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[k] >= parts[k + 1] for k in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    """Coerce to a tuple and raise ValueError unless it is a partition."""
    shape = tuple(parts)
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape!r}")
    return shape


def conjugate(shape: Partition) -> Partition:
    """Transpose of the shape: column lengths read as row lengths.

    >>> conjugate((3, 2, 1))
    (3, 2, 1)
    >>> conjugate((4, 2))
    (2, 2, 1, 1)
    >>> conjugate(())
    ()
    """
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > c) for c in range(shape[0]))


def dominates(lam: Partition, mu: Partition) -> bool:
    """True when ``lam`` is above ``mu`` in dominance order.

    Both must be partitions of the same number; prefix sums of ``lam``
    weakly exceed those of ``mu``.
    """
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same number")
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + (part,), remaining - part, part)

    extend((), n, n)
    return tuple(out)


def removable_corners(shape: Partition) -> tuple[Partition, ...]:
    """Partitions obtained by removing one corner cell from ``shape``."""
    out = []
    for r in range(len(shape)):
        if r + 1 == len(shape) or shape[r] > shape[r + 1]:
            smaller = list(shape)
            smaller[r] -= 1
            if smaller[r] == 0:
                smaller.pop(r)
            out.append(tuple(smaller))
    return tuple(out)


def staircase(n: int) -> Partition:
    """The shape (n-1, n-2, ..., 1)."""
    return tuple(range(n - 1, 0, -1))


def hook_lengths(shape: Partition) -> tuple[tuple[int, ...], ...]:
    """Per-cell hook lengths: arm plus leg plus one."""
    cols = conjugate(shape)
    return tuple(
        tuple(shape[r] - c + cols[c] - r - 1 for c in range(shape[r]))
        for r in range(len(shape))
    )


def hook_length_count(shape: Partition) -> int:
    """Number of standard fillings of ``shape`` via the hook length formula.

    >>> hook_length_count((2, 1))
    2
    >>> hook_length_count((3, 2, 1))
    16
    >>> hook_length_count((4, 3, 2, 1))
    768
    """
    shape = check_partition(shape)
    return factorial(sum(shape)) // _hook_product(shape)


def hook_content_count(shape: Partition, m: int) -> int:
    """Number of semistandard fillings of ``shape`` with entries 1..m, by the
    hook-content formula: the product over cells (row r, column c) of
    (m + c - r) / hook.

    >>> hook_content_count((2, 1), 3), hook_content_count((120,), 4)
    (8, 302621)
    """
    shape = check_partition(shape)
    if m < len(shape):  # a column longer than the alphabet
        return 0 if shape else 1
    contents = _tree_product([m + c - r for r, part in enumerate(shape) for c in range(part)])
    return contents // _hook_product(shape)


def _hook_product(shape: Partition) -> int:
    return _tree_product([h for row in hook_lengths(shape) for h in row])


def _tree_product(factors: list[int]) -> int:
    """Product of ``factors`` multiplied in adjacent pairs, level by level,
    so that the large products are few and of balanced size; one factor at
    a time would be quadratic in the factor count."""
    while len(factors) > 1:
        paired = [factors[k] * factors[k + 1] for k in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1
