"""Young tableaux: semistandard fillings, the classical crystal operators,
Kostka numbers, and Schur polynomial expansions.

Rows are stored in English convention: row 0 is the longest row and columns
strictly increase downwards.  The reading word used by the crystal operators
runs over rows from the bottom row up, left to right within each row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from itertools import product

from .crystal import CrystalGraph
from .partitions import Partition, check_partition, conjugate, partitions_of
from .reports import Frozen
from .symfunc import SymFuncExpansion


class Tableau(Frozen):
    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if not all(rows):
            raise ValueError("empty rows are not allowed")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def __str__(self) -> str:
        return "/".join(" ".join(str(v) for v in row) for row in self.rows)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                yield r, c, v

    def is_semistandard(self) -> bool:
        """Rows weakly increase, columns strictly increase."""
        for r, row in enumerate(self.rows):
            if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
                return False
            if r > 0 and (len(row) > len(self.rows[r - 1])
                          or any(self.rows[r - 1][c] >= row[c] for c in range(len(row)))):
                return False
        return True

    def transpose(self) -> "Tableau":
        if not self.rows:
            return self
        cols = []
        for c in range(len(self.rows[0])):
            cols.append(tuple(row[c] for row in self.rows if len(row) > c))
        return Tableau(tuple(cols))

    def column_reading_word(self) -> tuple[int, ...]:
        """Columns left to right, each read bottom to top."""
        if not self.rows:
            return ()
        out: list[int] = []
        for c in range(len(self.rows[0])):
            out.extend(row[c] for row in reversed(self.rows) if len(row) > c)
        return tuple(out)

    def content(self, max_entry: int) -> tuple[int, ...]:
        """Multiplicity vector of the entries 1..max_entry."""
        counts = [0] * max_entry
        for _, _, v in self.cells():
            counts[v - 1] += 1
        return tuple(counts)


def yamanouchi_tableau(shape: Partition) -> Tableau:
    """Row r filled with the entry r+1: the unique highest weight filling."""
    shape = check_partition(shape)
    return Tableau(tuple((r + 1,) * shape[r] for r in range(len(shape))))


def generate_ssyt(shape: Partition, max_entry: int) -> list[Tableau]:
    """All semistandard fillings of ``shape`` with entries at most ``max_entry``,
    in lexicographic order of their rows."""
    shape = check_partition(shape)
    return fill_ssyt(shape, max_entry, _admit_any, True)


def generate_ssyt_with_content(shape: Partition, content: tuple[int, ...]) -> list[Tableau]:
    """Semistandard fillings of ``shape`` using entry k exactly content[k-1] times,
    in lexicographic order of their rows."""
    shape = check_partition(shape)
    content = tuple(content)
    if sum(shape) != sum(content) or any(k < 0 for k in content):
        return []
    return fill_ssyt(shape, len(content), _admit_within, content)


def _admit_any(state, v: int):
    return state


def _admit_within(remaining: tuple[int, ...], v: int) -> tuple[int, ...] | None:
    """Spend one v from the remaining content, or None when none is left."""
    if not remaining[v - 1]:
        return None
    return remaining[:v - 1] + (remaining[v - 1] - 1,) + remaining[v:]


def fill_ssyt(
    shape: Partition,
    max_entry: int,
    admit: Callable[[object, int], object],
    state,
) -> list[Tableau]:
    """Semistandard fillings of ``shape`` with entries 1..max_entry whose
    letters, in column reading order, each pass ``admit``; sorted by rows.

    Cells are filled in column reading order: columns left to right, each
    from the bottom up.  A cell's entry is at least its left neighbour (in
    the first column, at least its row number plus one) and below the entry
    under it, so every partial filling extends.  ``admit(state, v)`` returns
    the state for the next cell, or None to reject v and every filling that
    continues the prefix.
    """
    rows = [[0] * length for length in shape]
    # (row, column, whether a cell lies below), in column reading order
    cells = [
        (r, c, r + 1 < height)
        for c, height in enumerate(conjugate(shape))
        for r in range(height - 1, -1, -1)
    ]
    if not cells:
        return [Tableau(())]

    def entries(k: int) -> Iterator[int]:
        r, c, below = cells[k]
        lo = rows[r][c - 1] if c else r + 1
        return iter(range(lo, rows[r + 1][c] if below else max_entry + 1))

    # a depth-first walk with an explicit stack: pending[k] holds the entries
    # not yet tried at cell k, states[k] the state before cell k
    out: list[Tableau] = []
    states = [state] * len(cells)
    pending = [entries(0)]
    while pending:
        k = len(pending) - 1
        for v in pending[k]:
            after = admit(states[k], v)
            if after is not None:
                break
        else:
            pending.pop()
            continue
        r, c, _ = cells[k]
        rows[r][c] = v
        if k + 1 == len(cells):
            out.append(Tableau(tuple(map(tuple, rows))))
        else:
            states[k + 1] = after
            pending.append(entries(k + 1))
    out.sort(key=lambda t: t.rows)
    return out


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard fillings of ``shape`` with the given content.

    The cells holding the last letter form a horizontal strip, so the count
    sums the counts of ``content[:-1]`` over the shapes nu inside ``shape``
    that leave a horizontal strip of ``content[-1]`` cells.  Any composition
    works, zeros included.

    >>> kostka_number((3, 2), (2, 2, 1)), kostka_number((3, 2), (1, 2, 2))
    (2, 2)
    """
    shape = check_partition(shape)
    if not content:
        return 0 if shape else 1
    if sum(shape) != sum(content) or len(shape) > len(content):
        return 0
    rest = content[:-1]
    return sum(kostka_number(nu, rest) for nu in _strip_removals(shape, content[-1]))


def _strip_removals(shape: Partition, size: int) -> list[Partition]:
    """The partitions nu inside ``shape`` with shape/nu a horizontal strip of
    ``size`` cells: row r gives up at most shape[r] - shape[r+1] cells."""
    spare = [p - q for p, q in zip(shape, shape[1:] + (0,))]
    return [
        tuple(p - t for p, t in zip(shape, taken) if p > t)
        for taken in product(*(range(k + 1) for k in spare))
        if sum(taken) == size
    ]


# ----------------------------------------------------------------------
# crystal operators via the signature rule


def _signature(counts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The signature rule for one colour i, read off row counts.

    ``counts[r]`` is the pair (number of i, number of i+1) of row r, top
    row first.  The reading word runs over the rows bottom up, and a
    weakly increasing row reads its i's before its i+1's.  An i+1 opens a
    bracket and a later i closes the nearest open one, so one pass with
    two scalars serves both operators: ``opened`` counts the unpaired
    i+1's so far, and ``first`` is the row of the earliest of them, reset
    whenever none is left.  Returns ``(f row, e row)``, -1 where the
    operator does not apply: f_i turns the last unpaired i, the rightmost
    i of the f row, into i+1, and e_i the first unpaired i+1, the leftmost
    i+1 of the e row, into i, so each row still weakly increases.
    """
    opened = 0
    last = first = -1
    for r in range(len(counts) - 1, -1, -1):
        ones, twos = counts[r]
        if ones > opened:
            last = r
            opened = 0
        else:
            opened -= ones
        if not opened:
            first = r if twos else -1
        opened += twos
    return last, first


def _with_entry(rows: tuple[tuple[int, ...], ...], r: int, c: int, value: int) -> Tableau:
    """The tableau of ``rows`` with ``value`` in cell (r, c); only row r is
    rebuilt."""
    return Tableau(rows[:r] + (rows[r][:c] + (value,) + rows[r][c + 1:],) + rows[r + 1:])


def _signature_rows(tableau: Tableau, i: int) -> tuple[int, int]:
    """:func:`_signature` of ``tableau`` for colour i, which must be at
    least 1; the count rule needs weakly increasing rows."""
    if i < 1:
        raise ValueError(f"colour must be at least 1, got {i}")
    rows = tableau.rows
    if any(a > b for row in rows for a, b in zip(row, row[1:])):
        raise ValueError(f"rows must weakly increase, got {tableau}")
    return _signature([(row.count(i), row.count(i + 1)) for row in rows])


def crystal_f(tableau: Tableau, i: int) -> Tableau | None:
    """Change the last unbracketed i of the reading word into i+1."""
    r = _signature_rows(tableau, i)[0]
    if r < 0:
        return None
    return _with_entry(tableau.rows, r, bisect_right(tableau.rows[r], i) - 1, i + 1)


def crystal_e(tableau: Tableau, i: int) -> Tableau | None:
    """Change the first unbracketed i+1 of the reading word into i."""
    r = _signature_rows(tableau, i)[1]
    if r < 0:
        return None
    return _with_entry(tableau.rows, r, bisect_left(tableau.rows[r], i + 1), i)


def tableau_crystal(shape: Partition, max_entry: int) -> CrystalGraph:
    """The crystal graph on all semistandard fillings with bounded entries."""
    vertices = tuple(generate_ssyt(shape, max_entry))
    return CrystalGraph.from_lowering(
        vertices, tuple(range(1, max_entry)), crystal_f, lambda t: t.content(max_entry)
    )


# ----------------------------------------------------------------------
# Schur polynomials


def schur_polynomial(shape: Partition, num_vars: int) -> SymFuncExpansion:
    """Monomial expansion of the Schur polynomial in ``num_vars`` variables.

    The coefficient of each monomial symmetric function counts semistandard
    fillings with that content, so the result is symmetric by construction.
    """
    shape = check_partition(shape)
    terms: dict[Partition, int] = {}
    for mu in partitions_of(sum(shape)):
        if len(mu) > num_vars:
            continue
        count = kostka_number(shape, mu)
        if count:
            terms[mu] = count
    return SymFuncExpansion.from_dict("monomial", terms)
