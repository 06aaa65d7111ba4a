"""Young tableaux: semistandard fillings, the classical crystal operators,
Kostka numbers, and Schur polynomial expansions.

Rows are stored in English convention: row 0 is the longest row and columns
strictly increase downwards.  The reading word used by the crystal operators
runs over rows from the bottom row up, left to right within each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .crystal import CrystalGraph
from .partitions import Partition, check_partition, partitions_of
from .symfunc import SymFuncExpansion


@dataclass(frozen=True)
class Tableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(not row for row in self.rows):
            raise ValueError("empty rows are not allowed")

    @classmethod
    def from_rows(cls, rows) -> "Tableau":
        return cls(tuple(tuple(r) for r in rows))

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

    def is_standard(self) -> bool:
        """Entries are exactly 1..n with rows and columns strictly increasing."""
        entries = sorted(v for _, _, v in self.cells())
        if entries != list(range(1, self.size + 1)):
            return False
        for r, row in enumerate(self.rows):
            if any(row[c] >= row[c + 1] for c in range(len(row) - 1)):
                return False
            if r > 0 and any(self.rows[r - 1][c] >= row[c] for c in range(len(row))):
                return False
        return True

    def transpose(self) -> "Tableau":
        if not self.rows:
            return self
        cols = []
        for c in range(len(self.rows[0])):
            cols.append(tuple(row[c] for row in self.rows if len(row) > c))
        return Tableau(tuple(cols))

    def row_reading_word(self) -> tuple[int, ...]:
        """Bottom row up, each row left to right."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

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
    """All semistandard fillings of ``shape`` with entries at most ``max_entry``."""
    shape = check_partition(shape)
    return _fill_ssyt(shape, [sum(shape)] * max_entry)


def generate_ssyt_with_content(shape: Partition, content: tuple[int, ...]) -> list[Tableau]:
    """Semistandard fillings of ``shape`` using entry k exactly content[k-1] times."""
    shape = check_partition(shape)
    if sum(shape) != sum(content):
        return []
    return _fill_ssyt(shape, list(content))


def _fill_ssyt(shape: Partition, remaining: list[int]) -> list[Tableau]:
    """All semistandard fillings of ``shape`` with entries 1..len(remaining),
    cells filled in row order; entry v may be used remaining[v-1] times."""
    grid = [[0] * shape[r] for r in range(len(shape))]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    out: list[Tableau] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[r][c] = v
            fill(k + 1)
            remaining[v - 1] += 1
        grid[r][c] = 0

    fill(0)
    return out


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard fillings of ``shape`` with the given content."""
    return len(generate_ssyt_with_content(shape, content))


# ----------------------------------------------------------------------
# crystal operators via the signature rule


def _signature(tableau: Tableau, i: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Surviving cells after bracketing i+1 (opening) against i (closing)
    along the reading word.  Returns (surviving i cells, surviving i+1 cells)
    in reading order."""
    opens: list[tuple[int, int]] = []
    closers: list[tuple[int, int]] = []
    for r in range(len(tableau.rows) - 1, -1, -1):
        for c, v in enumerate(tableau.rows[r]):
            if v == i + 1:
                opens.append((r, c))
            elif v == i:
                if opens:
                    opens.pop()
                else:
                    closers.append((r, c))
    return closers, opens


def _with_entry(tableau: Tableau, cell: tuple[int, int], value: int) -> Tableau:
    rows = [list(row) for row in tableau.rows]
    rows[cell[0]][cell[1]] = value
    return Tableau(tuple(tuple(row) for row in rows))


def crystal_f(tableau: Tableau, i: int) -> Optional[Tableau]:
    """Change the last unbracketed i of the reading word into i+1."""
    closers, _ = _signature(tableau, i)
    if not closers:
        return None
    return _with_entry(tableau, closers[-1], i + 1)


def crystal_e(tableau: Tableau, i: int) -> Optional[Tableau]:
    """Change the first unbracketed i+1 of the reading word into i."""
    _, opens = _signature(tableau, i)
    if not opens:
        return None
    return _with_entry(tableau, opens[0], i)


def tableau_epsilon(tableau: Tableau, i: int) -> int:
    _, opens = _signature(tableau, i)
    return len(opens)


def tableau_phi(tableau: Tableau, i: int) -> int:
    closers, _ = _signature(tableau, i)
    return len(closers)


def tableau_crystal(shape: Partition, max_entry: int) -> CrystalGraph:
    """The crystal graph on all semistandard fillings with bounded entries."""
    vertices = tuple(sorted(generate_ssyt(shape, max_entry), key=lambda t: t.rows))
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
