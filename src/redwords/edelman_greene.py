"""Edelman-Greene insertion and Coxeter-Knuth equivalence on reduced words.

Insertion consumes a decreasing factorization block by block, rightmost block
first with each block read in increasing order.  Inserting a letter a into a
row finds the smallest entry b > a; if b = a+1 and a already sits in the row
the row is left unchanged, otherwise b is replaced by a; either way b is
bumped into the next row up.  New cells are recorded with the index of the
block being inserted, so the recording tableau carries the crystal weight as
its content.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .coxeter import CoxeterSystem, Word, format_word
from .crystal import (
    CrystalGraph,
    DecreasingFactorization,
    _block_sequences,
    _lowered,
    _raised,
    _splice,
    _unchecked,
    connected_components,
    default_num_factors,
    factorization_crystal,
)
from .reports import CheckReport
from .tableaux import _UNBRACKETED, Tableau, _brackets, _with_entry


@dataclass(frozen=True)
class EGPair:
    p: Tableau
    q: Tableau


def eg_insert_letter(row: tuple[int, ...], a: int) -> tuple[tuple[int, ...], Optional[int], bool]:
    """Insert ``a`` into a strictly increasing row.

    Returns (new row, bumped letter or None, special flag); the special flag
    marks the case where the row already contains both a and a+1 and is left
    untouched.
    """
    k = bisect_right(row, a)  # row[k] is the smallest entry larger than a
    if k == len(row):
        return row + (a,), None, False
    b = row[k]
    if b == a + 1 and k and row[k - 1] == a:
        return row, b, True
    return row[:k] + (a,) + row[k + 1:], b, False


def eg_insert(factorization: DecreasingFactorization) -> EGPair:
    """Insertion and recording tableaux of a decreasing factorization."""
    return next(eg_insert_all((factorization,)))


def eg_insert_all(factorizations: Iterable[DecreasingFactorization]) -> Iterator[EGPair]:
    """The insertion and recording tableaux of each factorization in turn.

    Blocks are inserted rightmost first, so a factorization that shares its
    first k blocks (``factors[:k]``) with the one before it resumes from the
    tableaux those blocks left: sorted by ``factors``, neighbours share the
    most.  Only the states along the current factorization's blocks are
    kept, not the tableaux of earlier factorizations.
    """
    states = [((), ())]  # states[k]: the rows of P and Q after the first k blocks
    previous: tuple = ()
    for factorization in factorizations:
        factors = factorization.factors
        shared = 0
        for a, b in zip(previous, factors):
            if a != b:
                break
            shared += 1
        del states[shared + 1:]
        p_rows, q_rows = states[shared]
        for block_index in range(shared + 1, len(factors) + 1):
            if factors[block_index - 1]:
                p_rows, q_rows = _insert_block(p_rows, q_rows, factors[block_index - 1], block_index)
            states.append((p_rows, q_rows))
        yield EGPair(Tableau(p_rows), Tableau(q_rows))
        previous = factors


def _insert_block(p_rows, q_rows, block: Word, block_index: int):
    """The P and Q rows after inserting ``block`` in increasing order, each
    new cell recorded with ``block_index``."""
    p = list(p_rows)
    q = list(q_rows)
    for a in reversed(block):
        letter: Optional[int] = a
        row = 0
        while letter is not None:
            if row == len(p):
                p.append(())
                q.append(())
            p[row], letter, _ = eg_insert_letter(p[row], letter)
            row += 1
        q[row - 1] += (block_index,)
    return tuple(p), tuple(q)


def eg_insert_word(system: CoxeterSystem, word: Word) -> EGPair:
    """Insertion of a reduced word embedded with one letter per block."""
    return eg_insert(DecreasingFactorization.from_word(system, word))


def p_transpose_reading_word(p: Tableau) -> Word:
    """Column reading word of the transposed insertion tableau.

    Reduced for the factorization's target; columns are read left to right,
    bottom to top.
    """
    return p.transpose().column_reading_word()


# ----------------------------------------------------------------------
# Coxeter-Knuth relations

BRAID = "(a+1)a(a+1)~a(a+1)a"
MIDDLE_FIRST = "bac~bca"
MIDDLE_LAST = "cab~acb"


def ck_moves(word: Word) -> list[tuple[Word, str]]:
    """Single-relation rewrites of three consecutive letters, with the kind.

    The braid move swaps (a+1)a(a+1) with a(a+1)a; for letters a < b < c the
    windows bac/bca exchange their last two letters and cab/acb their first
    two.
    """
    word = tuple(word)
    out: list[tuple[Word, str]] = []
    for j in range(len(word) - 2):
        x, y, z = word[j:j + 3]
        if x == z and abs(x - y) == 1:
            out.append((word[:j] + (y, x, y) + word[j + 3:], BRAID))
        if min(y, z) < x < max(y, z):
            out.append((word[:j] + (x, z, y) + word[j + 3:], MIDDLE_FIRST))
        if min(x, y) < z < max(x, y):
            out.append((word[:j] + (y, x, z) + word[j + 3:], MIDDLE_LAST))
    return out


def ck_neighbors(word: Word) -> frozenset[Word]:
    return frozenset(w for w, _ in ck_moves(word))


@dataclass(frozen=True)
class CKGraph:
    """Reduced words of one element joined by single Coxeter-Knuth moves."""

    vertices: tuple[Word, ...]
    edges: tuple[tuple[Word, Word, str], ...]

    def components(self) -> tuple[frozenset[Word], ...]:
        """Coxeter-Knuth classes, ordered by their least word (the vertices
        are in lexicographic order)."""
        return connected_components(self.vertices, ((u, v) for u, v, _ in self.edges))

    def to_dot(self, name: str = "ck") -> str:
        from .dot import digraph

        order = {v: k for k, v in enumerate(self.vertices)}
        edges = [(order[u], order[v], {"label": kind, "dir": "none"}) for u, v, kind in self.edges]
        return digraph(name, map(format_word, self.vertices), edges)


def ck_graph(system: CoxeterSystem, w) -> CKGraph:
    words = system.reduced_words(w)
    word_set = set(words)
    edges = []
    for u in words:
        for v, kind in ck_moves(u):
            if u < v:
                if v not in word_set:
                    raise ValueError(
                        f"Coxeter-Knuth move {format_word(u)} -> {format_word(v)} leaves the "
                        f"reduced words of {system!r}; the relations are those of type A"
                    )
                edges.append((u, v, kind))
    return CKGraph(words, tuple(sorted(set(edges))))


def ck_components(system: CoxeterSystem, w) -> tuple[frozenset[Word], ...]:
    """Partition of the reduced words into Coxeter-Knuth classes."""
    return ck_graph(system, w).components()


# ----------------------------------------------------------------------
# executable identities


def same_p_tableau_iff_ck_equivalent(system: CoxeterSystem, w) -> CheckReport:
    """Two reduced words insert to the same P tableau exactly when they are
    Coxeter-Knuth equivalent."""
    words = system.reduced_words(w)
    by_p: dict = {}
    for word in words:
        by_p.setdefault(eg_insert_word(system, word).p, []).append(word)
    p_classes = {frozenset(group) for group in by_p.values()}
    ck_classes = set(ck_components(system, w))
    passed = p_classes == ck_classes
    detail = f"{len(p_classes)} insertion classes vs {len(ck_classes)} relation classes"
    return CheckReport("same-P-iff-CK", passed, detail)


def crystal_component_correspondence(system: CoxeterSystem, w) -> CheckReport:
    """Coxeter-Knuth classes match crystal components through the embedding
    of words as singleton-block factorizations."""
    return _component_correspondence(system, w, factorization_crystal(system, w))


def _component_correspondence(system: CoxeterSystem, w, graph: CrystalGraph) -> CheckReport:
    """:func:`crystal_component_correspondence` on the crystal ``graph`` of
    ``w`` with one block per letter."""
    comp_of = graph.component_of()
    induced: dict[int, set[Word]] = {}
    for word in system.reduced_words(w):
        if word:
            vertex = DecreasingFactorization.from_word(system, word)
        else:
            vertex = DecreasingFactorization(((),), w)  # lone vertex at the identity
        induced.setdefault(comp_of[vertex], set()).add(word)
    word_classes = {frozenset(g) for g in induced.values()}
    ck_classes = set(ck_components(system, w))
    components = len(set(comp_of.values()))
    passed = components == len(ck_classes) and word_classes == ck_classes
    detail = f"{components} crystal components, {len(ck_classes)} word classes"
    return CheckReport("CK-vs-crystal-components", passed, detail)


def ck_edge_operator_identity(system: CoxeterSystem, w) -> CheckReport:
    """On each relation edge the word with the left-hand pattern maps to the
    other by f_m f_{m+1} e_m e_{m+1}, m determined by the window position.

    The operators act on the word's singleton blocks through the block-pair
    tables (:func:`~redwords.crystal._raised`, :func:`~redwords.crystal._lowered`),
    four splices per window, and the result must be the partner's singleton
    blocks.  The partner must also be a reduced word of ``w``, so it spells
    the same element.
    """
    words = system.reduced_words(w)
    word_set = set(words)
    k = system.length(w)
    failures = []
    for word in words:
        source = tuple((letter,) for letter in reversed(word))
        for j in range(k - 2):
            x, y, z = word[j:j + 3]
            partner = None
            if x == z and y == x - 1:
                partner = word[:j] + (y, x, y) + word[j + 3:]
            elif y < x < z:
                partner = word[:j] + (x, z, y) + word[j + 3:]
            elif y < z < x:
                partner = word[:j] + (y, x, z) + word[j + 3:]
            if partner is None:
                continue
            m = k - j - 2  # blocks are numbered from the right, 1-based
            cur = _moved(_raised, source, m + 1)
            cur = _moved(_raised, cur, m)
            cur = _moved(_lowered, cur, m + 1)
            cur = _moved(_lowered, cur, m)
            if partner not in word_set or cur != tuple((letter,) for letter in reversed(partner)):
                failures.append((word, j))
    return CheckReport(
        "CK-edge-operator-identity",
        not failures,
        f"{len(failures)} failing windows" if failures else "all windows verified",
    )


def _moved(step, factors: tuple[Word, ...] | None, i: int) -> tuple[Word, ...] | None:
    """The blocks after ``step`` (``_raised`` or ``_lowered``) acts on blocks
    i+1 and i of ``factors``; None when it does not apply or ``factors`` is
    None."""
    if factors is None:
        return None
    blocks = step(factors[i], factors[i - 1])
    return None if blocks is None else _splice(factors, i, *blocks)


def q_tableaux(system: CoxeterSystem, w, num_factors: int | None = None) -> tuple[CrystalGraph, dict]:
    """Crystal of ``w`` together with the recording tableau of every vertex."""
    graph = factorization_crystal(system, w, num_factors)
    return graph, {v: pair.q for v, pair in zip(graph.vertices, eg_insert_all(graph.vertices))}


def intertwining_check(system: CoxeterSystem, w, num_factors: int | None = None) -> CheckReport:
    """Recording tableaux commute with the crystal operators.

    For every vertex and every index, applying e or f before or after taking
    the recording tableau gives the same answer, with None matching None.
    The factorizations are enumerated once, as sorted block tuples, and
    inserted by one :func:`eg_insert_all` walk; no crystal graph is built
    (see :func:`_intertwining`).
    """
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    factors = sorted(_block_sequences(system, w, num_factors))
    pairs = eg_insert_all(_unchecked(blocks, w) for blocks in factors)
    return _intertwining(factors, [pair.q.rows for pair in pairs], range(1, num_factors))


def _intertwining(factors: list[tuple[Word, ...]], q_rows: list, colours: Iterable[int]) -> CheckReport:
    """:func:`intertwining_check` on the block tuples ``factors`` of every
    factorization of one element into one number of blocks, the rows
    ``q_rows[k]`` of the recording tableau of ``factors[k]``, and the
    ``colours`` 1, ..., blocks - 1.

    Each vertex is numbered by its place in ``factors``.  For each colour i
    the f side splices the blocks ``crystal._lowered`` returns into the
    vertex's blocks and the e side those ``crystal._raised`` returns, so the
    two sides test two operators; either image is looked up among the
    vertices, and one outside them raises ValueError.  The tableau side
    brackets each Q once for every colour (``tableaux._brackets``), and
    the image's Q must be Q changed at the cell the bracketing names.
    """
    position = {blocks: k for k, blocks in enumerate(factors)}
    colours = tuple(colours)
    failures = 0
    for blocks, q in zip(factors, q_rows):
        brackets = _brackets(q)
        for i in colours:
            last, first, _, _ = brackets.get(i, _UNBRACKETED)
            upper, lower = blocks[i], blocks[i - 1]
            for name, moved, cell, value in (
                ("f", _lowered(upper, lower), last, i + 1),
                ("e", _raised(upper, lower), first, i),
            ):
                if moved is None:
                    failures += cell is not None
                    continue
                target = position.get(_splice(blocks, i, *moved))
                if target is None:
                    raise ValueError(f"{name}_{i} maps {_unchecked(blocks, None)} outside the vertex set")
                if cell is None or q_rows[target] != _with_entry(q, cell, value):
                    failures += 1
    return CheckReport(
        "EG-intertwining",
        failures == 0,
        f"{len(factors)} vertices x {len(colours)} colours"
        + ("" if failures == 0 else f", {failures} failures"),
    )


def is_yamanouchi(tableau: Tableau) -> bool:
    """True when row r holds only the entry r+1 (the highest weight filling)."""
    return all(
        all(v == r + 1 for v in row) for r, row in enumerate(tableau.rows)
    )
