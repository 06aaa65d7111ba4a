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

from dataclasses import dataclass
from typing import Optional

from .coxeter import CoxeterSystem, Word
from .crystal import CrystalGraph, DecreasingFactorization, connected_components, factorization_crystal
from .reports import CheckReport
from .tableaux import Tableau, crystal_e, crystal_f


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
    larger = [v for v in row if v > a]
    if not larger:
        return row + (a,), None, False
    b = min(larger)
    if b == a + 1 and a in row:
        return row, b, True
    out = tuple(a if v == b else v for v in row)
    return out, b, False


def eg_insert(factorization: DecreasingFactorization) -> EGPair:
    """Insertion and recording tableaux of a decreasing factorization."""
    p_rows: list[tuple[int, ...]] = []
    q_rows: list[list[int]] = []
    for block_index, block in enumerate(factorization.factors, start=1):
        for a in reversed(block):
            letter: Optional[int] = a
            row = 0
            while letter is not None:
                if row == len(p_rows):
                    p_rows.append(())
                    q_rows.append([])
                p_rows[row], letter, _ = eg_insert_letter(p_rows[row], letter)
                row += 1
            q_rows[row - 1].append(block_index)
    return EGPair(
        Tableau(tuple(p_rows)),
        Tableau(tuple(tuple(r) for r in q_rows)),
    )


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

        ids = {v: f"n{k}" for k, v in enumerate(self.vertices)}
        nodes = [(ids[v], "".join(str(i) for i in v)) for v in self.vertices]
        edges = [
            (ids[u], ids[v], {"label": kind, "dir": "none"})
            for u, v, kind in self.edges
        ]
        return digraph(name, nodes, edges)


def ck_graph(system: CoxeterSystem, w) -> CKGraph:
    words = system.reduced_words(w)
    word_set = set(words)
    edges = []
    for u in words:
        for v, kind in ck_moves(u):
            if u < v:
                assert v in word_set, "relations must stay inside the reduced words"
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
    num_factors = max(1, system.length(w))
    graph = factorization_crystal(system, w, num_factors)
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
    counts_match = len(graph.components()) == len(ck_classes)
    passed = counts_match and word_classes == ck_classes
    detail = (
        f"{len(graph.components())} crystal components, {len(ck_classes)} word classes"
    )
    return CheckReport("CK-vs-crystal-components", passed, detail)


def ck_edge_operator_identity(system: CoxeterSystem, w) -> CheckReport:
    """On each relation edge the word with the left-hand pattern maps to the
    other by f_m f_{m+1} e_m e_{m+1}, m determined by the window position."""
    words = system.reduced_words(w)
    k = system.length(w)
    failures = []
    for word in words:
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
            source = DecreasingFactorization.from_word(system, word)
            cur = source.e(m + 1)
            cur = cur.e(m) if cur is not None else None
            cur = cur.f(m + 1) if cur is not None else None
            cur = cur.f(m) if cur is not None else None
            expected = DecreasingFactorization.from_word(system, partner)
            if cur != expected:
                failures.append((word, j))
    return CheckReport(
        "CK-edge-operator-identity",
        not failures,
        f"{len(failures)} failing windows" if failures else "all windows verified",
    )


def q_tableaux(system: CoxeterSystem, w, num_factors: int | None = None) -> tuple[CrystalGraph, dict]:
    """Crystal of ``w`` together with the recording tableau of every vertex."""
    graph = factorization_crystal(system, w, num_factors)
    return graph, {v: eg_insert(v).q for v in graph.vertices}


def intertwining_check(system: CoxeterSystem, w, num_factors: int | None = None) -> CheckReport:
    """Recording tableaux commute with the crystal operators.

    For every vertex and every index, applying e or f before or after taking
    the recording tableau gives the same answer, with None matching None.
    """
    graph, q_of = q_tableaux(system, w, num_factors)
    failures = 0
    for v in graph.vertices:
        for i in graph.index_set:
            down = v.f(i)
            q_down = crystal_f(q_of[v], i)
            if (down is None) != (q_down is None):
                failures += 1
            elif down is not None and q_of[down] != q_down:
                failures += 1
            up = v.e(i)
            q_up = crystal_e(q_of[v], i)
            if (up is None) != (q_up is None):
                failures += 1
            elif up is not None and q_of[up] != q_up:
                failures += 1
    return CheckReport(
        "EG-intertwining",
        failures == 0,
        f"{len(graph.vertices)} vertices x {len(graph.index_set)} colours"
        + ("" if failures == 0 else f", {failures} failures"),
    )


def is_yamanouchi(tableau: Tableau) -> bool:
    """True when row r holds only the entry r+1 (the highest weight filling)."""
    return all(
        all(v == r + 1 for v in row) for r, row in enumerate(tableau.rows)
    )
