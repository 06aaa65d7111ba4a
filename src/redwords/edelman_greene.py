"""Edelman-Greene insertion and Coxeter-Knuth equivalence on reduced words.

Insertion consumes a decreasing factorization block by block, rightmost block
first with each block read in increasing order.  Inserting a letter a into a
row finds the smallest entry b > a; if b = a+1 and a already sits in the row
the row is left unchanged, otherwise b is replaced by a; either way b is
bumped into the next row up.  New cells are recorded with the index of the
block being inserted, so the recording tableau carries the crystal weight as
its content.

Every insertion runs through one integer walk, :func:`_eg_walk`: a row of
the insertion tableau P is the bitmask of its letters, and the recording
tableau Q is one int of per-row counts of each block index.  From its second
tuple on, a walk memoises each (P rows, block) it inserts, since the
vertices of one crystal share few insertion tableaux.  ``EGPair`` and
``Tableau`` are built only by the public functions, and an ``EGPair`` keeps
Q packed until ``.q`` is read.  :func:`intertwining_check` reads its block
tuples and f rows from a crystal its caller still holds, and otherwise
builds only those, not the graph.

The Coxeter-Knuth relations are one window rule, :func:`_ck_window`, read
by :func:`ck_moves`, by the forward edges of :func:`_ck_edges` and by the
window-local :func:`ck_edge_operator_identity`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import groupby

from .coxeter import CoxeterSystem, Word, format_word
from .crystal import (
    CrystalGraph,
    DecreasingFactorization,
    _crystal_rows,
    _held_crystal,
    _lowered,
    _moved,
    _operator_rows,
    _position_components,
    _raised,
    default_num_factors,
)
from .reports import CheckReport, Frozen
from .tableaux import Tableau, _signature


class EGPair(Frozen):
    """The insertion and recording tableaux of one factorization.

    The insertion functions keep Q packed as :func:`_eg_walk` leaves it
    and decode it on the first read of ``q``; equality, hashing, ``repr``,
    ``copy`` and ``pickle`` see only the two tableaux.
    """

    __slots__ = ("p", "_q", "_packed")
    _fields = ("p", "q")

    def __init__(self, p: Tableau, q: Tableau) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_q", q)

    @property
    def q(self) -> Tableau:
        q = self._q
        if q is None:
            q = _q_tableau(*self._packed)
            object.__setattr__(self, "_q", q)
        return q

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) == (other.p, other.q)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))


def _eg_walk(sequences: Iterable[tuple[Word, ...]], top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The insertion and recording tableaux of each block tuple in turn, as
    ``(P rows, packed Q)``; every letter lies in 1..``top``.

    Row r of P is the bitmask with bit a set for each letter a of the row,
    so the row rule is a mask and a lowest set bit: the letters above a
    are ``row & -(2 << a)``, and their lowest bit is the bumped letter b.  A
    letter that meets itself in a row without its successor (a word that is
    not reduced) raises ValueError rather than vanishing from the mask.

    Q is one int: the count of block index j in row r sits in the field of
    ``width = top.bit_length()`` bits at bit ``((j - 1) * top + r) * width``,
    so block index j owns the ``top * width`` bits from ``(j - 1) * top *
    width`` on.  Letters entering row r are at least r + 1, so there are at
    most ``top`` rows, and a row of distinct letters from 1..``top`` holds
    at most ``top`` cells, so each count fits its field.  A row of Q weakly
    increases, so its counts fix it.

    Blocks are inserted rightmost first, so a tuple that shares its first k
    blocks with the one before it resumes from the tableaux those blocks
    left: sorted tuples share the most.  Only the states along the current
    tuple's blocks are kept.

    The vertices of one crystal share few insertion tableaux, so the walk
    also keeps, for its own life, a table from (P rows, block) to the P
    rows after the block and the Q cells it adds, packed as at block index
    1.  The first tuple neither reads nor fills it, so a one-tuple walk
    costs what the row rule costs; a block that raises stores nothing.
    """
    width = top.bit_length()
    stride = top * width
    states = [((), 0)]  # states[k]: P and Q after the first k blocks
    previous: tuple = ()
    inserted = None  # (P rows, block) -> (P rows after it, its Q cells), from the second tuple on
    for factors in sequences:
        shared = 0
        for a, b in zip(previous, factors):
            if a != b:
                break
            shared += 1
        del states[shared + 1:]
        p, q = states[shared]
        rows = None  # the rows of p as a list, made on the first miss
        for k in range(shared, len(factors)):
            block = factors[k]
            if block:
                hit = None if inserted is None else inserted.get((p, block))
                if hit is None:
                    if rows is None:
                        rows = list(p)
                    cells = 0
                    for a in reversed(block):
                        bit = 1 << a
                        for r, row in enumerate(rows):
                            above = row & -(bit << 1)  # the letters of the row above a
                            if not row & bit:
                                if not above:
                                    rows[r] = row | bit
                                    break
                                lowest = above & -above  # b, the smallest of them
                                rows[r] = row ^ lowest ^ bit
                                bit = lowest
                            elif above & bit << 1:
                                bit <<= 1  # a and a+1 both sit in the row, which stays: a+1 is bumped
                            else:
                                a = bit.bit_length() - 1
                                raise ValueError(
                                    f"letter {a} meets itself in row {r + 1} without {a + 1}: "
                                    "the word is not reduced")
                        else:
                            r = len(rows)
                            rows.append(bit)
                        cells += 1 << r * width
                    hit = (tuple(rows), cells)
                    if inserted is not None:
                        inserted[p, block] = hit
                else:
                    rows = None
                p, cells = hit
                q += cells << k * stride
            states.append((p, q))
        yield p, q
        previous = factors
        if inserted is None:
            inserted = {}


def _pair(p: tuple[int, ...], q: int, top: int) -> EGPair:
    """The pair of the walk's P rows ``p`` and packed Q ``q``, P as a
    tableau and Q left packed until it is read."""
    if not p:  # no letters, so top may be 0
        return EGPair(Tableau(()), Tableau(()))
    pair = EGPair(Tableau(tuple(map(_letters, p))), None)
    object.__setattr__(pair, "_packed", (q, top, len(p)))
    return pair


def _q_tableau(q: int, top: int, height: int) -> Tableau:
    """The recording tableau of the packed Q ``q`` with ``height`` rows.

    Row r of Q is read from the fields of row r in every block index's
    column, gathered by one mask and visited by their set bits, lowest
    block index first.
    """
    width = top.bit_length()
    stride = top * width
    field = (1 << width) - 1
    columns = -(-q.bit_length() // stride)
    row_0 = field * (((1 << columns * stride) - 1) // ((1 << stride) - 1))  # row 0 of every column
    q_rows = []
    for r in range(height):
        fields = q >> r * width & row_0
        row: list[int] = []
        while fields:
            j = ((fields & -fields).bit_length() - 1) // stride
            count = fields >> j * stride & field
            row += [j + 1] * count
            fields ^= count << j * stride
        q_rows.append(tuple(row))
    return Tableau(tuple(q_rows))


@lru_cache(maxsize=None)
def _letters(row: int) -> tuple[int, ...]:
    """The letters of a row bitmask, in increasing order; one table entry
    per distinct row."""
    out = []
    while row:
        lowest = row & -row
        out.append(lowest.bit_length() - 1)
        row ^= lowest
    return tuple(out)


def _largest_letter(factorization: DecreasingFactorization) -> int:
    """The largest letter of ``factorization``, 0 when it has none; a letter
    below 1 is refused."""
    blocks = [block for block in factorization.factors if block]
    if any(block[-1] < 1 for block in blocks):
        raise ValueError(f"{factorization.compact()} has a letter below 1")
    return max((block[0] for block in blocks), default=0)


def eg_insert(factorization: DecreasingFactorization) -> EGPair:
    """Insertion and recording tableaux of a decreasing factorization."""
    return next(eg_insert_all((factorization,)))


def eg_insert_all(factorizations: Iterable[DecreasingFactorization]) -> Iterator[EGPair]:
    """The insertion and recording tableaux of each factorization in turn.

    One :func:`_eg_walk` runs over each stretch of factorizations with the
    same largest letter, so a factorization resumes from the tableaux of
    the leading blocks it shares with the one before it.
    """
    for top, group in groupby(factorizations, _largest_letter):
        for p, q in _eg_walk((fz.factors for fz in group), top):
            yield _pair(p, q, top)


def eg_insert_word(system: CoxeterSystem, word: Word) -> EGPair:
    """Insertion of a reduced word embedded with one letter per block; a
    word that is not reduced, or a letter that is not a generator of
    ``system``, raises ValueError."""
    word = tuple(word)
    if not system.is_reduced(word):
        raise ValueError(f"{format_word(word)} is not a reduced word of {system!r}")
    top = max(system.index_set, default=0)
    (p, q), = _eg_walk((tuple(zip(reversed(word))),), top)
    return _pair(p, q, top)


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


def _ck_window(x: int, y: int, z: int) -> tuple[Word, str] | None:
    """The Coxeter-Knuth move of the window xyz, as (partner window, kind),
    or None when it has none.

    The braid move swaps (a+1)a(a+1) with a(a+1)a; for letters a < b < c
    the windows bac/bca exchange their last two letters and cab/acb their
    first two.  The three patterns are mutually exclusive, so a window has
    at most one move.  The left-hand side of each kind is the side whose
    middle letter is its least (y < x).
    """
    if x == z:
        return ((y, x, y), BRAID) if abs(x - y) == 1 else None
    if min(y, z) < x < max(y, z):
        return (x, z, y), MIDDLE_FIRST
    if min(x, y) < z < max(x, y):
        return (y, x, z), MIDDLE_LAST
    return None


def ck_moves(word: Word) -> list[tuple[Word, str]]:
    """Single-relation rewrites of three consecutive letters, with the kind,
    one per window that has a move (see :func:`_ck_window`)."""
    word = tuple(word)
    out: list[tuple[Word, str]] = []
    for j in range(len(word) - 2):
        move = _ck_window(*word[j:j + 3])
        if move is not None:
            partner, kind = move
            out.append((word[:j] + partner + word[j + 3:], kind))
    return out


def ck_neighbors(word: Word) -> frozenset[Word]:
    return frozenset(w for w, _ in ck_moves(word))


class CKGraph(Frozen):
    """Reduced words of one element joined by single Coxeter-Knuth moves."""

    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[Word, ...], edges: tuple[tuple[Word, Word, str], ...]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices, self.edges) == (other.vertices, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def components(self) -> tuple[frozenset[Word], ...]:
        """Coxeter-Knuth classes, ordered by their least word (the vertices
        are in lexicographic order)."""
        vertices = self.vertices
        position = {v: k for k, v in enumerate(vertices)}
        groups = _position_components(len(vertices), ((position[u], position[v]) for u, v, _ in self.edges))
        return tuple(frozenset(vertices[k] for k in group) for group in groups)

    def to_dot(self, name: str = "ck") -> str:
        from .dot import digraph

        order = {v: k for k, v in enumerate(self.vertices)}
        edges = [(order[u], order[v], {"label": kind, "dir": "none"}) for u, v, kind in self.edges]
        return digraph(name, map(format_word, self.vertices), edges)


def _ck_edges(system: CoxeterSystem, words: tuple[Word, ...]) -> Iterator[tuple[int, int, str]]:
    """``(k, l, kind)`` for each single Coxeter-Knuth move from ``words[k]``
    to a larger word ``words[l]``, in order of k, then of the window; a
    move to a word outside ``words``, the reduced words of one element of
    ``system``, raises ValueError.

    A move is forward when its partner window is larger than its window,
    so only forward moves build a partner word; each distinct window is
    read by :func:`_ck_window` once per call.
    """
    position = {word: k for k, word in enumerate(words)}
    forward: dict[Word, tuple[Word, str] | None] = {}  # window -> its forward move, None when it has none
    for k, u in enumerate(words):
        for j in range(len(u) - 2):
            window = u[j:j + 3]
            move = forward.get(window, False)
            if move is False:
                move = _ck_window(*window)
                if move is not None and move[0] < window:
                    move = None
                forward[window] = move
            if move is not None:
                v = u[:j] + move[0] + u[j + 3:]
                target = position.get(v)
                if target is None:
                    raise ValueError(
                        f"Coxeter-Knuth move {format_word(u)} -> {format_word(v)} leaves the "
                        f"reduced words of {system!r}; the relations are those of type A"
                    )
                yield k, target, move[1]


def ck_graph(system: CoxeterSystem, w) -> CKGraph:
    """The Coxeter-Knuth graph of ``w``: its reduced words, in lexicographic
    order, and each move once as (smaller word, larger word, kind), sorted.
    The words are numbered in that order, so sorting the integer edges of
    :func:`_ck_edges` sorts the word triples."""
    words = system.reduced_words(w)
    return CKGraph(words, tuple((words[k], words[l], kind) for k, l, kind in sorted(_ck_edges(system, words))))


def ck_components(system: CoxeterSystem, w) -> tuple[frozenset[Word], ...]:
    """Partition of the reduced words into Coxeter-Knuth classes."""
    return ck_graph(system, w).components()


# ----------------------------------------------------------------------
# executable identities


def same_p_tableau_iff_ck_equivalent(system: CoxeterSystem, w) -> CheckReport:
    """Two reduced words insert to the same P tableau exactly when they are
    Coxeter-Knuth equivalent.

    Each word is numbered by its place in ``reduced_words``.  The relation
    classes come from a union-find over those numbers; one :func:`_eg_walk`
    inserts the words as sorted singleton-block tuples, and the words are
    grouped by their P rows.
    """
    words = system.reduced_words(w)
    ck_classes = _position_components(len(words), ((k, target) for k, target, _ in _ck_edges(system, words)))
    singletons = sorted((tuple(zip(reversed(word))), k) for k, word in enumerate(words))
    walk = _eg_walk((blocks for blocks, _ in singletons), max(system.index_set, default=0))
    by_p: dict = {}
    for (_, k), (p, _) in zip(singletons, walk):
        by_p.setdefault(p, []).append(k)
    p_classes = sorted(sorted(group) for group in by_p.values())
    passed = p_classes == ck_classes
    detail = f"{len(p_classes)} insertion classes vs {len(ck_classes)} relation classes"
    return CheckReport("same-P-iff-CK", passed, detail)


def _component_correspondence(system: CoxeterSystem, w, graph: CrystalGraph) -> CheckReport:
    """Coxeter-Knuth classes match crystal components through the embedding
    of words as singleton-block factorizations, on the crystal ``graph`` of
    ``w`` with one block per letter.

    Each word is numbered by its place in ``reduced_words`` and found among
    the vertices by its singleton-block tuple (the lone empty block at the
    identity); its crystal class is the component of that vertex's
    position.  The relation classes come from a union-find over the word
    numbers, as in :func:`same_p_tableau_iff_ck_equivalent`.
    """
    labels = graph._component_labels()
    position = {v.factors: k for k, v in enumerate(graph.vertices)}
    words = system.reduced_words(w)
    induced: dict[int, list[int]] = {}
    for k, word in enumerate(words):
        blocks = tuple(zip(reversed(word))) or ((),)
        induced.setdefault(labels[position[blocks]], []).append(k)
    ck_classes = _position_components(len(words), ((k, target) for k, target, _ in _ck_edges(system, words)))
    components = len(set(labels))
    # both lists hold increasing word numbers, ordered by their least one
    passed = components == len(ck_classes) and list(induced.values()) == ck_classes
    detail = f"{components} crystal components, {len(ck_classes)} word classes"
    return CheckReport("CK-vs-crystal-components", passed, detail)


def ck_edge_operator_identity(system: CoxeterSystem, w) -> CheckReport:
    """On each relation edge the word with the left-hand pattern maps to the
    other by f_m f_{m+1} e_m e_{m+1}, m determined by the window position.

    The four operators act on blocks m, m+1 and m+2 alone, the window's
    singleton blocks, so each distinct window is decided once per call: the
    one block step :func:`~redwords.crystal._moved` runs four times on
    ``((z,), (y,), (x,))`` for the window xyz, and the result must be the
    partner window's singleton blocks.  The partner window must also spell
    the same element, so the partner word is a reduced word of ``w``.  A
    failing window counts once per word it occurs in.
    """
    failing: dict[Word, bool] = {}  # window -> its verdict; False where it has no left-hand move
    failures = 0
    for word in system.reduced_words(w):
        for j in range(len(word) - 2):
            window = word[j:j + 3]
            fails = failing.get(window)
            if fails is None:
                fails = failing[window] = _ck_window_fails(system, window)
            failures += fails
    return CheckReport(
        "CK-edge-operator-identity",
        not failures,
        f"{failures} failing windows" if failures else "all windows verified",
    )


def _ck_window_fails(system: CoxeterSystem, window: Word) -> bool:
    """True when the window's left-hand move breaks the edge identity of
    :func:`ck_edge_operator_identity`; False when it has none."""
    x, y, z = window
    move = _ck_window(x, y, z)
    if move is None or y > x:
        return False
    partner, _ = move
    blocks = ((z,), (y,), (x,))  # blocks are numbered from the right, 1-based
    blocks = _moved(_raised, blocks, 2)
    blocks = _moved(_raised, blocks, 1)
    blocks = _moved(_lowered, blocks, 2)
    blocks = _moved(_lowered, blocks, 1)
    return blocks != tuple(zip(reversed(partner))) or system.evaluate(partner) != system.evaluate(window)


def intertwining_check(system: CoxeterSystem, w, num_factors: int | None = None) -> CheckReport:
    """Recording tableaux commute with the crystal operators.

    For every vertex and every index, applying e or f before or after taking
    the recording tableau gives the same answer, with None matching None.
    The block tuples and the f rows are those of
    ``factorization_crystal(system, w, num_factors)``: a caller still
    holding that graph lends its rows, and otherwise they are built as the
    crystal builds them (``crystal._crystal_rows``), with no vertex object
    and no graph.  One :func:`_eg_walk` inserts the tuples.  The e rows are
    filled from ``crystal._raised``, each splice looked up among the tuples,
    so the check tests two operators and not one operator and its inverse;
    an image outside the tuples raises ValueError.  No tableau is built
    (see :func:`_intertwining`).
    """
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    graph = _held_crystal(system, w, num_factors)
    if graph is None:
        index_set, sequences, position, f_rows = _crystal_rows(system, w, num_factors)
    else:
        index_set, f_rows = graph.index_set, graph.f_rows
        sequences = [v.factors for v in graph.vertices]
        position = {blocks: k for k, blocks in enumerate(sequences)}
    e_rows = _operator_rows(sequences, position, index_set, "e", _raised)
    top = max(system.index_set, default=0)
    qs = [q for _, q in _eg_walk(sequences, top)]
    return _intertwining(qs, f_rows, e_rows, index_set, top)


def _intertwining(
    qs: list[int], f_rows: list[list[int]], e_rows: list[list[int]], colours: Iterable[int], top: int
) -> CheckReport:
    """:func:`intertwining_check` on vertex positions: ``qs[k]`` is the
    packed recording tableau of vertex k, and ``f_rows[c][k]`` and
    ``e_rows[c][k]`` are the positions f and e of the colour
    ``colours[c]`` send vertex k to, -1 where undefined, as
    :class:`~redwords.crystal.CrystalGraph` stores them.

    Q is packed as :func:`_eg_walk` packs it, letters in 1..``top``: the
    count of block index j in row r is the field of ``top.bit_length()``
    bits at bit ``((j - 1) * top + r) * top.bit_length()``, so the counts
    of i and i+1 in every row are the two ``top``-field columns from bit
    ``(i - 1) * top * top.bit_length()`` on.

    The tableau side brackets the two columns (:func:`_bracket_changes`,
    once per distinct pair of columns), and the image's Q must be Q plus
    or minus one packed unit in the row the bracketing names; an undefined
    image must meet an undefined bracketing move.
    """
    stride = top * top.bit_length()
    columns = (1 << 2 * stride) - 1
    changes_of: dict[int, tuple[int | None, int | None]] = {}
    colours = tuple(colours)
    failures = 0
    for i, f_row, e_row in zip(colours, f_rows, e_rows):
        shift = (i - 1) * stride
        for q, down, up in zip(qs, f_row, e_row):
            pair = q >> shift & columns
            changes = changes_of.get(pair)
            if changes is None:
                changes = changes_of[pair] = _bracket_changes(pair, top)
            f_change, e_change = changes
            if down < 0:
                failures += f_change is not None
            else:
                failures += f_change is None or qs[down] != q + (f_change << shift)
            if up < 0:
                failures += e_change is not None
            else:
                failures += e_change is None or qs[up] != q + (e_change << shift)
    return CheckReport(
        "EG-intertwining",
        failures == 0,
        f"{len(qs)} vertices x {len(colours)} colours"
        + ("" if failures == 0 else f", {failures} failures"),
    )


def _bracket_changes(columns: int, top: int) -> tuple[int | None, int | None]:
    """What f_1 and e_1 add to a packed Q whose entries are all 1 or 2,
    given as ``columns``: the ``top`` counts of 1, row 0 first, then those
    of 2, each a field of ``top.bit_length()`` bits.  Colour i reads the
    columns of i and i+1 shifted down to these.  Returns ``(f change, e
    change)``, None where the operator does not apply.

    The rows come from the tableau crystal's own signature rule
    (:func:`~redwords.tableaux._signature`): f moves one count of the f
    row from its 1 field to its 2 field, and e one count of the e row
    back.
    """
    width = top.bit_length()
    field = (1 << width) - 1
    unit = (1 << top * width) - 1  # one less 1 and one more 2 in row 0
    last, first = _signature(
        [(columns >> r * width & field, columns >> (top + r) * width & field) for r in range(top)]
    )
    return (
        None if last < 0 else unit << last * width,
        None if first < 0 else -(unit << first * width),
    )


def _q_shape(q: int, top: int) -> tuple[int, ...]:
    """The row lengths of the packed recording tableau ``q`` (laid out as
    :func:`_eg_walk` packs it, letters in 1..``top``)."""
    width = top.bit_length()
    stride = top * width
    field = (1 << width) - 1
    total = 0  # each row's count summed over the block indices, at most top
    while q:
        total += q & (1 << stride) - 1
        q >>= stride
    shape = []
    while total:
        shape.append(total & field)
        total >>= width
    return tuple(shape)


def _is_yamanouchi(q: int, top: int) -> bool:
    """True when row r of the packed recording tableau ``q`` holds only the
    entry r+1 (the highest weight filling)."""
    width = top.bit_length()
    return q == sum(length << r * (top + 1) * width for r, length in enumerate(_q_shape(q, top)))
