"""Crystal structure on decreasing factorizations.

A decreasing factorization of a group element w splits a reduced word for w
into consecutive strictly decreasing blocks.  With ``num_factors`` blocks
(empty blocks allowed) the set of all such factorizations carries raising and
lowering operators e_i / f_i for 1 <= i < num_factors that move one letter
between adjacent blocks after a bracketing of their contents.  The weight of
a factorization lists the block lengths starting from the rightmost block.

Internally ``factors[0]`` is the rightmost block (the one acted on first by
the group product); display order is the reverse, matching the usual
left-to-right notation.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache

from .coxeter import CoxeterSystem, Word, format_word, parse_word
from .reports import Frozen


def _bracket(upper: Word, lower: Word) -> tuple[list[int], list[int]]:
    """Bracketing of two blocks in one merge pass.

    ``upper`` must be non-increasing and ``lower`` strictly decreasing.  The
    lower letters larger than the current upper letter wait on a stack, so
    its top is the smallest of them not yet used; each upper letter pairs
    with that top, or is unpaired when the stack is empty.  Returns the
    unpaired upper and lower letters, both in decreasing order.
    """
    stack: list[int] = []
    unpaired: list[int] = []
    j = 0
    for b in upper:
        while j < len(lower) and lower[j] > b:
            stack.append(lower[j])
            j += 1
        if stack:
            stack.pop()
        else:
            unpaired.append(b)
    stack.extend(lower[j:])
    return unpaired, stack


def _check_block(block: Word) -> None:
    for k in range(len(block) - 1):
        if block[k] <= block[k + 1]:
            raise ValueError(f"block {block} is not strictly decreasing")


def _inserted(block: Word, letter: int) -> Word:
    """``block`` with ``letter`` placed where the decreasing order puts it."""
    k = 0
    while k < len(block) and block[k] > letter:
        k += 1
    return block[:k] + (letter,) + block[k:]


# The crystal operators and the highest-weight test read only the two blocks
# they act on, so each is tabulated once per pair of blocks: at most 4^r
# pairs of decreasing blocks on r letters, each result an immutable tuple.
# Every block is checked once, where it is first made: the new blocks here
# when their pair is first met, the enumerated blocks when their peel table
# is filled (see _peels), and the blocks handed to DecreasingFactorization
# by its constructor.  Factorizations assembled from checked blocks are
# built by _unchecked, which skips the constructor's check.


@lru_cache(maxsize=None)
def _raised(upper: Word, lower: Word) -> tuple[Word, Word] | None:
    """The blocks (upper, lower) after e moves the smallest unpaired upper
    letter b down to b-t, t counting the letters b-1, b-2, ... in ``upper``;
    None when every upper letter is paired."""
    left, _ = _bracket(upper, lower)
    if not left:
        return None
    b = left[-1]
    k = upper.index(b)
    t = 0
    while k + t + 1 < len(upper) and upper[k + t + 1] == b - t - 1:
        t += 1
    return _checked(upper[:k] + upper[k + 1:], _inserted(lower, b - t))


@lru_cache(maxsize=None)
def _lowered(upper: Word, lower: Word) -> tuple[Word, Word] | None:
    """The blocks (upper, lower) after f moves the largest unpaired lower
    letter a up to a+s, s counting the letters a+1, a+2, ... in ``lower``;
    None when every lower letter is paired."""
    _, right = _bracket(upper, lower)
    if not right:
        return None
    a = right[0]
    k = lower.index(a)
    s = 0
    while s < k and lower[k - s - 1] == a + s + 1:
        s += 1
    return _checked(_inserted(upper, a + s), lower[:k] + lower[k + 1:])


@lru_cache(maxsize=None)
def _all_upper_paired(upper: Word, lower: Word) -> bool:
    """True when e cannot act on the two blocks: no upper letter is unpaired."""
    return not _bracket(upper, lower)[0]


def _checked(upper: Word, lower: Word) -> tuple[Word, Word]:
    _check_block(upper)
    _check_block(lower)
    return upper, lower


class DecreasingFactorization(Frozen):
    """A tuple of strictly decreasing blocks multiplying to ``target``.

    ``factors[k]`` is block k+1 counted from the right; each block is a
    strictly decreasing tuple of generator indices.  The group element the
    blocks multiply to is carried along; the crystal operators never change
    it.
    """

    __slots__ = _fields = ("factors", "target")

    def __init__(self, factors: tuple[Word, ...], target) -> None:
        for block in factors:
            _check_block(block)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "target", target)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.factors, self.target) == (other.factors, other.target)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.factors, self.target))

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_display(cls, blocks: Iterable[Iterable[int]], target) -> "DecreasingFactorization":
        """Build from blocks listed left to right (highest block first)."""
        ordered = tuple(tuple(b) for b in blocks)[::-1]
        return cls(ordered, target)

    # ------------------------------------------------------------------
    # basic data

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def weight(self) -> tuple[int, ...]:
        """Block lengths, rightmost block first."""
        return tuple(map(len, self.factors))

    def display_factors(self) -> tuple[Word, ...]:
        """Blocks in left-to-right display order (highest block first)."""
        return self.factors[::-1]

    def word(self) -> Word:
        """Concatenation of the blocks in display order."""
        out: list[int] = []
        for block in self.display_factors():
            out.extend(block)
        return tuple(out)

    def validate(self, system: CoxeterSystem) -> None:
        """Check the concatenated word is reduced and spells ``target``."""
        w = self.word()
        if system.evaluate(w) != self.target:
            raise ValueError(f"{self} does not multiply to {self.target}")
        if not system.is_reduced(w):
            raise ValueError(f"{self} is not reduced")

    def __str__(self) -> str:
        parts = []
        for block in self.display_factors():
            parts.append("1" if not block else "*".join(f"s{i}" for i in block))
        return "(" + ", ".join(parts) + ")"

    def compact(self) -> str:
        """Digit notation, e.g. ``(32)(31)(2)`` with ``()`` for an empty block."""
        return "".join("(" + format_word(block) + ")" for block in self.display_factors())

    # ------------------------------------------------------------------
    # crystal operators

    def _check_op_index(self, i: int) -> None:
        if not 1 <= i < len(self.factors):
            raise ValueError(f"operator index {i} out of range for {self.num_factors} blocks")

    def e(self, i: int) -> DecreasingFactorization | None:
        """Raising operator: move a letter from block i+1 down to block i.

        Returns None when every letter of block i+1 is paired.  The moved
        letter b drops to b-t where t counts the consecutive letters just
        below b present in block i+1.
        """
        self._check_op_index(i)
        factors = _moved(_raised, self.factors, i)
        return None if factors is None else _unchecked(factors, self.target)

    def f(self, i: int) -> DecreasingFactorization | None:
        """Lowering operator, inverse to :meth:`e` on every edge.

        Moves a letter from block i up to block i+1: the moved letter a rises
        to a+s where s counts the consecutive letters just above a present in
        block i.  Returns None when every letter of block i is paired.
        """
        self._check_op_index(i)
        factors = _moved(_lowered, self.factors, i)
        return None if factors is None else _unchecked(factors, self.target)

    def epsilon(self, i: int) -> int:
        """Number of times :meth:`e` applies at index i.

        Iterates :func:`_raised` on blocks i+1 and i alone, the only blocks
        e_i reads, so no factorization is built along the string.
        """
        self._check_op_index(i)
        return _pair_string_length(_raised, self.factors[i], self.factors[i - 1])

    def phi(self, i: int) -> int:
        """Number of times :meth:`f` applies at index i, iterating
        :func:`_lowered` on blocks i+1 and i as :meth:`epsilon` does."""
        self._check_op_index(i)
        return _pair_string_length(_lowered, self.factors[i], self.factors[i - 1])


def _moved(step, factors: tuple[Word, ...] | None, i: int) -> tuple[Word, ...] | None:
    """The blocks after ``step`` (:func:`_raised` or :func:`_lowered`) acts
    on blocks i+1 and i of ``factors``, the new pair spliced back in; None
    when it does not apply or ``factors`` is None."""
    if factors is None:
        return None
    moved = step(factors[i], factors[i - 1])
    return None if moved is None else factors[:i - 1] + (moved[1], moved[0]) + factors[i + 1:]


def _unchecked(factors: tuple[Word, ...], target) -> DecreasingFactorization:
    """A factorization of blocks that were each checked when first made."""
    out = object.__new__(DecreasingFactorization)
    object.__setattr__(out, "factors", factors)
    object.__setattr__(out, "target", target)
    return out


def _pair_string_length(step: Callable[[Word, Word], tuple[Word, Word] | None], upper: Word, lower: Word) -> int:
    """Number of times ``step`` (:func:`_raised` or :func:`_lowered`)
    applies to the block pair before it returns None."""
    count = 0
    while (blocks := step(upper, lower)) is not None:
        upper, lower = blocks
        count += 1
    return count


# ----------------------------------------------------------------------
# enumeration


def _peels(system: CoxeterSystem, u) -> tuple[tuple[tuple[Word, object], ...], Word | None]:
    """The peel table of ``u`` and the block spelling all of ``u``.

    The table holds each pair (block, u * v^-1) where the decreasing block
    v peels off the right of ``u`` with the length dropping by len(v), in
    increasing block order, the empty block first.  The block spelling all
    of ``u`` is the peel that leaves the identity, None when there is none:
    a decreasing word is fixed by its letters, and every reduced word of u
    has the same letters, so at most one block does.

    Filled on first use and kept on the system.  Letters come off the right
    smallest first, so each next letter is a larger right descent of what
    is left.  Each block is checked once, here, when the table is filled;
    the factorizations built from the table are not checked again.
    """
    entry = system._peel_table.get(u)
    if entry is None:
        found = [((), u)]
        stack = [((), u)]
        while stack:
            block, rest = stack.pop()
            for a in system.right_descents(rest):
                if not block or a > block[0]:
                    peel = ((a,) + block, system.right_multiplied(rest, a))
                    _check_block(peel[0])
                    found.append(peel)
                    stack.append(peel)
        found.sort(key=lambda peel: peel[0])
        whole = next((block for block, rest in found if rest == system.identity), None)
        entry = system._peel_table[u] = (tuple(found), whole)
    return entry


def default_num_factors(system: CoxeterSystem, w) -> int:
    """Block count used when unspecified: the length of w (at least one)."""
    return max(1, system.length(w))


def _block_sequences(
    system: CoxeterSystem,
    w,
    num_factors: int | None,
    admissible: Callable[[Word, Word], bool] | None = None,
) -> Iterator[tuple[Word, ...]]:
    """Blocks of every decreasing factorization of ``w``, rightmost first,
    in increasing order of the block tuples.

    ``admissible(block, previous)``, when given, must accept each block
    against the block to its right; a rejected block prunes every
    factorization that would contain it there.

    One walk with an explicit stack over the peel tables: level d runs an
    iterator over the table of what the first d blocks leave of ``w``, and
    each level tries its blocks in increasing order, so the tuples come out
    sorted.  A block is taken only while the letters left fit the blocks
    left, and the last block is the one peel that spells all of what is
    left, read from its table without a scan.
    """
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    if num_factors < 1:
        raise ValueError("need at least one block")
    length = system.length(w)
    rank = len(system.index_set)
    if length > num_factors * rank:
        return
    if num_factors == 1:
        block = _peels(system, w)[1]
        if block is not None:
            yield (block,)
        return
    last = num_factors - 1
    tables = system._peel_table
    chosen: list[Word] = [()] * num_factors
    stack = []  # (peels, letters, previous) of each level below the current one
    d = 0
    peels = iter(_peels(system, w)[0])
    letters = length  # the letters that blocks d, ..., last spell
    cap = last * rank  # the letters that blocks d+1, ..., last can hold
    previous = None  # block d-1 when ``admissible`` is given, else None
    while True:
        for block, rest in peels:
            if previous is not None and not admissible(block, previous):
                continue
            left = letters - len(block)
            if left > cap:
                continue
            # the memo read inline, _peels only on a miss: a call per block
            # made the unpruned walk about a quarter slower
            entry = tables.get(rest) or _peels(system, rest)
            if d + 1 < last:
                chosen[d] = block
                stack.append((peels, letters, previous))
                peels = iter(entry[0])
                letters = left
                cap -= rank
                d += 1
                if admissible is not None:
                    previous = block
                break
            whole = entry[1]
            if whole is not None and (admissible is None or admissible(whole, block)):
                chosen[d] = block
                chosen[last] = whole
                yield tuple(chosen)
        else:
            if not stack:
                return
            peels, letters, previous = stack.pop()
            cap += rank
            d -= 1


def decreasing_factorizations(system: CoxeterSystem, w, num_factors: int | None = None) -> Iterator[DecreasingFactorization]:
    """All decreasing factorizations of ``w`` into exactly ``num_factors`` blocks.

    Blocks may be empty; the block lengths always sum to the length of ``w``.
    """
    for blocks in _block_sequences(system, w, num_factors):
        yield _unchecked(blocks, w)


def highest_weight_factorizations(system: CoxeterSystem, w, num_factors: int | None = None) -> list[DecreasingFactorization]:
    """Factorizations killed by every raising operator.

    Enumerates with pruning: block k+1 is admissible only if the bracketing
    against block k leaves no unpaired upper letter, which is exactly the
    condition e_k = None and depends on no later block.
    """
    found = _block_sequences(system, w, num_factors, _all_upper_paired)
    return [_unchecked(blocks, w) for blocks in found]


def weight_vector_count(system: CoxeterSystem, w, parts: tuple[int, ...]) -> int:
    """Number of decreasing factorizations of ``w`` whose block lengths,
    rightmost block first, are exactly ``parts``; memoised on the system."""
    key = (w, parts)
    count = system._weight_count_cache.get(key)
    if count is None:
        if not parts:
            count = int(w == system.identity)
        else:
            count = sum(
                weight_vector_count(system, rest, parts[1:])
                for block, rest in _peels(system, w)[0]
                if len(block) == parts[0]
            )
        system._weight_count_cache[key] = count
    return count


# ----------------------------------------------------------------------
# crystal graphs


def _position_components(size: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Components of the undirected graph on the positions 0..size-1 with
    the given edge pairs, by union-find with path halving, each a list of
    positions, ordered by their least position."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for k in range(size):
        groups.setdefault(find(k), []).append(k)
    return list(groups.values())


class CrystalGraph:
    """Edge-labelled graph of a crystal: f_i arrows between vertices.

    Vertices are any hashable values; ``weight`` gives the weight of each.
    The vertices are numbered by their place in ``vertices``, and
    ``f_rows[c][k]`` is the position of f_i of ``vertices[k]``, i the colour
    ``index_set[c]``, or -1 where f_i is undefined.  The constructor derives
    the e rows from the f rows; :meth:`e`, :meth:`f`,
    :meth:`highest_weights`, :meth:`components` and
    :func:`stembridge_violations` read the rows, and :attr:`f_edges` is a
    view of them.  :meth:`from_lowering` fills the f rows from an operator,
    and :func:`factorization_crystal` from the one block step
    :func:`_moved`, inlined in :func:`_operator_rows`.

    A vertex listed twice, an f row that is not one position or -1 per
    vertex, and an f_i that maps two vertices to one vertex are each refused
    with ValueError; :meth:`from_lowering` also refuses an image outside
    the vertices.
    """

    def __init__(self, vertices: tuple, index_set: tuple[int, ...], f_rows: list[list[int]],
                 weight: Callable[[object], tuple[int, ...]]) -> None:
        size = len(vertices)
        position = {v: k for k, v in enumerate(vertices)}
        if len(position) != size:
            raise ValueError("a vertex is listed twice")
        if len(f_rows) != len(index_set):
            raise ValueError(f"{len(f_rows)} f rows for the index set {index_set}")
        e_rows = []
        for i, f_row in zip(index_set, f_rows):
            if len(f_row) != size or (f_row and not -1 <= min(f_row) <= max(f_row) < size):
                raise ValueError("edge endpoint outside the vertex set")
            e_row = [-1] * size
            for k, target in enumerate(f_row):
                if target >= 0:
                    if e_row[target] >= 0:
                        raise ValueError(f"f_{i} maps two vertices to {vertices[target]}")
                    e_row[target] = k
            e_rows.append(e_row)
        self.vertices = vertices
        self.index_set = index_set
        self.f_rows = f_rows
        self.weight = weight
        self._position = position
        self._colour = {i: c for c, i in enumerate(self.index_set)}
        self.e_rows = e_rows
        self._edge_count = sum(size - row.count(-1) for row in e_rows)

    def __repr__(self) -> str:
        return (f"CrystalGraph(vertices={self.vertices!r}, index_set={self.index_set!r}, "
                f"f_rows={self.f_rows!r}, weight={self.weight!r})")

    @property
    def f_edges(self) -> "_EdgeView":
        """The f-arrows as a read-only mapping (vertex, i) -> vertex, in
        vertex order, then label order; its length is the arrow count."""
        return _EdgeView(self)

    def _step(self, rows: list[list[int]], v, i: int):
        k = self._position.get(v)
        c = self._colour.get(i)
        if k is None or c is None:
            return None
        target = rows[c][k]
        return None if target < 0 else self.vertices[target]

    def f(self, v, i: int):
        return self._step(self.f_rows, v, i)

    def e(self, v, i: int):
        return self._step(self.e_rows, v, i)

    def _arrows(self) -> Iterator[tuple[int, int, int]]:
        """(source position, label, target position) of every f-arrow,
        ordered by source position, then label."""
        labels = sorted(self._colour.items())
        for k in range(len(self.vertices)):
            for i, c in labels:
                target = self.f_rows[c][k]
                if target >= 0:
                    yield k, i, target

    def edges(self) -> list[tuple[object, int, object]]:
        """Sorted (source, label, target) triples."""
        vertices = self.vertices
        return [(vertices[k], i, vertices[t]) for k, i, t in self._arrows()]

    def highest_weights(self) -> list[tuple[object, tuple[int, ...]]]:
        """Vertices with no incoming f-arrow of any colour, with weights."""
        e_rows = self.e_rows
        return [
            (v, self.weight(v))
            for k, v in enumerate(self.vertices)
            if all(row[k] < 0 for row in e_rows)
        ]

    def _string_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """The string lengths of every vertex: ``(epsilon, phi)`` where
        ``epsilon[c][k]`` and ``phi[c][k]`` count how often e and f of the
        colour ``index_set[c]`` apply from ``vertices[k]``.

        One pass per colour walks each f-string once from its head, the one
        vertex of the string where e is undefined.  The vertices of an
        f-string with no head, a cycle, get -1 in both tables.
        """
        size = len(self.vertices)
        epsilon, phi = [], []
        for f_row, e_row in zip(self.f_rows, self.e_rows):
            eps_row, phi_row = [-1] * size, [-1] * size
            for head, above in enumerate(e_row):
                if above >= 0:
                    continue
                string = [head]
                k = f_row[head]
                while k >= 0:
                    string.append(k)
                    k = f_row[k]
                last = len(string) - 1
                for depth, k in enumerate(string):
                    eps_row[k] = depth
                    phi_row[k] = last - depth
            epsilon.append(eps_row)
            phi.append(phi_row)
        return epsilon, phi

    @classmethod
    def from_lowering(
        cls,
        vertices: tuple,
        index_set: tuple[int, ...],
        f: Callable[[object, int], object],
        weight: Callable[[object], tuple[int, ...]],
    ) -> "CrystalGraph":
        """The graph of the lowering operator ``f(vertex, i)`` on ``vertices``,
        where None means f_i does not apply; an image outside ``vertices``
        raises ValueError."""
        position = {v: k for k, v in enumerate(vertices)}
        f_rows = []
        for i in index_set:
            row = []
            for v in vertices:
                image = f(v, i)
                target = -1 if image is None else position.get(image)
                if target is None:
                    raise ValueError(f"f_{i} maps {v} outside the vertex set")
                row.append(target)
            f_rows.append(row)
        return cls(vertices, index_set, f_rows, weight)

    def _component_positions(self) -> list[list[int]]:
        return _position_components(
            len(self.vertices), ((k, t) for row in self.f_rows for k, t in enumerate(row) if t >= 0)
        )

    def components(self) -> tuple[frozenset, ...]:
        """Connected components, each a frozenset of vertices, ordered by
        their first vertex."""
        vertices = self.vertices
        return tuple(frozenset(vertices[k] for k in group) for group in self._component_positions())

    def _component_labels(self) -> list[int]:
        """The component index of each vertex position, the components
        numbered by their first vertex."""
        labels = [0] * len(self.vertices)
        for label, group in enumerate(self._component_positions()):
            for k in group:
                labels[k] = label
        return labels

    def to_dot(self, name: str = "crystal") -> str:
        from .dot import digraph

        edges = [(k, t, {"label": str(i)}) for k, i, t in self._arrows()]
        return digraph(name, map(str, self.vertices), edges)


def factorization_crystal(system: CoxeterSystem, w, num_factors: int | None = None) -> CrystalGraph:
    """The crystal graph on all decreasing factorizations of ``w``, its
    vertices sorted by their blocks.

    The graph :meth:`CrystalGraph.from_lowering` builds from
    :meth:`DecreasingFactorization.f`, made without building each image:
    the sorted block tuples are numbered, and each colour's f row moves
    each tuple by :func:`_lowered` (see :func:`_moved`) and looks the
    result up among the tuples.

    The system keeps a weak table of the graphs it has built, keyed by
    ``(w, num_factors)``: while a caller still holds the graph of a key,
    the call returns that same object, and no graph outlives its last
    caller.  The table is made on the first build, so importing the
    package does not load ``weakref``.
    """
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    live = system._crystals
    if live is None:
        from weakref import WeakValueDictionary

        live = system._crystals = WeakValueDictionary()
    key = (w, num_factors)
    graph = live.get(key)
    if graph is None:
        index_set = tuple(range(1, num_factors))
        sequences = tuple(_block_sequences(system, w, num_factors))
        position = {blocks: k for k, blocks in enumerate(sequences)}
        f_rows = _operator_rows(sequences, position, index_set, "f", _lowered)
        vertices = tuple(_unchecked(blocks, w) for blocks in sequences)
        graph = live[key] = CrystalGraph(vertices, index_set, f_rows, DecreasingFactorization.weight)
    return graph


def _operator_rows(
    sequences: Sequence[tuple[Word, ...]],
    position: Mapping[tuple[Word, ...], int],
    index_set: Iterable[int],
    name: str,
    step: Callable[[Word, Word], tuple[Word, Word] | None],
) -> list[list[int]]:
    """One row per colour i of ``index_set``: entry k is the position, in
    ``position``, of the blocks ``step`` (:func:`_lowered` or
    :func:`_raised`) makes of blocks i+1 and i of ``sequences[k]`` spliced
    back in, -1 where ``step`` returns None.  An image outside ``position``
    raises ValueError naming the operator ``name``_i."""
    find = position.get
    rows = []
    for i in index_set:
        row = []
        add = row.append
        for blocks in sequences:
            moved = step(blocks[i], blocks[i - 1])
            if moved is None:
                add(-1)
                continue
            upper, lower = moved
            target = find(blocks[:i - 1] + (lower, upper) + blocks[i + 1:])  # _moved, inlined
            if target is None:
                raise ValueError(f"{name}_{i} maps {_unchecked(blocks, None)} outside the vertex set")
            add(target)
        rows.append(row)
    return rows


class _EdgeView(Mapping):
    """The f-arrows of a :class:`CrystalGraph` read from its rows, as a
    mapping (vertex, i) -> vertex."""

    def __init__(self, graph: CrystalGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._edge_count

    def __iter__(self) -> Iterator[tuple[object, int]]:
        vertices = self._graph.vertices
        return ((vertices[k], i) for k, i, _ in self._graph._arrows())

    def __getitem__(self, key: tuple[object, int]):
        target = self._graph.f(*key)
        if target is None:
            raise KeyError(key)
        return target


# ----------------------------------------------------------------------
# parsing


_FACTOR_TOKEN = re.compile(r"\(([0-9,]*)\)|1")


def parse_blocks(text: str) -> list[tuple[int, ...]]:
    """Blocks of digit notation like ``(32)(31)(2)``, listed left to right.

    A bare ``1`` or an empty group ``()`` denotes an empty block.  A group
    holds a word in the letter syntax of :func:`~redwords.coxeter.parse_word`:
    single digits, or comma separated, as in ``(10,1)`` or ``(10,)``.
    """
    stripped = text.replace(" ", "")
    blocks: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(stripped):
        match = _FACTOR_TOKEN.match(stripped, pos)
        if match is None:
            raise ValueError(f"cannot parse factorization {text!r} at {stripped[pos:]!r}")
        blocks.append(parse_word(match.group(1) or ""))
        pos = match.end()
    return blocks


def parse_factorization(system: CoxeterSystem, text: str) -> DecreasingFactorization:
    """Parse digit notation (see :func:`parse_blocks`) into a factorization
    of the element it spells; every letter must be a generator of ``system``."""
    blocks = parse_blocks(text)
    target = system.evaluate(letter for block in blocks for letter in block)
    fz = DecreasingFactorization.from_display(blocks, target)
    fz.validate(system)
    return fz


# ----------------------------------------------------------------------
# structural checks


def stembridge_violations(graph: CrystalGraph) -> list[str]:
    """Local axiom spot checks on a crystal graph, simply laced indices.

    Checks, for every vertex x and indices i != j with e_i(x) defined:
    distant colours leave the j-string data unchanged and commute; adjacent
    colours change (eps_j, phi_j) by (0,-1) or (+1,0); and the closures of
    adjacent colours hold: e_j e_i x = e_i e_j x whenever e_i leaves eps_j
    unchanged (Stembridge's P5, which asks nothing of what e_j does to
    eps_i), and e_i e_j e_j e_i x = e_j e_i e_i e_j x when each raising
    moves the other's eps.  Returns human-readable descriptions of any
    violations.

    The checks run on vertex positions: eps and phi of every vertex come
    from one walk of each f-string from its head, one pass per colour, and the
    raising operators from the graph's e lists.  An f-string with no head
    (a cycle) has no string lengths, so a graph with one is reported by
    its cycles alone, each named at its first vertex.
    """
    vertices = graph.vertices
    e = graph.e_rows
    eps, phi = graph._string_tables()
    bad: list[str] = []
    for c, i in enumerate(graph.index_set):
        on_cycle: set[int] = set()
        for k, depth in enumerate(eps[c]):
            if depth < 0 and k not in on_cycle:
                bad.append(f"f_{i} string through {vertices[k]} has no head (a cycle)")
                while k not in on_cycle:
                    on_cycle.add(k)
                    k = graph.f_rows[c][k]
    if bad:
        return bad

    # the ordered colour pairs i != j, and the adjacent ones, listed once
    colours = tuple(enumerate(graph.index_set))
    others = [(c, i, [(d, j) for d, j in colours if j != i]) for c, i in colours]
    adjacent = [(c, i, d, j) for c, i in colours for d, j in colours if abs(i - j) == 1]
    for x, vertex in enumerate(vertices):
        for c, i, pairs in others:
            y = e[c][x]
            if y < 0:
                continue
            for d, j in pairs:
                d_eps = eps[d][y] - eps[d][x]
                d_phi = phi[d][y] - phi[d][x]
                if abs(i - j) >= 2:
                    if (d_eps, d_phi) != (0, 0):
                        bad.append(f"distant colours {i},{j} move string data at {vertex}")
                    z = e[d][x]
                    if z >= 0 and e[d][y] != e[c][z]:
                        bad.append(f"distant colours {i},{j} fail to commute at {vertex}")
                elif (d_eps, d_phi) not in {(0, -1), (1, 0)}:
                    bad.append(
                        f"adjacent colours {i},{j} give (d_eps,d_phi)=({d_eps},{d_phi}) at {vertex}"
                    )
        for c, i, d, j in adjacent:
            yi = e[c][x]
            yj = e[d][x]
            if yi < 0 or yj < 0:
                continue
            di = eps[d][yi] - eps[d][x]
            dj = eps[c][yj] - eps[c][x]
            if di == 0:
                top = e[d][yi]
                if top != e[c][yj] or top < 0:
                    bad.append(f"square closure fails for colours {i},{j} at {vertex}")
            if di == 1 and dj == 1:
                a = _raised_along(e, x, (c, d, d, c))
                b = _raised_along(e, x, (d, c, c, d))
                if a < 0 or a != b:
                    bad.append(f"double-string closure fails for colours {i},{j} at {vertex}")
    return bad


def _raised_along(e_rows: list[list[int]], x: int, colours: tuple[int, ...]) -> int:
    """Raise position ``x`` by the e list of each colour index in turn; -1
    once one is undefined."""
    for c in colours:
        x = e_rows[c][x]
        if x < 0:
            return -1
    return x
