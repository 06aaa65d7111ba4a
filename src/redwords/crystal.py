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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .coxeter import CoxeterSystem, Word


def bracket_unpaired(upper: Iterable[int], lower: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pair letters of ``upper`` into ``lower`` and return the leftovers.

    Letters of ``upper`` are processed in decreasing order; each is paired
    with the smallest strictly larger letter of ``lower`` not yet used.
    Returns (unpaired upper letters, unpaired lower letters), both sorted
    increasingly.
    """
    lower_set = set(lower)
    used: set[int] = set()
    unpaired_upper = []
    for b in sorted(upper, reverse=True):
        candidates = [a for a in lower_set - used if a > b]
        if candidates:
            used.add(min(candidates))
        else:
            unpaired_upper.append(b)
    return tuple(sorted(unpaired_upper)), tuple(sorted(lower_set - used))


@dataclass(frozen=True)
class DecreasingFactorization:
    """A tuple of strictly decreasing blocks multiplying to ``target``.

    ``factors[k]`` is block k+1 counted from the right; each block is a
    strictly decreasing tuple of generator indices.  The group element the
    blocks multiply to is carried along so crystal operators can assert they
    never change it.
    """

    factors: tuple[Word, ...]
    target: object

    def __post_init__(self) -> None:
        for block in self.factors:
            if any(block[k] <= block[k + 1] for k in range(len(block) - 1)):
                raise ValueError(f"block {block} is not strictly decreasing")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_display(cls, blocks: Iterable[Iterable[int]], target) -> "DecreasingFactorization":
        """Build from blocks listed left to right (highest block first)."""
        ordered = tuple(tuple(b) for b in blocks)[::-1]
        return cls(ordered, target)

    @classmethod
    def from_word(cls, system: CoxeterSystem, word: Word) -> "DecreasingFactorization":
        """Embed a word as singleton blocks, one letter per block."""
        factors = tuple((letter,) for letter in reversed(tuple(word)))
        return cls(factors, system.evaluate(word))

    # ------------------------------------------------------------------
    # basic data

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def weight(self) -> tuple[int, ...]:
        """Block lengths, rightmost block first."""
        return tuple(len(b) for b in self.factors)

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
        if system.length(self.target) != len(w):
            raise ValueError(f"{self} is not reduced")

    def __str__(self) -> str:
        parts = []
        for block in self.display_factors():
            parts.append("1" if not block else "*".join(f"s{i}" for i in block))
        return "(" + ", ".join(parts) + ")"

    def compact(self) -> str:
        """Digit notation, e.g. ``(32)(31)(2)`` with ``()`` for an empty block."""
        return "".join(
            "(" + "".join(str(i) for i in block) + ")"
            for block in self.display_factors()
        )

    # ------------------------------------------------------------------
    # crystal operators

    def _check_op_index(self, i: int) -> None:
        if not 1 <= i < self.num_factors:
            raise ValueError(f"operator index {i} out of range for {self.num_factors} blocks")

    def pairing(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Unpaired letters between blocks i+1 (upper) and i (lower)."""
        self._check_op_index(i)
        return bracket_unpaired(self.factors[i], self.factors[i - 1])

    def e(self, i: int) -> Optional["DecreasingFactorization"]:
        """Raising operator: move a letter from block i+1 down to block i.

        Returns None when every letter of block i+1 is paired.  The moved
        letter b drops to b-t where t counts the consecutive letters just
        below b present in block i+1.
        """
        left, _ = self.pairing(i)
        if not left:
            return None
        b = left[0]
        upper = set(self.factors[i])
        lower = set(self.factors[i - 1])
        t = 0
        while b - t - 1 in upper:
            t += 1
        assert b - t not in lower
        return self._with_blocks(i, upper - {b}, lower | {b - t})

    def f(self, i: int) -> Optional["DecreasingFactorization"]:
        """Lowering operator, inverse to :meth:`e` on every edge.

        Moves a letter from block i up to block i+1: the moved letter a rises
        to a+s where s counts the consecutive letters just above a present in
        block i.  Returns None when every letter of block i is paired.
        """
        _, right = self.pairing(i)
        if not right:
            return None
        a = right[-1]
        upper = set(self.factors[i])
        lower = set(self.factors[i - 1])
        s = 0
        while a + s + 1 in lower:
            s += 1
        assert a + s not in upper
        return self._with_blocks(i, upper | {a + s}, lower - {a})

    def _with_blocks(self, i: int, upper: set[int], lower: set[int]) -> "DecreasingFactorization":
        blocks = list(self.factors)
        blocks[i] = tuple(sorted(upper, reverse=True))
        blocks[i - 1] = tuple(sorted(lower, reverse=True))
        return replace(self, factors=tuple(blocks))

    def epsilon(self, i: int) -> int:
        """Number of times :meth:`e` applies at index i."""
        return _string_length(self, lambda x: x.e(i))

    def phi(self, i: int) -> int:
        """Number of times :meth:`f` applies at index i."""
        return _string_length(self, lambda x: x.f(i))


def _string_length(x, step: Callable[[object], object]) -> int:
    """Number of times ``step`` applies from ``x`` before it returns None."""
    count = 0
    while (x := step(x)) is not None:
        count += 1
    return count


# ----------------------------------------------------------------------
# enumeration


def _peels(system: CoxeterSystem, u) -> tuple[tuple[Word, object], ...]:
    """The peel table of ``u``: each pair (block, u * v^-1) where the
    decreasing block v peels off the right of ``u`` with the length dropping
    by len(v), in (len(block), block) order, the empty block first.

    Filled on first use and kept on the system.  Letters come off the right
    smallest first, so each next letter is a larger right descent of what
    is left.
    """
    table = system._peel_table.get(u)
    if table is None:
        found = [((), u)]
        stack = [((), u)]
        while stack:
            block, rest = stack.pop()
            for a in system.right_descents(rest):
                if not block or a > block[0]:
                    entry = ((a,) + block, system.right_multiplied(rest, a))
                    found.append(entry)
                    stack.append(entry)
        found.sort(key=lambda entry: (len(entry[0]), entry[0]))
        table = system._peel_table[u] = tuple(found)
    return table


def default_num_factors(system: CoxeterSystem, w) -> int:
    """Block count used when unspecified: the length of w (at least one)."""
    return max(1, system.length(w))


def _block_sequences(
    system: CoxeterSystem,
    w,
    num_factors: int | None,
    admissible: Callable[[Word, Word], bool] | None = None,
) -> Iterator[tuple[Word, ...]]:
    """Blocks of every decreasing factorization of ``w``, rightmost first.

    ``admissible(block, previous)``, when given, must accept each block
    against the block to its right; a rejected block prunes every
    factorization that would contain it there.
    """
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    if num_factors < 1:
        raise ValueError("need at least one block")
    max_block = len(system.index_set)

    def rec(u, length: int, k: int, previous: Word | None):
        if k == 0:
            if length == 0:
                yield ()
            return
        if length > k * max_block:
            return
        for block, rest in _peels(system, u):
            if admissible is not None and previous is not None and not admissible(block, previous):
                continue
            for tail in rec(rest, length - len(block), k - 1, block):
                yield (block,) + tail

    yield from rec(w, system.length(w), num_factors, None)


def decreasing_factorizations(system: CoxeterSystem, w, num_factors: int | None = None) -> Iterator[DecreasingFactorization]:
    """All decreasing factorizations of ``w`` into exactly ``num_factors`` blocks.

    Blocks may be empty; the block lengths always sum to the length of ``w``.
    """
    for blocks in _block_sequences(system, w, num_factors):
        yield DecreasingFactorization(blocks, w)


def highest_weight_factorizations(system: CoxeterSystem, w, num_factors: int | None = None) -> list[DecreasingFactorization]:
    """Factorizations killed by every raising operator.

    Enumerates with pruning: block k+1 is admissible only if the bracketing
    against block k leaves no unpaired upper letter, which is exactly the
    condition e_k = None and depends on no later block.
    """
    found = _block_sequences(
        system, w, num_factors, lambda block, previous: not bracket_unpaired(block, previous)[0]
    )
    return sorted(
        (DecreasingFactorization(blocks, w) for blocks in found),
        key=lambda fz: fz.factors,
    )


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
                for block, rest in _peels(system, w)
                if len(block) == parts[0]
            )
        system._weight_count_cache[key] = count
    return count


# ----------------------------------------------------------------------
# crystal graphs


def connected_components(vertices: Iterable, pairs: Iterable[tuple]) -> tuple[frozenset, ...]:
    """Components of the undirected graph with the given edge pairs, by
    union-find, ordered by their first vertex in ``vertices``."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return tuple(frozenset(g) for g in groups.values())


@dataclass(eq=False)
class CrystalGraph:
    """Edge-labelled graph of a crystal: f_i arrows between vertices.

    Vertices are any hashable values carrying a weight; ``f_edges`` maps
    (vertex, i) to the target vertex.
    """

    vertices: tuple
    index_set: tuple[int, ...]
    f_edges: dict
    weights: dict

    def __post_init__(self) -> None:
        self._e_edges = {(v, i): u for (u, i), v in self.f_edges.items()}
        vertex_set = set(self.vertices)
        for (u, _), v in self.f_edges.items():
            if u not in vertex_set or v not in vertex_set:
                raise ValueError("edge endpoint outside the vertex set")

    def f(self, v, i: int):
        return self.f_edges.get((v, i))

    def e(self, v, i: int):
        return self._e_edges.get((v, i))

    def edges(self) -> list[tuple[object, int, object]]:
        """Sorted (source, label, target) triples."""
        order = {v: k for k, v in enumerate(self.vertices)}
        return sorted(
            ((u, i, v) for (u, i), v in self.f_edges.items()),
            key=lambda t: (order[t[0]], t[1]),
        )

    def highest_weights(self) -> list[tuple[object, tuple[int, ...]]]:
        """Vertices with no incoming f-arrow of any colour, with weights."""
        out = []
        for v in self.vertices:
            if all((v, i) not in self._e_edges for i in self.index_set):
                out.append((v, self.weights[v]))
        return out

    @classmethod
    def from_lowering(
        cls,
        vertices: tuple,
        index_set: tuple[int, ...],
        f: Callable[[object, int], object],
        weight: Callable[[object], tuple[int, ...]],
    ) -> "CrystalGraph":
        """The graph of the lowering operator ``f(vertex, i)`` on ``vertices``,
        where None means f_i does not apply."""
        f_edges = {}
        for v in vertices:
            for i in index_set:
                image = f(v, i)
                if image is not None:
                    f_edges[(v, i)] = image
        return cls(vertices, index_set, f_edges, {v: weight(v) for v in vertices})

    def components(self) -> tuple[frozenset, ...]:
        """Connected components, each a frozenset of vertices."""
        return connected_components(self.vertices, ((u, v) for (u, _), v in self.f_edges.items()))

    def component_of(self) -> dict:
        """Map from vertex to its component index."""
        out = {}
        for k, comp in enumerate(self.components()):
            for v in comp:
                out[v] = k
        return out

    def to_dot(self, name: str = "crystal", label: Callable[[object], str] = str) -> str:
        from .dot import digraph

        ids = {v: f"n{k}" for k, v in enumerate(self.vertices)}
        nodes = [(ids[v], label(v)) for v in self.vertices]
        edges = [
            (ids[u], ids[v], {"label": str(i)})
            for u, i, v in self.edges()
        ]
        return digraph(name, nodes, edges)


def factorization_crystal(system: CoxeterSystem, w, num_factors: int | None = None) -> CrystalGraph:
    """The crystal graph on all decreasing factorizations of ``w``."""
    if num_factors is None:
        num_factors = default_num_factors(system, w)
    vertices = tuple(
        sorted(
            decreasing_factorizations(system, w, num_factors),
            key=lambda fz: fz.factors,
        )
    )
    return CrystalGraph.from_lowering(
        vertices,
        tuple(range(1, num_factors)),
        DecreasingFactorization.f,
        DecreasingFactorization.weight,
    )


# ----------------------------------------------------------------------
# parsing


_FACTOR_TOKEN = re.compile(r"\(([^()]*)\)|1")


def parse_blocks(text: str) -> list[tuple[int, ...]]:
    """Blocks of digit notation like ``(32)(31)(2)``, listed left to right.

    A bare ``1`` or an empty group ``()`` denotes an empty block.  Letters
    are single digits, or comma separated inside a group, as in ``(10,1)``.
    """
    stripped = text.replace(" ", "")
    blocks: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(stripped):
        match = _FACTOR_TOKEN.match(stripped, pos)
        if match is None:
            raise ValueError(f"cannot parse factorization {text!r} at {stripped[pos:]!r}")
        if match.group(0) == "1":
            blocks.append(())
        else:
            inner = match.group(1)
            if not inner:
                blocks.append(())
            elif "," in inner:
                blocks.append(tuple(int(tok) for tok in inner.split(",")))
            else:
                blocks.append(tuple(int(ch) for ch in inner))
        pos = match.end()
    return blocks


def parse_factorization(system: CoxeterSystem, text: str) -> DecreasingFactorization:
    """Parse digit notation (see :func:`parse_blocks`) into a factorization
    of the element it spells; every letter must be a generator of ``system``."""
    blocks = parse_blocks(text)
    word: list[int] = []
    for b in blocks:
        word.extend(b)
    for letter in word:
        if letter not in system.index_set:
            raise ValueError(f"letter {letter} is not a generator of {system!r}")
    target = system.evaluate(word)
    fz = DecreasingFactorization.from_display(blocks, target)
    fz.validate(system)
    return fz


# ----------------------------------------------------------------------
# structural checks


def stembridge_violations(graph: CrystalGraph) -> list[str]:
    """Local axiom spot checks on a crystal graph, simply laced indices.

    Checks, for every vertex x and indices i != j with e_i(x) defined:
    distant colours leave the j-string data unchanged and commute; adjacent
    colours change (eps_j, phi_j) by (0,-1) or (+1,0); and the matching
    square or double-string closures hold.  Returns human-readable
    descriptions of any violations.
    """
    bad: list[str] = []

    def eps(x, i):
        return _string_length(x, lambda y: graph.e(y, i))

    def phi(x, i):
        return _string_length(x, lambda y: graph.f(y, i))

    for x in graph.vertices:
        for i in graph.index_set:
            y = graph.e(x, i)
            if y is None:
                continue
            for j in graph.index_set:
                if j == i:
                    continue
                d_eps = eps(y, j) - eps(x, j)
                d_phi = phi(y, j) - phi(x, j)
                if abs(i - j) >= 2:
                    if (d_eps, d_phi) != (0, 0):
                        bad.append(f"distant colours {i},{j} move string data at {x}")
                    z = graph.e(x, j)
                    if z is not None and graph.e(y, j) != graph.e(z, i):
                        bad.append(f"distant colours {i},{j} fail to commute at {x}")
                else:
                    if (d_eps, d_phi) not in {(0, -1), (1, 0)}:
                        bad.append(
                            f"adjacent colours {i},{j} give (d_eps,d_phi)=({d_eps},{d_phi}) at {x}"
                        )
        for i in graph.index_set:
            for j in graph.index_set:
                if abs(i - j) != 1:
                    continue
                yi = graph.e(x, i)
                yj = graph.e(x, j)
                if yi is None or yj is None:
                    continue
                di = eps(yi, j) - eps(x, j)
                dj = eps(yj, i) - eps(x, i)
                if di == 0 and dj == 0:
                    if graph.e(yi, j) != graph.e(yj, i) or graph.e(yi, j) is None:
                        bad.append(f"square closure fails for colours {i},{j} at {x}")
                if di == 1 and dj == 1:
                    a = _apply_chain(graph, x, [(i, "e"), (j, "e"), (j, "e"), (i, "e")])
                    b = _apply_chain(graph, x, [(j, "e"), (i, "e"), (i, "e"), (j, "e")])
                    if a is None or a != b:
                        bad.append(f"double-string closure fails for colours {i},{j} at {x}")
    return bad


def _apply_chain(graph: CrystalGraph, x, steps):
    for i, kind in steps:
        x = graph.e(x, i) if kind == "e" else graph.f(x, i)
        if x is None:
            return None
    return x
