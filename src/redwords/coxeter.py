"""Finite Coxeter systems and reduced-word combinatorics.

Three concrete systems are provided:

- ``SymmetricGroup(n)``: permutations of {1..n} generated by the adjacent
  transpositions s_1, ..., s_{n-1}.  Elements are one-line tuples.
- ``Hypercube(n)``: (Z/2Z)^n with the n coordinate flips as generators, all
  commuting and squaring to the identity.  Elements are frozensets of the
  flipped coordinates.
- ``Dihedral(m)``: the symmetry group of the regular m-gon on two generators
  with (s_1 s_2)^m = e.  Elements are canonical (lexicographically smallest
  reduced) alternating words.

Elements are plain hashable values; all group operations live on the system
object.  A word is a tuple of generator indices.  Systems are immutable after
construction apart from internal memo tables, so values can be shared freely.
"""

from __future__ import annotations

import itertools
from typing import Iterable

Word = tuple[int, ...]


class CoxeterSystem:
    """Shared reduced-word machinery on top of per-system group primitives."""

    index_set: tuple[int, ...]
    identity: object

    def __init__(self) -> None:
        self._red_words_cache: dict = {}
        self._red_count_cache: dict = {}
        # decreasing-factorization engine (see crystal.py): element -> its
        # peel table, and (element, block lengths) -> factorization count
        self._peel_table: dict = {}
        self._weight_count_cache: dict = {}
        self._w0 = None

    # ------------------------------------------------------------------
    # primitives supplied by the concrete systems

    def generator(self, i: int):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def length(self, a) -> int:
        raise NotImplementedError

    def validate_element(self, a) -> None:
        raise NotImplementedError

    def elements(self) -> tuple:
        """All group elements in a deterministic order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived operations

    def _check_index(self, i: int) -> None:
        if i not in self.index_set:
            raise ValueError(f"generator index {i} not in {self.index_set}")

    def left_multiplied(self, i: int, a):
        """s_i * a."""
        return self.multiply(self.generator(i), a)

    def right_multiplied(self, a, i: int):
        """a * s_i."""
        return self.multiply(a, self.generator(i))

    def evaluate(self, word: Iterable[int]):
        """Product s_{i_1} s_{i_2} ... over the letters of ``word``.

        >>> SymmetricGroup(3).evaluate((1, 2, 1))
        (3, 2, 1)
        """
        out = self.identity
        for i in word:
            out = self.right_multiplied(out, i)
        return out

    def is_reduced(self, word: Word) -> bool:
        """True when the word has minimal length for the element it spells."""
        return self.length(self.evaluate(word)) == len(word)

    def left_descents(self, a) -> frozenset:
        return frozenset(
            i for i in self.index_set
            if self.length(self.left_multiplied(i, a)) < self.length(a)
        )

    def right_descents(self, a) -> frozenset:
        """Generators that shorten ``a`` on the right."""
        return frozenset(
            i for i in self.index_set
            if self.length(self.right_multiplied(a, i)) < self.length(a)
        )

    def reduced_words(self, a) -> tuple[Word, ...]:
        """All reduced words for ``a``, in lexicographic order.

        >>> SymmetricGroup(3).reduced_words((3, 2, 1))
        ((1, 2, 1), (2, 1, 2))
        """
        cached = self._red_words_cache.get(a)
        if cached is not None:
            return cached
        if a == self.identity:
            out: tuple[Word, ...] = ((),)
        else:
            out = tuple(
                (i,) + rest
                for i in sorted(self.left_descents(a))
                for rest in self.reduced_words(self.left_multiplied(i, a))
            )
        self._red_words_cache[a] = out
        return out

    def reduced_word_count(self, a) -> int:
        """len(reduced_words(a)) without materializing the words."""
        cached = self._red_count_cache.get(a)
        if cached is not None:
            return cached
        if a == self.identity:
            out = 1
        else:
            out = sum(
                self.reduced_word_count(self.left_multiplied(i, a))
                for i in self.left_descents(a)
            )
        self._red_count_cache[a] = out
        return out

    def weak_order_covers(self, a) -> frozenset:
        """Elements v covered by ``a`` in left weak order: a = s_i v, shorter by one."""
        return frozenset(self.left_multiplied(i, a) for i in self.left_descents(a))

    def parabolic_longest(self, subset: Iterable[int]):
        """Longest element of the parabolic subgroup on the given generators.

        Found by greedy ascent in left weak order; it is an involution and
        the full index set yields the longest element of the whole group.
        """
        chosen = frozenset(subset)
        for j in chosen:
            self._check_index(j)
        w = self.identity
        lw = 0
        while True:
            for j in sorted(chosen):
                cand = self.left_multiplied(j, w)
                if self.length(cand) > lw:
                    w = cand
                    lw += 1
                    break
            else:
                return w

    @property
    def longest_element(self):
        if self._w0 is None:
            self._w0 = self.parabolic_longest(self.index_set)
        return self._w0

    def exchange(self, i: int, word: Word) -> Word:
        """Prepend ``i`` to a reduced word of the longest element and delete
        the unique letter that keeps the result reduced.

        >>> SymmetricGroup(4).exchange(2, (1, 2, 3, 1, 2, 1))
        (2, 1, 2, 3, 2, 1)
        >>> SymmetricGroup(3).exchange(2, (1, 2, 1))
        (2, 1, 2)
        """
        self._check_index(i)
        word = tuple(word)
        w0 = self.longest_element
        if len(word) != self.length(w0) or self.evaluate(word) != w0:
            raise ValueError(f"{word} is not a reduced word of the longest element")
        u = self.generator(i)
        prev_len = 1
        for j, letter in enumerate(word):
            u = self.right_multiplied(u, letter)
            cur_len = self.length(u)
            if cur_len < prev_len:
                return (i,) + word[:j] + word[j + 1:]
            prev_len = cur_len
        raise AssertionError("exchange condition must produce a deletion")


class SymmetricGroup(CoxeterSystem):
    """S_n in one-line notation on {1..n}; s_i swaps the values i and i+1.

    Products compose as functions: (a*b)(k) = a(b(k)).  Length equals the
    inversion count of the one-line tuple.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        super().__init__()
        self.n = n
        self.index_set = tuple(range(1, n))
        self.identity = tuple(range(1, n + 1))

    def __repr__(self) -> str:
        return f"SymmetricGroup({self.n})"

    def generator(self, i: int):
        self._check_index(i)
        out = list(self.identity)
        out[i - 1], out[i] = out[i], out[i - 1]
        return tuple(out)

    def validate_element(self, a) -> None:
        if not (isinstance(a, tuple) and sorted(a) == list(self.identity)):
            raise ValueError(f"{a!r} is not a one-line permutation of 1..{self.n}")

    def multiply(self, a, b):
        """
        >>> S = SymmetricGroup(3)
        >>> S.multiply((2, 1, 3), (1, 3, 2))
        (2, 3, 1)
        """
        if len(a) != self.n or len(b) != self.n:
            raise ValueError("elements from mismatched systems")
        return tuple(a[v - 1] for v in b)

    def inverse(self, a):
        out = [0] * self.n
        for pos, v in enumerate(a):
            out[v - 1] = pos + 1
        return tuple(out)

    def length(self, a) -> int:
        """Inversion count.

        >>> SymmetricGroup(4).length((4, 3, 2, 1))
        6
        """
        return sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if a[i] > a[j]
        )

    def left_multiplied(self, i: int, a):
        # s_i * a swaps the values i and i+1 in one-line notation
        return tuple(i + 1 if v == i else i if v == i + 1 else v for v in a)

    def right_multiplied(self, a, i: int):
        # a * s_i swaps positions i and i+1
        out = list(a)
        out[i - 1], out[i] = out[i], out[i - 1]
        return tuple(out)

    def left_descents(self, a) -> frozenset:
        pos = [0] * (self.n + 1)
        for p, v in enumerate(a):
            pos[v] = p
        return frozenset(i for i in self.index_set if pos[i] > pos[i + 1])

    def right_descents(self, a) -> frozenset:
        return frozenset(i for i in self.index_set if a[i - 1] > a[i])

    def elements(self) -> tuple:
        return tuple(sorted(itertools.permutations(range(1, self.n + 1))))


class Hypercube(CoxeterSystem):
    """(Z/2Z)^n: generators toggle one coordinate each and all commute.

    An element is the frozenset of coordinates in which it differs from the
    identity; the longest element flips every coordinate.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        super().__init__()
        self.n = n
        self.index_set = tuple(range(1, n + 1))
        self.identity = frozenset()
        self._universe = frozenset(self.index_set)

    def __repr__(self) -> str:
        return f"Hypercube({self.n})"

    def generator(self, i: int):
        self._check_index(i)
        return frozenset((i,))

    def validate_element(self, a) -> None:
        if not (isinstance(a, frozenset) and a <= self._universe):
            raise ValueError(f"{a!r} is not a subset of 1..{self.n}")

    def multiply(self, a, b):
        if not (a <= self._universe and b <= self._universe):
            raise ValueError("elements from mismatched systems")
        return a ^ b

    def inverse(self, a):
        return a

    def length(self, a) -> int:
        return len(a)

    def left_descents(self, a) -> frozenset:
        return frozenset(a)

    def right_descents(self, a) -> frozenset:
        return frozenset(a)

    def elements(self) -> tuple:
        out = []
        for k in range(self.n + 1):
            out.extend(
                frozenset(c) for c in itertools.combinations(self.index_set, k)
            )
        return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


class Dihedral(CoxeterSystem):
    """Dihedral group of order 2m on generators 1, 2 with (s_1 s_2)^m = e.

    Elements are canonical alternating words (the lexicographically smallest
    reduced word); internally they are folded to (reflection bit, rotation)
    pairs for multiplication.
    """

    def __init__(self, m: int) -> None:
        if m < 2:
            raise ValueError("need m >= 2")
        super().__init__()
        self.m = m
        self.index_set = (1, 2)
        self.identity = ()
        self._pair_of: dict[Word, tuple[int, int]] = {(): (0, 0)}
        self._word_of: dict[tuple[int, int], Word] = {(0, 0): ()}
        layer: list[Word] = [()]
        while layer:
            nxt = []
            for word in sorted(layer):
                for i in (1, 2):
                    pair = self._mul_pairs(self._pair_of[word], self._gen_pair(i))
                    if pair not in self._word_of:
                        new_word = word + (i,)
                        self._word_of[pair] = new_word
                        self._pair_of[new_word] = pair
                        nxt.append(new_word)
            layer = nxt

    def __repr__(self) -> str:
        return f"Dihedral({self.m})"

    @staticmethod
    def _gen_pair(i: int) -> tuple[int, int]:
        return (1, 0) if i == 1 else (1, 1)

    def _mul_pairs(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        e1, r1 = a
        e2, r2 = b
        if e2 == 0:
            return (e1, (r1 + r2) % self.m)
        return ((e1 + 1) % 2, (r2 - r1) % self.m)

    def generator(self, i: int):
        self._check_index(i)
        return (i,)

    def validate_element(self, a) -> None:
        if a not in self._pair_of:
            raise ValueError(f"{a!r} is not a canonical dihedral element")

    def multiply(self, a, b):
        try:
            pa, pb = self._pair_of[a], self._pair_of[b]
        except KeyError:
            raise ValueError("elements from mismatched systems") from None
        return self._word_of[self._mul_pairs(pa, pb)]

    def inverse(self, a):
        e, r = self._pair_of[a]
        return self._word_of[(e, r if e else (-r) % self.m)]

    def length(self, a) -> int:
        return len(a)

    def elements(self) -> tuple:
        return tuple(sorted(self._pair_of, key=lambda w: (len(w), w)))
