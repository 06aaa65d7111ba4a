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
from collections.abc import Iterable
from math import factorial

Word = tuple[int, ...]


def format_word(word: Iterable[int]) -> str:
    """Letters run together while each is one digit, comma separated once
    any letter has two, so the text reads back as the same word.  A lone
    two-digit letter carries a trailing comma, telling it from two letters.

    >>> format_word((1, 2, 1))
    '121'
    >>> format_word((9, 10, 9))
    '9,10,9'
    >>> format_word((10,))
    '10,'
    """
    letters = tuple(word)
    if not any(i >= 10 for i in letters):
        return "".join(str(i) for i in letters)
    text = ",".join(str(i) for i in letters)
    return text + "," if len(letters) == 1 else text


def parse_word(text: str) -> Word:
    """The word that :func:`format_word` prints as ``text``: comma separated
    letters, with at most one trailing comma, or else one digit per letter.
    Letters are written in the ASCII digits 0-9 alone.

    >>> parse_word("121"), parse_word("9,10,9"), parse_word("10,"), parse_word("")
    ((1, 2, 1), (9, 10, 9), (10,), ())
    """
    if "," in text:
        tokens = (text[:-1] if text.endswith(",") else text).split(",")
    else:
        tokens = list(text)
    if not all(token.isascii() and token.isdecimal() for token in tokens):
        raise ValueError(f"not a word of letters: {text!r}")
    return tuple(int(token) for token in tokens)


class CoxeterSystem:
    """Shared reduced-word machinery on top of per-system group primitives."""

    index_set: tuple[int, ...]  # ascending
    identity: object

    def __init__(self, index_set: tuple[int, ...], identity) -> None:
        self.index_set = index_set
        self.identity = identity
        self._letters = frozenset(index_set)
        self._red_words_cache: dict = {}
        self._red_count_cache: dict = {}
        # decreasing-factorization engine (see crystal.py): element -> its
        # peel table, and (element, block lengths) -> factorization count
        self._peel_table: dict = {}
        self._weight_count_cache: dict = {}
        # (element, block count) -> its crystal graph while a caller holds
        # it, a weak table made on the first build (see factorization_crystal)
        self._crystals = None
        # element -> its Schur expansion by highest weights
        # (see stanley.schur_expansion)
        self._schur_cache: dict = {}
        # the exchange walk's states and move table (see exchange_kernel)
        self._exchange_kernel: tuple | None = None
        self._w0 = None

    def memo_sizes(self) -> dict[str, int]:
        """Entry count of each memo table the system keeps.

        >>> S = SymmetricGroup(3)
        >>> _ = S.reduced_words(S.longest_element)
        >>> S.memo_sizes()
        {'reduced_words': 6, 'reduced_word_counts': 0, 'peel_tables': 0, 'weight_counts': 0, 'schur_expansions': 0, 'exchange_states': 0}
        """
        kernel = self._exchange_kernel
        return {
            "reduced_words": len(self._red_words_cache),
            "reduced_word_counts": len(self._red_count_cache),
            "peel_tables": len(self._peel_table),
            "weight_counts": len(self._weight_count_cache),
            "schur_expansions": len(self._schur_cache),
            "exchange_states": 0 if kernel is None else len(kernel[0]),
        }

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

    def elements(self) -> tuple:
        """All group elements in a deterministic order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived operations

    def _check_index(self, i: int) -> None:
        if i not in self._letters:
            raise ValueError(f"letter {i} is not a generator of {self!r}")

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
            if i not in self._letters:
                self._check_index(i)
            out = self.right_multiplied(out, i)
        return out

    def is_reduced(self, word: Word) -> bool:
        """True when the word has minimal length for the element it spells:
        each letter is an ascent of the product of the letters before it."""
        prefix = self.identity
        for i in word:
            self._check_index(i)
            if self.is_right_descent(prefix, i):
                return False
            prefix = self.right_multiplied(prefix, i)
        return True

    def left_descents(self, a) -> frozenset:
        """Generators that shorten ``a`` on the left: s_i a is shorter than a
        exactly when a^-1 s_i is shorter than a^-1."""
        return self.right_descents(self.inverse(a))

    def is_right_descent(self, a, i: int) -> bool:
        """True when ``a * s_i`` is shorter than ``a``."""
        return self.length(self.right_multiplied(a, i)) < self.length(a)

    def right_descents(self, a) -> frozenset:
        """Generators that shorten ``a`` on the right."""
        return frozenset(i for i in self.index_set if self.is_right_descent(a, i))

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

        Found by greedy ascent in right weak order, one descent test per
        step: the climb stops where every chosen generator is a descent,
        which only w_J is.  It is an involution, and the full index set
        yields the longest element of the whole group.
        """
        chosen = frozenset(subset)
        for j in chosen:
            self._check_index(j)
        ordered = sorted(chosen)
        w = self.identity
        while True:
            for j in ordered:
                if not self.is_right_descent(w, j):
                    w = self.right_multiplied(w, j)
                    break
            else:
                return w

    @property
    def longest_element(self):
        if self._w0 is None:
            self._w0 = self.parabolic_longest(self.index_set)
        return self._w0

    def _simple_conjugate(self, a, i: int):
        """The generator g with a s_i a^-1 = s_g, or None when that reflection
        is not simple: the g with s_g a = a s_i, found by comparing those
        products, so neither a^-1 nor the reflection is formed."""
        moved = self.right_multiplied(a, i)
        for g in self.index_set:
            if self.left_multiplied(g, a) == moved:
                return g
        return None

    def exchange(self, i: int, word: Word) -> Word:
        """Prepend ``i`` to a reduced word of the longest element and delete
        the unique letter that keeps the result reduced.

        One walk along the word: each letter must be a generator and an
        ascent of the product p of the letters before it, so the word is
        reduced, and the product must end at the longest element.
        Prepending i deletes the letter l at which s_i p = p s_l, the one
        letter whose reflection p s_l p^-1 is s_i.

        >>> SymmetricGroup(4).exchange(2, (1, 2, 3, 1, 2, 1))
        (2, 1, 2, 3, 2, 1)
        >>> SymmetricGroup(3).exchange(2, (1, 2, 1))
        (2, 1, 2)
        """
        self._check_index(i)
        word = tuple(word)
        prefix, deleted = self.identity, None
        for k, letter in enumerate(word):
            if letter not in self._letters or self.is_right_descent(prefix, letter):
                raise ValueError(f"{word} is not a reduced word of the longest element")
            moved = self.right_multiplied(prefix, letter)
            if deleted is None and self.left_multiplied(i, prefix) == moved:
                deleted = k
            prefix = moved
        if prefix != self.longest_element:
            raise ValueError(f"{word} is not a reduced word of the longest element")
        if deleted is None:
            raise ArithmeticError("exchange condition must produce a deletion")
        return (i,) + word[:deleted] + word[deleted + 1:]

    def exchange_kernel(self) -> tuple[tuple[Word, ...], tuple[tuple[int, ...], ...]]:
        """The exchange walk's moves, tabulated once per system: the pair
        ``(states, table)`` of the reduced words of the longest element in
        lexicographic order, and the rows ``table[k]``, where ``table[k][g]``
        is the position of the exchange image of ``states[k]`` under
        ``index_set[g]``.

        The words are the maximal chains of the right weak order, walked
        from the identity on a stack that takes each element's ascents in
        decreasing order, so they come out in lexicographic order (the
        traversal of ``markov.stationary_distribution``).  Along a path, the
        letter j at depth k after the prefix p is the one that prepending g
        deletes when p s_j p^-1 = s_g, as in :meth:`exchange`; every
        reflection occurs exactly once on a reduced word of the longest
        element, so each generator is met once per path.
        """
        if self._exchange_kernel is None:
            generators = self.index_set[::-1]
            steps: dict = {}  # element -> its (j, element s_j, simple conjugate) per ascent j
            states: list[Word] = []
            positions: list[tuple[int, ...]] = []  # per state, the deletion for each generator
            stack = [(self.identity, (), ())]  # (element, word, (generator, deletion) pairs)
            while stack:
                element, word, found = stack.pop()
                step = steps.get(element)
                if step is None:
                    step = steps[element] = tuple(
                        (j, self.right_multiplied(element, j), self._simple_conjugate(element, j))
                        for j in generators if not self.is_right_descent(element, j)
                    )
                if not step:
                    if element != self.longest_element:
                        raise ArithmeticError("a maximal chain of the weak order must end at the longest element")
                    if len(found) != len(self.index_set):
                        raise ArithmeticError("exchange condition must produce a deletion")
                    states.append(word)
                    positions.append(tuple(d for _, d in sorted(found)))
                depth = len(word)
                for j, above, g in step:
                    stack.append((above, word + (j,), found if g is None else found + ((g, depth),)))
            index = {state: k for k, state in enumerate(states)}
            table = tuple(
                tuple(index[(i,) + word[:d] + word[d + 1:]] for i, d in zip(self.index_set, deleted))
                for word, deleted in zip(states, positions)
            )
            self._exchange_kernel = tuple(states), table
        return self._exchange_kernel


class SymmetricGroup(CoxeterSystem):
    """S_n in one-line notation on {1..n}; s_i swaps the values i and i+1.

    Products compose as functions: (a*b)(k) = a(b(k)).  Length equals the
    inversion count of the one-line tuple.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        super().__init__(tuple(range(1, n)), tuple(range(1, n + 1)))
        self.n = n

    def __repr__(self) -> str:
        return f"SymmetricGroup({self.n})"

    def generator(self, i: int):
        self._check_index(i)
        out = list(self.identity)
        out[i - 1], out[i] = out[i], out[i - 1]
        return tuple(out)

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

    def is_right_descent(self, a, i: int) -> bool:
        return a[i - 1] > a[i]

    def evaluate(self, word: Iterable[int]):
        """:meth:`CoxeterSystem.evaluate` on one mutable one-line list: each
        letter l swaps entries l and l+1 in place, and one tuple is built at
        the end."""
        a = list(self.identity)
        for i in word:
            if i not in self._letters:
                self._check_index(i)
            a[i - 1], a[i] = a[i], a[i - 1]
        return tuple(a)

    def is_reduced(self, word: Word) -> bool:
        """:meth:`CoxeterSystem.is_reduced` on one mutable one-line list
        ``a``, the product of the letters walked so far: the letter l is an
        ascent when a[l-1] < a[l], and applying it swaps those two entries,
        so a word of length L costs O(L) after the O(n) copy."""
        a = list(self.identity)
        for i in word:
            if i not in self._letters:
                self._check_index(i)
            if a[i - 1] > a[i]:
                return False
            a[i - 1], a[i] = a[i], a[i - 1]
        return True

    def exchange(self, i: int, word: Word) -> Word:
        """:meth:`CoxeterSystem.exchange` on one mutable one-line list ``a``,
        the product of the letters walked so far, so a letter costs O(1) and
        a word of length L costs O(L).  The letter l is an ascent when
        a[l-1] < a[l]; its reflection a s_l a^-1 transposes those two
        values, so prepending i deletes it when they are i and i+1; applying
        l swaps them in place."""
        self._check_index(i)
        word = tuple(word)
        letters = self._letters
        a = list(self.identity)
        deleted = None
        for k, letter in enumerate(word):
            if letter not in letters or a[letter - 1] > a[letter]:
                raise ValueError(f"{word} is not a reduced word of the longest element")
            low, high = a[letter - 1], a[letter]
            if low == i and high == i + 1:
                deleted = k
            a[letter - 1], a[letter] = high, low
        if a != list(self.longest_element):
            raise ValueError(f"{word} is not a reduced word of the longest element")
        if deleted is None:
            raise ArithmeticError("exchange condition must produce a deletion")
        return (i,) + word[:deleted] + word[deleted + 1:]

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
        super().__init__(tuple(range(1, n + 1)), frozenset())
        self.n = n
        self._universe = frozenset(self.index_set)

    def __repr__(self) -> str:
        return f"Hypercube({self.n})"

    def generator(self, i: int):
        self._check_index(i)
        return frozenset((i,))

    def multiply(self, a, b):
        if not (a <= self._universe and b <= self._universe):
            raise ValueError("elements from mismatched systems")
        return a ^ b

    def inverse(self, a):
        return a

    def length(self, a) -> int:
        return len(a)

    def is_right_descent(self, a, i: int) -> bool:
        return i in a

    def reduced_word_count(self, a) -> int:
        # the generators commute, so every ordering of the flipped
        # coordinates is a reduced word
        return factorial(len(a))

    def _simple_conjugate(self, a, i: int):
        return i  # the group is abelian

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
        super().__init__((1, 2), ())
        self.m = m
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
