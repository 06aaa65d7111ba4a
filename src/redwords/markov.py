"""The exchange walk on reduced words of the longest element.

States are the reduced words of the longest element; picking generator i
with probability P(i) moves a word to its exchange image.  A measure
carries its integer form, numerators over the lcm D of its denominators,
and a walk is stored once, as its move table and its measure: entry
(to, from) of the matrix, times D, sums the numerators of the moves
between them, and the checks and the sampler read the table.  The
spectrum has a closed form indexed by subsets of the generators, and the
stationary distribution is an explicit product along each word, carried
down the maximal chains of the right weak order; both are checked against
the matrix exactly, in integers over a common denominator.

Specializations: on the hypercube the walk is move-to-front on linear
orderings (the Tsetlin library); on the linear extensions of a naturally
labelled poset a promotion walk generalizes it and degenerates back to
move-to-front on antichains.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from fractions import Fraction
from math import lcm
from numbers import Rational

from .coxeter import CoxeterSystem, Hypercube, Word, format_word
from .reports import Frozen


class ProbabilityMeasure(Frozen):
    """Exact rational weights on an index set, summing to one, and their
    ``numerators`` over ``denominator``, the lcm of their denominators."""

    _fields = ("weights",)
    __slots__ = _fields + ("denominator", "numerators")

    def __init__(self, weights: tuple[tuple[int, Fraction], ...]) -> None:
        seen = set()
        for i, p in weights:
            if not isinstance(p, Fraction):
                raise ValueError(f"weight of {i} must be a Fraction, got {p!r}")
            if p < 0 or p > 1:
                raise ValueError(f"weight of {i} outside [0, 1]")
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            seen.add(i)
        denominator, numerators = _over_common_denominator(p for _, p in weights)
        if sum(numerators) != denominator:
            raise ValueError(f"weights sum to {Fraction(sum(numerators), denominator)}, not 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "numerators", tuple(numerators))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.weights,))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Fraction | int]) -> "ProbabilityMeasure":
        return cls(tuple(sorted((i, Fraction(p)) for i, p in mapping.items())))

    @classmethod
    def uniform(cls, index_set: Iterable[int]) -> "ProbabilityMeasure":
        indices = tuple(sorted(index_set))
        return cls(tuple((i, Fraction(1, len(indices))) for i in indices))

    @classmethod
    def random_rational(cls, index_set: Iterable[int], seed: int) -> "ProbabilityMeasure":
        """Seeded positive rational measure with full support."""
        rng = random.Random(seed)
        indices = tuple(sorted(index_set))
        numerators = [rng.randint(1, 9) for _ in indices]
        total = sum(numerators)
        return cls(tuple((i, Fraction(a, total)) for i, a in zip(indices, numerators)))

    def __getitem__(self, i: int) -> Fraction:
        for j, p in self.weights:
            if j == i:
                return p
        raise KeyError(i)

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.weights)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, p in self.weights if p > 0)


class TransitionMatrix:
    """Column-stochastic matrix over an ordered state list, stored as the
    walk's move table and its measure: the g-th choice of ``measure`` has
    probability ``measure.numerators[g]`` / ``measure.denominator`` and
    moves ``states[b]`` to ``states[table[b][g]]``.

    Entry (a, b) is the summed probability of the choices that move
    ``states[b]`` to ``states[a]``.  The views ``numerators`` and
    ``entries`` are derived from the table on each access.
    """

    def __init__(self, states: tuple, measure: ProbabilityMeasure, table: Sequence[Sequence[int]]) -> None:
        self.states = states
        self.measure = measure
        self.table = table

    def __repr__(self) -> str:
        return f"TransitionMatrix(states={self.states!r}, measure={self.measure!r})"

    @cached_property
    def labels(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """``labels[(a, b)]`` lists the choices that move ``states[b]`` to
        ``states[a]``, zero-probability ones included.  Derived on first
        access: it is about eight times the size of the table, and only
        :meth:`to_dot` reads it."""
        out: dict[tuple[int, int], tuple[int, ...]] = {}
        choices = self.measure.index_set
        for b, targets in enumerate(self.table):
            for i, a in zip(choices, targets):
                out[(a, b)] = out.get((a, b), ()) + (i,)
        return out

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def numerators(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``numerators[b]`` lists the ``(a, n)`` pairs, rows ascending, of
        the nonzero numerators n: ``states[b]`` moves to ``states[a]`` with
        probability n / ``measure.denominator``."""
        columns = []
        for targets in self.table:
            column: dict[int, int] = {}
            for n, a in zip(self.measure.numerators, targets):
                column[a] = column.get(a, 0) + n
            columns.append(tuple(sorted((a, n) for a, n in column.items() if n)))
        return tuple(columns)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view, n^2 in size: ``entries[a][b]`` is the probability of
        moving from ``states[b]`` to ``states[a]``."""
        zero, d = Fraction(0), self.measure.denominator
        rows = [[zero] * self.size for _ in self.states]
        for b, column in enumerate(self.numerators):
            for a, n in column:
                rows[a][b] = Fraction(n, d)
        return tuple(tuple(row) for row in rows)

    def is_column_stochastic(self) -> bool:
        """Every column's numerators sum to the denominator.  A row of the
        table holds the moves of the first ``len(row)`` choices."""
        weights, d = self.measure.numerators, self.measure.denominator
        return all(sum(weights[:len(targets)]) == d for targets in self.table)

    def _product(self, vector: Sequence[Fraction]) -> tuple[int, list[int], list[int]]:
        """The lcm L of the denominators of ``vector``, ``vector`` times L,
        and the integer matrix applied to the latter, one choice at a time."""
        if len(vector) != self.size:
            raise ValueError(f"vector has {len(vector)} entries, the chain {self.size} states")
        common, scaled = _over_common_denominator(vector)
        out = [0] * self.size
        for g, n in enumerate(self.measure.numerators):
            for x, targets in zip(scaled, self.table):
                out[targets[g]] += n * x
        return common, scaled, out

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        common, _, out = self._product(vector)
        scale = self.measure.denominator * common
        return tuple(Fraction(x, scale) for x in out)

    def fixes(self, vector: Sequence[Fraction]) -> bool:
        """T v = v, compared in integers: the integer matrix applied to v
        scaled by the lcm of its denominators, against the denominator
        times the scaled v."""
        _, scaled, out = self._product(vector)
        d = self.measure.denominator
        return all(x == d * y for x, y in zip(out, scaled))

    def is_strongly_connected(self) -> bool:
        """State 0 reaches every state and every state reaches it.  Only
        choices of positive weight are arcs; when every weight is positive
        the forward arcs are the table rows themselves."""
        live = [g for g, n in enumerate(self.measure.numerators) if n]
        forward = self.table
        if len(live) < len(self.measure.numerators):
            forward = [[targets[g] for g in live] for targets in forward]
        backward: list[list[int]] = [[] for _ in self.states]
        for b, targets in enumerate(forward):
            for a in targets:
                backward[a].append(b)
        for adjacency in (forward, backward):
            seen = [False] * self.size
            seen[0] = True
            reached = 1
            queue = [0]
            while queue:
                for nxt in adjacency[queue.pop()]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        reached += 1
                        queue.append(nxt)
            if reached != self.size:
                return False
        return True

    def to_dot(self, name: str = "chain") -> str:
        from .dot import digraph

        edges = [
            (b, a, {"label": ",".join(str(i) for i in choices)})
            for (a, b), choices in sorted(self.labels.items())
        ]
        return digraph(name, map(format_word, self.states), edges)


def build_chain(system: CoxeterSystem, measure: ProbabilityMeasure) -> TransitionMatrix:
    """Exchange walk transition matrix over the reduced words of the longest
    element.  The measure must have full support for ergodicity."""
    if measure.index_set != system.index_set:
        raise ValueError(
            f"measure is on {measure.index_set}, system needs {system.index_set}"
        )
    if measure.support != frozenset(system.index_set):
        raise ValueError("measure must have full support on the generators")
    states, table = system.exchange_kernel()
    return TransitionMatrix(states, measure, table)


def _over_common_denominator(values: Iterable) -> tuple[int, list[int]]:
    """The lcm L of the denominators of ``values``, and each value times L."""
    values = [x if isinstance(x, Rational) else Fraction(x) for x in values]
    common = lcm(*{x.denominator for x in values})
    return common, [x.numerator * (common // x.denominator) for x in values]


# ----------------------------------------------------------------------
# spectrum


class SpectrumLine(Frozen):
    __slots__ = _fields = ("subset", "eigenvalue", "multiplicity")

    def __init__(self, subset: tuple[int, ...], eigenvalue: Fraction, multiplicity: int) -> None:
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "multiplicity", multiplicity)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.subset, self.eigenvalue, self.multiplicity)
                    == (other.subset, other.eigenvalue, other.multiplicity))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subset, self.eigenvalue, self.multiplicity))


def spectrum(system: CoxeterSystem, measure: ProbabilityMeasure) -> tuple[SpectrumLine, ...]:
    """Closed-form eigenvalues with multiplicities, one line per subset J.

    The eigenvalue for J is the measure of J.  Its multiplicity is an
    alternating sum over supersets K of reduced-word counts of w_K * w0.
    """
    index_set = tuple(sorted(system.index_set))
    w0 = system.longest_element

    counts: dict[tuple[int, ...], int] = {}  # subset -> its count, made once

    def count_for(subset: tuple[int, ...]) -> int:
        if subset not in counts:
            counts[subset] = system.reduced_word_count(
                system.multiply(system.parabolic_longest(subset), w0)
            )
        return counts[subset]

    lines = []
    for r in range(len(index_set) + 1):
        for subset in itertools.combinations(index_set, r):
            eigenvalue = sum((measure[i] for i in subset), Fraction(0))
            rest = [i for i in index_set if i not in subset]
            mult = 0
            for extra in range(len(rest) + 1):
                for added in itertools.combinations(rest, extra):
                    superset = tuple(sorted(subset + added))
                    sign = -1 if extra % 2 else 1
                    mult += sign * count_for(superset)
            lines.append(SpectrumLine(subset, eigenvalue, mult))
    return tuple(lines)


def eigenvalues_by_value(lines: Iterable[SpectrumLine]) -> dict[Fraction, int]:
    """Collapse spectrum lines whose eigenvalues coincide."""
    out: dict[Fraction, int] = {}
    for line in lines:
        out[line.eigenvalue] = out.get(line.eigenvalue, 0) + line.multiplicity
    return {value: mult for value, mult in out.items() if mult}


# ----------------------------------------------------------------------
# exact characteristic polynomial


def _charpoly_int(matrix: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial coefficients of an integer matrix,
    highest degree first, by the Faddeev-LeVerrier recurrence (all divisions
    exact).

    Each step multiplies the work matrix on the left by ``matrix`` one row
    at a time, as the combination of work rows that the row's nonzeros
    name, so a step costs n times the nonzero count, not n^3.
    """
    n = len(matrix)
    nonzeros = [[(m, a) for m, a in enumerate(row) if a] for row in matrix]
    coeffs = [1]
    work = [row[:] for row in matrix]
    for k in range(1, n + 1):
        trace = sum(work[j][j] for j in range(n))
        if trace % k:
            raise ArithmeticError(f"Faddeev-LeVerrier trace {trace} not divisible by {k}")
        c = -trace // k
        coeffs.append(c)
        if k == n:
            break
        for j in range(n):
            work[j][j] += c
        work = [_row_combination(terms, work, n) for terms in nonzeros]
    return coeffs


def _row_combination(terms: list[tuple[int, int]], rows: list[list[int]], n: int) -> list[int]:
    """The sum of ``a * rows[m]`` over the pairs (m, a) of ``terms``, a
    zero row of length n when there are none."""
    if not terms:
        return [0] * n
    (m, a), *rest = terms
    out = [a * x for x in rows[m]]
    for m, a in rest:
        out = [u + a * x for u, x in zip(out, rows[m])]
    return out


def charpoly(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial of the transition matrix, monic, highest
    degree first, computed exactly over the rationals."""
    n = matrix.size
    scaled = [[0] * n for _ in range(n)]
    for b, column in enumerate(matrix.numerators):
        for a, value in column:
            scaled[a][b] = value
    integer_coeffs = _charpoly_int(scaled)
    d = matrix.measure.denominator
    return tuple(Fraction(integer_coeffs[k], d ** k) for k in range(n + 1))


def poly_from_eigenvalues(value_mult: Mapping[Fraction, int]) -> tuple[Fraction, ...]:
    """Expand the product of (x - value)^multiplicity, highest degree first."""
    coeffs = [Fraction(1)]
    for value, mult in sorted(value_mult.items()):
        for _ in range(mult):
            out = coeffs + [Fraction(0)]
            for k, c in enumerate(coeffs):
                out[k + 1] -= value * c
            coeffs = out
    return tuple(coeffs)


def eigenvalue_multiplicity_in_charpoly(
    coeffs: Sequence[Fraction], value: Fraction
) -> int:
    """Order of ``value`` as a root, by repeated exact synthetic division."""
    current = list(coeffs)
    mult = 0
    while len(current) > 1:
        quotient = [current[0]]
        for c in current[1:]:
            quotient.append(c + quotient[-1] * value)
        if quotient[-1] != 0:
            break
        current = quotient[:-1]
        mult += 1
    return mult


# ----------------------------------------------------------------------
# stationary distribution


def stationary_distribution(system: CoxeterSystem, measure: ProbabilityMeasure) -> dict[Word, Fraction]:
    """Closed-form stationary law of the exchange walk.

    The weight of a word multiplies, over its prefixes, the probability of
    the next letter divided by one minus the measure of the right descents
    of the prefix so far; full support keeps every denominator positive.
    With the measure as integers a_i over the lcm D of its denominators, a
    step multiplies the numerator by a_letter and the denominator by D minus
    the blocked a_i, so each word costs one ``Fraction``.  The words are
    the maximal chains of the right weak order, walked from the identity
    on a stack that takes each element's ascents in decreasing order, so
    they come out in lexicographic order.
    """
    if measure.support != frozenset(system.index_set):
        raise ValueError("measure must have full support on the generators")
    weight = dict(zip(measure.index_set, measure.numerators))
    generators = sorted(system.index_set, reverse=True)
    steps: dict = {}  # element -> (D minus its descents' weight, its (i, element s_i))
    out: dict[Word, Fraction] = {}
    stack = [(system.identity, (), 1, 1)]  # (element, word, numerator, denominator)
    while stack:
        element, word, top, bottom = stack.pop()
        step = steps.get(element)
        if step is None:
            descents = system.right_descents(element)
            blocked = sum(weight[i] for i in descents)
            ascents = tuple((i, system.right_multiplied(element, i)) for i in generators if i not in descents)
            if ascents and blocked >= measure.denominator:
                raise ArithmeticError("descent measure must stay below one off the top")
            step = steps[element] = (measure.denominator - blocked, ascents)
        free, ascents = step
        if not ascents:
            out[word] = Fraction(top, bottom)
        bottom *= free
        for i, above in ascents:
            stack.append((above, word + (i,), top * weight[i], bottom))
    common, scaled = _over_common_denominator(out.values())
    if sum(scaled) != common:
        raise ArithmeticError("closed-form stationary weights do not sum to one")
    return out


def solve_stationary(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Stationary vector of any column-stochastic matrix by exact elimination."""
    n = matrix.size
    entries = matrix.entries
    rows = [
        [entries[r][c] - (1 if r == c else 0) for c in range(n)] + [Fraction(0)]
        for r in range(n)
    ]
    rows.append([Fraction(1)] * n + [Fraction(1)])  # normalization
    pivot_row = 0
    pivots = []
    for col in range(n):
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                rows[pivot_row], rows[r] = rows[r], rows[pivot_row]
                break
        else:
            continue
        factor = rows[pivot_row][col]
        rows[pivot_row] = [v / factor for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                scale = rows[r][col]
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    solution = [Fraction(0)] * n
    for k, col in enumerate(pivots):
        solution[col] = rows[k][-1]
    if not matrix.fixes(solution) or sum(solution) != 1:
        raise ArithmeticError("no stationary solution found")
    return tuple(solution)


# ----------------------------------------------------------------------
# sampling


def simulate(
    system: CoxeterSystem,
    measure: ProbabilityMeasure,
    steps: int,
    seed: int,
    start: Word | None = None,
) -> dict[Word, Fraction]:
    """Empirical occupation frequencies of a seeded trajectory.

    The walk follows the table of :func:`build_chain`, so the measure must
    have full support on the generators.  The state at every time 0..steps
    is counted, so zero steps give a point mass at the start state, which
    defaults to the first word; identical seeds give identical trajectories.
    """
    matrix = build_chain(system, measure)
    states, table = matrix.states, matrix.table
    current = 0
    if start is not None:
        current = bisect_left(states, start)
        if current == len(states) or states[current] != start:
            raise ValueError(f"{start} is not a reduced word of the longest element")
    # the draws of random.Random(seed).choices(columns, weights, k=steps),
    # made one at a time inside the walk: with cum the running sums of the
    # float weights, a uniform u picks the column bisect_right(cum, u *
    # cum[-1], 0, len(cum) - 1), which searches only ``bounds``, cum
    # without its total ``mass``
    uniform = random.Random(seed).random
    *bounds, mass = itertools.accumulate(float(p) for _, p in measure.weights)
    counts = [0] * len(states)
    counts[current] = 1
    for _ in range(steps):
        current = table[current][bisect_right(bounds, uniform() * mass)]
        counts[current] += 1
    total = steps + 1
    return {state: Fraction(c, total) for state, c in zip(states, counts) if c}


def total_variation(p: Mapping, q: Mapping) -> Fraction:
    """Half the l1 distance between two distributions, summed in integers
    over the lcm of every denominator."""
    keys = list(set(p) | set(q))
    common, scaled = _over_common_denominator(
        [p.get(k, 0) for k in keys] + [q.get(k, 0) for k in keys]
    )
    return Fraction(sum(abs(a - b) for a, b in zip(scaled, scaled[len(keys):])), 2 * common)


# ----------------------------------------------------------------------
# Tsetlin library and promotion on posets


def tsetlin_chain(n: int, measure: ProbabilityMeasure) -> TransitionMatrix:
    """Move-to-front on orderings of n items: the hypercube exchange walk."""
    return build_chain(Hypercube(n), measure)


class NaturalPoset(Frozen):
    """Poset on {1..n} whose order respects the integer labels.

    Relations are (smaller, larger) pairs; a pair (i, j) with i >= j is
    rejected, as the labelling must be natural.  The order is kept as one
    table of bitmasks, ``below[j - 1]`` holding bit i - 1 for every label i
    below j, and a set of labels is an order ideal when it holds the mask
    of each of its labels.  One pass over the relations in label order
    closes them transitively, since every label below i is smaller than i.
    """

    _fields = ("n", "relations")
    __slots__ = _fields + ("below",)

    def __init__(self, n: int, relations: frozenset[tuple[int, int]]) -> None:
        if any(type(x) is not int for x in (n, *itertools.chain(*relations))):
            raise ValueError("the size and every relation entry must be integers")
        if n < 0:
            raise ValueError(f"the size must be at least 0, got {n}")
        below = [0] * n
        for i, j in sorted(relations):
            if not (1 <= i < j <= n):
                raise ValueError(
                    f"relation ({i}, {j}) violates the natural labelling on 1..{n}"
                )
            below[j - 1] |= below[i - 1] | 1 << (i - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "below", tuple(below))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.relations) == (other.n, other.relations)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.relations))

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "NaturalPoset":
        return cls(n, frozenset((a, b) for a, b in pairs))

    @classmethod
    def antichain(cls, n: int) -> "NaturalPoset":
        return cls(n, frozenset())

    @classmethod
    def chain(cls, n: int) -> "NaturalPoset":
        return cls(n, frozenset((i, i + 1) for i in range(1, n)))

    def less(self, a: int, b: int) -> bool:
        return 1 <= a and 1 <= b <= self.n and bool(self.below[b - 1] >> (a - 1) & 1)

    def incomparable(self, a: int, b: int) -> bool:
        return a != b and not self.less(a, b) and not self.less(b, a)

    def prefix_counts(self) -> Iterator[int]:
        """For k = 0..n, the orderings of k labels that begin a linear
        extension: the ways to reach each order ideal of size k, summed one
        layer of ideals at a time.  Every prefix extends, so the counts
        never decrease and end at the number of linear extensions.

        >>> list(NaturalPoset.antichain(4).prefix_counts())
        [1, 4, 12, 24, 24]
        """
        ways = {0: 1}  # order ideal -> orderings reaching it
        yield 1
        for _ in range(self.n):
            larger: dict[int, int] = {}
            for ideal, count in ways.items():
                for j, needed in enumerate(self.below):
                    bit = 1 << j
                    if not ideal & bit and needed & ideal == needed:
                        larger[ideal | bit] = larger.get(ideal | bit, 0) + count
            ways = larger
            yield sum(ways.values())

    def linear_extensions(self) -> tuple[tuple[int, ...], ...]:
        """All orderings compatible with the poset, lexicographically."""
        out: list[tuple[int, ...]] = []

        def extend(prefix: tuple[int, ...], ideal: int) -> None:
            if len(prefix) == self.n:
                out.append(prefix)
                return
            for j, needed in enumerate(self.below):
                if not ideal >> j & 1 and needed & ideal == needed:
                    extend(prefix + (j + 1,), ideal | 1 << j)

        extend((), 0)
        return tuple(out)


def tau(poset: NaturalPoset, extension: tuple[int, ...], position: int) -> tuple[int, ...]:
    """Swap the entries at positions i, i+1 (1-based) when incomparable."""
    a, b = extension[position - 1], extension[position]
    if poset.incomparable(a, b):
        out = list(extension)
        out[position - 1], out[position] = b, a
        return tuple(out)
    return extension


def promotion(poset: NaturalPoset, extension: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Apply tau_{i-1}, then tau_{i-2}, ..., then tau_1."""
    for position in range(i - 1, 0, -1):
        extension = tau(poset, extension, position)
    return extension


def promotion_by_label(poset: NaturalPoset, extension: tuple[int, ...], label: int) -> tuple[int, ...]:
    """Promotion started at the position currently holding ``label``."""
    return promotion(poset, extension, extension.index(label) + 1)


def promotion_chain(poset: NaturalPoset, measure: ProbabilityMeasure) -> TransitionMatrix:
    """Walk on linear extensions: pick a label by the measure and promote."""
    labels = tuple(range(1, poset.n + 1))
    if measure.index_set != labels:
        raise ValueError(f"measure must be on the labels {labels}")
    states = poset.linear_extensions()
    position = {state: k for k, state in enumerate(states)}
    table = [
        [position[promotion_by_label(poset, state, label)] for label in labels]
        for state in states
    ]
    return TransitionMatrix(states, measure, table)
