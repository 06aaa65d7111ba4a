"""The exchange walk on reduced words of the longest element.

States are the reduced words of the longest element; picking generator i
with probability P(i) moves a word to its exchange image.  The transition
matrix is kept in exact rational arithmetic: entry (to, from) is the
probability of that transition and columns sum to one.  The spectrum has a
closed form indexed by subsets of the generators, and the stationary
distribution is an explicit product over prefixes; both are checked against
the matrix exactly.

Specializations: on the hypercube the walk is move-to-front on linear
orderings (the Tsetlin library); on the linear extensions of a naturally
labelled poset a promotion walk generalizes it and degenerates back to
move-to-front on antichains.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .coxeter import CoxeterSystem, Hypercube, Word


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Exact rational weights on an index set, summing to one."""

    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        seen = set()
        for i, p in self.weights:
            if not isinstance(p, Fraction):
                raise ValueError(f"weight of {i} must be a Fraction, got {p!r}")
            if p < 0 or p > 1:
                raise ValueError(f"weight of {i} outside [0, 1]")
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            seen.add(i)
            total += p
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

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


@dataclass(eq=False)
class TransitionMatrix:
    """Column-stochastic matrix over an ordered state list.

    ``entries[a][b]`` is the probability of moving from ``states[b]`` to
    ``states[a]``; ``labels`` records which choices realize each arrow.
    """

    states: tuple
    entries: tuple[tuple[Fraction, ...], ...]
    labels: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.states)

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(
            sum((row[b] for row in self.entries), Fraction(0))
            for b in range(self.size)
        )

    def is_column_stochastic(self) -> bool:
        return all(total == 1 for total in self.column_sums())

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(
            sum((self.entries[a][b] * vector[b] for b in range(self.size)), Fraction(0))
            for a in range(self.size)
        )

    def fixes(self, vector: Sequence[Fraction]) -> bool:
        return self.apply(vector) == tuple(vector)

    def is_strongly_connected(self) -> bool:
        n = self.size
        forward = {a: [b for b in range(n) if self.entries[b][a] > 0] for a in range(n)}
        backward = {a: [b for b in range(n) if self.entries[a][b] > 0] for a in range(n)}
        for adjacency in (forward, backward):
            seen = {0}
            queue = [0]
            while queue:
                cur = queue.pop()
                for nxt in adjacency[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if len(seen) != n:
                return False
        return True

    def to_dot(self, name: str = "chain", label=None) -> str:
        from .dot import digraph

        if label is None:
            label = lambda state: "".join(str(i) for i in state)
        ids = {k: f"n{k}" for k in range(self.size)}
        nodes = [(ids[k], label(self.states[k])) for k in range(self.size)]
        edges = []
        for (to_idx, from_idx), choices in sorted(self.labels.items()):
            edges.append(
                (
                    ids[from_idx],
                    ids[to_idx],
                    {"label": ",".join(str(i) for i in choices)},
                )
            )
        return digraph(name, nodes, edges)


def build_chain(system: CoxeterSystem, measure: ProbabilityMeasure) -> TransitionMatrix:
    """Exchange walk transition matrix over the reduced words of the longest
    element.  The measure must have full support for ergodicity."""
    index_set = tuple(sorted(system.index_set))
    if measure.index_set != index_set:
        raise ValueError(
            f"measure is on {measure.index_set}, system needs {index_set}"
        )
    if measure.support != frozenset(index_set):
        raise ValueError("measure must have full support on the generators")
    states = tuple(sorted(system.reduced_words(system.longest_element)))
    return _transition_matrix(states, measure, system.exchange)


def _transition_matrix(states: tuple, measure: ProbabilityMeasure, step) -> TransitionMatrix:
    """The walk that moves ``state`` to ``step(i, state)`` with probability
    measure[i], over the ordered ``states``."""
    position = {state: k for k, state in enumerate(states)}
    entries = [[Fraction(0)] * len(states) for _ in states]
    labels: dict[tuple[int, int], tuple[int, ...]] = {}
    for b, state in enumerate(states):
        for i, p in measure.weights:
            a = position[step(i, state)]
            entries[a][b] += p
            labels[(a, b)] = labels.get((a, b), ()) + (i,)
    return TransitionMatrix(states, tuple(tuple(row) for row in entries), labels)


# ----------------------------------------------------------------------
# spectrum


@dataclass(frozen=True)
class SpectrumLine:
    subset: tuple[int, ...]
    eigenvalue: Fraction
    multiplicity: int


def spectrum(system: CoxeterSystem, measure: ProbabilityMeasure) -> tuple[SpectrumLine, ...]:
    """Closed-form eigenvalues with multiplicities, one line per subset J.

    The eigenvalue for J is the measure of J.  Its multiplicity is an
    alternating sum over supersets K of reduced-word counts of w_K * w0.
    """
    index_set = tuple(sorted(system.index_set))
    w0 = system.longest_element

    def count_for(subset: tuple[int, ...]) -> int:
        return system.reduced_word_count(
            system.multiply(system.parabolic_longest(subset), w0)
        )

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
    exact)."""
    n = len(matrix)
    coeffs = [1]
    work = [row[:] for row in matrix]
    for k in range(1, n + 1):
        trace = sum(work[j][j] for j in range(n))
        assert trace % k == 0
        c = -trace // k
        coeffs.append(c)
        if k == n:
            break
        for j in range(n):
            work[j][j] += c
        work = [
            [
                sum(matrix[r][m] * work[m][c2] for m in range(n))
                for c2 in range(n)
            ]
            for r in range(n)
        ]
    return coeffs


def charpoly(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial of the transition matrix, monic, highest
    degree first, computed exactly over the rationals."""
    n = matrix.size
    denominator = 1
    for row in matrix.entries:
        for value in row:
            denominator = denominator * value.denominator // gcd(denominator, value.denominator)
    scaled = [[int(value * denominator) for value in row] for row in matrix.entries]
    integer_coeffs = _charpoly_int(scaled)
    return tuple(
        Fraction(integer_coeffs[k], denominator ** k) for k in range(n + 1)
    )


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


def charpoly_matches_spectrum(system: CoxeterSystem, measure: ProbabilityMeasure,
                              matrix: TransitionMatrix | None = None) -> bool:
    """Exact equality of the characteristic polynomial with the closed-form
    factorization, collisions between subsets merged first."""
    if matrix is None:
        matrix = build_chain(system, measure)
    return charpoly(matrix) == poly_from_eigenvalues(
        eigenvalues_by_value(spectrum(system, measure))
    )


# ----------------------------------------------------------------------
# stationary distribution


def stationary_distribution(system: CoxeterSystem, measure: ProbabilityMeasure) -> dict[Word, Fraction]:
    """Closed-form stationary law of the exchange walk.

    The weight of a word multiplies, over its prefixes, the probability of
    the next letter divided by one minus the measure of the right descents
    of the prefix so far; full support keeps every denominator positive.
    """
    if measure.support != frozenset(system.index_set):
        raise ValueError("measure must have full support on the generators")
    out: dict[Word, Fraction] = {}
    for word in system.reduced_words(system.longest_element):
        prefix = system.identity
        value = Fraction(1)
        for letter in word:
            blocked = sum(
                (measure[i] for i in system.right_descents(prefix)), Fraction(0)
            )
            assert blocked < 1, "descent measure must stay below one off the top"
            value *= measure[letter] / (1 - blocked)
            prefix = system.right_multiplied(prefix, letter)
        out[word] = value
    assert sum(out.values()) == 1
    return out


def solve_stationary(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Stationary vector of any column-stochastic matrix by exact elimination."""
    n = matrix.size
    rows = [
        [matrix.entries[r][c] - (1 if r == c else 0) for c in range(n)] + [Fraction(0)]
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

    The state at every time 0..steps is counted, so zero steps give a point
    mass at the start state; identical seeds give identical trajectories.
    """
    states = tuple(sorted(system.reduced_words(system.longest_element)))
    if start is None:
        start = states[0]
    if start not in set(states):
        raise ValueError(f"{start} is not a reduced word of the longest element")
    rng = random.Random(seed)
    indices = [i for i, _ in measure.weights]
    weights = [float(p) for _, p in measure.weights]
    counts: dict[Word, int] = {start: 1}
    current = start
    for i in rng.choices(indices, weights=weights, k=steps):
        current = system.exchange(i, current)
        counts[current] = counts.get(current, 0) + 1
    total = steps + 1
    return {word: Fraction(c, total) for word, c in counts.items()}


def total_variation(p: Mapping, q: Mapping) -> Fraction:
    """Half the l1 distance between two distributions."""
    keys = set(p) | set(q)
    return sum(
        (abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0))) for k in keys),
        Fraction(0),
    ) / 2


# ----------------------------------------------------------------------
# Tsetlin library and promotion on posets


def tsetlin_chain(n: int, measure: ProbabilityMeasure) -> TransitionMatrix:
    """Move-to-front on orderings of n items: the hypercube exchange walk."""
    return build_chain(Hypercube(n), measure)


@dataclass(frozen=True)
class NaturalPoset:
    """Poset on {1..n} whose order respects the integer labels.

    Relations are (smaller, larger) pairs; the transitive closure is taken.
    A generating pair (i, j) with i >= j is rejected: the labelling must be
    natural.
    """

    n: int
    relations: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.relations:
            if not (1 <= i < j <= self.n):
                raise ValueError(
                    f"relation ({i}, {j}) violates the natural labelling on 1..{self.n}"
                )
        closure = {pair for pair in self.relations}
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        object.__setattr__(self, "_closure", frozenset(closure))

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "NaturalPoset":
        return cls(n, frozenset((int(a), int(b)) for a, b in pairs))

    @classmethod
    def antichain(cls, n: int) -> "NaturalPoset":
        return cls(n, frozenset())

    @classmethod
    def chain(cls, n: int) -> "NaturalPoset":
        return cls(n, frozenset((i, i + 1) for i in range(1, n)))

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self._closure

    def incomparable(self, a: int, b: int) -> bool:
        return a != b and not self.less(a, b) and not self.less(b, a)

    def linear_extensions(self) -> tuple[tuple[int, ...], ...]:
        """All orderings compatible with the poset, lexicographically."""
        out: list[tuple[int, ...]] = []
        below = {
            j: {i for i in range(1, self.n + 1) if self.less(i, j)}
            for j in range(1, self.n + 1)
        }

        def extend(prefix: tuple[int, ...], placed: set[int]) -> None:
            if len(prefix) == self.n:
                out.append(prefix)
                return
            for j in range(1, self.n + 1):
                if j not in placed and below[j] <= placed:
                    extend(prefix + (j,), placed | {j})

        extend((), set())
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
    states = tuple(sorted(poset.linear_extensions()))
    return _transition_matrix(
        states, measure, lambda label, state: promotion_by_label(poset, state, label)
    )
