"""Stanley symmetric functions of permutations.

The generating function of decreasing factorizations of w, graded by block
lengths, is symmetric; its Schur expansion is computed here by three
independent routes that must agree:

1. counting highest weight factorizations by weight,
2. counting semistandard tableaux of transposed shape whose column reading
   word is a reduced word of w,
3. peeling the exact monomial expansion against the unitriangular Kostka
   matrix.

All coefficients are exact integers; ``num_factors`` defaults to the length
of w, which suffices because no contributing weight has more parts.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .crystal import highest_weight_factorizations, weight_vector_count
from .partitions import Partition, conjugate, partitions_of
from .reports import CheckReport
from .symfunc import SymFuncExpansion, omega, s1_perp
from .symfunc import support_interval as expansion_support_interval
from .tableaux import generate_ssyt, kostka_number


class TruncationError(ValueError):
    """Raised when too few blocks are requested for a faithful expansion."""


def _resolve_num_factors(system: CoxeterSystem, w, num_factors: int | None) -> int:
    length = system.length(w)
    if num_factors is None:
        return max(1, length)
    if num_factors < max(1, length):
        raise TruncationError(
            f"{num_factors} blocks truncate an element of length {length}"
        )
    return num_factors


def stanley_monomial(system: CoxeterSystem, w, num_factors: int | None = None) -> SymFuncExpansion:
    """Monomial expansion: each coefficient counts factorizations whose block
    lengths spell that partition, rightmost block first."""
    num_factors = _resolve_num_factors(system, w, num_factors)
    terms: dict[Partition, int] = {}
    for mu in partitions_of(system.length(w)):
        if len(mu) > num_factors:
            continue
        count = weight_vector_count(system, w, mu)
        if count:
            terms[mu] = count
    return SymFuncExpansion.from_dict("monomial", terms)


def schur_expansion(system: CoxeterSystem, w, num_factors: int | None = None) -> SymFuncExpansion:
    """Schur expansion by counting highest weight factorizations by weight."""
    num_factors = _resolve_num_factors(system, w, num_factors)
    terms: dict[Partition, int] = {}
    for fz in highest_weight_factorizations(system, w, num_factors):
        weight = fz.weight()
        shape = tuple(p for p in weight if p)
        if list(weight[:len(shape)]) != sorted(shape, reverse=True) or any(weight[len(shape):]):
            raise AssertionError(f"highest weight {weight} is not a partition")
        terms[shape] = terms.get(shape, 0) + 1
    return SymFuncExpansion.from_dict("schur", terms)


def schur_expansion_via_eg(system: CoxeterSystem, w) -> SymFuncExpansion:
    """Schur expansion by the insertion-tableau characterization.

    The coefficient of a shape counts semistandard tableaux of the
    transposed shape whose column reading word is a reduced word of w.
    """
    max_letter = len(system.index_set)
    terms: dict[Partition, int] = {}
    for lam in partitions_of(system.length(w)):
        if lam and lam[0] > max_letter:
            continue  # the first column of the transpose would be too tall
        count = 0
        for tab in generate_ssyt(conjugate(lam), max_letter):
            word = tab.column_reading_word()
            if len(word) == system.length(w) and system.evaluate(word) == w:
                count += 1
        if count:
            terms[lam] = count
    return SymFuncExpansion.from_dict("schur", terms)


def schur_expansion_via_linear_algebra(system: CoxeterSystem, w, num_factors: int | None = None) -> SymFuncExpansion:
    """Schur expansion by exact back substitution in the monomial basis.

    The Kostka matrix is unitriangular against lexicographic order, so
    repeatedly stripping the lexicographically greatest remaining monomial
    solves the linear system exactly over the integers.
    """
    mono = stanley_monomial(system, w, num_factors)
    residual = mono.as_dict()
    result: dict[Partition, int] = {}
    while residual:
        mu = max(residual)
        coeff = residual.pop(mu)
        result[mu] = coeff
        for nu in partitions_of(sum(mu)):
            if nu == mu:
                continue
            k = kostka_number(mu, nu)
            if k:
                updated = residual.get(nu, 0) - coeff * k
                if updated:
                    residual[nu] = updated
                else:
                    residual.pop(nu, None)
    expansion = SymFuncExpansion.from_dict("schur", result)
    if any(coeff < 0 for _, coeff in expansion.terms):
        raise ArithmeticError(
            f"negative coefficient while expanding {mono}; upstream bug"
        )
    return expansion


# ----------------------------------------------------------------------
# executable identities


def omega_duality_check(system: CoxeterSystem, w) -> CheckReport:
    """Transposing every shape in the expansion matches the expansion of the
    inverse element (equivalently of the conjugate by the longest element)."""
    lhs = omega(schur_expansion(system, w))
    rhs_inverse = schur_expansion(system, system.inverse(w))
    w0 = system.longest_element
    conjugated = system.multiply(system.multiply(w0, w), w0)
    rhs_conjugate = schur_expansion(system, conjugated)
    passed = lhs == rhs_inverse == rhs_conjugate
    return CheckReport(
        "omega-duality",
        passed,
        f"omega({len(lhs.terms)} terms) vs inverse/conjugate expansions",
    )


def skew_by_s1_check(system: CoxeterSystem, w) -> CheckReport:
    """Removing one cell from the expansion equals the sum over weak-order
    covers: s_1-perp applied to F_w matches the sum of F_v, w covering v."""
    if system.length(w) < 1:
        raise ValueError("the identity has no covers; start at length one")
    lhs = s1_perp(schur_expansion(system, w))
    rhs = SymFuncExpansion.zero("schur")
    for v in sorted(system.weak_order_covers(w)):
        rhs = rhs.add(schur_expansion(system, v))
    return CheckReport(
        "skew-by-s1",
        lhs == rhs,
        f"{len(system.weak_order_covers(w))} covers",
    )


def support_interval(system: CoxeterSystem, w) -> tuple[Partition, Partition]:
    """Dominance-least and -greatest shapes in the Schur expansion.

    Both carry coefficient one and bound the support in dominance order;
    a violation raises rather than returning silently.
    """
    return expansion_support_interval(schur_expansion(system, w))


def reduced_word_count_from_squarefree(system: CoxeterSystem, w) -> int:
    """Coefficient of the all-ones monomial, which counts reduced words."""
    length = system.length(w)
    mono = stanley_monomial(system, w)
    return mono.coefficient((1,) * length) if length else mono.coefficient(())
