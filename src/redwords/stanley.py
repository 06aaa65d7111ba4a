"""Stanley symmetric functions of permutations.

The generating function of decreasing factorizations of w, graded by block
lengths, is symmetric; its Schur expansion is computed here by three
independent routes that must agree:

1. counting highest weight factorizations by weight,
2. counting semistandard tableaux of transposed shape whose column reading
   word is a reduced word of w, filled in column reading order so that only
   reduced prefixes are ever extended,
3. peeling the exact monomial expansion against the unitriangular Kostka
   matrix, whose entries come from the horizontal-strip branching rule.

All coefficients are exact integers.  F_w depends on w alone: routes 1 and
3 use the crystal's default of as many blocks as w has letters, and more
blocks add no term, as no partition of the length has more parts.

Route 1 is memoised per element, so the identities below, which read the
expansion at w, its inverse, its conjugate by w0 and its weak-order covers,
compute each element's expansion once.  Routes 2 and 3 are not memoised:
comparing the three routes then compares three computations.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .crystal import highest_weight_factorizations, weight_vector_count
from .partitions import Partition, conjugate, hook_content_count, partitions_of
from .reports import CheckReport
from .symfunc import SymFuncExpansion, omega, s1_perp
from .symfunc import support_interval as expansion_support_interval
from .tableaux import fill_ssyt, kostka_number


def stanley_monomial(system: CoxeterSystem, w) -> SymFuncExpansion:
    """Monomial expansion: each coefficient counts factorizations whose block
    lengths spell that partition, rightmost block first."""
    terms: dict[Partition, int] = {}
    for mu in partitions_of(system.length(w)):
        count = weight_vector_count(system, w, mu)
        if count:
            terms[mu] = count
    return SymFuncExpansion.from_dict("monomial", terms)


def schur_expansion(system: CoxeterSystem, w) -> SymFuncExpansion:
    """Schur expansion by counting highest weight factorizations by weight;
    memoised on the system per element."""
    expansion = system._schur_cache.get(w)
    if expansion is None:
        terms: dict[Partition, int] = {}
        for fz in highest_weight_factorizations(system, w):
            weight = fz.weight()
            shape = tuple(p for p in weight if p)
            if list(weight[:len(shape)]) != sorted(shape, reverse=True) or any(weight[len(shape):]):
                raise ArithmeticError(f"highest weight {weight} is not a partition")
            terms[shape] = terms.get(shape, 0) + 1
        expansion = system._schur_cache[w] = SymFuncExpansion.from_dict("schur", terms)
    return expansion


def factorization_count(system: CoxeterSystem, w, num_factors: int) -> int:
    """Number of decreasing factorizations of ``w`` into ``num_factors``
    blocks, the vertices of its crystal, without listing them: F_w at
    ``num_factors`` ones, the sum over its Schur terms of the coefficient
    times the semistandard fillings of the shape with entries
    1..``num_factors``."""
    return sum(
        coeff * hook_content_count(shape, num_factors)
        for shape, coeff in schur_expansion(system, w).terms
    )


def schur_expansion_via_eg(system: CoxeterSystem, w) -> SymFuncExpansion:
    """Schur expansion by the insertion-tableau characterization.

    The coefficient of a shape counts semistandard tableaux of the
    transposed shape whose column reading word is a reduced word of w.
    The filler places letters in column reading order, so each prefix is
    tested as it grows: starting from z = w^-1, a letter v is admitted only
    when it is a right descent of z, and z becomes z*s_v.  A prefix that is
    not reduced for w is never extended, and every complete filling spells
    a reduced word of w.
    """
    max_letter = len(system.index_set)

    def admit(z, v: int):
        return system.right_multiplied(z, v) if system.is_right_descent(z, v) else None

    start = system.inverse(w)
    terms: dict[Partition, int] = {}
    for lam in partitions_of(system.length(w)):
        if lam and lam[0] > max_letter:
            continue  # the first column of the transpose would be too tall
        count = len(fill_ssyt(conjugate(lam), max_letter, admit, start))
        if count:
            terms[lam] = count
    return SymFuncExpansion.from_dict("schur", terms)


def schur_expansion_via_linear_algebra(system: CoxeterSystem, w) -> SymFuncExpansion:
    """Schur expansion by exact back substitution in the monomial basis.

    The Kostka matrix is unitriangular against lexicographic order, so
    repeatedly stripping the lexicographically greatest remaining monomial
    solves the linear system exactly over the integers.
    """
    mono = stanley_monomial(system, w)
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
    covers = sorted(system.weak_order_covers(w))
    rhs = SymFuncExpansion.zero("schur")
    for v in covers:
        rhs = rhs.add(schur_expansion(system, v))
    return CheckReport("skew-by-s1", lhs == rhs, f"{len(covers)} covers")


def support_interval(system: CoxeterSystem, w) -> tuple[Partition, Partition]:
    """Dominance-least and -greatest shapes in the Schur expansion.

    Both carry coefficient one and bound the support in dominance order;
    a violation raises rather than returning silently.
    """
    return expansion_support_interval(schur_expansion(system, w))


def reduced_word_count_from_squarefree(system: CoxeterSystem, w) -> int:
    """Coefficient of the all-ones monomial, which counts reduced words."""
    return weight_vector_count(system, w, (1,) * system.length(w))
