import pytest

from redwords.coxeter import SymmetricGroup
from redwords.crystal import (
    DecreasingFactorization,
    decreasing_factorizations,
    factorization_crystal,
    highest_weight_factorizations,
    parse_factorization,
    stembridge_violations,
)
from redwords.edelman_greene import ck_components


def fz(system, *display_blocks):
    word = tuple(letter for block in display_blocks for letter in block)
    return DecreasingFactorization.from_display(display_blocks, system.evaluate(word))


# the full crystal on three blocks for the longest element of S3:
# eight vertices, eight labelled arrows, one highest weight
# (blocks written left to right, highest block first)
S3_VERTICES = [
    ((), (1,), (2, 1)),
    ((), (2, 1), (2,)),
    ((2,), (1,), (2,)),
    ((2, 1), (), (2,)),
    ((2, 1), (2,), ()),
    ((1,), (), (2, 1)),
    ((1,), (2,), (1,)),
    ((1,), (2, 1), ()),
]
S3_EDGES = [
    (((), (1,), (2, 1)), 1, ((), (2, 1), (2,))),
    (((), (1,), (2, 1)), 2, ((1,), (), (2, 1))),
    (((), (2, 1), (2,)), 2, ((2,), (1,), (2,))),
    (((2,), (1,), (2,)), 2, ((2, 1), (), (2,))),
    (((1,), (), (2, 1)), 1, ((1,), (2,), (1,))),
    (((1,), (2,), (1,)), 1, ((1,), (2, 1), ())),
    (((2, 1), (), (2,)), 1, ((2, 1), (2,), ())),
    (((1,), (2, 1), ()), 2, ((2, 1), (2,), ())),
]


def test_validation_rejects_non_decreasing(s4):
    with pytest.raises(ValueError):
        DecreasingFactorization(((1, 2),), s4.identity)


def test_validate_against_system(s4):
    good = fz(s4, (3, 2), (3, 1), (2,))
    good.validate(s4)
    bad = DecreasingFactorization(((1,), (1,)), s4.generator(1))
    with pytest.raises(ValueError):
        bad.validate(s4)


def test_weight_and_display(s4):
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.weight() == (1, 2, 2)
    assert x.display_factors() == ((3, 2), (3, 1), (2,))
    assert str(x) == "(s3*s2, s3*s1, s2)"
    assert x.compact() == "(32)(31)(2)"


def test_parse_factorization_roundtrip(s4):
    x = parse_factorization(s4, "(32)(31)(2)")
    assert x == fz(s4, (3, 2), (3, 1), (2,))
    assert parse_factorization(s4, "1(1)(21)").display_factors() == ((), (1,), (2, 1))
    assert parse_factorization(s4, "()(1)(21)").display_factors() == ((), (1,), (2, 1))
    with pytest.raises(ValueError):
        parse_factorization(s4, "(12)")  # increasing block
    with pytest.raises(ValueError):
        parse_factorization(s4, "(2)(2)x")


def test_pairing_pinned(s4, s3):
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.pairing(2) == ((3,), (1,))
    # one block empty: everything on the other side is unpaired
    y = fz(s3, (), (2, 1))
    assert y.pairing(1) == ((), (1, 2))
    # equal letters only pair with strictly larger ones
    z = fz(s3, (2,), (2,))
    assert z.pairing(1) == ((2,), (2,))


def test_raising_operator_pinned(s4):
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.e(2) == fz(s4, (2,), (3, 2, 1), (2,))
    assert x.f(2) == fz(s4, (3, 2, 1), (3,), (2,))
    assert x.epsilon(2) == 1


def test_highest_weight_is_killed(s3):
    top = fz(s3, (), (1,), (2, 1))
    assert top.e(1) is None and top.e(2) is None
    assert top.epsilon(1) == top.epsilon(2) == 0


def test_lowering_matches_listing(s3):
    top = fz(s3, (), (1,), (2, 1))
    assert top.f(1) == fz(s3, (), (2, 1), (2,))
    # phi - epsilon balances the weight difference on a symmetric vertex
    mid = fz(s3, (2,), (1,), (2,))
    for i in (1, 2):
        assert mid.phi(i) - mid.epsilon(i) == 0


def test_e_then_f_roundtrip_everywhere(s4):
    graph = factorization_crystal(s4, s4.longest_element)
    for (u, i), v in graph.f_edges.items():
        assert v.e(i) == u
        assert u.f(i) == v
    # and the reverse direction: every raising step is undone by lowering
    for v in graph.vertices:
        for i in graph.index_set:
            raised = v.e(i)
            if raised is not None:
                assert raised.f(i) == v


def test_full_s3_crystal_structure(s3):
    graph = factorization_crystal(s3, s3.longest_element, 3)
    assert {v.display_factors() for v in graph.vertices} == set(S3_VERTICES)
    got_edges = {
        (u.display_factors(), i, v.display_factors()) for u, i, v in graph.edges()
    }
    assert got_edges == set(S3_EDGES)
    assert len(graph.components()) == 1
    hw = graph.highest_weights()
    assert len(hw) == 1
    assert hw[0][0].display_factors() == ((), (1,), (2, 1))
    assert hw[0][1] == (2, 1, 0)


def test_single_block_crystal_has_no_edges(s3):
    graph = factorization_crystal(s3, s3.generator(1), 1)
    assert len(graph.vertices) == 1
    assert graph.f_edges == {}


def test_enumeration_counts(s3, s4):
    assert len(list(decreasing_factorizations(s3, s3.longest_element, 3))) == 8
    # two-component example: the commuting product of two letters
    w = s4.evaluate((1, 3))
    graph = factorization_crystal(s4, w, 2)
    assert len(graph.vertices) == 4
    assert len(graph.components()) == 2


def test_operators_preserve_target_and_reducedness(s4):
    for g in [s4.evaluate((1, 2, 3, 2)), s4.longest_element]:
        graph = factorization_crystal(s4, g)
        for (u, i), v in graph.f_edges.items():
            assert v.target == u.target == g
            v.validate(s4)
            assert sum(v.weight()) == s4.length(g)


def test_weight_step_convention(s4):
    # lowering at colour i moves one unit from coordinate i to coordinate i+1
    graph = factorization_crystal(s4, s4.evaluate((1, 2, 3, 2)))
    for (u, i), v in graph.f_edges.items():
        wu, wv = u.weight(), v.weight()
        assert wu[i - 1] - wv[i - 1] == 1
        assert wv[i] - wu[i] == 1
        rest = [k for k in range(len(wu)) if k not in (i - 1, i)]
        assert all(wu[k] == wv[k] for k in rest)


def test_string_length_axiom(s4):
    graph = factorization_crystal(s4, s4.evaluate((2, 1, 3)))
    for v in graph.vertices:
        for i in graph.index_set:
            assert v.phi(i) - v.epsilon(i) == v.weight()[i - 1] - v.weight()[i]


def test_highest_weights_pinned(s3, s4):
    top = highest_weight_factorizations(s3, s3.longest_element, 3)
    assert [(t.factors, t.weight()) for t in top] == [(((2, 1), (1,), ()), (2, 1, 0))]
    w = s4.evaluate((1, 2, 3, 2))
    at3 = highest_weight_factorizations(s4, w, 3)
    assert [(t.display_factors(), t.weight()) for t in at3] == [
        (((1,), (2,), (3, 2)), (2, 1, 1))
    ]
    at4 = highest_weight_factorizations(s4, w, 4)
    assert [(t.display_factors(), t.weight()) for t in at4] == [
        (((), (1,), (2,), (3, 2)), (2, 1, 1, 0))
    ]
    single = highest_weight_factorizations(s4, s4.generator(1), 1)
    assert [t.weight() for t in single] == [(1,)]


def test_highest_weights_match_slow_filter(s4):
    # oracle: filter the full enumeration through the raising operators
    for g in [s4.evaluate((1, 2, 3, 2)), s4.evaluate((2, 1, 3)), s4.longest_element]:
        num = max(1, s4.length(g))
        slow = sorted(
            (
                x
                for x in decreasing_factorizations(s4, g, num)
                if all(x.e(i) is None for i in range(1, num))
            ),
            key=lambda x: x.factors,
        )
        assert highest_weight_factorizations(s4, g, num) == slow


def test_highest_weight_weights_are_partitions(s4):
    for g in s4.elements():
        for top in highest_weight_factorizations(s4, g):
            weight = top.weight()
            nonzero = tuple(p for p in weight if p)
            assert list(nonzero) == sorted(nonzero, reverse=True)
            assert not any(weight[len(nonzero):])


def test_stembridge_spot_checks(s4):
    graph = factorization_crystal(s4, s4.longest_element)
    assert stembridge_violations(graph) == []


def test_s5_crystal_pinned():
    # the five-block crystal of the S5 longest element is one copy of the
    # staircase highest weight, matching its single Coxeter-Knuth class
    s5 = SymmetricGroup(5)
    w0 = s5.longest_element
    graph = factorization_crystal(s5, w0, 5)
    assert len(graph.vertices) == 1024
    assert len(graph.f_edges) == 2304
    assert [weight for _, weight in graph.highest_weights()] == [(4, 3, 2, 1, 0)]
    assert len(graph.components()) == 1 == len(ck_components(s5, w0))
