from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from redwords.partitions import (
    check_partition,
    conjugate,
    dominates,
    hook_content_count,
    hook_length_count,
    hook_lengths,
    is_partition,
    partitions_of,
    removable_corners,
    staircase,
)
from redwords.tableaux import generate_ssyt, generate_ssyt_with_content


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_is_partition():
    assert is_partition((3, 2, 2, 1))
    assert is_partition(())
    assert not is_partition((2, 3))
    assert not is_partition((2, 0))


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_conjugate_known():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)


@given(partition_strategy())
def test_conjugate_involution(shape):
    assert conjugate(conjugate(shape)) == shape
    assert sum(conjugate(shape)) == sum(shape)


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    with pytest.raises(ValueError):
        dominates((2,), (1,) * 3)


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(10)) == 42


def test_removable_corners():
    assert set(removable_corners((3, 2, 2))) == {(2, 2, 2), (3, 2, 1)}
    assert removable_corners((1,)) == ((),)


def test_staircase():
    assert staircase(4) == (3, 2, 1)
    assert staircase(1) == ()


def test_hook_length_known_values():
    assert hook_length_count((1,)) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((3, 2, 1)) == 16
    assert hook_length_count((4, 3, 2, 1)) == 768
    assert hook_length_count((5, 4, 1)) == 288
    assert hook_length_count((4,)) == 1


def test_hook_content_count_matches_enumeration():
    for n in range(8):
        for shape in partitions_of(n):
            for m in range(-1, 5):
                assert hook_content_count(shape, m) == len(generate_ssyt(shape, m)), (shape, m)


def test_hook_content_count_known_values():
    assert hook_content_count((120,), 4) == 302621  # C(123, 3)
    assert hook_content_count((2, 1), 3) == 8
    assert hook_content_count((1, 1, 1), 2) == 0
    assert hook_content_count((), 0) == 1


def test_hook_products_match_the_one_at_a_time_products():
    # the balanced product tree against math.prod, factor by factor
    for n in range(9):
        for shape in partitions_of(n):
            hooks = prod(h for row in hook_lengths(shape) for h in row)
            assert hook_length_count(shape) == factorial(n) // hooks, shape
            for m in range(5):
                if m < len(shape):
                    continue  # a column longer than the alphabet: no fillings
                contents = prod(m + c - r for r, part in enumerate(shape) for c in range(part))
                assert hook_content_count(shape, m) == contents // hooks, (shape, m)


@given(partition_strategy(max_n=8))
def test_hook_length_matches_brute_force(shape):
    # standard fillings are the semistandard ones with all-ones content
    brute = len(generate_ssyt_with_content(shape, (1,) * sum(shape)))
    assert hook_length_count(shape) == brute
