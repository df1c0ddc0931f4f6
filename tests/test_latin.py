import itertools
import math

import pytest

from packlab.errors import ResourceLimitError
from packlab.latin import (
    LATIN_SQUARE_COUNTS,
    REDUCED_LATIN_SQUARE_COUNTS,
    count_latin_rectangles,
    count_latin_squares,
    is_latin,
)


def test_is_latin_basics():
    assert is_latin([[1]], {1})
    assert is_latin([[1, 2], [2, 1]], {1, 2})
    assert not is_latin([[1, 2], [1, 2]], {1, 2})
    assert not is_latin([[1, 1], [2, 2]], {1, 2})
    assert not is_latin([[1, 2], [2, 3]], {1, 2})  # 3 outside the value set
    with pytest.raises(ValueError):
        is_latin([[1, 2], [1]], {1, 2})
    with pytest.raises(ValueError):
        is_latin([[1], [1]], {1})  # more rows than columns


def test_latin_rectangle_rows_allow_bigger_value_sets():
    assert is_latin([[4, 5, 6]], {4, 5, 6, 7})


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161280)])
def test_square_counts_small(n, expected):
    assert count_latin_squares(n) == expected


def test_square_counts_match_constants_table():
    for n in range(1, 6):
        assert count_latin_squares(n) == LATIN_SQUARE_COUNTS[n]


def test_stored_counts_consistent_with_reduced_counts():
    # N(n) = n! (n-1)! R(n), where R counts squares with sorted first row
    # and first column
    for n in range(1, 12):
        expected = math.factorial(n) * math.factorial(n - 1) * REDUCED_LATIN_SQUARE_COUNTS[n]
        assert LATIN_SQUARE_COUNTS[n] == expected


def test_rectangle_counts():
    assert count_latin_rectangles(1, 4) == 24
    assert count_latin_rectangles(3, 4) == 576
    assert count_latin_rectangles(2, 3) == 12  # 6 first rows x 2 derangements


def test_rectangle_square_bijection():
    for n in range(2, 6):
        assert count_latin_rectangles(n - 1, n) == count_latin_squares(n)


def _plain_rectangle_counts(n: int) -> list[int]:
    """[#r x n Latin rectangles for r = 1..n] by visiting every rectangle.

    Rows are appended one at a time from itertools.permutations, each
    differing from every earlier row in every position; no symmetry and no
    memo, so this is the oracle for the memoized enumerator.
    """
    perms = list(itertools.permutations(range(n)))
    discordant = {p: {q for q in perms if all(a != b for a, b in zip(p, q))} for p in perms}
    counts = [0] * n

    def extend(candidates, r):
        counts[r] += len(candidates)
        if r + 1 < n:
            for p in candidates:
                extend(candidates & discordant[p], r + 1)

    extend(set(perms), 0)
    return counts


@pytest.mark.parametrize("n", range(1, 6))
def test_rectangle_counts_match_plain_enumeration(n):
    plain = _plain_rectangle_counts(n)
    assert [count_latin_rectangles(r, n) for r in range(1, n + 1)] == plain
    if n <= 3:  # small enough to filter all r-tuples of rows directly
        perms = list(itertools.permutations(range(n)))
        for r in range(1, n + 1):
            tuples = itertools.product(perms, repeat=r)
            assert plain[r - 1] == sum(all(len(set(c)) == r for c in zip(*t)) for t in tuples)


def test_rejections():
    with pytest.raises(ResourceLimitError):
        count_latin_squares(12)
    with pytest.raises(ValueError):
        count_latin_squares(0)
    with pytest.raises(ValueError):
        count_latin_rectangles(3, 2)
    with pytest.raises(ResourceLimitError):
        count_latin_rectangles(2, 7)


def test_table_serves_large_orders():
    assert count_latin_squares(7) == 61479419904000
    assert count_latin_squares(11) == LATIN_SQUARE_COUNTS[11]


def test_order_six_by_enumeration():
    assert count_latin_squares(6) == 812851200
