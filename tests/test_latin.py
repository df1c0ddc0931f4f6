import itertools
import math
import random

import pytest

from packlab.counting import _matching_dead_ends
from packlab.errors import ResourceLimitError
from packlab.latin import (
    LATIN_SQUARE_COUNTS,
    REDUCED_LATIN_SQUARE_COUNTS,
    _count_rows,
    _dead_ends,
    _relabeled,
    _row_sets,
    count_latin_rectangles,
    count_latin_squares,
    is_latin,
)
from packlab.packing import PackingMatrix, brute_force_extension, has_perfect_matching


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


def test_rectangle_counts_of_order_six():
    want = [720, 190800, 15321600, 283046400, 812851200, 812851200]
    assert [count_latin_rectangles(r, 6) for r in range(1, 7)] == want


# ---------------------------------------------------------------------------
# the row memo of _count_rows: keys under position and colour symmetry
# ---------------------------------------------------------------------------


#: the last-row counts count_latin_rectangles (None: Latin rows) and
#: forbidden_count_brute use (one matching call per matrix, or row sets)
LASTS = (None, _matching_dead_ends, _dead_ends)


def _relabel(mask: int, sigma) -> int:
    return sum(1 << sigma[c] for c in range(len(sigma)) if mask >> c & 1)


def _plain_count_rows(k, cols, depth, last) -> int:
    """_count_rows by visiting every tuple of `depth` rows, with no memo.

    With `last` None every Latin tuple counts; otherwise every tuple whose
    full state has no perfect matching of its admissible masks.
    """
    full = (1 << k) - 1
    total = 0
    for rows in itertools.product(itertools.permutations(range(k)), repeat=depth):
        state = list(cols)
        allowed = True
        for row in rows:
            for j, c in enumerate(row):
                allowed = allowed and not (last is None and state[j] >> c & 1)
                state[j] |= 1 << c
        if allowed:
            total += last is None or not has_perfect_matching([full & ~used for used in state])
    return total


@pytest.mark.parametrize(
    "k,depth,states",
    [(2, 1, 10), (2, 3, 10), (3, 1, 30), (3, 2, 30), (4, 1, 30), (4, 2, 20), (5, 1, 20), (5, 2, 2), (6, 1, 8)],
)
def test_count_rows_invariant_under_relabeling_and_position_permutation(k, depth, states):
    rng = random.Random(1000 * k + depth)
    for _ in range(states):
        cols = [rng.getrandbits(k) for _ in range(k)]
        sigma = rng.sample(range(k), k)
        pi = rng.sample(range(k), k)
        image = [_relabel(cols[pi[j]], sigma) for j in range(k)]
        for last in LASTS:
            want = _plain_count_rows(k, cols, depth, last)
            memo: dict = {}
            assert _count_rows(k, list(cols), depth, last, memo) == want
            # the shared memo may answer the image from keys the state stored
            assert _count_rows(k, list(image), depth, last, memo) == want
            assert _count_rows(k, list(image), depth, last, {}) == want


@pytest.mark.parametrize("k", range(2, 7))
def test_relabeled_orders_colours_by_their_popcount_counts(k):
    # colour c's key is the number of masks of popcount k, k - 1, ..., 1
    # that hold it; colours go in ascending key order, ties by label, colour
    # order[r] becomes r, and the identity order gives None
    rng = random.Random(50 + k)
    for _ in range(200):
        cols = [rng.getrandbits(k) for _ in range(k)]
        counts = [
            tuple(sum(m >> c & 1 and m.bit_count() == p for m in cols) for p in range(k, 0, -1))
            for c in range(k)
        ]
        order = sorted(range(k), key=counts.__getitem__)
        image = tuple(sorted(_relabel(m, [order.index(c) for c in range(k)]) for m in cols))
        want = None if order == list(range(k)) else image
        assert _relabeled(k, cols) == want, cols


class _ImageCheckingMemo(dict):
    """A memo that checks each key it stores against the state being stored.

    `cols` is the list _count_rows updates in place, so at each store it
    holds the state the key names; the key must be that state's masks,
    sorted, under one of the k! colour relabelings.
    """

    def __init__(self, k, cols):
        super().__init__()
        self.sigmas = list(itertools.permutations(range(k)))
        self.cols = cols
        self.relabeled = 0

    def __setitem__(self, key, value):
        depth, masks = key
        images = {tuple(sorted(_relabel(m, s) for m in self.cols)) for s in self.sigmas}
        assert masks in images, (masks, self.cols)
        self.relabeled += masks != tuple(sorted(self.cols))
        super().__setitem__(key, value)


@pytest.mark.parametrize("k,depth", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 1)])
def test_count_rows_keys_are_sorted_relabeled_images(k, depth):
    rng = random.Random(k + 10 * depth)
    relabeled = 0
    for _ in range(6):
        cols = [rng.getrandbits(k) for _ in range(k)]
        for last in LASTS:
            memo = _ImageCheckingMemo(k, cols)
            want = _plain_count_rows(k, cols, depth, last)
            assert _count_rows(k, cols, depth, last, memo) == want
            relabeled += memo.relabeled
    assert relabeled > 0  # the relabeled keys were exercised, not only the plain ones


def _discordant(p, q) -> bool:
    return all(a != b for a, b in zip(p, q))


def _random_latin_rectangle(rng, r, k):
    """r rows of a random k x k Latin rectangle: each row is drawn from those
    that differ from every earlier row in every position (r < k rows always
    extend, so the draw never runs dry)."""
    rect = []
    perms = list(itertools.permutations(range(k)))
    for _ in range(r):
        rect.append(rng.choice([p for p in perms if all(_discordant(p, q) for q in rect)]))
    return rect


@pytest.mark.parametrize("k,depth", [(4, 1), (4, 2), (5, 1), (5, 2)])
def test_latin_tails_on_latin_rectangle_states(k, depth):
    rng = random.Random(100 * k + depth)
    for r in range(k - depth + 1):
        for _ in range(4 if k == 4 or depth == 1 else 2):
            cols = [0] * k
            for row in _random_latin_rectangle(rng, r, k):
                for j, c in enumerate(row):
                    cols[j] |= 1 << c
            assert _relabeled(k, cols) is None  # so Latin states skip the alias key
            want = _plain_count_rows(k, cols, depth, None)
            assert want > 0  # a Latin rectangle always extends
            assert _count_rows(k, list(cols), depth, None, {}) == want


@pytest.mark.parametrize("k", range(1, 5))
def test_row_sets_match_their_definitions(k):
    rows, hits, meet = _row_sets(k)
    perms = list(itertools.permutations(range(k)))
    assert list(rows) == [tuple(1 << c for c in p) for p in perms]
    for j in range(k):
        for m in range(1 << k):
            assert hits[j][m] == sum(1 << i for i, p in enumerate(perms) if m >> p[j] & 1)
    for i, p in enumerate(perms):
        assert meet[i] == sum(1 << h for h, q in enumerate(perms) if not _discordant(p, q))


def _masks(k, rows):
    """The column masks of rows over colours 1..k: bit c - 1 for colour c."""
    cols = [0] * k
    for row in rows:
        for j, c in enumerate(row):
            cols[j] |= 1 << (c - 1)
    return cols


def _oracle_dead_ends(k, rows) -> int:
    """Last rows r for which brute_force_extension finds no extension of rows + (r,).

    An extension already found for an earlier r is a row that avoids every
    row of the state; when it also avoids r it extends rows + (r,) as well,
    so r is settled without a scan.
    """
    found = []
    dead = 0
    for r in itertools.permutations(range(1, k + 1)):
        if any(_discordant(e, r) for e in found):
            continue
        e = brute_force_extension(PackingMatrix(k, rows + (r,)))
        if e is None:
            dead += 1
        else:
            found.append(e)
    return dead


def _latin_square_state(rng, k, d):
    """d - 1 rows whose columns at d random positions carry d - 1 rows of a
    d x d Latin square on d random colours, the other colours anywhere
    else: with 2d > k, every last row completing that square is a dead
    end, since its d positions are left fewer than d colours."""
    positions = rng.sample(range(k), d)
    colours = rng.sample(range(1, k + 1), d)
    others = [c for c in range(1, k + 1) if c not in colours]
    shift = rng.sample(range(d), d)
    rows = []
    for i in range(d - 1):
        row = rng.sample(others, len(others))
        for j in range(k):
            if j in positions:
                row.insert(j, colours[(shift[i] + positions.index(j)) % d])
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("k", range(3, 8))
def test_dead_ends_match_brute_force_extension(k):
    # _dead_ends against an oracle that shares nothing with either kernel:
    # random states of 1 .. k rows, and a state carrying part of a Latin
    # square, which has dead ends at every k
    rng = random.Random(300 + k)
    perms = list(itertools.permutations(range(1, k + 1)))
    n_random = 8 if k < 7 else 1
    states = [tuple(rng.choice(perms) for _ in range(rng.randint(1, k))) for _ in range(n_random)]
    states.append(_latin_square_state(rng, k, k // 2 + 1))
    counts = []
    for rows in states:
        want = _oracle_dead_ends(k, rows)
        assert _dead_ends(k, _masks(k, rows)) == want, rows
        counts.append(want)
    assert counts[-1] > 0
