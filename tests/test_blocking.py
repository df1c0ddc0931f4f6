import itertools
import random
from types import SimpleNamespace

import pytest

import packlab.blocking as blocking
from packlab.blocking import (
    colouring_masks,
    column_space,
    cover_from_columns,
    first_multiset_cover,
    greedy_cover,
    hill_climb_cover,
    packing_masks,
)
from packlab.errors import ResourceLimitError
from packlab.packing import admissible_masks, has_perfect_matching
from packlab.perms import compose, identity


def plain_packing_masks(d, k):
    """O(size^2) reference: column c blocks matrix m iff the transported
    matrix (identity, c_2.m_2, ..., c_d.m_d) is unextendable."""
    perms = list(itertools.permutations(range(1, k + 1)))
    index_of = {p: i for i, p in enumerate(perms)}
    comp = [[index_of[compose(a, b)] for b in perms] for a in perms]
    codes = list(itertools.product(range(len(perms)), repeat=d - 1))
    forbidden = {
        code
        for code in codes
        if not has_perfect_matching(
            admissible_masks((identity(k),) + tuple(perms[i] for i in code), k)
        )
    }
    masks = []
    for combo in codes:
        mask = 0
        for m, matrix in enumerate(codes):
            if tuple(comp[c][x] for c, x in zip(combo, matrix)) in forbidden:
                mask |= 1 << m
        masks.append(mask)
    return masks


def plain_colouring_masks(d, k):
    """Reference: a column blocks the colouring (a_1..a_d) iff its
    transported colours exhaust {1..k}."""
    masks = []
    for column in column_space(d, k):
        mask = 0
        for code, colours in enumerate(itertools.product(range(1, k + 1), repeat=d)):
            if len({column[i][colours[i] - 1] for i in range(d)}) == k:
                mask |= 1 << code
        masks.append(mask)
    return masks


def plain_greedy_cover(masks, n_targets):
    """Reference: rescore every mask at every step."""
    survivors = (1 << n_targets) - 1
    trace = [n_targets]
    picks = []
    while survivors:
        counts = [(survivors & m).bit_count() for m in masks]
        best = counts.index(max(counts))
        if counts[best] == 0:
            raise ValueError("some target is covered by no mask")
        survivors &= ~masks[best]
        picks.append(best)
        trace.append(survivors.bit_count())
    return picks, trace


def plain_hill_climb_cover(masks, n_targets, n_picks, seed, max_evals):
    """Reference: the replacement scan minimises the uncovered count directly."""
    full = (1 << n_targets) - 1
    nc = len(masks)
    rng = random.Random(seed)
    evaluations = 0
    while True:
        state = [rng.randrange(nc) for _ in range(n_picks)]
        while True:
            improved = False
            for v in range(n_picks):
                base = 0
                for w, c in enumerate(state):
                    if w != v:
                        base |= masks[c]
                evaluations += nc
                if max_evals is not None and evaluations > max_evals:
                    return None
                uncovered = full & ~base
                current = (uncovered & ~masks[state[v]]).bit_count()
                cnt, best = min(((uncovered & ~m).bit_count(), c) for c, m in enumerate(masks))
                if cnt < current:
                    state[v] = best
                    improved = True
            covered = 0
            for c in state:
                covered |= masks[c]
            if covered == full:
                return state
            if not improved:
                break


def random_mask_family(rng):
    """Seeded masks with duplicates (ties) and, sometimes, a target no mask covers."""
    n_targets = rng.randint(0, 24)
    density = rng.choice((0.1, 0.3, 0.6))
    masks = [
        sum(1 << b for b in range(n_targets) if rng.random() < density)
        for _ in range(rng.randint(1, 12))
    ]
    masks += rng.choices(masks, k=rng.randint(0, 4))
    rng.shuffle(masks)
    if n_targets and rng.random() < 0.25:
        hole = ~(1 << rng.randrange(n_targets))
        masks = [m & hole for m in masks]
    return masks, n_targets


def outcome(solver, *args):
    try:
        return solver(*args)
    except ValueError:
        return ValueError


def test_greedy_cover_matches_full_rescan():
    rng = random.Random(0xB10C)
    errors = 0
    for _ in range(1500):
        masks, n_targets = random_mask_family(rng)
        expected = outcome(plain_greedy_cover, masks, n_targets)
        assert outcome(greedy_cover, masks, n_targets) == expected
        errors += expected is ValueError
    assert errors > 100  # uncoverable targets were exercised
    assert greedy_cover([], 0) == ([], [0])
    assert outcome(greedy_cover, [], 1) is ValueError


def test_hill_climb_cover_matches_uncovered_count_scan():
    rng = random.Random(0xC11B)
    found = lost = 0
    for _ in range(600):
        masks, n_targets = random_mask_family(rng)
        n_picks = rng.randint(1, 4)
        seed = rng.randrange(1 << 30)
        # budgets are rarely a whole number of rounds, so most end mid-round
        max_evals = rng.randint(0, 40 * len(masks))
        expected = plain_hill_climb_cover(masks, n_targets, n_picks, seed, max_evals)
        assert hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, None) == expected
        if expected is None:
            lost += 1
        else:
            found += 1
    assert found > 100 and lost > 100


def test_hill_climb_cover_pinned_on_d3_k4():
    # picks recorded with the uncovered-count scan; seed 4 restarts 48 times first
    masks = packing_masks(3, 4)
    picks = hill_climb_cover(masks, len(masks), 18, 4, 2_000_000, None)
    assert picks == [256, 129, 125, 363, 94, 316, 405, 284, 26, 516, 491, 78, 499, 445,
                     189, 232, 167, 337]


def test_column_space_order():
    columns = column_space(3, 3)
    perms = list(itertools.permutations((1, 2, 3)))
    assert columns == [(identity(3), a, b) for a in perms for b in perms]


@pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3)])
def test_packing_masks_match_plain_reference(d, k):
    assert packing_masks(d, k) == plain_packing_masks(d, k)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_colouring_masks_match_plain_reference(d, k):
    assert colouring_masks(d, k) == plain_colouring_masks(d, k)


def test_packing_masks_refuse_oversized_or_degenerate_spaces():
    with pytest.raises(ResourceLimitError):
        packing_masks(4, 5)
    with pytest.raises(ValueError):
        packing_masks(1, 3)


def test_cover_from_columns_places_one_column_per_vertex():
    columns = column_space(2, 3)
    cover = cover_from_columns(columns, [0, 5, 5])
    assert cover.t == 3 and cover.d == 2 and cover.k == 3
    assert [cover.column(j) for j in range(3)] == [columns[0], columns[5], columns[5]]


def test_greedy_cover_breaks_ties_to_the_smallest_index():
    picks, trace = greedy_cover([0b0011, 0b1100, 0b0110, 0b1001], 4)
    assert picks == [0, 1]
    assert trace == [4, 2, 0]
    with pytest.raises(ValueError):
        greedy_cover([0b01], 2)  # target 1 is covered by no mask


def test_first_multiset_cover_is_lexicographically_first():
    masks = [0b000, 0b001, 0b010, 0b110]
    assert first_multiset_cover(masks, 3, 2, 0) == (1, 3)
    assert first_multiset_cover(masks, 3, 1, 0b001) == (3,)
    assert first_multiset_cover(masks, 3, 1, 0) is None
    assert first_multiset_cover(masks, 3, 0, 0b111) == ()


def test_hill_climb_cover_finds_a_cover_or_exhausts_its_budget():
    masks = [0b0011, 0b0110, 0b1100, 0b1000, 0b0001]
    picks = hill_climb_cover(masks, 4, 2, seed=0, max_evals=10_000, max_seconds=None)
    assert picks is not None and len(picks) == 2
    assert masks[picks[0]] | masks[picks[1]] == 0b1111
    assert hill_climb_cover(masks, 4, 1, seed=0, max_evals=1_000, max_seconds=None) is None
    with pytest.raises(ValueError):
        hill_climb_cover(masks, 4, 0, seed=0, max_evals=None, max_seconds=1.0)


def test_hill_climb_cover_scans_nothing_when_no_cover_exists(monkeypatch):
    # n_picks masks of the largest popcount are too few for the targets, so
    # no replacement scan runs and the deadline is never read
    reads = []
    monkeypatch.setattr(blocking, "time", SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0))
    masks = packing_masks(3, 4)  # 80 of 576 candidates per column
    assert hill_climb_cover(masks, len(masks), 7, 0, None, 1e9) is None
    assert hill_climb_cover([0b0011, 0b0110], 5, 2, 0, None, 1e9) is None
    assert reads == []
    assert hill_climb_cover([0b0011, 0b1100], 4, 2, 0, None, 1e9) is not None
    assert reads
    with pytest.raises(ValueError):
        hill_climb_cover([], 1, 1, 0, None, 1e9)
