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
from packlab.perms import compose, identity, inverse


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


def plain_hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, rounds=None, repeats=None):
    """Reference: the replacement scan minimises the uncovered count directly.

    A state is tested for coverage after the draw and after each
    replacement.  Appends to ``rounds``, when given, the replacements of
    each full round, and to ``repeats`` the number (from 1) of each scan of
    a pick already scanned in the same state.
    """
    full = (1 << n_targets) - 1
    nc = len(masks)
    rng = random.Random(seed)
    evaluations = 0

    def covering(state):
        covered = 0
        for c in state:
            covered |= masks[c]
        return covered & full == full

    while True:
        state = [rng.randrange(nc) for _ in range(n_picks)]
        if covering(state):
            return state
        scanned = set()  # the picks scanned since the state last changed
        while True:
            improved = 0
            for v in range(n_picks):
                base = 0
                for w, c in enumerate(state):
                    if w != v:
                        base |= masks[c]
                evaluations += nc
                if max_evals is not None and evaluations > max_evals:
                    return None
                if repeats is not None and v in scanned:
                    repeats.append(evaluations // nc)
                scanned.add(v)
                uncovered = full & ~base
                current = (uncovered & ~masks[state[v]]).bit_count()
                cnt, best = min(((uncovered & ~m).bit_count(), c) for c, m in enumerate(masks))
                if cnt < current:
                    state[v] = best
                    improved += 1
                    scanned = set()
                    if covering(state):
                        return state
            if rounds is not None:
                rounds.append(improved)
            if not improved:
                break


def per_bit_translate_masks(actions, members):
    """Reference: each translate built one ``1 << index`` per base member."""
    size = len(members)
    radix = len(actions[0][0])
    inside = 2 * sum(members) <= size
    flip = 0 if inside else (1 << size) - 1
    codes = itertools.product(range(radix), repeat=len(actions))
    base = [x for x, member in zip(codes, members) if member == inside]
    weights = [radix ** (len(actions) - 1 - i) for i in range(len(actions))]
    parts = [
        [[w * inv[b[i]] for b in base] for inv in options]
        for i, (w, options) in enumerate(zip(weights, actions))
    ]
    masks = []
    for chosen in itertools.product(*parts):
        mask = 0
        for idx in map(sum, zip(*chosen)):
            mask |= 1 << idx
        masks.append(mask ^ flip)
    return masks


def packing_actions(d, k):
    """The (actions, members) that ``packing_masks`` translates."""
    members = [not has_perfect_matching(admissible_masks(m, k)) for m in column_space(d, k)]
    perms = list(itertools.permutations(range(1, k + 1)))
    index_of = {p: i for i, p in enumerate(perms)}
    inv = [[index_of[compose(inverse(a), b)] for b in perms] for a in perms]
    return [inv] * (d - 1), members


def colouring_actions(d, k):
    """The (actions, members) that ``colouring_masks`` translates."""
    perms = list(itertools.permutations(range(1, k + 1)))
    members = [len(set(a)) == k for a in itertools.product(range(k), repeat=d)]
    inv = [[p.index(x + 1) for x in range(k)] for p in perms]
    return [[list(range(k))]] + [inv] * (d - 1), members


def tail_length(actions, members):
    """The tail length ``_translate_masks`` picks for these inputs."""
    inside = 2 * sum(members) <= len(members)
    codes = itertools.product(range(len(actions[0][0])), repeat=len(actions))
    return blocking._tail_length(actions, [x for x, m in zip(codes, members) if m == inside])


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
    found = lost = wide = 0
    for _ in range(600):
        masks, n_targets = random_mask_family(rng)
        if rng.random() < 0.3:  # bits past the targets, which both solvers ignore
            masks = [m | rng.getrandbits(3) << n_targets for m in masks]
            wide += any(m >> n_targets for m in masks)
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
    assert found > 100 and lost > 100 and wide > 100


def test_hill_climb_cover_matches_uncovered_count_scan_over_several_replacements():
    # 40 targets, up to 30 masks and 3-8 picks: random starts sit far from a
    # local minimum, so a round replaces several picks
    rng = random.Random(0x5EED)
    rounds = []
    found = 0
    for _ in range(150):
        n_targets = 40
        masks = [
            sum(1 << b for b in range(n_targets) if rng.random() < 0.25)
            for _ in range(rng.randint(10, 30))
        ]
        n_picks = rng.randint(3, 8)
        seed = rng.randrange(1 << 30)
        max_evals = rng.randint(20, 200) * len(masks)
        expected = plain_hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, rounds)
        assert hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, None) == expected
        found += expected is not None
    assert found > 30
    assert sum(r >= 3 for r in rounds) > 300  # rounds with three or more replacements


def test_hill_climb_cover_charges_the_repeated_scans_it_skips():
    # once every pick was scanned in the same state, the rest of the round
    # only repeats scans; budgets that run out inside that stretch must give
    # None, as the scans would, larger ones the same picks, and the least
    # budget that finds a cover after such a stretch must be the same
    rng = random.Random(0x5C1F)
    inside = tight = 0
    for _ in range(240):
        n_targets = 40
        masks = [
            sum(1 << b for b in range(n_targets) if rng.random() < 0.25)
            for _ in range(rng.randint(10, 30))
        ]
        nc = len(masks)
        n_picks = rng.randint(2, 8)
        seed = rng.randrange(1 << 30)
        repeats = []
        max_evals = 150 * nc
        found = plain_hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, None, repeats)
        assert hill_climb_cover(masks, n_targets, n_picks, seed, max_evals, None) == found
        for scan in rng.sample(repeats, min(3, len(repeats))):
            budget = scan * nc - 1 - rng.randrange(nc)  # runs out during that scan
            assert plain_hill_climb_cover(masks, n_targets, n_picks, seed, budget) is None
            assert hill_climb_cover(masks, n_targets, n_picks, seed, budget, None) is None
            inside += 1
            budget = scan * nc  # pays for that scan
            expected = plain_hill_climb_cover(masks, n_targets, n_picks, seed, budget)
            assert hill_climb_cover(masks, n_targets, n_picks, seed, budget, None) == expected
        if repeats and found is not None:
            lo, hi = 1, max_evals // nc  # the least budget in scans, bisected
            while lo < hi:
                mid = (lo + hi) // 2
                if plain_hill_climb_cover(masks, n_targets, n_picks, seed, mid * nc) is None:
                    lo = mid + 1
                else:
                    hi = mid
            assert hill_climb_cover(masks, n_targets, n_picks, seed, lo * nc - 1, None) is None
            assert hill_climb_cover(masks, n_targets, n_picks, seed, lo * nc, None) == found
            tight += 1
    assert inside > 500 and tight > 10


def test_hill_climb_cover_ignores_bits_past_the_targets():
    assert hill_climb_cover([0b111], 2, 1, 0, 10_000, None) == [0]
    # without a budget the search used to restart for ever
    assert hill_climb_cover([0b111], 2, 1, 0, None, 60.0) == [0]
    assert hill_climb_cover([0b100, 0b101, 0b110], 2, 2, 0, None, 60.0) in ([1, 2], [2, 1])
    assert hill_climb_cover([0b1100, 0b0111], 2, 1, 0, 10_000, None) == [1]
    # the fattest-picks cut counts only the targets: one hit cannot cover two
    assert hill_climb_cover([0b1101], 2, 1, 0, None, 60.0) is None


@pytest.mark.parametrize(
    "shape,picks",
    [
        ((2, 4), (1, 3)),  # no unextendable matrix: every mask is empty
        ((3, 3), (1, 2, 3)),
        ((4, 3), (1, 2, 5)),
        ((3, 4), (14, 18, 20)),
        ((5, 3), (1, 2, 12)),  # masks 1 265 of 1 296 bits full
    ],
    ids=["2-4", "3-3", "4-3", "3-4", "5-3"],
)
def test_hill_climb_cover_matches_uncovered_count_scan_on_packing_masks(shape, picks):
    masks = packing_masks(*shape)
    outcomes = []
    for n_picks in picks:
        for seed in range(3):
            # 3·n_picks + 1 scans end one scan into a round; 200 scans end
            # mid-round unless n_picks divides 200
            for scans in (3 * n_picks + 1, 200):
                max_evals = scans * len(masks) + len(masks) // 3
                expected = plain_hill_climb_cover(masks, len(masks), n_picks, seed, max_evals)
                got = hill_climb_cover(masks, len(masks), n_picks, seed, max_evals, None)
                assert got == expected, (n_picks, seed, scans)
                outcomes.append(expected is not None)
    assert any(outcomes) == (shape != (2, 4))  # a cover exists iff some mask is non-empty
    assert not all(outcomes)


def naive_transpose(rows, width):
    return [sum(1 << c for c, row in enumerate(rows) if row >> x & 1) for x in range(width)]


def test_transpose_matches_bit_by_bit_reference():
    rng = random.Random(0x7A05)
    for _ in range(300):
        masks, n_targets = random_mask_family(rng)
        assert blocking._transpose(masks, n_targets) == naive_transpose(masks, n_targets)
    for _ in range(100):
        # several tiles each way, rows with bits past the width (which are cut)
        width, n_rows = rng.randint(1, 70), rng.randint(0, 70)
        rows = [rng.getrandbits(width + 3) for _ in range(n_rows)]
        cut = [row & ((1 << width) - 1) for row in rows]
        assert blocking._transpose(rows, width) == naive_transpose(cut, width)
    masks = packing_masks(3, 4)
    assert blocking._transpose(masks, len(masks)) == naive_transpose(masks, len(masks))
    # duplicate and empty masks, no masks, no targets
    for rows, width in [([0b101, 0b101, 0, 0b111, 0], 3), ([0, 0, 0], 9), ([], 4), ([0b11], 0), ([], 0)]:
        assert blocking._transpose(rows, width) == naive_transpose(rows, width)
    assert blocking._transpose([0b101, 0b101, 0, 0b111, 0], 3) == [0b01011, 0b01000, 0b01011]


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


@pytest.mark.parametrize(
    "actions,d,k,tail",
    [
        (packing_actions, 2, 3, 0),
        (colouring_actions, 3, 3, 0),
        (packing_actions, 3, 3, 1),
        (packing_actions, 3, 4, 1),
        (packing_actions, 4, 3, 2),
        (packing_actions, 5, 3, 2),
        (colouring_actions, 4, 3, 2),
        (colouring_actions, 5, 3, 2),
        (colouring_actions, 6, 3, 3),
    ],
    ids=["p2-3", "c3-3", "p3-3", "p3-4", "p4-3", "p5-3", "c4-3", "c5-3", "c6-3"],
)
def test_translate_masks_match_the_per_bit_build(actions, d, k, tail):
    actions, members = actions(d, k)
    assert tail_length(actions, members) == tail
    assert blocking._translate_masks(actions, members) == per_bit_translate_masks(actions, members)


def test_translate_masks_match_the_per_bit_build_on_random_actions():
    # random digit permutations, option counts and member sets, B or its
    # complement the smaller; empty, full and one-member sets included
    rng = random.Random(0x7A11)
    tails = set()
    for _ in range(400):
        radix, n = rng.randint(1, 4), rng.randint(1, 4)
        actions = [
            [rng.sample(range(radix), radix) for _ in range(rng.randint(1, 5))] for _ in range(n)
        ]
        density = rng.choice((0.0, 0.05, 0.3, 0.7, 1.0))
        members = [rng.random() < density for _ in range(radix**n)]
        if rng.random() < 0.1:
            members = [x == rng.randrange(radix**n) for x in range(radix**n)]
        tails.add(tail_length(actions, members))
        assert blocking._translate_masks(actions, members) == per_bit_translate_masks(
            actions, members
        )
    assert tails >= {0, 1, 2, 3}


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
    # runs: padding with useless mask 0, then as many copies as can be spared
    assert first_multiset_cover(masks, 3, 7, 0) == (0, 0, 0, 0, 0, 1, 3)
    assert first_multiset_cover([0b01, 0b10], 2, 9, 0) == (0,) * 8 + (1,)
    assert first_multiset_cover([0b111], 2, 1, 0b100) == (0,)  # bits past the targets ignored
    with pytest.raises(ValueError):
        first_multiset_cover(masks, 3, -1, 0)


def plain_first_multiset_cover(masks, n_targets, n_picks, pinned):
    """Reference: walk every multiset in ``combinations_with_replacement`` order."""
    full = (1 << n_targets) - 1
    for picks in itertools.combinations_with_replacement(range(len(masks)), n_picks):
        acc = pinned
        for c in picks:
            acc |= masks[c]
        if acc == full:
            return picks
    return None


def random_cover_family(rng):
    """Seeded (masks, n_targets, n_picks, pinned): 0-10 targets, 0-6 masks
    with empty and duplicate ones, 0-7 picks and random pinned targets."""
    n_targets = rng.randint(0, 10)
    density = rng.choice((0.1, 0.3, 0.6))
    masks = [
        sum(1 << b for b in range(n_targets) if rng.random() < density)
        for _ in range(rng.randint(0, 6))
    ]
    if masks and rng.random() < 0.4:
        masks += rng.choices(masks + [0], k=rng.randint(1, 2))
        rng.shuffle(masks)
    masks = masks[:6]
    share = rng.choice((0.0, 0.2, 0.5))
    pinned = sum(1 << b for b in range(n_targets) if rng.random() < share)
    return masks, n_targets, rng.randint(0, 7), pinned


def longest_run(picks):
    return max((len(list(run)) for _, run in itertools.groupby(picks)), default=0)


def test_first_multiset_cover_matches_plain_scan():
    rng = random.Random(0xC0FE)
    found = none = long_runs = padded = 0
    for _ in range(6000):
        masks, n_targets, n_picks, pinned = random_cover_family(rng)
        expected = plain_first_multiset_cover(masks, n_targets, n_picks, pinned)
        got = first_multiset_cover(masks, n_targets, n_picks, pinned)
        assert got == expected, (masks, n_targets, n_picks, pinned)
        if expected is None:
            none += 1
            continue
        found += 1
        long_runs += longest_run(expected) > len(masks)
        padded += any(not masks[c] & ~pinned for c in expected)
    # both verdicts, runs longer than the mask count and useless picks were exercised
    assert found > 1000 and none > 1000 and long_runs > 100 and padded > 100


def test_first_multiset_cover_matches_plain_scan_on_real_masks():
    masks = colouring_masks(3, 3)  # fold 3 of chi_c(K_{3,5}) and chi_c(K_{3,6})
    for n_picks in (4, 5):
        expected = plain_first_multiset_cover(masks, 27, n_picks, masks[0])
        assert first_multiset_cover(masks, 27, n_picks, masks[0]) == expected
    assert expected == (3, 4, 18, 21, 22)
    masks = packing_masks(2, 5)
    for n_picks in (1, 2, 3):
        expected = plain_first_multiset_cover(masks, 120, n_picks, masks[0])
        assert first_multiset_cover(masks, 120, n_picks, masks[0]) == expected
    assert first_multiset_cover(masks, 120, 3, 0) is None


class CountedMask(int):
    """A mask that counts the intersections and unions taken with it."""

    uses = 0

    def __and__(self, other):
        CountedMask.uses += 1
        return int(self) & other

    def __or__(self, other):
        CountedMask.uses += 1
        return int(self) | other

    __rand__, __ror__ = __and__, __or__


def counted_cover(masks, n_targets, n_picks, pinned):
    """first_multiset_cover and the number of mask operations it took."""
    CountedMask.uses = 0
    picks = first_multiset_cover([CountedMask(m) for m in masks], n_targets, n_picks, pinned)
    return picks, CountedMask.uses


def test_first_multiset_cover_cuts_branches_the_best_masks_cannot_close():
    singles = [1 << b for b in range(12)]
    # 12 targets, one hit per mask: 11 picks are refused after one pass of hits
    assert counted_cover(singles, 12, 11, 0) == (None, 12)
    picks, uses = counted_cover(singles, 12, 12, 0)
    assert picks == tuple(range(12)) and uses <= 12 * 13
    masks = colouring_masks(3, 3)
    # the plain scan ORs 4 masks into each of all C(39, 4) = 82 251 multisets
    assert counted_cover(masks, 27, 4, masks[0])[1] < 5000


def test_first_multiset_cover_stops_at_a_target_no_later_mask_hits():
    # target 0 is hit by masks 0 and 1 only; each fat mask hits 7 of targets 1..12
    fat = [sum(1 << 1 + (c + s) % 12 for s in range(7)) for c in range(10)]
    masks = [0b1, 0b1] + fat
    # one pass of hits, then one OR each for indices 0 and 1, whose leftovers
    # need two more picks; index 2 onward leaves target 0 out of reach
    assert counted_cover(masks, 13, 2, 0) == (None, 14)
    assert first_multiset_cover(masks, 13, 3, 0) == (0, 2, 7)
    assert plain_first_multiset_cover(masks, 13, 3, 0) == (0, 2, 7)


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
    # two picks could hold four targets, but target 3 is in no mask; such a
    # call used to scan until a limit ran out, and for ever without one
    assert hill_climb_cover([0b0111, 0b0011], 4, 2, 0, 10_000, 1e9) is None
    assert reads == []
    assert hill_climb_cover([0b0011, 0b1100], 4, 2, 0, None, 1e9) is not None
    assert reads
    with pytest.raises(ValueError):
        hill_climb_cover([], 1, 1, 0, None, 1e9)


def test_hill_climb_cover_returns_a_covering_draw_before_any_scan(monkeypatch):
    # the clock is read once, for the deadline, and never before a scan;
    # a budget too small for one scan still returns the drawn cover
    reads = []
    monkeypatch.setattr(blocking, "time", SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0))
    assert hill_climb_cover([0b1111], 4, 1, 0, None, 1e9) == [0]
    assert len(reads) == 1
    assert hill_climb_cover([0b1111], 4, 1, 0, 0, None) == [0]
