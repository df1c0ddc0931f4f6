import itertools
import os
import random
import subprocess
import sys

import pytest

import packlab
from packlab.cases import (
    CASE_MATRICES,
    _block_masks,
    _colouring_cuts,
    _effective_lists,
    _hall_cuts,
    _packing_cuts,
    _venn_form,
    a10_assignment,
    check_case_matrix,
    chi_l_exact,
    chi_l_star_exact,
    enumerate_triple_types,
    k39_assignment,
    k65_assignment,
    list_colouring_threshold,
    list_packing_threshold,
    u_side_list_types,
)
from packlab.blocking import arrangements, min_cover_size
from packlab.certificates import make_certificate, verify_certificate, witness_dict_for_lists
from packlab.errors import ResourceLimitError
from packlab.search import decide_list_packing


def canonical_triple(lists):
    """Canonical form of a triple of colour sets, from its seven Venn-region
    sizes: sizes[m] counts the colours in exactly the lists of bitmask m."""
    rows = [frozenset(lst) for lst in lists]
    sizes = [0] * 8
    for colour in rows[0] | rows[1] | rows[2]:
        sizes[sum(1 << i for i, row in enumerate(rows) if colour in row)] += 1
    return _venn_form(sizes)


def packing_block_masks(u_lists):
    """(arrangements, mask per effective list) from the arrangements' Hall cuts."""
    candidates, cuts = _packing_cuts(u_lists)
    return candidates, _block_masks(u_lists, cuts)


def colouring_block_masks(u_lists):
    """(colourings, mask per effective list) for the single-colouring problem."""
    colourings, cuts = _colouring_cuts(u_lists)
    return colourings, _block_masks(u_lists, cuts)


def brute_canonical_triple(lists):
    """Oracle: minimum, over the six vertex orders and every first-use
    relabeling of the colours, of the tuple of sorted label rows."""
    rows_in = [frozenset(lst) for lst in lists]
    best = None

    def descend(order, ri, labmap, nextlab, code):
        nonlocal best
        if ri == 3:
            if best is None or code < best:
                best = code
            return
        row = rows_in[order[ri]]
        unknown = sorted(c for c in row if c not in labmap)
        for perm in itertools.permutations(unknown):
            lm = dict(labmap)
            nl = nextlab
            for c in perm:
                lm[c] = nl
                nl += 1
            new_code = code + (tuple(sorted(lm[c] for c in row)),)
            if best is not None and new_code > best[: len(new_code)]:
                continue
            descend(order, ri + 1, lm, nl, new_code)

    for order in itertools.permutations(range(3)):
        descend(order, 0, {}, 1, ())
    return best


@pytest.mark.parametrize("k,n", [(1, 200), (2, 1000), (3, 1000), (4, 300)])
def test_canonical_triple_matches_brute_force(k, n):
    rng = random.Random(k)
    for _ in range(n):
        triple = [rng.sample(range(1, 2 * k + 3), k) for _ in range(3)]
        assert canonical_triple(triple) == brute_canonical_triple(triple), triple


def plain_enumerate_triple_types(k, allow_repeats=False):
    """Reference: extend the first list {1..k} by every choice of shared
    colours plus fresh ones, twice, and dedupe by canonical form."""

    def extensions(used):
        top = max(used)
        options = []
        for j in range(k + 1):
            for shared in itertools.combinations(sorted(used), j):
                fresh = tuple(range(top + 1, top + 1 + (k - j)))
                options.append(frozenset(shared + fresh))
        return options

    first = frozenset(range(1, k + 1))
    types = set()
    for second in extensions(first):
        for third in extensions(first | second):
            if allow_repeats or len({first, second, third}) == 3:
                types.add(canonical_triple([first, second, third]))
    return sorted(types)


@pytest.mark.parametrize(
    "k,allow_repeats",
    [(k, rep) for k in (1, 2, 3, 4) for rep in (False, True)] + [(5, True)],
)
def test_venn_region_types_match_extension_generator(k, allow_repeats):
    types = enumerate_triple_types(k, allow_repeats)
    assert types == plain_enumerate_triple_types(k, allow_repeats)


def test_twelve_types_of_distinct_triples():
    types = enumerate_triple_types(3, allow_repeats=False)
    assert len(types) == 12
    # the reference matrices represent these types, one each
    reference = {canonical_triple([set(row) for row in m]) for m in CASE_MATRICES.values()}
    assert reference == set(types)


def test_sixteen_types_with_repeats():
    assert len(enumerate_triple_types(3, allow_repeats=True)) == 16


def test_u_side_list_types_order_and_shape():
    types = u_side_list_types()
    assert len(types) == 12
    assert types[0] == ((1, 2, 3), (1, 2, 4), (1, 3, 4))
    assert types[10] == ((1, 2, 3), (1, 2, 4), (5, 6, 7))


def test_canonical_triple_invariance():
    # relabeling colours and permuting rows leaves the canonical form alone
    base = [{1, 2, 3}, {1, 4, 5}, {2, 6, 7}]
    relabel = {1: 9, 2: 4, 3: 1, 4: 2, 5: 8, 6: 3, 7: 5}
    mapped = [{relabel[c] for c in lst} for lst in base]
    mapped.reverse()
    assert canonical_triple(base) == canonical_triple(mapped)
    assert canonical_triple(base) != canonical_triple([{1, 2, 3}, {1, 4, 5}, {1, 6, 7}])


def test_check_case_matrix_basics():
    # rows of the first reference matrix, the all-fresh list always extends
    assert check_case_matrix(CASE_MATRICES[1], (8, 9, 10))
    with pytest.raises(ValueError):
        check_case_matrix(CASE_MATRICES[1], (1, 2))
    # a list that repeats a colour is refused, not read as a second colour
    with pytest.raises(ValueError, match="repeats a colour"):
        check_case_matrix(((1, 2, 3), (2, 3, 1)), (1, 1, 4))


def test_reference_matrices_1_to_5_extend_for_every_list():
    for idx in (1, 2, 3, 4, 5):
        rows = CASE_MATRICES[idx]
        for lst in itertools.combinations(range(1, 11), 3):
            assert check_case_matrix(rows, lst), (idx, lst)


def test_reference_matrix_11_blocking_lists():
    base = CASE_MATRICES[11]
    assert not check_case_matrix(base, (3, 4, 7))
    blocked = set()
    for third in ((5, 6, 7), (6, 7, 5), (7, 5, 6)):
        rows = (base[0], base[1], third)
        for lst in itertools.combinations(range(1, 8), 3):
            if not check_case_matrix(rows, lst):
                blocked.add(lst)
    assert blocked == {(3, 4, 5), (3, 4, 6), (3, 4, 7)}


def test_reference_matrix_12_blocking_lists():
    # arrangements keeping 1 in the first column and 2 in the second are
    # each blocked by exactly one list of {3} x {4,5} x {6,7}
    base = CASE_MATRICES[12]
    blocked = set()
    for second in ((1, 4, 5), (1, 5, 4)):
        for third in ((6, 2, 7), (7, 2, 6)):
            rows = (base[0], second, third)
            this = {
                lst
                for lst in itertools.combinations(range(1, 8), 3)
                if not check_case_matrix(rows, lst)
            }
            assert len(this) == 1
            blocked |= this
    assert blocked == {(3, 4, 6), (3, 4, 7), (3, 5, 6), (3, 5, 7)}


def plain_packing_block_masks(u_lists):
    """Reference: one matching per (arrangement, list) pair."""
    u_sorted = [tuple(sorted(lst)) for lst in u_lists]
    candidates = list(arrangements(u_sorted))
    masks = {}
    for lst in _effective_lists(u_sorted):
        mask = 0
        for m, rows in enumerate(candidates):
            if not check_case_matrix(rows, lst):
                mask |= 1 << m
        if mask:
            masks[lst] = mask
    return candidates, masks


def plain_colouring_block_masks(u_lists):
    """Reference: a list blocks a colouring iff it lies in its value set."""
    u_sorted = [tuple(sorted(lst)) for lst in u_lists]
    colourings = list(itertools.product(*u_sorted))
    masks = {}
    for lst in _effective_lists(u_sorted):
        mask = 0
        for m, col in enumerate(colourings):
            if set(lst) <= set(col):
                mask |= 1 << m
        if mask:
            masks[lst] = mask
    return colourings, masks


SEEDED_K4_TYPES = random.Random(9).sample(enumerate_triple_types(4, allow_repeats=True), 2)


@pytest.mark.parametrize(
    "triple",
    enumerate_triple_types(2, allow_repeats=True)
    + enumerate_triple_types(3, allow_repeats=True)
    + SEEDED_K4_TYPES,
)
def test_hall_cut_masks_match_one_matching_per_pair(triple):
    assert packing_block_masks(triple) == plain_packing_block_masks(triple)
    assert colouring_block_masks(triple) == plain_colouring_block_masks(triple)


def matching_blockable(rows, u_lists) -> bool:
    """Oracle: some effective list has no permutation deranging every row."""
    return any(not check_case_matrix(rows, lst) for lst in _effective_lists(u_lists))


def test_structural_blockability_matches_matching_engine():
    for triple in enumerate_triple_types(3, allow_repeats=True):
        for rows in arrangements(triple):
            assert bool(_hall_cuts(rows)) == matching_blockable(rows, triple), rows
    rng = random.Random(4)
    types = enumerate_triple_types(4, allow_repeats=True)
    seen = set()
    for _ in range(60):
        triple = rng.choice(types)
        rows = rng.choice(list(arrangements(triple)))
        blockable = bool(_hall_cuts(rows))
        assert blockable == matching_blockable(rows, triple), rows
        seen.add(blockable)
    assert seen == {True, False}


def test_min_cover_size_basics():
    assert min_cover_size([0b111], 3, 5) == 1
    assert min_cover_size([0b011, 0b100], 3, 5) == 2
    assert min_cover_size([0b011, 0b110], 3, 5) == 2
    assert min_cover_size([0b01, 0b01], 2, 5) is None  # bit 1 uncoverable
    assert min_cover_size([0b0101, 0b1010, 0b1111], 4, 5) == 1
    assert min_cover_size([0b01, 0b10], 2, 1) is None  # needs 2 > limit 1


def test_min_cover_size_ignores_bits_past_the_targets():
    assert min_cover_size([0b111], 2, 3) == 1
    assert min_cover_size([0b101, 0b110], 2, 3) == 2
    assert min_cover_size([0b100, 0b101], 2, 3) is None  # bit 1 uncoverable


def reference_min_cover_size(masks, n_targets, limit):
    """Oracle: minimum number of masks covering all n_targets bits if it is
    <= limit, else None, by an exact branch and bound of its own.

    Dominated masks are dropped, branching happens on the uncovered bit
    with the fewest covering masks, and a node is cut when even the
    fattest remaining picks cannot close the deficit.
    """
    full = (1 << n_targets) - 1
    ordered = sorted({m & full for m in masks}, key=lambda m: -m.bit_count())
    maximal = []
    for m in ordered:
        if not any(m | o == o for o in maximal):
            maximal.append(m)
    union_all = 0
    for m in maximal:
        union_all |= m
    if union_all != full:
        return None
    pop_prefix = [0]
    for m in maximal:
        pop_prefix.append(pop_prefix[-1] + m.bit_count())
    best = None

    def dfs(acc, picks):
        nonlocal best
        if acc == full:
            if best is None or picks < best:
                best = picks
            return
        bound = best - 1 if best is not None else limit
        left = bound - picks
        if left <= 0:
            return
        uncovered = full & ~acc
        if uncovered.bit_count() > pop_prefix[min(left, len(maximal))]:
            return
        branch = maximal
        u = uncovered
        while u and len(branch) > 1:
            bit = u & -u
            u ^= bit
            covers = [m for m in maximal if m & bit]
            if len(covers) < len(branch):
                branch = covers
        for m in sorted(branch, key=lambda m: -(m & uncovered).bit_count()):
            dfs(acc | m, picks + 1)

    dfs(0, 0)
    return best


def test_min_cover_size_matches_reference_on_random_families():
    rng = random.Random(20231)
    seen = set()
    for _ in range(3000):
        n_targets = rng.randint(1, 10)
        dense = rng.random() < 0.5
        # two bits past the targets; empty and repeated masks
        pool = [0] + [
            rng.getrandbits(n_targets + 2) & (-1 if dense else rng.getrandbits(n_targets + 2))
            for _ in range(n_targets)
        ]
        masks = [rng.choice(pool) for _ in range(rng.randint(0, 2 * n_targets))]
        least = reference_min_cover_size(masks, n_targets, n_targets)
        for limit in {0, 1, n_targets} | ({least - 1, least, least + 1} if least else set()):
            expected = reference_min_cover_size(masks, n_targets, limit)
            assert min_cover_size(masks, n_targets, limit) == expected, (masks, n_targets, limit)
            seen.add(expected is None)
    assert seen == {True, False}
    assert min_cover_size([], 0, 0) == reference_min_cover_size([], 0, 0) == 0


def test_min_cover_size_matches_reference_on_every_small_triple_type():
    for k in (1, 2, 3):
        for triple in enumerate_triple_types(k, allow_repeats=True):
            for block_masks in (packing_block_masks, colouring_block_masks):
                targets, by_list = block_masks(triple)
                masks = list(by_list.values())
                least = reference_min_cover_size(masks, len(targets), len(targets))
                for limit in {len(targets)} | ({least - 1, least} if least else set()):
                    expected = reference_min_cover_size(masks, len(targets), limit)
                    assert min_cover_size(masks, len(targets), limit) == expected, triple


def test_packing_thresholds():
    assert list_packing_threshold(2) == 2
    assert list_packing_threshold(3) == 9
    assert list_colouring_threshold(2) == 3
    assert list_colouring_threshold(3) == 27


def test_no_four_list_type_is_coverable():
    # the fold-4 ceilings behind chi_l_star_exact and chi_l_exact
    assert list_packing_threshold(4) is None
    assert list_colouring_threshold(4) is None


def test_colouring_masks_disjoint_type_blocks_one_each():
    colourings, masks = colouring_block_masks([{1, 2, 3}, {4, 5, 6}, {7, 8, 9}])
    assert len(colourings) == 27
    assert all(mask.bit_count() == 1 for mask in masks.values())
    assert len(masks) == 27


def test_chi_l_values():
    assert chi_l_exact(3, 2) == 2
    assert chi_l_exact(3, 3) == 3
    assert chi_l_exact(3, 26) == 3
    assert chi_l_exact(3, 27) == 4
    assert chi_l_exact(27, 3) == 4
    with pytest.raises(ResourceLimitError):
        chi_l_exact(4, 5)


def test_chi_l_star_small_values():
    assert chi_l_star_exact(3, 1) == 2
    assert chi_l_star_exact(3, 2) == 3
    assert chi_l_star_exact(3, 5) == 3


def test_chi_l_star_threshold_at_nine():
    assert chi_l_star_exact(3, 8) == 3
    assert chi_l_star_exact(3, 9) == 4
    assert chi_l_star_exact(3, 40) == 4


def test_k39_fixture_unpackable():
    assert decide_list_packing(k39_assignment()) is None


def test_k65_fixture_unpackable():
    assignment = k65_assignment()
    assert assignment.a == 5 and assignment.b == 6
    assert decide_list_packing(assignment) is None


def test_a10_fixture_packable_with_verified_witness():
    assignment = a10_assignment()
    witness = decide_list_packing(assignment)
    assert witness is not None
    witness_dict = witness_dict_for_lists(witness.u_rows, witness.v_rows)
    cert = make_certificate("packing_witness", assignment, witness_dict, generator="decide")
    assert verify_certificate(cert).accepted


def test_threshold_checks_survive_optimize_flag():
    # python -O strips assert statements; the threshold checks must still
    # run, for a missing fold-3 colouring threshold and for a fold-4
    # packing threshold (a broken fold-4 ceiling)
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for stub, call in [
        ("cases.list_colouring_threshold = lambda k: None", "cases.chi_l_exact(3, 5)"),
        (
            "real = cases.list_packing_threshold\n"
            "cases.list_packing_threshold = lambda k: 5 if k == 4 else real(k)",
            "cases.chi_l_star_exact(3, 9)",
        ),
    ]:
        script = (
            "import sys\n"
            "import packlab.cases as cases\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(4)\n"
            f"{stub}\n"
            "try:\n"
            f"    {call}\n"
            "except AssertionError:\n"
            "    sys.exit(3)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env)
        assert proc.returncode == 3, stub


def test_k39_proof_shape():
    # for any arrangement, the slot where the third vertex takes colour 7
    # pins down a blocking list {a, b, 7}
    assignment = k39_assignment()
    v_sets = {frozenset(lst) for lst in assignment.v_lists}
    for second in itertools.permutations((4, 5, 6)):
        for third in itertools.permutations((7, 8, 9)):
            s = third.index(7)
            blocking = frozenset({(1, 2, 3)[s], second[s], 7})
            assert blocking in v_sets
