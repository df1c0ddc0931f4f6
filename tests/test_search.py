import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import packlab
import packlab.search as search
from packlab.blocking import (
    colouring_masks,
    column_space,
    cover_from_columns,
    first_multiset_cover,
    packing_masks,
)
from packlab.covers import canonicalize, k22_unpackable_cover, standard_cover
from packlab.errors import WORK_LIMIT, ResourceLimitError, canonical_cover_count
from packlab.certificates import make_certificate, verify_certificate, witness_dict_for_cover
from packlab.cli import main
from packlab.perms import identity, is_derangement_of, perm_to_str
from packlab.search import (
    SearchBudget,
    chi_c_exact,
    chi_c_star_exact,
    decide_correspondence_colouring,
    decide_correspondence_packing,
    find_uncolourable_cover,
    greedy_unpackable_cover,
    random_unpackable_cover_search,
)
from test_covers import random_cover


def witness_verifies(cover, witness):
    """The independent verifier's verdict on a packing_witness certificate."""
    witness_dict = witness_dict_for_cover(witness.u_rows, witness.v_rows)
    cert = make_certificate("packing_witness", cover, witness_dict, generator="test")
    return verify_certificate(cert).accepted


def naive_cover_packing_exists(cover):
    """Full scan over all (k!)^d candidate matrices, no symmetry reduction."""
    perms = list(itertools.permutations(range(1, cover.k + 1)))

    def extends(rows, j):
        col = cover.column(j)
        for candidate in perms:
            if all(
                all(candidate[s] != col[i][rows[i][s] - 1] for s in range(cover.k))
                for i in range(cover.d)
            ):
                return True
        return False

    for rows in itertools.product(perms, repeat=cover.d):
        if all(extends(rows, j) for j in range(cover.t)):
            return True
    return False


def test_k22_cover_not_packable():
    assert decide_correspondence_packing(k22_unpackable_cover()) is None


def test_standard_cover_packable_with_expected_witness():
    witness = decide_correspondence_packing(standard_cover(2, 2, 3))
    assert witness is not None
    assert witness.u_rows == ((1, 2, 3), (1, 2, 3))
    assert witness.v_rows == ((2, 3, 1), (2, 3, 1))
    assert witness_verifies(standard_cover(2, 2, 3), witness)


@pytest.mark.parametrize("d,t", [(2, 2), (2, 10), (3, 4), (3, 10)])
def test_standard_cover_always_packable_at_2d_minus_1(d, t):
    witness = decide_correspondence_packing(standard_cover(d, t, 2 * d - 1))
    assert witness is not None
    assert witness_verifies(standard_cover(d, t, 2 * d - 1), witness)


def test_decider_matches_naive_full_scan():
    rng = random.Random(12)
    for _ in range(30):
        cover = random_cover(rng, 2, rng.randint(1, 2), 3)
        assert (decide_correspondence_packing(cover) is not None) == naive_cover_packing_exists(
            cover
        )


def test_decider_invariant_under_canonicalize():
    rng = random.Random(13)
    for _ in range(30):
        cover = random_cover(rng, rng.randint(2, 3), rng.randint(1, 3), 3)
        a = decide_correspondence_packing(cover) is not None
        b = decide_correspondence_packing(canonicalize(cover)) is not None
        assert a == b


def test_budget_exhaustion_is_not_a_verdict():
    # (7!)^3 candidates: refused, neither packable nor unpackable
    with pytest.raises(ResourceLimitError):
        decide_correspondence_packing(standard_cover(4, 1, 7))


def test_every_witness_verifies():
    rng = random.Random(14)
    for _ in range(40):
        cover = random_cover(rng, 2, rng.randint(1, 3), rng.randint(2, 4))
        witness = decide_correspondence_packing(cover)
        if witness is not None:
            assert witness_verifies(cover, witness)
            for i in range(cover.d):
                for j in range(cover.t):
                    transported = tuple(
                        cover.sigma[i][j][c - 1] for c in witness.u_rows[i]
                    )
                    assert is_derangement_of(transported, witness.v_rows[j])


def test_colouring_deciders():
    colouring = decide_correspondence_colouring(standard_cover(3, 4, 2))
    assert colouring is not None
    u_col, v_col = colouring
    assert u_col == (1, 1, 1) and set(v_col) == {2}

    single = decide_correspondence_colouring(standard_cover(1, 1, 2))
    assert single is not None


def test_uncolourable_cover_search():
    # 2-fold covers of K_{2,2}: a four-cycle needs a "twisted" cover
    cover = find_uncolourable_cover(2, 2, 2)
    assert cover is not None
    assert decide_correspondence_colouring(cover) is None
    # every 3-fold cover of K_{3,5} is colourable
    assert find_uncolourable_cover(3, 5, 3) is None
    # K_{3,6} admits an uncolourable 3-fold cover
    bad = find_uncolourable_cover(3, 6, 3)
    assert bad is not None
    assert decide_correspondence_colouring(bad) is None


@pytest.mark.parametrize(
    "d,t,k,rows",
    [
        (2, 2, 2, ["(1,2) (1,2)", "(1,2) (2,1)"]),
        (
            3,
            6,
            3,
            [
                "(1,2,3) (1,2,3) (1,2,3) (1,2,3) (1,2,3) (1,2,3)",
                "(1,2,3) (1,2,3) (1,2,3) (2,3,1) (2,3,1) (2,3,1)",
                "(1,2,3) (2,3,1) (3,1,2) (1,2,3) (2,3,1) (3,1,2)",
            ],
        ),
        (
            4,
            4,
            3,
            [
                "(1,2,3) (1,2,3) (1,2,3) (1,2,3)",
                "(1,2,3) (1,2,3) (1,2,3) (2,3,1)",
                "(1,2,3) (1,2,3) (1,2,3) (3,1,2)",
                "(1,2,3) (2,3,1) (3,1,2) (1,2,3)",
            ],
        ),
    ],
)
def test_uncolourable_cover_pinned(d, t, k, rows):
    # the lexicographically first covers, recorded before the scan moved to
    # packlab.blocking
    cover = find_uncolourable_cover(d, t, k)
    assert [" ".join(perm_to_str(p) for p in row) for row in cover.sigma] == rows


def test_uncolourable_cover_work_cap_checked_before_building(monkeypatch):
    # the union bound leaves (4, 5, 3) open (5 * 36 >= 81), and its 6^3
    # column types give C(219, 4) multisets: refused before any mask is built
    monkeypatch.setattr(search, "colouring_masks", lambda d, k: pytest.fail("masks built"))
    with pytest.raises(ResourceLimitError, match="fold-3 cover scan needs 93240126 steps"):
        search.find_uncolourable_cover(4, 5, 3)


def test_huge_uncolourable_cover_refused_before_building(monkeypatch):
    # fold 2 of K_{2,t} scans two free picks, but the cover has 2t edges
    monkeypatch.setattr(search, "cover_from_columns", lambda *a: pytest.fail("cover built"))
    with pytest.raises(ResourceLimitError, match=r"^building a 2-fold cover of K_\{2,100000000\} "):
        find_uncolourable_cover(2, 10**8, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_uncolourable_cover_needs_a_fold(k):
    with pytest.raises(ValueError, match="k >= 1"):
        find_uncolourable_cover(3, 3, k)


def test_chi_c_exact_values():
    assert chi_c_exact(3, 5) == 3
    assert chi_c_exact(3, 6) == 4
    assert chi_c_exact(5, 3) == 3  # orientation does not matter
    assert chi_c_exact(1, 7) == 2


def test_chi_c_exact_at_deep_t(capsys):
    # fold 2 of K_{2,100000} is one run of 99 998 padding picks and one
    # useful pick; the scan's depth does not grow with t
    assert chi_c_exact(2, 100_000) == 3
    assert main(["chi", "--param", "c", "--a", "2", "--b", "100000"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("param,value", [("c", "3"), ("cstar", "4")])
def test_chi_at_huge_t_builds_no_cover(param, value, capsys):
    # a verdict keeps at most (k!)^(d-1) picks: K_{2,10^9} costs no O(t) memory
    tracemalloc.start()
    try:
        assert main(["chi", "--param", param, "--a", "2", "--b", str(10**9)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.strip() == value
    assert peak < 1 << 24


@pytest.mark.parametrize("a,b,steps", [(3, 8, 26978328)])
def test_chi_c_star_refusals_unchanged_by_the_pruned_scan(a, b, steps):
    # the charge is the worst-case multiset count, not what the scan visits
    with pytest.raises(ResourceLimitError, match=f"^fold-3 cover scan needs {steps} steps, "):
        chi_c_star_exact(a, b)


@pytest.mark.parametrize("t", [74, 1000, 10**6])
def test_chi_c_star_of_k2t_at_any_t(t):
    # fold 3 scans min(t - 1, 6) free picks, charged C(11, 5) = 462
    # multisets; at d = 2 no column blocks a fold-4 candidate
    assert chi_c_star_exact(2, t) == 4


def test_blocking_cover_matches_the_uncapped_scan():
    # with t - 1 >= n = (k!)^(d-1) picks only the opening run grows, so the
    # capped scan equals the scan over all t - 1 picks wherever that is admitted
    for blocked, masks_of in [
        (search._matrices_blocked, packing_masks),
        (search._colourings_blocked, colouring_masks),
    ]:
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            masks, n_targets = masks_of(d, k), blocked(d, k)[1]
            for t in range(1, 80):
                if canonical_cover_count(d, t, k) > WORK_LIMIT:
                    break
                expected = first_multiset_cover(masks, n_targets, t - 1, masks[0])
                rest = search._blocking_cover(d, t, k, blocked, masks_of)
                got = None if rest is None else search._cover_picks(rest, t)[1:]
                assert got == expected, (d, t, k)


def test_chi_c_k44_counterexample():
    """K_{4,4} has an uncolourable 3-fold cover, so its correspondence
    chromatic number is 4 (the union bound 4 * 24 < 256 settles fold 4).

    The lexicographically first such cover is hand-checkable: three vertices
    see u_4 through the three rotations, so u_1..u_3 must share one colour a
    and u_4 is free, but then the last vertex sees the full rotation orbit
    {a, ra, r^2 a} = {1,2,3} and cannot be coloured.
    """
    bad = find_uncolourable_cover(4, 4, 3)
    assert bad is not None
    assert decide_correspondence_colouring(bad) is None
    # fully independent confirmation over all 3^8 assignments
    import itertools as it

    survivors = [
        (u, v)
        for u in it.product((1, 2, 3), repeat=4)
        for v in it.product((1, 2, 3), repeat=4)
        if all(
            bad.sigma[i][j][u[i] - 1] != v[j] for i in range(4) for j in range(4)
        )
    ]
    assert survivors == []
    assert find_uncolourable_cover(4, 4, 4) is None
    assert chi_c_exact(4, 4) == 4


def test_chi_c_star_k22():
    assert chi_c_star_exact(2, 2) == 4


def test_chi_c_star_star_graphs():
    assert chi_c_star_exact(1, 1) == 2
    assert chi_c_star_exact(1, 3) == 2
    assert chi_c_star_exact(2, 1) == 2


@pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (2, 4), (2, 5), (2, 6), (3, 3)])
def test_chi_c_star_small_values(a, b):
    assert chi_c_star_exact(a, b) == 4


@pytest.mark.parametrize("a,b", [(3, 4), (3, 5), (3, 6), (3, 7), (7, 3), (2, 10), (2, 40)])
def test_chi_c_star_settled_by_the_union_bound(a, b):
    # fold 4 is settled without a scan: for d = 3 each column blocks 80 of
    # the 576 candidate matrices (7 * 80 < 576), for d = 2 it blocks none
    assert chi_c_star_exact(a, b) == 4


def test_k34_fold_three_unpackable_cover_verifies():
    rest = search._blocking_cover(3, 4, 3, search._matrices_blocked, packing_masks)
    cover = cover_from_columns(column_space(3, 3), search._cover_picks(rest, 4))
    assert (cover.d, cover.t, cover.k) == (3, 4, 3)
    assert decide_correspondence_packing(cover) is None
    assert verify_certificate(make_certificate("no_k_packing", cover, None, generator="test"))


def test_union_bound_fires_only_where_the_scan_finds_nothing():
    # every shape with t * B < N whose scan is charged at most 10^6
    # multisets, over masks built in well under a second
    packing_shapes = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]
    colouring_shapes = [(d, k) for d in (2, 3, 4) for k in (2, 3, 4, 5) if (d, k) != (4, 5)]
    settled = []
    for blocked, masks_of, shapes in [
        (search._matrices_blocked, packing_masks, packing_shapes),
        (search._colourings_blocked, colouring_masks, colouring_shapes),
    ]:
        for d, k in shapes:
            per_column, n_targets = blocked(d, k)
            folds = [
                t for t in range(2, 12)
                if t * per_column < n_targets and canonical_cover_count(d, t, k) <= 10**6
            ]
            if not folds:
                continue
            masks = masks_of(d, k)
            # every column blocks exactly B candidates
            assert {m.bit_count() for m in masks} == {per_column}
            for t in folds:
                assert first_multiset_cover(masks, n_targets, t - 1, masks[0]) is None
                settled.append((masks_of, per_column))
    assert {masks_of for masks_of, _ in settled} == {packing_masks, colouring_masks}
    assert any(per_column > 0 for _, per_column in settled)


def first_unpackable_product_cover(d, t, k):
    """Reference scan: the free columns, in product order, of the first
    canonical cover of K_{d,t} that the decider finds unpackable, or None."""
    columns = column_space(d, k)
    for rest in itertools.product(range(len(columns)), repeat=t - 1):
        if decide_correspondence_packing(cover_from_columns(columns, (0,) + rest)) is None:
            return rest
    return None


# every fold up to the answer 4, and fold 5 of (2, 2), where the reference
# is quick; (3, 3) stops at fold 3 (331 776 covers at fold 4) and (4, 2)
# at fold 3 (packing_masks(4, 4) alone takes about 40 s)
@pytest.mark.parametrize(
    "d,t,k",
    [(2, 2, k) for k in (2, 3, 4, 5)]
    + [(d, t, k) for d, t in ((2, 3), (3, 2), (2, 4)) for k in (2, 3, 4)]
    + [(3, 3, 2), (3, 3, 3), (4, 2, 2), (4, 2, 3)],
)
def test_multiset_scan_matches_product_scan(d, t, k):
    # the product-order first is sorted (sorting never makes a tuple later),
    # so it is also the first multiset
    masks = packing_masks(d, k)
    rest = first_multiset_cover(masks, len(masks), t - 1, masks[0])
    assert rest == first_unpackable_product_cover(d, t, k)
    if rest is not None:
        cover = cover_from_columns(column_space(d, k), (0,) + rest)
        assert decide_correspondence_packing(cover) is None
        cert = make_certificate("no_k_packing", cover, None, generator="test")
        assert verify_certificate(cert).accepted


def test_sampled_k33_four_fold_covers_pack():
    # chi_c*(K_{3,3}) = 4 says every 4-fold cover packs; sample the canonical ones
    columns = column_space(3, 4)
    rng = random.Random(0)
    for _ in range(2000):
        rest = (rng.randrange(len(columns)), rng.randrange(len(columns)))
        assert decide_correspondence_packing(cover_from_columns(columns, (0,) + rest)) is not None


def test_reduced_space_masks():
    masks = packing_masks(2, 3)
    # 3 odd permutations out of 6 are unextendable against the identity row;
    # the all-identity column blocks exactly them
    assert masks[0].bit_count() == 3
    # one column per candidate matrix
    assert len(masks) == 6
    # each combination blocks exactly |F| matrices
    assert all(mask.bit_count() == 3 for mask in masks)


def test_greedy_small_case():
    cover, trace = greedy_unpackable_cover(2, 3)
    assert cover.t == 2
    assert trace == [6, 3, 0]
    assert decide_correspondence_packing(cover) is None
    # ties resolve to the lexicographically smallest combination, which makes
    # the first vertex the all-identity column
    assert all(cover.sigma[i][0] == identity(3) for i in range(2))


GREEDY_PINS = {
    (2, 3): ([6, 3, 0], "b86a75293b4bd915c2ce4b65b78425f918a4ef7a06b86b4b360619f56d98f3ef"),
    (3, 4): (
        [576, 496, 424, 359, 300, 250, 204, 165, 130, 102, 78, 56, 40, 27, 17, 10, 6, 2, 0],
        "6eca298cf35a6061ff96a2ee5bb593f0ffd0832aca792c54c80054bb6583533f",
    ),
    (5, 3): ([1296, 31, 0], "045f136befe2a8d9c039c03661ad642eddcd4e50b2e815f396eea38ca2f41558"),
}


@pytest.mark.parametrize("d,k", sorted(GREEDY_PINS))
def test_greedy_trace_and_certificate_pinned(d, k):
    # traces and certificate bytes recorded before the construction moved to
    # packlab.blocking
    cover, trace = greedy_unpackable_cover(d, k)
    cert = make_certificate("no_k_packing", cover, None, generator="greedy")
    digest = hashlib.sha256(cert.to_canonical_json().encode()).hexdigest()
    assert (trace, digest) == GREEDY_PINS[d, k]


def test_greedy_d4_k4_masks_trace_and_certificate_pinned():
    # recorded with the per-bit mask build, which took about 26 s for (4, 4);
    # the mask digest is over each mask's 13 824 bits as little-endian bytes
    masks = packing_masks(4, 4)
    digest = hashlib.sha256(b"".join(m.to_bytes(13824 // 8, "little") for m in masks))
    assert digest.hexdigest() == "12c08fe7730f71c58bed683933610671dff4ba667bd438641a9ef82297acf7c3"
    cover, trace = greedy_unpackable_cover(4, 4)
    cert = make_certificate("no_k_packing", cover, None, generator="greedy")
    assert trace == [13824, 5688, 2154, 750, 226, 52, 6, 0]
    assert hashlib.sha256(cert.to_canonical_json().encode()).hexdigest() == (
        "d5cd7a78a4022645fabc75d8b49d819e926a0c8f7d01a1f8cd8bfa4b2c9c513e"
    )


def test_greedy_d3_k5_trace_and_certificate_pinned():
    # the shape where the lazy greedy skips most rescoring; t, the trace's
    # SHA-256 (of its repr) and the certificate's recorded with the full rescan
    cover, trace = greedy_unpackable_cover(3, 5)
    cert = make_certificate("no_k_packing", cover, None, generator="greedy")
    assert cover.t == len(trace) - 1 == 389
    assert trace[:3] == [14400, 14320, 14240] and trace[-1] == 0
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == (
        "6dcd0e2e074661cbdcbde344294a75affa99471f8f682aa0342a078db741b6bc"
    )
    assert hashlib.sha256(cert.to_canonical_json().encode()).hexdigest() == (
        "2bb5ee72ef65fef0735ddf8146b16b86ae7d2f486ae8b3a5e54c9af2a7d81fe8"
    )


def test_greedy_d3_k4():
    cover, trace = greedy_unpackable_cover(3, 4)
    assert cover.t <= 62
    assert trace[0] == 576 and trace[-1] == 0
    assert decide_correspondence_packing(cover) is None


def test_greedy_trace_beats_the_floored_recursion():
    from fractions import Fraction

    cover, trace = greedy_unpackable_cover(3, 4)
    x = Fraction(576, 80)
    for s in range(1, len(trace)):
        assert trace[s] <= (trace[s - 1] * (x - 1)) / x


def test_greedy_rejects_impossible_or_oversized():
    with pytest.raises(ValueError):
        greedy_unpackable_cover(2, 4)  # k = 2d: no unextendable matrices
    with pytest.raises(ResourceLimitError):
        greedy_unpackable_cover(4, 6)


def test_random_search_finds_small_cover():
    budget = SearchBudget(max_candidates=500_000, seed=3)
    cover = random_unpackable_cover_search(2, 3, 2, budget)
    assert cover is not None
    assert cover.t == 2
    assert decide_correspondence_packing(cover) is None


def test_random_search_single_vertex_impossible():
    # one vertex blocks at most 3 of the 6 reduced candidates; exhaustively
    # certain, so the search must exhaust its budget
    masks = packing_masks(2, 3)
    assert max(m.bit_count() for m in masks) < len(masks)
    budget = SearchBudget(max_candidates=5_000, seed=0)
    assert random_unpackable_cover_search(2, 3, 1, budget) is None


def test_random_search_keeps_the_cover_it_finds_mid_round():
    # the cover appears at scan 13 of a 20-scan round: 7 488 = 13 · 576
    # candidates pay for that scan, not for the rest of the round
    cover = random_unpackable_cover_search(3, 4, 20, SearchBudget(max_candidates=7488, seed=0))
    assert cover is not None and cover.t == 20
    assert decide_correspondence_packing(cover) is None
    assert random_unpackable_cover_search(3, 4, 20, SearchBudget(max_candidates=7487, seed=0)) is None


def test_hunt_certificate_identical_across_interpreters(tmp_path):
    # two fresh interpreters with different string-hash seeds, so neither set
    # iteration order nor any state left in this process can steer the hunt
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hunt{hash_seed}.json"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "packlab.cli", "hunt", "--d", "3", "--k", "4", "--t", "20",
             "--seed", "11", "--budget-candidates", "400000", "--no-timestamp",
             "--out", str(out)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_random_search_seed_11_certificate_pinned():
    # bytes recorded before the construction moved to packlab.blocking
    budget = SearchBudget(max_candidates=400_000, seed=11)
    cover = random_unpackable_cover_search(3, 4, 20, budget)
    cert = make_certificate(
        "no_k_packing", cover, None, generator="hunt", seed=11, budget={"max_candidates": 400_000}
    )
    digest = hashlib.sha256(cert.to_canonical_json().encode()).hexdigest()
    assert digest == "5a0e1e87009f8bdff65915c8fb8659f4b768afdfc8efee2619d2a089abd39878"


def test_random_search_respects_time_budget():
    # 20 * 80 >= 576: the union bound leaves the hunt open, so the deadline ends it
    budget = SearchBudget(max_candidates=None, max_seconds=0.0, seed=5)
    assert random_unpackable_cover_search(3, 4, 20, budget) is None


@pytest.mark.parametrize(
    "limits",
    [
        {"max_candidates": None},
        {"max_candidates": None, "max_seconds": None},
        {"max_candidates": -1},
        {"max_candidates": True},
        {"max_candidates": 2.0},
        {"max_seconds": -0.5},
        {"max_seconds": float("nan")},
        {"max_seconds": float("inf")},
        {"max_seconds": "1"},
    ],
)
def test_search_budget_refuses_limits_it_cannot_honour(limits):
    # refused up front: with no limit at all a search for the impossible
    # single-vertex (2, 3) cover would never end
    with pytest.raises(ValueError):
        SearchBudget(**limits)


def test_search_budget_accepts_either_limit():
    assert SearchBudget(max_candidates=0).max_seconds is None
    assert SearchBudget(max_candidates=None, max_seconds=0).max_seconds == 0
    assert SearchBudget(max_candidates=10, max_seconds=1.5).max_candidates == 10


def test_two_vertex_covers_of_k22_characterized_by_parity():
    """Exhaustive over canonical 3-fold covers of K_{2,2} with two vertices:
    unpackable exactly when the one free matching is odd (then the two
    vertices block complementary parity classes)."""
    from packlab.covers import CorrespondenceCover
    from packlab.perms import sign

    ident = identity(3)
    for free in itertools.permutations((1, 2, 3)):
        cover = CorrespondenceCover(k=3, sigma=((ident, ident), (ident, free)))
        unpackable = decide_correspondence_packing(cover) is None
        assert unpackable == (sign(free) == -1)
