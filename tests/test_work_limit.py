"""The one work limit: every exhaustive scan is admitted or refused by its
worst-case step count, computed before any work starts.

Admitted probes either finish at once (standard covers pack, and colour,
at the first candidate) or reach a stubbed first work step; refused ones
raise ResourceLimitError without reaching it.
"""

import itertools
import math
import re

import pytest

import packlab.blocking as blocking
import packlab.cases as cases
import packlab.counting as counting
import packlab.latin as latin
import packlab.perms as perms
import packlab.search as search
from packlab.certificates import make_certificate, verify_certificate
from packlab.cli import main
from packlab.covers import make_assignment, standard_cover
from packlab.errors import (
    WORK_LIMIT,
    ResourceLimitError,
    candidate_count,
    canonical_cover_count,
    capped_product,
    check_work,
)


class Reached(Exception):
    """Raised by a stubbed work step: the gate admitted the call."""


def stub(monkeypatch, module, name):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(module, name, reached)


def record_charges(monkeypatch, module) -> list[int]:
    """Route ``module.check_work`` through the real one, recording each charge."""
    charged: list[int] = []

    def recording_check(n, what):
        charged.append(n)
        check_work(n, what)

    monkeypatch.setattr(module, "check_work", recording_check)
    return charged


@pytest.fixture
def small_counts_only(monkeypatch):
    """math.factorial and counting._partitions fail the test above 12,
    math.comb above 10^6: a gate that needs k!, the partitions of k or a
    binomial of a huge argument in full fails instead of hanging."""

    def guard(real, most):
        def guarded(n, *rest):
            if n > most:
                pytest.fail(f"{real.__name__}({n}, ...) computed in full")
            return real(n, *rest)

        return guarded

    monkeypatch.setattr(math, "factorial", guard(math.factorial, 12))
    monkeypatch.setattr(math, "comb", guard(math.comb, 10**6))
    monkeypatch.setattr(counting, "_partitions", guard(counting._partitions, 12))


def admitted(call) -> bool:
    try:
        call()
    except Reached:
        return True
    except ResourceLimitError:
        return False
    return True


def test_check_work_boundary():
    check_work(WORK_LIMIT, "probe")
    with pytest.raises(ResourceLimitError, match="probe needs 20000001 steps"):
        check_work(WORK_LIMIT + 1, "probe")


def test_check_work_names_huge_counts():
    # 2000! has 5736 digits, more than Python converts to a string
    with pytest.raises(ResourceLimitError, match=r"probe needs more than 2\^64 steps"):
        check_work(1 << 64, "probe")
    with pytest.raises(ResourceLimitError, match=r"needs more than 2\^\d+ steps"):
        perms.all_permutations(2000)


def test_candidate_count_is_exact_up_to_2_to_the_64(small_counts_only):
    assert candidate_count(1, 12) == 1
    assert candidate_count(3, 4) == 576
    assert candidate_count(2, 20) == 2432902008176640000  # 20!, just under 2^64
    assert candidate_count(65, 2) == 1 << 64
    assert candidate_count(66, 2) > 1 << 64
    assert candidate_count(2, 21) > 1 << 64
    assert candidate_count(10**9, 1) == 1  # no d - 1 factors of 1
    assert candidate_count(10**9, 10**6) > 1 << 64


def test_cover_count_is_the_binomial_up_to_2_to_the_64():
    # C((k!)^(d-1) + t - 2, t - 1), capped past 2^64
    for d, k, t in itertools.product(range(1, 5), range(1, 6), range(1, 41)):
        exact = math.comb(candidate_count(d, k) + t - 2, t - 1)
        capped = canonical_cover_count(d, t, k)
        assert capped == exact if exact <= 1 << 64 else capped > 1 << 64, (d, k, t)


def test_capped_product_is_exact_up_to_2_to_the_64():
    assert capped_product([]) == 1
    assert capped_product(range(1, 21)) == math.factorial(20)  # just under 2^64
    assert capped_product([1 << 32, 1 << 32]) == 1 << 64
    assert capped_product([1 << 32, (1 << 32) + 1, 3]) == (1 << 64) + (1 << 32)  # stops past 2^64
    assert capped_product(itertools.count(2)) > 1 << 64  # ends on an endless input


# (d, t, k) -> admitted; packing steps (k!)^(d-1) * t * d * k,
# colouring steps k^d * t * d
PACKING_PROBES = [
    ((3, 2, 6), True),  # 18 662 400
    ((3, 3, 6), False),  # 27 993 600
    ((5, 3, 4), True),  # 19 906 560
    ((5, 4, 4), False),  # 26 542 080
    ((18, 4, 2), True),  # 18 874 368
    ((19, 4, 2), False),  # 39 845 888
    ((4, 1, 5), False),  # 34 560 000
    ((4, 1, 7), False),  # 3.6e12
    ((2, 1, 8), True),  # 645 120
]
COLOURING_PROBES = [
    ((7, 3, 7), True),  # 17 294 403
    ((7, 4, 7), False),  # 23 059 204
    ((4, 1, 7), True),
]


@pytest.mark.parametrize("shape,ok", PACKING_PROBES)
def test_packing_decision_and_verification_gate(shape, ok):
    d, t, k = shape
    cover = standard_cover(d, t, k)
    lists = make_assignment([range(1, k + 1)] * d, [range(1, k + 1)] * t)
    cert = make_certificate("no_k_packing", cover, None, generator="probe")
    list_cert = make_certificate("no_k_packing", lists, None, generator="probe")
    assert admitted(lambda: search.decide_correspondence_packing(cover)) == ok
    assert admitted(lambda: search.decide_list_packing(lists)) == ok
    assert admitted(lambda: verify_certificate(cert)) == ok
    assert admitted(lambda: verify_certificate(list_cert)) == ok


@pytest.mark.parametrize("shape", [(1, 1, 12), (1, 1, 10)])
def test_single_row_packing_builds_no_permutation_table(monkeypatch, shape):
    # with d = 1 the pinned row is the one candidate: no row is permuted,
    # so the t·k steps are admitted and no k! table is built
    d, t, k = shape
    cover = standard_cover(d, t, k)
    lists = make_assignment([range(1, k + 1)] * d, [range(1, k + 1)] * t)
    certs = [make_certificate("no_k_packing", x, None, generator="probe") for x in (cover, lists)]
    stub(monkeypatch, itertools, "permutations")
    assert search.decide_correspondence_packing(cover) is not None
    assert search.decide_list_packing(lists) is not None
    for cert in certs:
        assert verify_certificate(cert).reason == "surviving packing found"


@pytest.mark.parametrize("shape,ok", COLOURING_PROBES)
def test_colouring_decision_and_verification_gate(shape, ok):
    d, t, k = shape
    cover = standard_cover(d, t, k)
    lists = make_assignment([range(1, k + 1)] * d, [range(1, k + 1)] * t)
    cert = make_certificate("no_k_colouring", cover, None, generator="probe")
    list_cert = make_certificate("no_k_colouring", lists, None, generator="probe")
    assert admitted(lambda: search.decide_correspondence_colouring(cover)) == ok
    assert admitted(lambda: verify_certificate(cert)) == ok
    assert admitted(lambda: verify_certificate(list_cert)) == ok


@pytest.mark.parametrize(
    "d,k,ok",
    [(3, 5, True), (4, 4, True), (6, 3, True), (4, 5, False), (3, 6, False), (4, 6, False)],
)
def test_packing_mask_gate(monkeypatch, d, k, ok):
    # size * ceil(size / 64) machine words for size = (k!)^(d-1) masks of size bits
    stub(monkeypatch, blocking, "column_space")
    assert admitted(lambda: blocking.packing_masks(d, k)) == ok
    assert admitted(lambda: search.greedy_unpackable_cover(d, k)) == ok
    budget = search.SearchBudget(seed=0)
    assert admitted(lambda: search.random_unpackable_cover_search(d, k, 4, budget)) == ok


def test_packing_masks_charged_on_every_call(monkeypatch):
    # the table is built once, but every call is charged and gets its own list
    charged = record_charges(monkeypatch, blocking)
    first, second = blocking.packing_masks(3, 3), blocking.packing_masks(3, 3)
    assert first == second and first is not second
    assert charged == [36 * 1 + 6 * 6] * 2
    first[0] = 0
    assert blocking.packing_masks(3, 3)[0] == second[0] != 0


@pytest.mark.parametrize(
    "n_targets,n_picks,ok",
    [
        (64, WORK_LIMIT, True),
        (64, WORK_LIMIT + 1, False),
        (65, WORK_LIMIT // 2, True),  # two words per mask
        (65, WORK_LIMIT // 2 + 1, False),
    ],
)
def test_hill_climb_round_gate(monkeypatch, n_targets, n_picks, ok):
    # n_picks masks of ceil(n_targets / 64) words, charged before the state is built
    stub(monkeypatch, blocking, "_transpose")
    masks = [1 << n_targets - 1]
    assert admitted(lambda: blocking.hill_climb_cover(masks, n_targets, n_picks, 0, None, None)) == ok


def test_colouring_mask_gate(monkeypatch):
    # with t = 2 there are only 2^(d-1) multisets, but 2^(d-1) masks of
    # 2^d bits: 2^14 * 512 words are admitted, 2^15 * 1024 are not
    stub(monkeypatch, blocking, "_translate_masks")
    assert admitted(lambda: search.find_uncolourable_cover(15, 2, 2))
    with pytest.raises(ResourceLimitError, match="colouring masks"):
        search.find_uncolourable_cover(16, 2, 2)


@pytest.mark.parametrize(
    "d,k,reduce,ok",
    [
        (4, 6, True, True),  # 11 classes * 720^2
        (4, 6, False, False),  # 720^3
        (5, 5, True, True),  # 7 * 120^3
        (6, 5, True, False),
        (4, 7, True, False),
        (2, 12, True, False),  # refused at 12!, before the partitions of 12 are listed
    ],
)
def test_forbidden_count_gate(monkeypatch, small_counts_only, d, k, reduce, ok):
    stub(monkeypatch, counting, "_count_block")
    stub(monkeypatch, counting, "_conjugacy_class")
    call = lambda: counting.forbidden_count_brute(d, k, use_class_reduction=reduce)  # noqa: E731
    assert admitted(call) == ok


def test_forbidden_count_charges_the_classes_once_they_are_listed(monkeypatch, small_counts_only):
    # 10! = 3 628 800 is admitted, then the 42 classes of S_10 at 10! each are not
    charged = record_charges(monkeypatch, counting)
    stub(monkeypatch, counting, "_conjugacy_class")
    with pytest.raises(ResourceLimitError, match="forbidden count needs 152409600 steps"):
        counting.forbidden_count_brute(3, 10)
    assert charged == [3628800, 152409600]


def test_forbidden_count_past_the_row_set_table_stays_on_matching_calls(monkeypatch, small_counts_only):
    # the k = 8 row-set table, 40 320^2 bits, is over the work limit in
    # words: (3, 8) is admitted as before and judges its matrices by
    # matching calls (the first is the stubbed work step), never asking for it
    real = latin._row_sets
    monkeypatch.setattr(latin, "_row_sets", lambda k: pytest.fail(f"_row_sets({k})") if k >= 8 else real(k))
    stub(monkeypatch, counting, "has_perfect_matching")
    charged = record_charges(monkeypatch, counting)
    assert admitted(lambda: counting.forbidden_count_brute(3, 8))
    assert charged == [40320, 22 * 40320]  # 8!, then the 22 classes of S_8 at 8! each


@pytest.mark.parametrize(
    "a,b,fold,ok",
    [
        (2, 4, 4, True),  # C(26, 3) = 2 600 multisets
        (2, 9, 4, True),  # C(31, 8) = 7 888 725
        (2, 10, 4, False),  # C(32, 9) = 28 048 800
        (3, 3, 4, True),  # C(577, 2) = 166 176
        (3, 4, 4, False),  # C(578, 3) = 32 016 576
    ],
)
def test_chi_c_star_fold_gate(monkeypatch, a, b, fold, ok):
    # the union bound is held open (every column blocks every candidate);
    # folds below `fold` get one mask blocking all candidates, so some cover
    # is unpackable and the scan moves on to `fold`, whose mask build raises
    # Reached if the multiset count is admitted
    monkeypatch.setattr(search, "forbidden_count_brute", lambda d, k: math.factorial(k) ** d)

    def masks(d, k):
        if k < fold:
            return [(1 << math.factorial(k) ** (d - 1)) - 1]
        raise Reached

    monkeypatch.setattr(search, "packing_masks", masks)
    assert admitted(lambda: search.chi_c_star_exact(a, b)) == ok


def test_chi_c_star_refused_where_the_union_bound_leaves_a_fold_open(monkeypatch):
    # (3, 7) is admitted: fold 4 is settled by 7 * 80 < 576; at (3, 8) the
    # bound leaves fold 3 open and its C(42, 7) multisets are refused
    assert search.chi_c_star_exact(3, 7) == 4
    with pytest.raises(ResourceLimitError, match="fold-3 cover scan needs 26978328 steps"):
        search.chi_c_star_exact(3, 8)
    # (4, 4) reaches fold 4 (8 136 of 13 824 blocked per column) and is
    # refused at C(13826, 3) multisets before its masks are built
    real = search.packing_masks

    def masks(d, k):
        if k >= 4:
            pytest.fail("fold-4 masks built")
        return real(d, k)

    monkeypatch.setattr(search, "packing_masks", masks)
    with pytest.raises(ResourceLimitError, match="fold-4 cover scan needs 440396812800 steps"):
        search.chi_c_star_exact(4, 4)


@pytest.mark.parametrize(
    "kind,k,steps,ok",
    [
        ("packing", 4, 9_138_240, True),  # 30 types × 576 arrangements × their lists
        ("packing", 5, 2_438_726_400, False),  # 50 types × 14 400 arrangements
        ("colouring", 4, 1_015_360, True),  # 30 types × 64 colourings
        ("colouring", 5, 21_169_500, False),  # 50 types × 125 colourings
    ],
)
def test_list_threshold_gate(monkeypatch, kind, k, steps, ok):
    # (candidate, effective list) pairs over all k-list triple types,
    # charged before the targets of the first type and their cuts are built
    charged = record_charges(monkeypatch, cases)
    stub(monkeypatch, cases, f"_{kind}_cuts")
    threshold = getattr(cases, f"list_{kind}_threshold")
    assert admitted(lambda: threshold(k)) == ok
    assert charged == [steps]


@pytest.mark.parametrize(
    "k,steps,ok",
    [
        (9, 3_265_920, True),  # 9! permutations of 9 entries
        (10, 36_288_000, False),
    ],
)
def test_all_permutations_gate(monkeypatch, small_counts_only, k, steps, ok):
    charged = record_charges(monkeypatch, perms)
    assert admitted(lambda: perms.all_permutations(k)) == ok
    assert charged == [steps]


@pytest.mark.parametrize(
    "d,k,reduce",
    [
        (3, 10**6, True),  # k! is not computed, nor are the partitions of k listed
        (3, 10**6, False),
        (2, 10**6, True),
        (2, 10**6, False),
        (10**6, 2, True),  # 2^(d-2) passes the cap after 65 factors
        (10**6, 2, False),
    ],
)
def test_forbidden_count_refuses_huge_shapes_at_once(monkeypatch, small_counts_only, d, k, reduce):
    stub(monkeypatch, counting, "_count_block")
    stub(monkeypatch, counting, "_conjugacy_class")
    with pytest.raises(ResourceLimitError, match=r"brute-force forbidden count needs more than 2\^"):
        counting.forbidden_count_brute(d, k, use_class_reduction=reduce)


def test_all_permutations_refuses_huge_k_at_once(small_counts_only):
    with pytest.raises(ResourceLimitError, match=r"permutations of \{1..1000000\} needs more than 2\^"):
        perms.all_permutations(10**6)


def test_forbidden_count_cli_refuses_huge_k(monkeypatch, small_counts_only, capsys):
    stub(monkeypatch, counting, "_count_block")
    assert main(["forbidden-count", "--d", "3", "--k", "30000", "--method", "brute"]) == 2
    assert "brute-force forbidden count needs more than 2^" in capsys.readouterr().err


HUGE = r"needs more than 2\^\d+ steps"

#: work that a command refused from its input size alone must not reach
UNREACHED = [
    (blocking, "column_space"),
    (blocking, "_translate_masks"),
    (blocking, "_transpose"),
    (counting, "_count_block"),
    (counting, "_conjugacy_class"),
]


@pytest.mark.parametrize(
    "argv,message,unreached",
    [
        # 5 040 × 79 mask words + the 5 040² inverse table
        (["greedy", "--d", "2", "--k", "7"], "packing masks needs 25799760 steps", UNREACHED),
        (["hunt", "--d", "2", "--k", "7", "--t", "3"], "packing masks needs 25799760 steps", UNREACHED),
        (["greedy", "--d", "3", "--k", "1000000"], "packing masks " + HUGE, UNREACHED),
        (["hunt", "--d", "3", "--k", "1000000", "--t", "3"], "packing masks " + HUGE, UNREACHED),
        # 2^19999 column types at fold 2
        (["chi", "--param", "c", "--a", "20000", "--b", "20000"], "fold-2 cover scan " + HUGE, UNREACHED),
        (["chi", "--param", "cstar", "--a", "20000", "--b", "20000"], "forbidden count " + HUGE, UNREACHED),
        # 10^9 picks × 9 words of 576 targets, charged once the (3, 4) masks are built
        (["hunt", "--d", "3", "--k", "4", "--t", "1000000000"], "hill-climb round needs 9000000000 steps",
         [(blocking, "_transpose")]),
    ],
    ids=["greedy-2-7", "hunt-2-7", "greedy-3-1e6", "hunt-3-1e6", "chi-c", "chi-cstar", "hunt-t-1e9"],
)
def test_cli_refuses_huge_blocking_work_at_once(
    monkeypatch, small_counts_only, capsys, argv, message, unreached
):
    # refused from the step count alone, before the work the case names
    for module, name in unreached:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} reached"))
    assert main(argv) == 2
    assert re.search(message, capsys.readouterr().err)
