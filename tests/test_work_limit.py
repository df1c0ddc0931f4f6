"""The one work limit: every exhaustive scan is admitted or refused by its
worst-case step count, computed before any work starts.

Admitted probes either finish at once (standard covers pack, and colour,
at the first candidate) or reach a stubbed first work step; refused ones
raise ResourceLimitError without reaching it.
"""

import itertools
import math

import pytest

import packlab.blocking as blocking
import packlab.cases as cases
import packlab.counting as counting
import packlab.perms as perms
import packlab.search as search
from packlab.certificates import make_certificate, verify_certificate
from packlab.covers import make_assignment, standard_cover
from packlab.errors import WORK_LIMIT, ResourceLimitError, check_work


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


# (d, t, k) -> admitted; packing steps k * max(k!, (k!)^(d-1) * t * d),
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


@pytest.mark.parametrize(
    "shape",
    [
        (1, 1, 12),  # no free row to scan, but the row table alone has 12! rows
        (1, 1, 10),  # row table 36 288 000 entries
    ],
)
def test_packing_row_table_is_charged(monkeypatch, shape):
    d, t, k = shape
    cover = standard_cover(d, t, k)
    lists = make_assignment([range(1, k + 1)] * d, [range(1, k + 1)] * t)
    certs = [make_certificate("no_k_packing", x, None, generator="probe") for x in (cover, lists)]
    stub(monkeypatch, itertools, "permutations")
    for call in (
        lambda: search.decide_correspondence_packing(cover),
        lambda: search.decide_list_packing(lists),
        lambda: verify_certificate(certs[0]),
        lambda: verify_certificate(certs[1]),
    ):
        with pytest.raises(ResourceLimitError):
            call()


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
        (2, 12, True, False),  # listing the classes alone would walk 12! rows
    ],
)
def test_forbidden_count_gate(monkeypatch, d, k, reduce, ok):
    stub(monkeypatch, counting, "_count_block")
    stub(monkeypatch, counting, "_conjugacy_classes")
    call = lambda: counting.forbidden_count_brute(d, k, use_class_reduction=reduce)  # noqa: E731
    assert admitted(call) == ok


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
def test_all_permutations_gate(monkeypatch, k, steps, ok):
    charged = record_charges(monkeypatch, perms)
    assert admitted(lambda: perms.all_permutations(k)) == ok
    assert charged == [steps]
