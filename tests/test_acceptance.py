"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``; the slow items need
``--run-long``.  The same checks are available outside pytest through
``packlab reproduce``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from packlab import cases, counting, latin, search
from packlab.certificates import Certificate, make_certificate, verify_certificate
from packlab.covers import k22_unpackable_cover
from packlab.packing import PackingMatrix, brute_force_extension, find_common_derangement
from packlab.perms import all_permutations, compose, sign


def conclude(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# the 36 base-case pairs (u1 vector, u2 vector), split by the vertex where
# extension fails: the all-identity vertex blocks the mixed-parity pairs,
# the vertex whose second matching swaps colours 2 and 3 blocks the rest
BLOCKED_AT_V1 = {
    ((1, 2, 3), (2, 1, 3)), ((1, 2, 3), (1, 3, 2)), ((1, 2, 3), (3, 2, 1)),
    ((2, 3, 1), (2, 1, 3)), ((2, 3, 1), (1, 3, 2)), ((2, 3, 1), (3, 2, 1)),
    ((3, 1, 2), (2, 1, 3)), ((3, 1, 2), (1, 3, 2)), ((3, 1, 2), (3, 2, 1)),
    ((2, 1, 3), (1, 2, 3)), ((2, 1, 3), (2, 3, 1)), ((2, 1, 3), (3, 1, 2)),
    ((1, 3, 2), (1, 2, 3)), ((1, 3, 2), (2, 3, 1)), ((1, 3, 2), (3, 1, 2)),
    ((3, 2, 1), (1, 2, 3)), ((3, 2, 1), (2, 3, 1)), ((3, 2, 1), (3, 1, 2)),
}
BLOCKED_AT_V2 = {
    ((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (3, 1, 2)),
    ((2, 3, 1), (1, 2, 3)), ((2, 3, 1), (2, 3, 1)), ((2, 3, 1), (3, 1, 2)),
    ((3, 1, 2), (1, 2, 3)), ((3, 1, 2), (2, 3, 1)), ((3, 1, 2), (3, 1, 2)),
    ((2, 1, 3), (2, 1, 3)), ((2, 1, 3), (1, 3, 2)), ((2, 1, 3), (3, 2, 1)),
    ((1, 3, 2), (2, 1, 3)), ((1, 3, 2), (1, 3, 2)), ((1, 3, 2), (3, 2, 1)),
    ((3, 2, 1), (2, 1, 3)), ((3, 2, 1), (1, 3, 2)), ((3, 2, 1), (3, 2, 1)),
}


def test_c01_base_case_count():
    count = counting.forbidden_count_brute(2, 3)
    total = math.factorial(3) ** 2
    conclude("criterion 1: 18 of 36 base pairs are unextendable",
             count == 18 and total == 36, f"count={count}")


def test_c02_base_case_partition():
    cover = k22_unpackable_cover()
    blocked_v1, blocked_v2 = set(), set()
    for p in all_permutations(3):
        for q in all_permutations(3):
            if find_common_derangement(PackingMatrix(k=3, rows=(p, q))) is None:
                blocked_v1.add((p, q))
            twisted = tuple(compose(cover.sigma[i][1], row) for i, row in enumerate((p, q)))
            if find_common_derangement(PackingMatrix(k=3, rows=twisted)) is None:
                blocked_v2.add((p, q))
    parity_v1 = {(p, q) for (p, q) in blocked_v1}
    ok = (
        blocked_v1 == BLOCKED_AT_V1
        and blocked_v2 == BLOCKED_AT_V2
        and all(sign(p) != sign(q) for p, q in blocked_v1)
        and all(sign(p) == sign(q) for p, q in blocked_v2)
        and blocked_v1 | blocked_v2 == {(p, q) for p in all_permutations(3)
                                        for q in all_permutations(3)}
        and not blocked_v1 & blocked_v2
    )
    conclude("criterion 2: the 36 pairs split 18/18 exactly by parity", ok,
             f"|v1|={len(blocked_v1)}, |v2|={len(blocked_v2)}")


def test_c03_k22_end_to_end():
    unpackable = search.decide_correspondence_packing(k22_unpackable_cover()) is None
    value = search.chi_c_star_exact(2, 2)
    conclude("criterion 3: hard K_{2,2} cover unpackable and packing number 4",
             unpackable and value == 4, f"chi*_c = {value}")


def test_c04_closed_forms_vs_brute_force():
    ok = (
        counting.w_odd(3) == counting.forbidden_count_brute(3, 5) == 9600
        and counting.w_even(3) == counting.forbidden_count_brute(3, 4) == 1920
    )
    conclude("criterion 4: w_odd(3) = 9600 and w_even(3) = 1920, both by brute force", ok)


@pytest.mark.long
def test_c04_long_w_even_4():
    count = counting.forbidden_count_brute(4, 6)
    conclude("criterion 4 (long): brute count for d=4, k=6 equals 367027200",
             count == 367027200 == counting.w_even(4), f"count={count}")


def test_c05_threshold_lower_bounds():
    exact = (
        counting.x_ratio(2) == 2
        and counting.x_ratio(3) == 180
        and counting.x_ratio(4) == 705600
        and counting.x_ratio(5) == 308629440000
        and counting.x_ratio(6) == 7808216194437120000
    )
    non_integral = counting.x_ratio(7).denominator > 1
    # three-significant-digit forms, rounded down (safe for lower bounds);
    # the published d=9 entry has an off-by-one exponent: the exact value is
    # 9.909...e52, matching in mantissa only (documented, not reproduced)
    sci = {d: counting.sci3(counting.x_ratio(d), "down") for d in range(7, 12)}
    expected = {7: "1.99e28", 8: "4.55e39", 9: "9.90e52", 10: "2.10e68", 11: "4.45e85"}
    conclude("criterion 5: x(d) exact for d <= 6, non-integral at 7, 3 digits for 7..11",
             exact and non_integral and sci == expected, f"sci={sci}")


def test_c06_iteration_and_estimate_bounds():
    it3 = counting.iteration_bound(math.factorial(4) ** 3, counting.w_even(3))
    it4 = counting.iteration_bound(math.factorial(6) ** 4, counting.w_even(4))
    est3 = counting.estimate_bound(math.factorial(4) ** 3, counting.w_even(3))
    est4 = counting.estimate_bound(math.factorial(6) ** 4, counting.w_even(4))
    fo3 = counting.estimate_bound_first_order(math.factorial(4) ** 3, counting.w_even(3))
    fo4 = counting.estimate_bound_first_order(math.factorial(6) ** 4, counting.w_even(4))
    ok = (
        it3 == 54 and it4 == 14853
        and est3 >= it3 and est4 >= it4
        and fo3 == 62 and fo4 == 15172      # the bracketed reference values
        and est3 == 58 and 54 <= est3 <= 69  # literal form documented instead of forced
        and est4 == 15163
    )
    conclude("criterion 6: iteration 54/14853 exact; estimates documented and dominating",
             ok, f"literal=({est3},{est4}), first-order=({fo3},{fo4})")


def test_c07_upper_strictly_below_lower():
    rows = counting.threshold_table(3, 11)
    uppers = {r.d: r.best_upper for r in rows if r.flavour == "upper_2d_minus_1"}
    lowers = {r.d: r.ratio for r in rows if r.flavour == "lower_2d"}
    ok = all(Fraction(uppers[d]) < lowers[d] for d in range(3, 12))
    conclude("criterion 7: upper bound < x(d) for every d in 3..11", ok)


def test_c08_greedy_construction():
    cover23, trace23 = search.greedy_unpackable_cover(2, 3)
    cover34, trace34 = search.greedy_unpackable_cover(3, 4)
    x = Fraction(trace34[0], counting.w_even(3) // math.factorial(4))
    trace_ok = all(
        trace34[s] <= (trace34[s - 1] * (x - 1)) / x for s in range(1, len(trace34))
    )
    cert = make_certificate("no_k_packing", cover34, None, generator="greedy")
    verified = verify_certificate(cert).accepted
    ok = cover23.t == 2 and cover34.t <= 62 and trace_ok and verified
    conclude("criterion 8: greedy covers (t=2 and t<=62), decaying trace, verified",
             ok, f"t(3,4)={cover34.t}")


def test_c09_list_packing_fixtures():
    k39 = search.decide_list_packing(cases.k39_assignment()) is None
    k65 = search.decide_list_packing(cases.k65_assignment()) is None
    witness = search.decide_list_packing(cases.a10_assignment())
    a10 = witness is not None and search.verify_list_witness(cases.a10_assignment(), witness)
    conclude("criterion 9: both reference assignments unpackable, type-10 scenario packable",
             k39 and k65 and a10)


def test_c10_case_machinery():
    twelve = len(cases.enumerate_triple_types(3, allow_repeats=False)) == 12
    twelve = twelve and len(cases.u_side_list_types()) == 12
    a15 = all(
        cases.check_case_matrix(cases.CASE_MATRICES[i], lst)
        for i in (1, 2, 3, 4, 5)
        for lst in itertools.combinations(range(1, 11), 3)
    )
    base = cases.CASE_MATRICES[11]
    blocked = set()
    for third in ((5, 6, 7), (6, 7, 5), (7, 5, 6)):
        rows = (base[0], base[1], third)
        blocked |= {
            lst
            for lst in itertools.combinations(range(1, 8), 3)
            if not cases.check_case_matrix(rows, lst)
        }
    a11 = blocked == {(3, 4, 5), (3, 4, 6), (3, 4, 7)}
    conclude("criterion 10: 12 list types; types 1-5 never blocked; type 11 blocked "
             "exactly by {3,4,5},{3,4,6},{3,4,7}", twelve and a15 and a11)


def test_c11_small_exact_chromatic_numbers():
    v35 = search.chi_c_exact(3, 5)
    v36 = search.chi_c_exact(3, 6)
    conclude("criterion 11: chi_c(K_{3,5}) = 3 and chi_c(K_{3,6}) = 4",
             v35 == 3 and v36 == 4, f"({v35}, {v36})")


@pytest.mark.long
def test_c11_long_chi_c_k44():
    """Stated expectation: chi_c(K_{4,4}) = 3.  The computation refutes it:
    an explicit uncolourable 3-fold cover of K_{4,4} exists (see
    test_chi_c_k44_counterexample for the verified construction, and the
    README section "Known discrepancies" and demos/07_k44_cover.py for the
    analysis), so the exact value is 4 and this criterion stays red on
    purpose rather than being loosened."""
    value = search.chi_c_exact(4, 4)
    conclude("criterion 11 (long): chi_c(K_{4,4}) = 3", value == 3,
             f"value={value}; an uncolourable 3-fold cover exists, see ledger")


def test_c12_latin_module():
    counts = [latin.count_latin_squares(n) for n in range(1, 6)]
    bijection = all(
        latin.count_latin_rectangles(n - 1, n) == latin.count_latin_squares(n)
        for n in range(2, 6)
    )
    conclude("criterion 12: N(1..5) = (1,2,12,576,161280) and the rectangle bijection",
             counts == [1, 2, 12, 576, 161280] and bijection)


def test_c13a_matching_vs_brute_force_100k():
    rng = random.Random(0xC13A)
    disagreements = 0
    for _ in range(100_000):
        d = rng.randint(1, 3)
        k = rng.randint(2, 5)
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        m = PackingMatrix(k=k, rows=tuple(rows))
        ext = find_common_derangement(m)
        oracle = brute_force_extension(m)
        if (ext is None) != (oracle is None):
            disagreements += 1
        elif ext is not None and any(
            ext[j] == row[j] for row in m.rows for j in range(k)
        ):
            disagreements += 1
    conclude("criterion 13a: matching engine vs brute force, 100000 random matrices",
             disagreements == 0, f"disagreements={disagreements}")


def test_c13b_symmetry_invariance_10k():
    from packlab.packing import is_forbidden

    rng = random.Random(0xC13B)
    failures = 0
    for _ in range(10_000):
        d = rng.randint(2, 3)
        k = rng.randint(3, 5)
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        m = PackingMatrix(k=k, rows=tuple(rows))
        base = is_forbidden(m)
        relabel = list(range(1, k + 1))
        rng.shuffle(relabel)
        relabel = tuple(relabel)
        mode = rng.randrange(3)
        if mode == 0:
            shuffled = list(m.rows)
            rng.shuffle(shuffled)
            other = PackingMatrix(k=k, rows=tuple(shuffled))
        elif mode == 1:
            other = PackingMatrix(k=k, rows=tuple(compose(relabel, r) for r in m.rows))
        else:
            other = PackingMatrix(k=k, rows=tuple(compose(r, relabel) for r in m.rows))
        if is_forbidden(other) != base:
            failures += 1
    conclude("criterion 13b: forbiddenness invariant under 10000 random symmetries",
             failures == 0, f"failures={failures}")


def test_c13c_seeded_search_reproducibility():
    budget = search.SearchBudget(max_candidates=400_000, seed=23)
    certs = []
    for workers in (1, 2, 3):
        cover = search.random_unpackable_cover_search(3, 4, 20, budget, workers=workers)
        assert cover is not None
        cert = make_certificate(
            "no_k_packing", cover, None, generator="hunt", seed=budget.seed,
            budget={"max_candidates": budget.max_candidates, "max_seconds": None},
        )
        certs.append(cert.to_canonical_json())
    ok = certs[0] == certs[1] == certs[2]
    round_trip = Certificate.from_json(certs[0]).to_canonical_json() == certs[0]
    conclude("criterion 13c: seeded search certificates identical across 1/2/3 workers",
             ok and round_trip)
