"""One-shot reproduction of every desk-scale reference value.

Each item recomputes a quantity from scratch and compares it with its
expected value; the runner prints one pass/fail line per item, keeps going
after failures, and can emit the whole report as structured JSON.  Items
marked long (hundreds of millions of matrix checks, exact chromatic numbers
of K_{4,4}) only run when requested.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import __version__, cases, counting, latin, search
from .certificates import make_certificate, verify_certificate
from .covers import k22_unpackable_cover
from .packing import PackingMatrix, brute_force_extension, find_common_derangement
from .perms import all_permutations, sign

#: 3-significant-digit reference rows (value, printed form); lower bounds are
#: printed rounded down, upper bounds rounded up
REFERENCE_LOWER_SCI = {7: "1.99e28", 8: "4.55e39", 9: "9.90e53", 10: "2.10e68", 11: "4.45e85"}
REFERENCE_UPPER_SCI = {7: "5.97e22", 8: "4.73e32", 9: "3.02e44", 10: "1.63e58", 11: "7.72e73"}
REFERENCE_LOWER_EXACT = {
    2: 2,
    3: 180,
    4: 705600,
    5: 308629440000,
    6: 7808216194437120000,
}
REFERENCE_ITERATION = {3: 54, 4: 14853}
REFERENCE_BRACKETED_ESTIMATE = {3: 62, 4: 15172}

#: the d=9 lower bound: the exact value is 9.909...e52; the reference table
#: prints the matching mantissa with exponent 53, an off-by-one we report
#: rather than reproduce
KNOWN_EXPONENT_ERRATUM_D = 9


@dataclass
class Item:
    item_id: str
    title: str
    computed: object
    expected: object
    ok: bool
    note: str | None = None


@dataclass
class Report:
    items: list[Item] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, item_id, title, computed, expected, ok=None, note=None) -> None:
        if ok is None:
            ok = computed == expected
        self.items.append(Item(item_id, title, computed, expected, bool(ok), note))

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "reproduction_report",
            "tool_version": __version__,
            "passed": sum(1 for i in self.items if i.ok),
            "failed": sum(1 for i in self.items if not i.ok),
            "items": [
                {
                    "id": i.item_id,
                    "title": i.title,
                    "computed": _jsonable(i.computed),
                    "expected": _jsonable(i.expected),
                    "ok": i.ok,
                    "note": i.note,
                }
                for i in self.items
            ],
            "notes": self.notes,
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _parity_blocked_pairs(want_equal_parity: bool) -> set:
    pairs = set()
    for p in all_permutations(3):
        for q in all_permutations(3):
            if (sign(p) == sign(q)) == want_equal_parity:
                pairs.add((p, q))
    return pairs


def run_reproduction(
    long: bool = False,
    workers: int = 1,
    emit: Callable[[str], None] | None = print,
    report_path: str | None = None,
) -> Report:
    rep = Report()

    def log(item: Item) -> None:
        if emit is not None:
            status = "PASS" if item.ok else "FAIL"
            emit(f"[{status}] {item.item_id}: {item.title} (computed={item.computed!r})")
            if item.note:
                emit(f"       note: {item.note}")

    def add(*args, **kwargs) -> None:
        rep.add(*args, **kwargs)
        log(rep.items[-1])

    # 1. base case count
    add("C1", "unextendable pair count for d=2, k=3 is 18 of 36",
        counting.forbidden_count_brute(2, 3), 18)

    # 2. the 36-pair partition against the parity rule
    cover = k22_unpackable_cover()
    blocked_v1, blocked_v2 = set(), set()
    for p in all_permutations(3):
        for q in all_permutations(3):
            m = PackingMatrix(k=3, rows=(p, q))
            if find_common_derangement(m) is None:
                blocked_v1.add((p, q))
            rows2 = tuple(
                tuple(cover.sigma[i][1][c - 1] for c in row) for i, row in enumerate((p, q))
            )
            if find_common_derangement(PackingMatrix(k=3, rows=rows2)) is None:
                blocked_v2.add((p, q))
    parity_ok = (
        blocked_v1 == _parity_blocked_pairs(False)
        and blocked_v2 == _parity_blocked_pairs(True)
        and len(blocked_v1 | blocked_v2) == 36
        and not (blocked_v1 & blocked_v2)
    )
    add("C2", "36 base pairs split 18/18 by parity across the two vertices",
        {"v1": len(blocked_v1), "v2": len(blocked_v2)}, {"v1": 18, "v2": 18}, ok=parity_ok)

    # 3. the K_{2,2} cover end to end
    add("C3a", "hard 3-fold cover of K_{2,2} admits no packing",
        search.decide_correspondence_packing(cover) is None, True)
    add("C3b", "correspondence packing number of K_{2,2} is 4",
        search.chi_c_star_exact(2, 2), 4)

    # 4. closed forms against brute force
    add("C4a", "w_odd(3) = brute count (d=3, k=5) = 9600",
        (counting.w_odd(3), counting.forbidden_count_brute(3, 5)), (9600, 9600))
    add("C4b", "w_even(3) = brute count (d=3, k=4) = 1920",
        (counting.w_even(3), counting.forbidden_count_brute(3, 4)), (1920, 1920))

    # 5. threshold lower bounds
    add("C5a", "x(d) for d = 2..5",
        [counting.x_ratio(d) for d in (2, 3, 4, 5)],
        [Fraction(v) for v in (2, 180, 705600, 308629440000)])
    add("C5b", "x(6) exact", counting.x_ratio(6), Fraction(7808216194437120000))
    add("C5c", "x(7) is non-integral", counting.x_ratio(7).denominator > 1, True)
    sci = {d: counting.sci3(counting.x_ratio(d), "down") for d in range(7, 12)}
    expected_sci = dict(REFERENCE_LOWER_SCI)
    expected_sci[KNOWN_EXPONENT_ERRATUM_D] = "9.90e52"
    add("C5d", "x(d) to 3 significant digits for d = 7..11", sci, expected_sci,
        note="reference table prints the d=9 entry as 9.90e53; the exact value is "
             "9.909...e52, so the mantissa matches and the exponent is off by one there")

    # 6. iteration bounds and estimates
    import math

    iter_vals = {
        d: counting.iteration_bound(math.factorial(2 * d - 2) ** d, counting.w_even(d))
        for d in (3, 4)
    }
    add("C6a", "floored iteration counts for d = 3, 4", iter_vals, REFERENCE_ITERATION)
    est_literal = {
        d: counting.estimate_bound(math.factorial(2 * d - 2) ** d, counting.w_even(d))
        for d in (3, 4)
    }
    est_first_order = {
        d: counting.estimate_bound_first_order(
            math.factorial(2 * d - 2) ** d, counting.w_even(d)
        )
        for d in (3, 4)
    }
    dominated = all(est_literal[d] >= iter_vals[d] for d in (3, 4))
    add("C6b", "estimates dominate the iteration counts", dominated, True,
        note=f"literal estimate gives {est_literal}, first-order estimate gives "
             f"{est_first_order}; the reference brackets {REFERENCE_BRACKETED_ESTIMATE} "
             f"match the first-order form exactly, the literal form stays within [54, 69] "
             f"for d=3 as expected")
    add("C6c", "first-order estimate reproduces the bracketed values",
        est_first_order, REFERENCE_BRACKETED_ESTIMATE)

    # 7. upper bound strictly below lower bound for every d
    rows = counting.threshold_table(3, 11)
    uppers = {r.d: r.best_upper for r in rows if r.flavour == "upper_2d_minus_1"}
    lowers = {r.d: r.ratio for r in rows if r.flavour == "lower_2d"}
    strict = all(Fraction(uppers[d]) < lowers[d] for d in range(3, 12))
    add("C7", "computed upper bound < x(d) for every d in 3..11", strict, True)
    ref_uppers = {r.d: r.reference_upper for r in rows if r.flavour == "upper_2d_minus_1"}
    upper_sci = {d: counting.sci3(Fraction(ref_uppers[d]), "up") for d in range(7, 12)}
    add("C7b", "reference-style upper estimates to 3 significant digits, d = 7..11",
        upper_sci, REFERENCE_UPPER_SCI)

    # 8. greedy construction
    cov23, trace23 = search.greedy_unpackable_cover(2, 3)
    add("C8a", "greedy unpackable cover for d=2, k=3 has 2 vertices", cov23.t, 2)
    cov34, trace34 = search.greedy_unpackable_cover(3, 4)
    x34 = Fraction(trace34[0], counting.w_even(3) // math.factorial(4))
    trace_ok = all(
        trace34[s] <= (trace34[s - 1] * (x34 - 1)) / x34 for s in range(1, len(trace34))
    )
    cert34 = make_certificate("no_k_packing", cov34, None, generator="greedy")
    add("C8b", "greedy cover for d=3, k=4: size <= 62, decaying trace, verified",
        {"t": cov34.t, "trace_ok": trace_ok, "verified": bool(verify_certificate(cert34))},
        {"t": cov34.t, "trace_ok": True, "verified": True},
        ok=cov34.t <= 62 and trace_ok and bool(verify_certificate(cert34)),
        note=f"achieved t = {cov34.t} (target 54)")

    # 9. list fixtures
    add("C9a", "nine transversal lists against disjoint triples: unpackable",
        search.decide_list_packing(cases.k39_assignment()) is None, True)
    add("C9b", "sides 5 and 6 reference assignment: unpackable",
        search.decide_list_packing(cases.k65_assignment()) is None, True)
    w10 = search.decide_list_packing(cases.a10_assignment())
    add("C9c", "type-10 lists against the eight transversals: packable",
        w10 is not None and search.verify_list_witness(cases.a10_assignment(), w10), True)

    # 10. case machinery
    add("C10a", "twelve types of distinct 3-list triples",
        (len(cases.u_side_list_types()),
         len(cases.enumerate_triple_types(3, allow_repeats=False))),
        (12, 12))
    import itertools as _it

    universe = range(1, 11)
    ok_a15 = all(
        cases.check_case_matrix(cases.CASE_MATRICES[i], lst)
        for i in (1, 2, 3, 4, 5)
        for lst in _it.combinations(universe, 3)
    )
    add("C10b", "reference matrices 1-5 extend for every candidate list", ok_a15, True)
    base = cases.CASE_MATRICES[11]
    blocked = set()
    for third in ((5, 6, 7), (6, 7, 5), (7, 5, 6)):
        rows = (base[0], base[1], third)
        for lst in _it.combinations(range(1, 8), 3):
            if not cases.check_case_matrix(rows, lst):
                blocked.add(lst)
    add("C10c", "type-11 arrangements are blocked exactly by {3,4,5},{3,4,6},{3,4,7}",
        sorted(blocked), [(3, 4, 5), (3, 4, 6), (3, 4, 7)])

    # 11. small exact chromatic numbers
    add("C11", "correspondence chromatic numbers of K_{3,5} and K_{3,6}",
        (search.chi_c_exact(3, 5), search.chi_c_exact(3, 6)), (3, 4))

    # 12. Latin counts
    add("C12a", "N(1..5) by enumeration",
        [latin.count_latin_squares(n) for n in range(1, 6)], [1, 2, 12, 576, 161280])
    add("C12b", "rectangle-square bijection for n <= 5",
        [latin.count_latin_rectangles(n - 1, n) for n in range(2, 6)],
        [latin.count_latin_squares(n) for n in range(2, 6)])

    # 13. property spot checks (full suites live in the tests)
    rng = random.Random(20240 + 13)
    disagreements = 0
    for _ in range(2000):
        d = rng.randint(1, 3)
        k = rng.randint(2, 5)
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        m = PackingMatrix(k=k, rows=tuple(rows))
        if (find_common_derangement(m) is None) != (brute_force_extension(m) is None):
            disagreements += 1
    add("C13a", "matching engine agrees with brute force on 2000 random matrices",
        disagreements, 0)
    budget = search.SearchBudget(max_candidates=200_000, seed=7)
    c1 = search.random_unpackable_cover_search(2, 3, 2, budget, workers=1)
    c2 = search.random_unpackable_cover_search(2, 3, 2, budget, workers=2)
    same = (c1 is None and c2 is None) or (
        c1 is not None and c2 is not None and c1.to_json_dict() == c2.to_json_dict()
    )
    add("C13b", "seeded search identical across 1 and 2 workers", same, True)

    rep.notes.append(
        "estimate forms: the literal expression log_{1-1/x}(x/X0) + x and its "
        "first-order weakening x log(X0/x) + x are both reported; the floored "
        "iteration values are the authoritative construction lengths"
    )
    rep.notes.append(
        "d=9 lower bound: exact value 9.909...e52 (printed reference: 9.90e53; "
        "mantissa agrees, exponent off by one)"
    )

    if long:
        add("L1", "w_even(4) = brute count (d=4, k=6) = 367027200",
            counting.forbidden_count_brute(4, 6, workers=workers), counting.w_even(4))
        add("L2", "correspondence chromatic number of K_{4,4} is 3",
            search.chi_c_exact(4, 4), 3,
            note="refuted: an explicit uncolourable 3-fold cover of K_{4,4} exists "
                 "(fold 4 is settled by the counting ceiling 4*24 < 256), so the "
                 "exact value is 4; the expected value 3 is kept as stated and "
                 "this item reports the mismatch honestly")
        add("L3", "N(6) by enumeration matches the stored constant",
            latin.count_latin_squares(6), latin.LATIN_SQUARE_COUNTS[6])

    if emit is not None:
        passed = sum(1 for i in rep.items if i.ok)
        emit(f"{passed}/{len(rep.items)} items passed")
    if report_path is not None:
        write_report(rep, report_path)
    return rep


def write_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
