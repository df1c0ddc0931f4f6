"""One-shot reproduction of every desk-scale reference value.

The criteria C1-C13 are defined here and nowhere else: each criterion
function recomputes its quantities from scratch and returns one ``Item`` per
reported value.  ``run_reproduction`` and the acceptance suite
(``tests/test_acceptance.py``) both run the tuples ``CRITERIA`` and
``LONG_CRITERIA`` of zero-argument criteria, in one process.  The runner
prints one pass/fail line per item, keeps going after failures, and can
emit the whole report as structured JSON.  The long items (hundreds of
millions of matrix checks, exact chromatic numbers of K_{4,4}) only run
when requested.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import __version__, cases, counting, latin, search
from .certificates import make_certificate, verify_certificate, witness_dict_for_lists
from .covers import k22_unpackable_cover
from .packing import PackingMatrix, brute_force_extension, find_common_derangement
from .perms import all_permutations, compose, sign

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

NOTES = (
    "estimate forms: the literal expression log_{1-1/x}(x/X0) + x and its "
    "first-order weakening x log(X0/x) + x are both reported; the floored "
    "iteration values are the authoritative construction lengths",
    "d=9 lower bound: exact value 9.909...e52 (printed reference: 9.90e53; "
    "mantissa agrees, exponent off by one)",
)


@dataclass
class Item:
    item_id: str
    title: str
    computed: object
    expected: object
    ok: bool
    note: str | None = None


def _item(item_id, title, computed, expected, ok=None, note=None) -> Item:
    """An item that passes when ``ok`` holds, by default when computed == expected."""
    ok = computed == expected if ok is None else ok
    return Item(item_id, title, computed, expected, bool(ok), note)


def item_lines(item: Item) -> list[str]:
    """The report lines of one item: its PASS/FAIL line, then its note if any."""
    status = "PASS" if item.ok else "FAIL"
    lines = [f"[{status}] {item.item_id}: {item.title} (computed={item.computed!r})"]
    if item.note:
        lines.append(f"       note: {item.note}")
    return lines


@dataclass
class Report:
    items: list[Item] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

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


def base_pair_split() -> tuple[set, set]:
    """The 36 base pairs (p, q) of d=2, k=3 blocked at each vertex of the K_{2,2} cover."""
    cover = k22_unpackable_cover()
    blocked_v1, blocked_v2 = set(), set()
    for p in all_permutations(3):
        for q in all_permutations(3):
            if find_common_derangement(PackingMatrix(k=3, rows=(p, q))) is None:
                blocked_v1.add((p, q))
            twisted = tuple(compose(cover.sigma[i][1], row) for i, row in enumerate((p, q)))
            if find_common_derangement(PackingMatrix(k=3, rows=twisted)) is None:
                blocked_v2.add((p, q))
    return blocked_v1, blocked_v2


def engine_disagreements(rng: random.Random, samples: int) -> int:
    """Random matrices on which the matching engine and brute force disagree.

    A disagreement is a different verdict, or an engine extension that
    meets some row in a position.
    """
    disagreements = 0
    for _ in range(samples):
        d = rng.randint(1, 3)
        k = rng.randint(2, 5)
        rows = []
        for _ in range(d):
            row = list(range(1, k + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        m = PackingMatrix(k=k, rows=tuple(rows))
        ext = find_common_derangement(m)
        if (ext is None) != (brute_force_extension(m) is None) or (
            ext is not None and any(ext[j] == row[j] for row in m.rows for j in range(k))
        ):
            disagreements += 1
    return disagreements


# ---------------------------------------------------------------------------
# the criteria, in report order
# ---------------------------------------------------------------------------


def c1() -> list[Item]:
    return [_item("C1", "unextendable pair count for d=2, k=3 is 18 of 36",
                  counting.forbidden_count_brute(2, 3), 18)]


def c2() -> list[Item]:
    blocked_v1, blocked_v2 = base_pair_split()
    pairs = list(itertools.product(all_permutations(3), repeat=2))
    # the two parity classes partition the 36 pairs, so no pair is blocked twice
    parity_ok = (
        blocked_v1 == {(p, q) for p, q in pairs if sign(p) != sign(q)}
        and blocked_v2 == {(p, q) for p, q in pairs if sign(p) == sign(q)}
    )
    return [_item("C2", "36 base pairs split 18/18 by parity across the two vertices",
                  {"v1": len(blocked_v1), "v2": len(blocked_v2)}, {"v1": 18, "v2": 18},
                  ok=parity_ok)]


def c3() -> list[Item]:
    return [
        _item("C3a", "hard 3-fold cover of K_{2,2} admits no packing",
              search.decide_correspondence_packing(k22_unpackable_cover()) is None, True),
        _item("C3b", "correspondence packing number of K_{2,2} is 4",
              search.chi_c_star_exact(2, 2), 4),
    ]


def c4() -> list[Item]:
    return [
        _item("C4a", "w_odd(3) = brute count (d=3, k=5) = 9600",
              (counting.w_odd(3), counting.forbidden_count_brute(3, 5)), (9600, 9600)),
        _item("C4b", "w_even(3) = brute count (d=3, k=4) = 1920",
              (counting.w_even(3), counting.forbidden_count_brute(3, 4)), (1920, 1920)),
    ]


def c5() -> list[Item]:
    expected_sci = dict(REFERENCE_LOWER_SCI)
    expected_sci[KNOWN_EXPONENT_ERRATUM_D] = "9.90e52"
    return [
        _item("C5a", "x(d) for d = 2..5",
              [counting.x_ratio(d) for d in (2, 3, 4, 5)],
              [Fraction(REFERENCE_LOWER_EXACT[d]) for d in (2, 3, 4, 5)]),
        _item("C5b", "x(6) exact", counting.x_ratio(6), Fraction(REFERENCE_LOWER_EXACT[6])),
        _item("C5c", "x(7) is non-integral", counting.x_ratio(7).denominator > 1, True),
        _item("C5d", "x(d) to 3 significant digits for d = 7..11",
              {d: counting.sci3(counting.x_ratio(d), "down") for d in range(7, 12)},
              expected_sci,
              note="reference table prints the d=9 entry as 9.90e53; the exact value is "
                   "9.909...e52, so the mantissa matches and the exponent is off by one there"),
    ]


def c6() -> list[Item]:
    start = {d: math.factorial(2 * d - 2) ** d for d in (3, 4)}
    iter_vals = {d: counting.iteration_bound(start[d], counting.w_even(d)) for d in (3, 4)}
    est_literal = {d: counting.estimate_bound(start[d], counting.w_even(d)) for d in (3, 4)}
    est_first_order = {
        d: counting.estimate_bound_first_order(start[d], counting.w_even(d)) for d in (3, 4)
    }
    dominated = all(est_literal[d] >= iter_vals[d] for d in (3, 4))
    return [
        _item("C6a", "floored iteration counts for d = 3, 4", iter_vals, REFERENCE_ITERATION),
        _item("C6b", "estimates dominate the iteration counts", dominated, True,
              note=f"literal estimate gives {est_literal}, first-order estimate gives "
                   f"{est_first_order}; the reference brackets {REFERENCE_BRACKETED_ESTIMATE} "
                   f"match the first-order form exactly, the literal form stays within "
                   f"[54, 69] for d=3 as expected"),
        _item("C6c", "first-order estimate reproduces the bracketed values",
              est_first_order, REFERENCE_BRACKETED_ESTIMATE),
    ]


def c7() -> list[Item]:
    rows = counting.threshold_table(3, 11)
    uppers = {r.d: r for r in rows if r.flavour == "upper_2d_minus_1"}
    lowers = {r.d: r.ratio for r in rows if r.flavour == "lower_2d"}
    return [
        _item("C7", "computed upper bound < x(d) for every d in 3..11",
              all(Fraction(uppers[d].best_upper) < lowers[d] for d in range(3, 12)), True),
        _item("C7b", "reference-style upper estimates to 3 significant digits, d = 7..11",
              {d: counting.sci3(Fraction(uppers[d].reference_upper), "up") for d in range(7, 12)},
              REFERENCE_UPPER_SCI),
    ]


def c8() -> list[Item]:
    cov23, _ = search.greedy_unpackable_cover(2, 3)
    cov34, trace34 = search.greedy_unpackable_cover(3, 4)
    x34 = Fraction(trace34[0], counting.w_even(3) // math.factorial(4))
    trace_ok = all(
        trace34[s] <= (trace34[s - 1] * (x34 - 1)) / x34 for s in range(1, len(trace34))
    )
    cert34 = make_certificate("no_k_packing", cov34, None, generator="greedy")
    verified = bool(verify_certificate(cert34))
    return [
        _item("C8a", "greedy unpackable cover for d=2, k=3 has 2 vertices", cov23.t, 2),
        _item("C8b", "greedy cover for d=3, k=4: size <= 62, decaying trace, verified",
              {"t": cov34.t, "trace_ok": trace_ok, "verified": verified},
              {"t": cov34.t, "trace_ok": True, "verified": True},
              ok=cov34.t <= 62 and trace_ok and verified,
              note=f"achieved t = {cov34.t} (target 54)"),
    ]


def c9() -> list[Item]:
    a10 = cases.a10_assignment()
    w10 = search.decide_list_packing(a10)
    verified = w10 is not None and verify_certificate(make_certificate(
        "packing_witness", a10, witness_dict_for_lists(w10.u_rows, w10.v_rows), generator="decide"
    )).accepted
    return [
        _item("C9a", "nine transversal lists against disjoint triples: unpackable",
              search.decide_list_packing(cases.k39_assignment()) is None, True),
        _item("C9b", "sides 5 and 6 reference assignment: unpackable",
              search.decide_list_packing(cases.k65_assignment()) is None, True),
        _item("C9c", "type-10 lists against the eight transversals: packable",
              verified, True),
    ]


def c10() -> list[Item]:
    extends = all(
        cases.check_case_matrix(cases.CASE_MATRICES[i], lst)
        for i in (1, 2, 3, 4, 5)
        for lst in itertools.combinations(range(1, 11), 3)
    )
    base = cases.CASE_MATRICES[11]
    blocked = {
        lst
        for third in ((5, 6, 7), (6, 7, 5), (7, 5, 6))
        for lst in itertools.combinations(range(1, 8), 3)
        if not cases.check_case_matrix((base[0], base[1], third), lst)
    }
    return [
        _item("C10a", "twelve types of distinct 3-list triples",
              (len(cases.u_side_list_types()),
               len(cases.enumerate_triple_types(3, allow_repeats=False))),
              (12, 12)),
        _item("C10b", "reference matrices 1-5 extend for every candidate list", extends, True),
        _item("C10c", "type-11 arrangements are blocked exactly by {3,4,5},{3,4,6},{3,4,7}",
              sorted(blocked), [(3, 4, 5), (3, 4, 6), (3, 4, 7)]),
    ]


def c11() -> list[Item]:
    return [_item("C11", "correspondence chromatic numbers of K_{3,5} and K_{3,6}",
                  (search.chi_c_exact(3, 5), search.chi_c_exact(3, 6)), (3, 4))]


def c12() -> list[Item]:
    return [
        _item("C12a", "N(1..5) by enumeration",
              [latin.count_latin_squares(n) for n in range(1, 6)], [1, 2, 12, 576, 161280]),
        _item("C12b", "rectangle-square bijection for n <= 5",
              [latin.count_latin_rectangles(n - 1, n) for n in range(2, 6)],
              [latin.count_latin_squares(n) for n in range(2, 6)]),
    ]


def c13() -> list[Item]:
    """Spot checks; the full property suites live in the tests."""
    budget = search.SearchBudget(max_candidates=200_000, seed=7)
    one, two = (search.random_unpackable_cover_search(2, 3, 2, budget) for _ in range(2))
    return [
        _item("C13a", "matching engine agrees with brute force on 2000 random matrices",
              engine_disagreements(random.Random(20240 + 13), 2000), 0),
        _item("C13b", "seeded search identical on a repeat run", one == two, True),
    ]


def l1() -> list[Item]:
    return [_item("L1", "w_even(4) = brute count (d=4, k=6) = 367027200",
                  counting.forbidden_count_brute(4, 6), counting.w_even(4))]


def l2() -> list[Item]:
    """Stated expectation: chi_c(K_{4,4}) = 3.  The computation refutes it:
    an explicit uncolourable 3-fold cover of K_{4,4} exists (see
    tests/test_search.py::test_chi_c_k44_counterexample for the verified
    construction, and the README section "Known discrepancies" and
    demos/07_k44_cover.py for the analysis), so the exact value is 4 and this
    item stays red on purpose rather than being loosened."""
    return [_item("L2", "correspondence chromatic number of K_{4,4} is 3",
                  search.chi_c_exact(4, 4), 3,
                  note="refuted: an explicit uncolourable 3-fold cover of K_{4,4} exists "
                       "(fold 4 is settled by the counting ceiling 4*24 < 256), so the "
                       "exact value is 4; the expected value 3 is kept as stated and "
                       "this item reports the mismatch honestly")]


def l3() -> list[Item]:
    return [_item("L3", "N(6) by enumeration matches the stored constant",
                  latin.count_latin_squares(6), latin.LATIN_SQUARE_COUNTS[6])]


CRITERIA: tuple[Callable[[], list[Item]], ...] = (
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13,
)
#: run only with ``long``: the slow cross-checks, each called like ``CRITERIA``
LONG_CRITERIA: tuple[Callable[[], list[Item]], ...] = (l1, l2, l3)


def run_reproduction(
    long: bool = False,
    emit: Callable[[str], None] | None = print,
) -> Report:
    report = Report(notes=list(NOTES))
    criteria = CRITERIA + LONG_CRITERIA if long else CRITERIA
    for criterion in criteria:
        for item in criterion():
            report.items.append(item)
            if emit is not None:
                for line in item_lines(item):
                    emit(line)
    if emit is not None:
        emit(f"{sum(1 for i in report.items if i.ok)}/{len(report.items)} items passed")
    return report
