"""Tests of the benchmark itself (not part of packlab's own suite).

    python3 -m pytest perfbench/tests -q      # or: python3 -m unittest discover perfbench/tests

The count cross-checks take about half a minute: they recompute the
recorded expected values by paths independent of the ones the benchmark
times, which is why they live here and never inside a timed pass.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import packlab.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

lab = packlab
EXPECTED = workloads.load_expected(os.path.join(BENCH, "expected.json"))


def _failures(checks) -> list[str]:
    return [name for name, ok in checks if not ok]


def _latin_rectangles_by_discordant_derangements(r: int, n: int) -> int:
    """r x n Latin rectangles counted without latin.py's enumerator.

    With the first row fixed to the identity, the other r-1 rows are
    derangements that pairwise differ in every position; the count of such
    ordered (r-1)-tuples times n! is the rectangle count.
    """
    ders = [p for p in itertools.permutations(range(n)) if all(p[i] != i for i in range(n))]
    compatible = {
        a: {b for b in ders if all(a[i] != b[i] for i in range(n))} for a in ders
    }

    def extend(candidates: set, rows_left: int) -> int:
        if rows_left == 0:
            return 1
        return sum(extend(candidates & compatible[p], rows_left - 1) for p in candidates)

    return math.factorial(n) * extend(set(ders), r - 1)


class CountExpectedValues(unittest.TestCase):
    """The recorded count values, recomputed by independent paths."""

    def test_brute_counts_without_class_reduction(self):
        want = EXPECTED["count"]
        count = lab.counting.forbidden_count_brute
        self.assertEqual(count(4, 5, workers=1, use_class_reduction=False), want["brute.4x5"])
        self.assertEqual(count(5, 4, workers=1, use_class_reduction=False), want["brute.5x4"])
        # the timed 3 x 6 case is the plain enumeration; cross-check with the class path
        self.assertEqual(count(3, 6, workers=1, use_class_reduction=True), want["brute.3x6"])

    def test_latin_rectangle_4x6_independently(self):
        self.assertEqual(_latin_rectangles_by_discordant_derangements(4, 6), EXPECTED["count"]["rect.4x6"])

    def test_rectangles_one_row_short_give_latin_square_counts(self):
        # an (n-1) x n Latin rectangle completes in exactly one way
        for n in range(2, 7):
            self.assertEqual(
                lab.latin.count_latin_rectangles(n - 1, n), lab.latin.LATIN_SQUARE_COUNTS[n]
            )
        self.assertEqual(lab.latin.count_latin_rectangles(5, 5), lab.latin.LATIN_SQUARE_COUNTS[5])


class CorrectnessGate(unittest.TestCase):
    """Negative controls: a wrong expected value must show as a failure."""

    def test_reproduce_negative_control(self):
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.run_workload(lab, "reproduce", {}, tracing.NullTracer(), workdir)
        self.assertEqual(_failures(workloads.reproduce_check(lab, {}, ops.results, EXPECTED)), [])
        wrong = dict(EXPECTED)
        wrong["reproduce"] = [dict(item) for item in EXPECTED["reproduce"]]
        wrong["reproduce"][0]["computed"] = 19  # C1 is 18
        failures = _failures(workloads.reproduce_check(lab, {}, ops.results, wrong))
        self.assertEqual(failures, ["report.C1"])

    def test_count_negative_control(self):
        inputs = workloads.count_inputs(lab, 7)
        results = dict(EXPECTED["count"])
        for i, batch in enumerate(inputs["batches"]):
            results[f"queries.{i}"] = workloads._query_batch(lab, batch)
        self.assertEqual(_failures(workloads.count_check(lab, inputs, results, EXPECTED)), [])
        wrong = {"count": dict(EXPECTED["count"], **{"brute.4x5": 27374401})}
        self.assertEqual(_failures(workloads.count_check(lab, inputs, results, wrong)), ["brute.4x5"])
        # a wrong witness in one query batch fails that batch
        results["queries.3"] = [(None, True)] + results["queries.3"][1:]
        self.assertIn("queries.3", _failures(workloads.count_check(lab, inputs, results, EXPECTED)))

    def test_exception_and_determinism_mismatch_fail(self):
        ops = workloads.Ops()
        ops.call("chi_l_star.3x9", lambda: 1 // 0)
        cover = lab.k22_unpackable_cover()
        ops.results.update({
            "hunt.5.w1": cover, "hunt.5.w1.cert": "a",
            "hunt.5.w2": cover, "hunt.5.w2.cert": "b",
        })
        failures = _failures(
            workloads.construct_check(lab, {"hunt_seeds": [5]}, ops.results, EXPECTED)
        )
        self.assertIn("chi_l_star.3x9", failures)
        self.assertIn("hunt.5.w2", failures)


class Tracing(unittest.TestCase):
    def test_wraps_imported_names_and_computes_self_time(self):
        original = lab.packing.has_perfect_matching
        tracer = tracing.Tracer(pass_id=0)
        tracer.install()
        try:
            for module in (lab.packing, lab.counting, lab.search, lab.cases, lab.certificates):
                self.assertIs(module.has_perfect_matching.__wrapped__, original)
            self.assertEqual(lab.counting.forbidden_count_brute(2, 3, workers=1), 18)
            lab.latin.count_latin_squares(4)
        finally:
            tracer.uninstall()
        self.assertIs(lab.counting.has_perfect_matching, original)
        counts = tracer.final_counts()
        self.assertEqual(counts["hpm"], 6)  # 3! second rows, first row pinned
        names = [s.name for s in tracer.spans]
        self.assertEqual(
            names,
            ["counting.forbidden_count_brute", "latin.count_latin_rectangles",
             "latin.count_latin_squares"],
        )
        rect, square = tracer.spans[1], tracer.spans[2]
        self.assertEqual(rect.parent, square.span_id)
        selfs = tracing.self_times(tracer.spans)
        self.assertAlmostEqual(selfs[square.span_id], square.seconds - rect.seconds, places=9)
        metrics = tracing.layer_metrics(tracer.spans, counts)
        self.assertEqual(metrics["latin.calls"], 2)
        self.assertEqual(metrics["latin.distinct_ratio"], 0.5)  # both ask for (4, 4)


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
