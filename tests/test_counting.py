import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import packlab
from packlab.counting import (
    estimate_bound,
    estimate_bound_first_order,
    forbidden_count_brute,
    format_threshold_table,
    iteration_bound,
    sci3,
    threshold_table,
    w_even,
    w_even_parts,
    w_odd,
    x_ratio,
    y_ratio,
)
from packlab.errors import ResourceLimitError
from packlab.packing import PackingMatrix, brute_force_extension


def test_w_odd_values():
    assert w_odd(2) == 18
    assert w_odd(3) == 9600  # 100 * 8 * 12
    assert w_odd(4) == math.comb(7, 4) ** 2 * 6**4 * 576


def test_w_even_values():
    assert w_even(3) == 1920
    assert w_even(4) == 367027200  # 576 * 15 * 20 * (2592 - 468)


def test_w_even_inclusion_exclusion_pieces():
    for d in range(3, 8):
        w1, w2, w3 = w_even_parts(d)
        assert w_even(d) == w1 - (d - 1) * w2 + w3


def test_w_even_check_survives_optimize_flag():
    # python -O strips assert statements; the inclusion-exclusion check must still run
    script = (
        "import sys\n"
        "import packlab.counting as counting\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(4)\n"
        "counting.w_even_parts = lambda d: (0, 0, 0)\n"
        "try:\n"
        "    counting.w_even(4)\n"
        "except AssertionError:\n"
        "    sys.exit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert proc.returncode == 3


def test_domain_checks():
    with pytest.raises(ValueError):
        w_odd(1)
    with pytest.raises(ValueError):
        w_even(2)
    with pytest.raises(ValueError):
        w_odd(12)
    with pytest.raises(ValueError):
        w_even(12)


def test_brute_force_counts_match_closed_forms():
    assert forbidden_count_brute(2, 3) == 18
    assert forbidden_count_brute(3, 4) == w_even(3) == 1920
    assert forbidden_count_brute(3, 5) == w_odd(3) == 9600


def test_brute_force_class_reduction_is_exact():
    for d, k in ((2, 3), (3, 3), (3, 4)):
        plain = forbidden_count_brute(d, k, use_class_reduction=False)
        reduced = forbidden_count_brute(d, k, use_class_reduction=True)
        assert plain == reduced


def _plain_forbidden_count(d: int, k: int, pin_first_row: bool) -> int:
    """Unextendable d x k matrices, each judged by brute_force_extension.

    With pin_first_row only matrices whose first row is the identity are
    judged and the count is multiplied by k! (relabeling positions and
    colours alike); the pin is checked against the full product below.
    """
    perms = list(itertools.permutations(range(1, k + 1)))
    firsts = [perms[0]] if pin_first_row else perms
    count = sum(
        brute_force_extension(PackingMatrix(k, (first,) + rest)) is None
        for first in firsts
        for rest in itertools.product(perms, repeat=d - 1)
    )
    return count * math.factorial(k) if pin_first_row else count


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 4)])
def test_brute_force_counts_match_plain_enumeration(d, k):
    plain = _plain_forbidden_count(d, k, pin_first_row=True)
    if math.factorial(k) ** d <= 24**3:  # the whole product is affordable
        assert _plain_forbidden_count(d, k, pin_first_row=False) == plain
    for reduce in (False, True):
        assert forbidden_count_brute(d, k, use_class_reduction=reduce) == plain


def test_brute_force_single_row():
    # one row: blocked only when no derangement exists, i.e. k = 1
    assert forbidden_count_brute(1, 1) == 1
    assert forbidden_count_brute(1, 4) == 0


def test_brute_force_single_colour():
    # every row is (1), which nothing avoids: one matrix, blocked, at any d
    for reduce in (False, True):
        assert [forbidden_count_brute(d, 1, use_class_reduction=reduce) for d in (2, 3, 5)] == [1] * 3
    assert forbidden_count_brute(10**6, 1) == 1  # no row-by-row recursion


def test_brute_force_asks_one_matching_question_per_matrix(monkeypatch):
    # the first row is pinned, so (2, 3) judges the 3! second rows, each once
    import packlab.counting as counting

    calls = []
    real = counting.has_perfect_matching

    def recorder(adm):
        calls.append(tuple(adm))
        return real(adm)

    monkeypatch.setattr(counting, "has_perfect_matching", recorder)
    assert forbidden_count_brute(2, 3) == 18
    assert len(calls) == 6


def test_brute_force_class_blocks_share_one_orbit_keyed_memo(monkeypatch):
    # 4 x 5 judges the 5! full states below each of 93 depth-1 memo misses;
    # a sorted-mask memo per block missed 575 times (69 000 matrices)
    import packlab.counting as counting

    calls = 0
    real = counting.has_perfect_matching

    def counter(adm):
        nonlocal calls
        calls += 1
        return real(adm)

    monkeypatch.setattr(counting, "has_perfect_matching", counter)
    assert forbidden_count_brute(4, 5) == 27374400
    assert calls == 11160 < 69000 / 4


def test_brute_force_l1_matches_w_even():
    # the --run-long criterion L1, a few seconds in one process
    assert forbidden_count_brute(4, 6) == w_even(4) == 367027200


def test_brute_force_pool_has_at_most_one_process_per_block(monkeypatch):
    # a stand-in pool that records its size and maps in this process, so no
    # process is ever started
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert forbidden_count_brute(3, 4, workers=10_000) == 1920
    assert sizes == [5]  # one per conjugacy class of S_4


def test_brute_force_budget():
    with pytest.raises(ResourceLimitError):
        forbidden_count_brute(4, 6, use_class_reduction=False)


def test_x_values():
    assert x_ratio(2) == 2
    assert x_ratio(3) == 180
    assert x_ratio(4) == 705600
    assert x_ratio(5) == 308629440000
    assert x_ratio(6) == 7808216194437120000


def test_x_integrality_pattern():
    for d in range(2, 7):
        assert x_ratio(d).denominator == 1
    for d in range(7, 12):
        assert x_ratio(d).denominator > 1


def test_y_values():
    assert y_ratio(3) == Fraction(36, 5)
    assert y_ratio(4) == Fraction(math.factorial(6) ** 4, 367027200)


def test_iteration_bound_examples():
    assert iteration_bound(5, 5) == 1
    assert iteration_bound(13824, 1920) == 54
    assert iteration_bound(math.factorial(6) ** 4, 367027200) == 14853
    with pytest.raises(ValueError):
        iteration_bound(10, 0)
    with pytest.raises(ValueError):
        iteration_bound(10, 11)


def test_iteration_bound_equals_floored_map():
    # X - ceil(Xw/X0) is floor((1 - w/X0) X); check directly on small inputs
    rng = random.Random(10)
    for _ in range(50):
        X0 = rng.randint(2, 10**6)
        w = rng.randint(1, X0)
        x = Fraction(X0, w)
        X, steps = X0, 0
        while X > 0:
            X = math.floor(X * (1 - 1 / x))
            steps += 1
        assert iteration_bound(X0, w) == steps


def test_estimate_values():
    assert estimate_bound(13824, 1920) == 58
    assert estimate_bound_first_order(13824, 1920) == 62
    assert estimate_bound(math.factorial(6) ** 4, 367027200) == 15163
    assert estimate_bound_first_order(math.factorial(6) ** 4, 367027200) == 15172


def test_estimates_dominate_iteration():
    rng = random.Random(11)
    for _ in range(40):
        X0 = rng.randint(4, 10**5)
        w = rng.randint(max(1, X0 // 50), X0 // 2)  # keep x <= 50 so runs stay short
        it = iteration_bound(X0, w)
        assert estimate_bound(X0, w) >= it
        assert estimate_bound_first_order(X0, w) >= it


def test_certified_ceilings_match_high_precision_evaluation():
    import mpmath

    for d in (5, 7, 9, 11):
        X0 = math.factorial(2 * d - 2) ** d
        w = w_even(d)
        certified = estimate_bound_first_order(X0, w)
        with mpmath.workdps(300):
            x = mpmath.mpf(X0) / mpmath.mpf(w)
            direct = int(mpmath.ceil(x * mpmath.log(mpmath.mpf(X0) / x) + x))
        assert certified == direct


def test_sci3_directions():
    assert sci3(Fraction(199926, 100000) * 10**28, "down") == "1.99e28"
    assert sci3(Fraction(199926, 100000) * 10**28, "nearest") == "2.00e28"
    assert sci3(59639124364315198143459, "up") == "5.97e22"
    assert sci3(1, "down") == "1.00e0"
    assert sci3(Fraction(9995, 10), "up") == "1.00e3"
    with pytest.raises(ValueError):
        sci3(0)


def test_threshold_table_structure():
    rows = threshold_table(3, 11)
    uppers = {r.d: r for r in rows if r.flavour == "upper_2d_minus_1"}
    lowers = {r.d: r for r in rows if r.flavour == "lower_2d"}
    assert set(uppers) == set(lowers) == set(range(3, 12))
    for d, row in uppers.items():
        if row.iter_bound is not None:
            assert row.iter_bound <= row.estimate_bound
        assert Fraction(row.best_upper) < lowers[d].ratio  # strictly below x(d)
    # the floored iteration is affordable exactly for d <= 4
    assert uppers[3].iter_bound == 54
    assert uppers[4].iter_bound == 14853
    assert uppers[5].iter_bound is None


def test_threshold_table_reference_scientific_forms():
    rows = threshold_table(5, 11)
    uppers = {r.d: r.reference_upper for r in rows if r.flavour == "upper_2d_minus_1"}
    assert uppers[5] == 413809958
    assert uppers[6] == 551649401930292
    expected_up = {7: "5.97e22", 8: "4.73e32", 9: "3.02e44", 10: "1.63e58", 11: "7.72e73"}
    for d, text in expected_up.items():
        assert sci3(uppers[d], "up") == text
    lowers = {r.d: r.ratio for r in rows if r.flavour == "lower_2d"}
    expected_down = {7: "1.99e28", 8: "4.55e39", 10: "2.10e68", 11: "4.45e85"}
    for d, text in expected_down.items():
        assert sci3(lowers[d], "down") == text
    # the d=9 entry: exact value just below 1e53 (reference prints e53)
    assert sci3(lowers[9], "down") == "9.90e52"


def test_format_threshold_table_renders():
    text = format_threshold_table(threshold_table(3, 5))
    assert "180" in text and "705600" in text and "54" in text
