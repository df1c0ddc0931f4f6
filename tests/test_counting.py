import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import packlab
from packlab.counting import (
    _conjugacy_class,
    _partitions,
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
from packlab.perms import cycle_type


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
    # the class path counts its last free row from row sets, the plain
    # enumeration by one matching call per matrix
    for d, k in ((2, 3), (3, 3), (3, 4), (3, 6), (4, 5), (5, 4), (6, 3)):
        plain = forbidden_count_brute(d, k, use_class_reduction=False)
        reduced = forbidden_count_brute(d, k, use_class_reduction=True)
        assert plain == reduced
    assert forbidden_count_brute(3, 7) == 0  # the largest k served from row sets


def _walked_conjugacy_classes(k: int) -> list:
    """(lexicographically smallest member, size) per cycle type of S_k, by
    walking all k! permutations in lexicographic order; classes in order of
    first appearance."""
    classes: dict = {}
    for p in itertools.permutations(range(1, k + 1)):
        entry = classes.setdefault(cycle_type(p), [p, 0])
        entry[1] += 1
        if p < entry[0]:
            entry[0] = p
    return [(rep, size) for rep, size in classes.values()]


@pytest.mark.parametrize("k", range(1, 9))
def test_conjugacy_classes_from_partitions_match_the_walk(k):
    classes = sorted(map(_conjugacy_class, _partitions(k)))
    assert classes == _walked_conjugacy_classes(k)
    assert sum(size for _, size in classes) == math.factorial(k)


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
    # 4 x 5 counts the last row of each of 93 depth-1 memo misses from row
    # sets, with no matching call; a sorted-mask memo per block missed 575 times
    import packlab.counting as counting

    calls = []
    real = counting._dead_ends

    def counter(k, cols):
        calls.append(k)
        return real(k, cols)

    monkeypatch.setattr(counting, "_dead_ends", counter)
    monkeypatch.setattr(counting, "has_perfect_matching", lambda adm: pytest.fail("matching call"))
    assert forbidden_count_brute(4, 5) == 27374400
    assert len(calls) == 93 < 575 / 4


def test_brute_force_l1_matches_w_even():
    # the --run-long criterion L1, a few seconds in one process
    assert forbidden_count_brute(4, 6) == w_even(4) == 367027200


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


def _mpmath_ceilings(X0, w):
    """(literal, first-order) ceilings from a plain 300-digit mpmath evaluation."""
    import mpmath

    with mpmath.workdps(300):
        n = mpmath.mpf(X0)
        x = n / w
        literal = mpmath.log(x / n) / mpmath.log(1 - 1 / x) + x
        first_order = x * mpmath.log(n / x) + x
        return int(mpmath.ceil(literal)), int(mpmath.ceil(first_order))


def test_certified_ceilings_match_high_precision_evaluation():
    rows = threshold_table(2, 11)
    assert len(rows) == 19
    for row in rows:
        got = (row.estimate_bound, row.estimate_bound_first_order)
        assert got == _mpmath_ceilings(row.X0, row.w), (row.d, row.flavour)


def test_certified_ceilings_match_mpmath_on_random_pairs():
    rng = random.Random(27)
    for _ in range(150):
        digits = rng.randint(1, 80)
        X0 = rng.randint(2, 10**digits)
        # half of the pairs keep w small, so x = X0/w reaches 80 digits
        w_max = X0 - 1 if rng.random() < 0.5 else min(X0 - 1, 10 ** rng.randint(0, 3))
        w = rng.randint(1, w_max)
        got = (estimate_bound(X0, w), estimate_bound_first_order(X0, w))
        assert got == _mpmath_ceilings(X0, w), (X0, w)


def test_certified_ceilings_on_the_small_grid():
    # in this grid the literal form is an exact integer, log_2(w) + 2, only at these four pairs
    refused = {(4, 2), (8, 4), (16, 8), (32, 16)}
    for X0 in range(2, 41):
        assert estimate_bound_first_order(X0, 1) == X0
        for w in range(1, X0):
            literal, first_order = _mpmath_ceilings(X0, w)
            assert estimate_bound_first_order(X0, w) == first_order, (X0, w)
            if (X0, w) in refused:
                continue
            assert estimate_bound(X0, w) == literal, (X0, w)
    for X0, w in sorted(refused):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            estimate_bound(X0, w)
        assert time.perf_counter() - start < 1.0  # refused at the precision cap, not after seconds


@pytest.mark.parametrize("X0, w", [(10, 0), (-10, -2), (10, 10), (10, 20)])
def test_estimates_need_w_between_zero_and_X0(X0, w):
    with pytest.raises(ValueError):
        estimate_bound(X0, w)
    with pytest.raises(ValueError):
        estimate_bound_first_order(X0, w)


def test_sci3_directions():
    assert sci3(Fraction(199926, 100000) * 10**28, "down") == "1.99e28"
    assert sci3(Fraction(199926, 100000) * 10**28, "nearest") == "2.00e28"
    assert sci3(59639124364315198143459, "up") == "5.97e22"
    assert sci3(1, "down") == "1.00e0"
    assert sci3(Fraction(9995, 10), "up") == "1.00e3"
    with pytest.raises(ValueError):
        sci3(0)


def _sci3_value(text):
    """(mantissa, exponent, exact value) of a sci3 string."""
    match = re.fullmatch(r"([1-9])\.(\d\d)e(-?\d+)", text)
    assert match, text
    mant, exp = int(match[1] + match[2]), int(match[3])
    return mant, exp, Fraction(mant, 100) * Fraction(10) ** exp


def test_sci3_brackets_and_rounds_against_exact_fractions():
    rng = random.Random(3)
    values = []
    for _ in range(2000):
        num, den = rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(0, 30))
        values.append(Fraction(num, den))
        # an exact half of the third digit, which 'nearest' rounds up
        half = Fraction(2 * rng.randint(100, 999) + 1, 200)
        values.append(half * Fraction(10) ** rng.randint(-20, 20))
    for value in values:
        mant, exp, down = _sci3_value(sci3(value, "down"))
        assert 100 <= mant <= 999
        unit = Fraction(10) ** (exp - 2)  # one unit of the value's third digit
        assert down <= value < down + unit
        mant, _, up = _sci3_value(sci3(value, "up"))
        assert 100 <= mant <= 999
        assert value <= up < value + unit
        mant, _, nearest = _sci3_value(sci3(value, "nearest"))
        assert 100 <= mant <= 999
        assert abs(nearest - value) <= unit / 2
        if abs(nearest - value) == unit / 2:
            assert nearest > value


def test_thresholds_and_reproduction_leave_mpmath_and_the_decimal_context_alone():
    script = (
        "import decimal, sys\n"
        "ctx = decimal.getcontext()\n"
        "before = repr(ctx)\n"
        "from packlab.counting import threshold_table\n"
        "from packlab.reproduction import run_reproduction\n"
        "threshold_table(3, 11)\n"
        "assert run_reproduction(emit=None).ok\n"
        "assert 'mpmath' not in sys.modules\n"
        "assert decimal.getcontext() is ctx and repr(ctx) == before, repr(ctx)\n"
    )
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
