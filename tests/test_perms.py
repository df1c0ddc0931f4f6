import itertools
import random

import pytest

from packlab.errors import ResourceLimitError
from packlab.perms import (
    all_permutations,
    compose,
    cycle_type,
    identity,
    inverse,
    is_derangement_of,
    is_permutation,
    parity,
    perm_from_str,
    perm_to_str,
    sign,
    validate_permutation,
)

EVEN_3 = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
ODD_3 = {(2, 1, 3), (1, 3, 2), (3, 2, 1)}


def random_perm(rng, k):
    p = list(range(1, k + 1))
    rng.shuffle(p)
    return tuple(p)


def test_identity():
    assert identity(3) == (1, 2, 3)
    assert inverse(identity(4)) == identity(4)
    with pytest.raises(ValueError):
        identity(0)


def test_identity_laws():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 7)
        p = random_perm(rng, k)
        assert compose(identity(k), p) == p
        assert compose(p, identity(k)) == p
        assert compose(p, inverse(p)) == identity(k)
        assert compose(inverse(p), p) == identity(k)


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2, 3))
    assert not is_permutation((0, 1))
    assert not is_permutation(())
    with pytest.raises(ValueError):
        validate_permutation((1, 1))


def test_compose_is_right_to_left():
    # p(q(j)): q sends 1 -> 2, p sends 2 -> 3, so the composite sends 1 -> 3
    p = (1, 3, 2)
    q = (2, 1, 3)
    assert compose(p, q) == (3, 1, 2)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_parity_of_the_six_elements():
    for p in EVEN_3:
        assert parity(p) == "even"
    for p in ODD_3:
        assert parity(p) == "odd"


def test_parity_multiplies():
    rng = random.Random(2)
    for _ in range(200):
        k = rng.randint(1, 7)
        p, q = random_perm(rng, k), random_perm(rng, k)
        assert sign(compose(p, q)) == sign(p) * sign(q)


def test_derangement_examples():
    assert not is_derangement_of((1, 2, 3), (1, 2, 3))
    assert is_derangement_of((2, 1, 3), (1, 3, 2))
    assert is_derangement_of((1, 2, 3), (2, 3, 1))
    with pytest.raises(ValueError):
        is_derangement_of((1, 2), (1, 2, 3))


def test_derangement_symmetry_and_fixed_point_form():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 6)
        p, q = random_perm(rng, k), random_perm(rng, k)
        d = is_derangement_of(p, q)
        assert d == is_derangement_of(q, p)
        assert d == all(v != j + 1 for j, v in enumerate(compose(q, inverse(p))))


@pytest.mark.parametrize("k,count", [(1, 1), (3, 6), (5, 120)])
def test_all_permutations_count(k, count):
    assert sum(1 for _ in all_permutations(k)) == count


def test_all_permutations_lex_order_and_distinct():
    for k in range(1, 8):
        perms = list(all_permutations(k))
        assert perms == sorted(perms)
        assert len(set(perms)) == len(perms)
        assert perms[0] == identity(k)
        if k > 6:
            continue
        for p in perms:
            lengths = cycle_type(p)
            assert sum(lengths) == k and list(lengths) == sorted(lengths)
            inversions = sum(a > b for a, b in itertools.combinations(p, 2))
            assert sign(p) == (-1) ** (k - len(lengths)) == (-1) ** inversions


def test_all_permutations_limit():
    with pytest.raises(ResourceLimitError):
        all_permutations(10)
    assert next(all_permutations(9)) == identity(9)


def test_serialization_round_trip():
    assert perm_to_str((2, 1, 3)) == "(2,1,3)"
    assert perm_from_str("(2,1,3)") == (2, 1, 3)
    for p in itertools.permutations((1, 2, 3, 4)):
        assert perm_from_str(perm_to_str(p)) == p
    with pytest.raises(ValueError):
        perm_from_str("2,1,3")
    with pytest.raises(ValueError):
        perm_from_str("(2,2,3)")
    for not_text in (12, None, [2, 1, 3], (2, 1, 3)):
        with pytest.raises(ValueError):
            perm_from_str(not_text)
