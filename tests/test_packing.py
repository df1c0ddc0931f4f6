import hashlib
import itertools
import random

import pytest

from packlab.blocking import arrangements
from packlab.cases import _hall_cuts, enumerate_triple_types
from packlab.packing import (
    PackingMatrix,
    admissible_masks,
    brute_force_extension,
    classify_obstructions,
    find_common_derangement,
    forbidden_witness_latin_structure,
    hall_violators,
    has_perfect_matching,
    is_forbidden,
    lex_smallest_system,
)
from packlab.perms import all_permutations, compose, identity, is_derangement_of

# the three 4 x 6 reference matrices, one per maximal obstruction shape
# (rows are the four colour vectors)
REF_32 = PackingMatrix(k=6, rows=((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5),
                                  (3, 4, 2, 5, 1, 6), (4, 3, 1, 6, 5, 2)))
REF_42 = PackingMatrix(k=6, rows=((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5),
                                  (3, 4, 2, 1, 5, 6), (4, 3, 1, 2, 5, 6)))
REF_43 = PackingMatrix(k=6, rows=((1, 2, 3, 6, 5, 4), (2, 1, 6, 3, 4, 5),
                                  (3, 4, 2, 1, 5, 6), (4, 3, 1, 2, 5, 6)))


def random_matrix(rng, d, k):
    rows = []
    for _ in range(d):
        row = list(range(1, k + 1))
        rng.shuffle(row)
        rows.append(tuple(row))
    return PackingMatrix(k=k, rows=tuple(rows))


def planted_matrix(rng, d, k):
    """A random d x k matrix whose columns at s random positions all hold the
    same m colours: s columns of a shifted cyclic d x d Latin square whose
    symbols below m are shared colours, every other cell filled at random."""
    s, m = rng.randint(1, d), rng.randint(1, d)
    colours = rng.sample(range(1, k + 1), k)
    positions = rng.sample(range(k), k)
    shift = rng.sample(range(d), d)
    rows = []
    for i in range(d):
        row = [0] * k
        for t in range(s):
            x = (shift[i] + t) % d
            if x < m:
                row[positions[t]] = colours[x]
        rest = [c for c in colours if c not in row]
        rng.shuffle(rest)
        rows.append(tuple(c or rest.pop() for c in row))
    return PackingMatrix(k=k, rows=tuple(rows))


def assert_sound(matrix, ext):
    for row in matrix.rows:
        assert is_derangement_of(ext, row)


def test_find_common_derangement_examples():
    assert find_common_derangement(PackingMatrix(k=3, rows=((1, 2, 3), (2, 1, 3)))) is None

    m = PackingMatrix(k=3, rows=((1, 2, 3), (1, 2, 3)))
    ext = find_common_derangement(m)
    assert ext is not None
    assert_sound(m, ext)
    assert ext == (2, 3, 1)  # lexicographically smallest derangement

    assert find_common_derangement(PackingMatrix(k=2, rows=((1, 2),))) == (2, 1)


def test_is_forbidden_reference_matrices():
    assert is_forbidden(REF_32)
    assert is_forbidden(REF_42)
    assert is_forbidden(REF_43)


def test_is_forbidden_easy_cases():
    ident5 = identity(5)
    assert not is_forbidden(PackingMatrix(k=5, rows=(ident5, ident5, ident5)))
    assert not is_forbidden(PackingMatrix(k=3, rows=((1, 2, 3), (2, 3, 1))))
    assert brute_force_extension(PackingMatrix(k=3, rows=((1, 2, 3), (2, 3, 1)))) is not None


def test_matching_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(3000):
        d = rng.randint(1, 3)
        k = rng.randint(2, 5)
        m = random_matrix(rng, d, k)
        ext = find_common_derangement(m)
        oracle = brute_force_extension(m)
        assert (ext is None) == (oracle is None)
        if ext is not None:
            assert_sound(m, ext)
            assert ext == oracle  # both are lexicographically smallest


def test_brute_force_extension_is_the_first_admissible_permutation():
    # the definition: the first permutation in itertools order that differs
    # from every row in every position; more rows than colours included
    rng = random.Random(0xB207E)
    found = lost = tall = 0
    for _ in range(1500):
        k = rng.randint(1, 6)
        d = rng.randint(1, k + 2)
        m = random_matrix(rng, d, k)
        expected = next(
            (
                p
                for p in itertools.permutations(range(1, k + 1))
                if all(p[j] != row[j] for row in m.rows for j in range(k))
            ),
            None,
        )
        assert brute_force_extension(m) == expected, m
        found += expected is not None
        lost += expected is None
        tall += d > k
    assert found > 500 and lost > 500 and tall > 300


def reference_matching_size(adm):
    """Size of a maximum matching: Kuhn's algorithm from every position."""
    k = len(adm)
    if k == 0:
        return 0
    n_colours = max(m.bit_length() for m in adm)
    match_colour = [-1] * n_colours  # colour index -> position index

    def augment(j, seen):
        avail = adm[j] & ~seen[0]
        while avail:
            bit = avail & -avail
            avail ^= bit
            seen[0] |= bit
            c = bit.bit_length() - 1
            if match_colour[c] == -1 or augment(match_colour[c], seen):
                match_colour[c] = j
                return True
        return False

    return sum(augment(j, [0]) for j in range(k))


def reference_lex_smallest_system(adm):
    """Fix positions left to right, each to the least colour the rest can follow."""
    k = len(adm)
    if reference_matching_size(adm) != k:
        return None
    chosen = []
    used = 0
    for j in range(k):
        avail = adm[j] & ~used
        while avail:
            bit = avail & -avail
            avail ^= bit
            rest = [adm[i] & ~(used | bit) for i in range(j + 1, k)]
            if reference_matching_size(rest) == k - j - 1:
                chosen.append(bit.bit_length())
                used |= bit
                break
    return tuple(chosen)


def random_masks(rng, k):
    """k masks over k to k + 3 colours, some empty, of one random density."""
    n_colours = k + rng.randint(0, 3)
    density = rng.random()
    return [
        0 if rng.random() < 0.05
        else sum(1 << c for c in range(n_colours) if rng.random() < density)
        for _ in range(k)
    ]


def first_fit(adm):
    """Each position its lowest colour not taken before it, or None when one has none."""
    taken = 0
    chosen = []
    for m in adm:
        free = m & ~taken
        if not free:
            return None
        taken |= free & -free
        chosen.append((free & -free).bit_length())
    return tuple(chosen)


def test_matching_kernel_matches_plain_kuhn():
    rng = random.Random(13)
    cases = [[], [0], [0, 1], [1, 1], [3, 3, 0], [0b101, 0b001]]  # the last: (3, 1)
    cases += [random_masks(rng, rng.randint(1, 9)) for _ in range(4000)]
    perfect = repaired = extra = 0
    for adm in cases:
        expected = reference_matching_size(adm) == len(adm)
        assert has_perfect_matching(adm) == expected, adm
        system = lex_smallest_system(adm)
        assert system == reference_lex_smallest_system(adm), adm
        perfect += expected
        if expected:
            # a first fit that completes is the lex-first system; the others
            # need augmenting paths, and some take a colour past len(adm)
            repaired += first_fit(adm) != system
            extra += max(system, default=0) > len(adm)
    assert 0.2 * len(cases) < perfect < 0.8 * len(cases)  # both answers are exercised
    assert repaired > 200 and extra > 200


@pytest.mark.parametrize("d,k", [(3, 4), (2, 5)])
def test_common_derangement_matches_brute_force_exhaustively(d, k):
    perms = list(all_permutations(k))
    for rows in itertools.product(perms, repeat=d - 1):
        m = PackingMatrix(k=k, rows=(identity(k),) + rows)
        assert find_common_derangement(m) == brute_force_extension(m), rows


def test_mask_builders_match_references():
    rng = random.Random(12)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        k = m.k
        columns = [{row[j] for row in m.rows} for j in range(k)]
        # default tables: bit c - 1 iff colour c is absent from the column
        assert admissible_masks(m.rows, k) == [
            sum(1 << (c - 1) for c in range(1, k + 1) if c not in column) for column in columns
        ]
        # a cover's tables: the rows seen through per-row matchings
        matchings = [random_matrix(rng, 1, k).rows[0] for _ in range(m.d)]
        composed = tuple(compose(s, row) for s, row in zip(matchings, m.rows))
        tables = [(0,) + tuple(1 << (s - 1) for s in matching) for matching in matchings]
        assert admissible_masks(m.rows, k, tables) == admissible_masks(composed, k)
        # a list's table: bit idx iff colours[idx] is absent from the column
        colours = sorted(rng.sample(range(1, 2 * k + 1), k))
        table = {c: 1 << colours.index(c) if c in colours else 0 for c in range(1, k + 1)}
        assert admissible_masks(m.rows, k, [table] * m.d) == [
            sum(1 << idx for idx, c in enumerate(colours) if c not in column)
            for column in columns
        ]


def test_obstruction_kinds_of_reference_matrices():
    assert classify_obstructions(REF_32).kind == (3, 2)
    assert classify_obstructions(REF_42).kind == (4, 2)
    assert classify_obstructions(REF_43).kind == (4, 3)


def test_obstruction_report_is_a_real_violator():
    for m in (REF_32, REF_42, REF_43):
        report = classify_obstructions(m)
        colours = set(report.colours)
        for j in report.positions:
            admissible = set(range(1, m.k + 1)) - {row[j - 1] for row in m.rows}
            assert admissible <= colours
        assert report.kind == (len(report.positions), len(report.colours))
        assert len(report.positions) > len(report.colours)


def test_classify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_obstructions(PackingMatrix(k=3, rows=((1, 2, 3), (2, 1, 3))))  # k != 2d-2
    extendable = PackingMatrix(k=4, rows=((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)))
    with pytest.raises(ValueError):
        classify_obstructions(extendable)


def test_exhaustive_obstruction_classification_d3():
    """Every forbidden 3 x 4 matrix gets exactly one legal kind; the kind
    counts match the inclusion-exclusion pieces of the closed form."""
    from packlab.counting import w_even_parts

    counts = {(2, 1): 0, (3, 1): 0, (3, 2): 0}
    total_forbidden = 0
    perms = list(all_permutations(4))
    for rows in itertools.product(perms, repeat=3):
        m = PackingMatrix(k=4, rows=rows)
        if not is_forbidden(m):
            continue
        total_forbidden += 1
        counts[classify_obstructions(m).kind] += 1
    assert total_forbidden == 1920
    w1, w2, w3 = w_even_parts(3)
    # maximal (2,1) matrices are the (2,1)-structures not inside a (3,1)
    assert counts == {(2, 1): w1 - 3 * w2, (3, 1): w2, (3, 2): w3}


def test_latin_witness_characterizes_forbidden_for_k_odd():
    # d=2, k=3: all 36 matrices
    for p in all_permutations(3):
        for q in all_permutations(3):
            m = PackingMatrix(k=3, rows=(p, q))
            witness = forbidden_witness_latin_structure(m)
            assert (witness is not None) == is_forbidden(m)
            if witness is not None:
                C, J = witness
                assert len(C) == len(J) == 2
    # spot values
    assert forbidden_witness_latin_structure(
        PackingMatrix(k=3, rows=((1, 2, 3), (2, 1, 3)))
    ) == ((1, 2), (1, 2))
    m5 = PackingMatrix(k=5, rows=((1, 2, 3, 4, 5), (2, 3, 1, 4, 5), (3, 1, 2, 4, 5)))
    assert is_forbidden(m5)
    assert forbidden_witness_latin_structure(m5) == ((1, 2, 3), (1, 2, 3))


def test_latin_witness_random_d3_k5():
    rng = random.Random(7)
    for _ in range(2000):
        m = random_matrix(rng, 3, 5)
        assert (forbidden_witness_latin_structure(m) is not None) == is_forbidden(m)


def test_latin_witness_k_even_mode():
    # for k = 2d-2 the witness is the (d-1)-position Latin-rectangle shape:
    # present for the (d-1,d-2)- and (d,d-2)-obstructed matrices only
    assert forbidden_witness_latin_structure(REF_32) is not None
    assert forbidden_witness_latin_structure(REF_42) is not None
    assert forbidden_witness_latin_structure(REF_43) is None
    with pytest.raises(ValueError):
        forbidden_witness_latin_structure(PackingMatrix(k=4, rows=((1, 2, 3, 4), (2, 1, 4, 3))))


def test_hall_violators_match_their_definition():
    """J is yielded iff the admissible colours of J (the OR of full & ~cols[j])
    number fewer than |J|, by size and then in combinations order."""
    rng = random.Random(32)
    found = 0
    for k in range(1, 8):
        full = (1 << k) - 1
        for _ in range(60):
            adm = [full] * k  # each the AND of 1..3 random masks, so violators occur
            for _ in range(rng.randint(1, 3)):
                adm = [a & rng.getrandbits(k) for a in adm]
            cols = [full & ~a for a in adm]
            expected = []
            for size in range(1, k + 1):
                for positions in itertools.combinations(range(k), size):
                    reach = 0
                    for j in positions:
                        reach |= full & ~cols[j]
                    if reach.bit_count() < size:
                        expected.append((positions, full & ~reach))
            assert list(hall_violators(cols)) == expected, cols
            found += len(expected)
    assert found > 1000


def test_violator_views_pinned():
    """One digest over the obstruction shapes, the Latin witnesses and the
    Hall cuts of seeded planted matrices (d = 3, 4, 5; k = 2d-2, 2d-1) and
    of 200 seeded arrangements of every triple type for k <= 4."""
    rng = random.Random(32)
    h = hashlib.sha256()
    for d, count in ((3, 600), (4, 600), (5, 150)):
        for k in (2 * d - 2, 2 * d - 1):
            for _ in range(count):
                m = planted_matrix(rng, d, k)
                h.update(repr(forbidden_witness_latin_structure(m)).encode())
                h.update(repr(sorted(_hall_cuts(m.rows))).encode())
                if k == 2 * d - 2 and is_forbidden(m):
                    h.update(repr(classify_obstructions(m)).encode())
    for k in range(1, 5):
        for triple in enumerate_triple_types(k, allow_repeats=True):
            candidates = list(arrangements(triple))
            for rows in rng.sample(candidates, min(200, len(candidates))):
                h.update(repr(sorted(_hall_cuts(rows))).encode())
    assert h.hexdigest() == "13db736615fec02ab937140697f9a8184cc337f6bfe2a2739858cfc1bef6cf18"


def test_forbiddenness_symmetries():
    rng = random.Random(11)
    for _ in range(2000):
        d = rng.randint(2, 3)
        k = rng.randint(3, 5)
        m = random_matrix(rng, d, k)
        base = is_forbidden(m)

        rows = list(m.rows)
        rng.shuffle(rows)
        assert is_forbidden(PackingMatrix(k=k, rows=tuple(rows))) == base

        relabel = list(range(1, k + 1))
        rng.shuffle(relabel)
        relabel = tuple(relabel)
        recoloured = tuple(compose(relabel, row) for row in m.rows)
        assert is_forbidden(PackingMatrix(k=k, rows=recoloured)) == base

        repositioned = tuple(compose(row, relabel) for row in m.rows)
        assert is_forbidden(PackingMatrix(k=k, rows=repositioned)) == base


def test_matrix_validation():
    with pytest.raises(ValueError):
        PackingMatrix(k=3, rows=((1, 2, 3), (1, 2)))
    with pytest.raises(ValueError):
        PackingMatrix(k=0, rows=())
