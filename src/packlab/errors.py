"""Exception types shared across the package, and the one work limit.

Contract violations (bad arguments, malformed files) raise ValueError or a
subclass; deliberate size refusals raise ResourceLimitError so callers can
tell "instance too big" apart from "no solution exists".

Every exhaustive scan states its worst-case step count up front, computed
from its input alone, and passes it to ``check_work`` before any work
starts.  The unit is one matrix entry or colour carried to one vertex for
the deciders and the verifier, one cover or matrix for the scans that
count those, one machine word for the mask builders, one (candidate,
list) pair for the list thresholds, one permutation entry for
``perms.all_permutations``, and one edge matching for a cover built from
its column picks; WORK_LIMIT bounds them all, and no call can
raise it.  Step counts charged in more than one place are defined once,
below ``check_work``.  Every count is exact up to 2^64 and capped past it,
so refusing a huge input takes a few multiplications: ``candidate_count``
gives the (k!)^(d-1) pinned candidates that every union bound and scan
over U matrices starts from, built with ``capped_product``.
"""

import itertools
from collections.abc import Iterable


class PackLabError(Exception):
    """Base class for packlab-specific errors."""


class ResourceLimitError(PackLabError):
    """An operation was refused or aborted because it exceeds a size limit."""


#: the most steps any exhaustive scan may take
WORK_LIMIT = 20_000_000


def check_work(steps: int, what: str) -> None:
    """Refuse ``what`` with ResourceLimitError when it needs more than WORK_LIMIT steps.

    Counts past 64 bits are named by their power of two: Python refuses to
    print integers of about 4300 digits and more, which k! reaches near
    k = 1560.
    """
    if steps > WORK_LIMIT:
        shown = steps if steps.bit_length() <= 64 else f"more than 2^{steps.bit_length() - 1}"
        raise ResourceLimitError(f"{what} needs {shown} steps, over the work limit {WORK_LIMIT}")


def capped_product(factors: Iterable[int]) -> int:
    """Product of positive factors, exact up to 2^64; past that, some value above 2^64.

    It stops at the first partial product past 2^64, so refusing k = 10^6
    takes a few multiplications, not k!.
    """
    product = 1
    for factor in factors:
        product *= factor
        if product > 1 << 64:
            break
    return product


def candidate_count(d: int, k: int) -> int:
    """(k!)^(d-1): the U matrices with the first row pinned, exact up to 2^64 and capped past it."""
    if k == 1:
        return 1  # 1^(d-1) for any d, without d - 1 factors
    return capped_product(itertools.repeat(capped_product(range(1, k + 1)), d - 1))


def packing_scan_steps(d: int, t: int, k: int) -> int:
    """(k!)^(d-1) candidates × t vertices × d·k entries."""
    return candidate_count(d, k) * t * d * k


def colouring_scan_steps(d: int, t: int, k: int) -> int:
    """k^d colourings × t vertices × d colours."""
    return k**d * t * d


def canonical_cover_count(d: int, t: int, k: int) -> int:
    """Canonical k-fold covers of K_{d,t}: multisets of t - 1 of the n = (k!)^(d-1) column types.

    C(n + t - 2, j) with j = min(t - 1, n - 1), built term by term; each
    term at least doubles, so past 2^64 the loop stops within 65 terms.
    """
    n = candidate_count(d, k)
    m, j = n + t - 2, min(t - 1, n - 1)
    count = 1
    for i in range(1, j + 1):
        count = count * (m - j + i) // i
        if count > 1 << 64:
            break
    return count


class MalformedInputError(PackLabError, ValueError):
    """A serialized instance or certificate failed structural validation."""
