"""Exception types shared across the package, and the one work limit.

Contract violations (bad arguments, malformed files) raise ValueError or a
subclass; deliberate size refusals raise ResourceLimitError so callers can
tell "instance too big" apart from "no solution exists".

Every exhaustive scan states its worst-case step count up front, computed
from its input alone, and passes it to ``check_work`` before any work
starts.  The unit is one matrix entry or colour carried to one vertex for
the deciders and the verifier, one cover or matrix for the scans that
count those, one machine word for the mask builders, one (candidate,
list) pair for the list thresholds, and one permutation entry for
``perms.all_permutations``; WORK_LIMIT bounds them all, and no call can
raise it.  Step counts charged in more than one place are defined once,
below ``check_work``; a count whose factors are themselves too costly to
compute in full (k! for huge k) is taken with ``capped_product``.
"""

import math
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


def packing_scan_steps(d: int, t: int, k: int) -> int:
    """(k!)^(d-1) candidates × t vertices × d·k entries, or the k! × k row table."""
    return k * max(math.factorial(k), math.factorial(k) ** (d - 1) * t * d)


def colouring_scan_steps(d: int, t: int, k: int) -> int:
    """k^d colourings × t vertices × d colours."""
    return k**d * t * d


def canonical_cover_count(d: int, t: int, k: int) -> int:
    """Canonical k-fold covers of K_{d,t}: multisets of t - 1 of the (k!)^(d-1) column types."""
    return math.comb(math.factorial(k) ** (d - 1) + t - 2, t - 1)


class MalformedInputError(PackLabError, ValueError):
    """A serialized instance or certificate failed structural validation."""
