"""Exact computations for list- and correspondence-packing of K_{d,t}."""

__version__ = "0.1.0"

from .cases import (
    CASE_MATRICES,
    a10_assignment,
    check_case_matrix,
    chi_l_exact,
    chi_l_star_exact,
    k39_assignment,
    k65_assignment,
    u_side_list_types,
)
from .certificates import (
    Certificate,
    Metadata,
    VerifyResult,
    make_certificate,
    verify_certificate,
)
from .counting import (
    ThresholdRow,
    estimate_bound,
    estimate_bound_first_order,
    forbidden_count_brute,
    iteration_bound,
    sci3,
    threshold_table,
    w_even,
    w_odd,
    x_ratio,
    y_ratio,
)
from .covers import (
    CorrespondenceCover,
    ListAssignment,
    canonicalize,
    k22_unpackable_cover,
    make_assignment,
    standard_cover,
)
from .errors import MalformedInputError, PackLabError, ResourceLimitError
from .latin import LATIN_SQUARE_COUNTS, count_latin_rectangles, count_latin_squares, is_latin
from .packing import (
    ObstructionReport,
    PackingMatrix,
    classify_obstructions,
    find_common_derangement,
    forbidden_witness_latin_structure,
    is_forbidden,
)
from .perms import (
    all_permutations,
    compose,
    identity,
    inverse,
    is_derangement_of,
    parity,
    perm_from_str,
    perm_to_str,
)
from .search import (
    PackingWitness,
    SearchBudget,
    chi_c_exact,
    chi_c_star_exact,
    decide_correspondence_colouring,
    decide_correspondence_packing,
    decide_list_packing,
    find_uncolourable_cover,
    greedy_unpackable_cover,
    random_unpackable_cover_search,
    surjection_count,
)
