"""List packing with a 3-vertex small side: the full case analysis.

Triples of 3-lists fall into twelve isomorphism types (sixteen counting
repeated lists, but a repeated-list type always leaves some arrangement no
list can block).  Packability against t lists reduces to an exact set-cover
question over the 36 candidate arrangements; the cover number is 9, reached
by disjoint lists against all nine {a, b, 7} transversals, which pins the
list packing number of K_{3,t} at 3 for t <= 8 and 4 from t = 9 on.
"""

from packlab import (
    check_case_matrix,
    chi_l_exact,
    decide_list_packing,
    make_certificate,
    u_side_list_types,
    verify_certificate,
)
from packlab.cases import (
    CASE_MATRICES,
    a10_assignment,
    k39_assignment,
    k65_assignment,
    list_packing_threshold,
)
from packlab.certificates import witness_dict_for_lists

print("the twelve types of pairwise-distinct 3-list triples:")
for idx, triple in enumerate(u_side_list_types(), start=1):
    print(f"  type {idx:2d}: {triple}")

print("\ntype 11 against candidate lists:")
print("  {3,4,7} blocks the natural arrangement:",
      not check_case_matrix(CASE_MATRICES[11], (3, 4, 7)))
print("  {3,4,8} does not:", check_case_matrix(CASE_MATRICES[11], (3, 4, 8)))

print("\nthe three reference instances:")
print("  disjoint triples vs nine transversal lists:",
      "unpackable" if decide_list_packing(k39_assignment()) is None else "packable")
print("  the sides-5-and-6 assignment:",
      "unpackable" if decide_list_packing(k65_assignment()) is None else "packable")
a10 = a10_assignment()
w = decide_list_packing(a10)
verified = w and verify_certificate(make_certificate(
    "packing_witness", a10, witness_dict_for_lists(w.u_rows, w.v_rows), generator="demo"
)).accepted
print("  type-10 lists vs the eight transversals:",
      "packable, witness verified" if verified else "unexpected")

print("\nexact thresholds from the cover analysis:")
print("  least t with an unpackable 3-assignment:", list_packing_threshold(3))
print("  chi_l of K_{3,t} for t = 2, 3, 26, 27:",
      [chi_l_exact(3, t) for t in (2, 3, 26, 27)])
print("  (the packing analogue needs --run-long in the tests, or")
print("   `packlab chi --param lstar --a 3 --b 9`)")
