"""A 3-fold cover of K_{4,4} with no proper colouring.

The construction is tiny enough to check by hand.  Write r for the rotation
sending 1 -> 2 -> 3 -> 1.  Three vertices of one side see the fourth vertex
of the other side through id, r and r^2; whatever colour a_4 that vertex
takes, its orbit {a_4, r a_4, r^2 a_4} is all of {1,2,3}, so those three
vertices force the remaining colours a_1, a_2, a_3 to be equal, say a.  The
last vertex sees a, r a, r^2 a -- again all three colours -- and cannot be
coloured.  Hence the correspondence chromatic number of K_{4,4} is at least
4; and it is exactly 4, because each vertex blocks exactly 4! = 24 of the
4^4 = 256 colour choices of the opposite side, and 4 * 24 < 256.
"""

from packlab import (
    decide_correspondence_colouring,
    find_uncolourable_cover,
    make_certificate,
    perm_to_str,
    surjection_count,
    verify_certificate,
)

cover = find_uncolourable_cover(4, 4, 3)
print("the lexicographically first uncolourable canonical cover:")
for i in range(4):
    print("   ", "  ".join(perm_to_str(cover.sigma[i][j]) for j in range(4)))

print("\nexhaustive decision:", decide_correspondence_colouring(cover))

cert = make_certificate("no_k_colouring", cover, None, generator="search")
print("certificate verdict:", verify_certificate(cert))

print("\nfold 4 is settled by counting:")
print(f"  each vertex blocks Surj(4,4) = {surjection_count(4, 4)} of 4^4 = 256 colourings")
print("  4 * 24 = 96 < 256, so every 4-fold cover is colourable:",
      4 * surjection_count(4, 4) < 4**4)
print("\nconclusion: chi_c(K_{4,4}) = 4")
