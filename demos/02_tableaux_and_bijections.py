#!/usr/bin/env python3
"""Tableau dynamics: promotion orbits, evacuation, row insertion, and the
transport of promotion to rotation of noncrossing matchings."""

from csplab.catalan import enumerate_nc_matchings, matching_label, rotate_blocks
from csplab.tableaux import (
    ballot_sequence,
    enumerate_syt,
    evacuate,
    hooklengths,
    pon_wang_iota,
    promote,
    q_count_syt,
    rsk_matrix,
    rsk_word,
    tableau_label,
    tableau_to_matching,
)


def show(T, indent="  "):
    for row in T:
        print(indent + " ".join(f"{x:>2}" for x in row))


print("Hooklengths of (5,4,4,2) and the tableau count of (3,2):")
for row in hooklengths((5, 4, 4, 2)):
    print("  " + " ".join(map(str, row)))
print(f"  #SYT(3,2) = {len(enumerate_syt((3, 2)))},"
      f" q-analogue {q_count_syt((3, 2))}")

print("\nThe promotion orbit structure on SYT(3,3):")
tabs = sorted(enumerate_syt((3, 3)))
seen = set()
for T in tabs:
    if T in seen:
        continue
    orbit = [T]
    S = promote(T)
    while S != T:
        orbit.append(S)
        S = promote(S)
    seen.update(orbit)
    print("  orbit: " + "  ->  ".join(tableau_label(U) for U in orbit))

print("\nEvacuation is an involution; a worked example:")
T = ((1, 3, 6), (2, 4), (5,))
show(T)
print("  evacuates to")
show(evacuate(T))
print(f"  and back: {evacuate(evacuate(T)) == T}")

print("\nThe staircase-to-rectangle embedding commutes with promotion:")
show(pon_wang_iota(T))

print("\nRow insertion of the word 31452:")
P, Q = rsk_word((3, 1, 4, 5, 2))
print("  P:")
show(P, "    ")
print("  Q:")
show(Q, "    ")

print("\nThe matrix form inserts a two-line array; for [[1,2,0],[1,0,1]]:")
P, Q = rsk_matrix([[1, 2, 0], [1, 0, 1]])
print("  P:")
show(P, "    ")
print("  Q:")
show(Q, "    ")

print("\nTwo-row tableaux are noncrossing matchings via ballot words:")
T = ((1, 2, 4, 5), (3, 6, 7, 8))
print(f"  ballot word of {tableau_label(T)}: "
      f"{''.join(map(str, ballot_sequence(T)))}")
print(f"  matching: {matching_label(tableau_to_matching(T))}")

print("\nPromotion upstairs is rotation downstairs (vertex i -> i-1):")
n = 3
for T in sorted(enumerate_syt((n, n))):
    lhs = tableau_to_matching(promote(T))
    rhs = rotate_blocks(tableau_to_matching(T), 2 * n, -1)
    print(f"  {tableau_label(T)}: {matching_label(lhs)}"
          f" == {matching_label(rhs)}  {lhs == rhs}")
print(f"\n(the {len(enumerate_nc_matchings(3))} matchings on [6] are exactly"
      " the images of SYT(3,3))")
