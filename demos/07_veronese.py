"""The Veronese surface through its symmetric-matrix model.

Points of P^5 are nonzero symmetric 3x3 matrices up to scale; the surface is
the rank-1 locus, its secant variety the vanishing of the determinant.  Rank
decides everything: rank 2 gives a smooth-conic secant locus (always the
maximal Del Pezzo case), rank 3 an empty one.

Run with:  python demos/07_veronese.py
"""

from scrollsec import field_make, veronese_classify
from scrollsec.delpezzo import sym3_to_vec
from scrollsec.oracle import veronese_secant_masks

f7 = field_make(7, 1)

for m in ([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
          [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
          [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
    kind, rep = veronese_classify(m, f7)
    line = f"diag{tuple(m[i][i] for i in range(3))} -> {kind}"
    if rep is not None:
        line += f", depth {rep.depth}, maximal Del Pezzo: {rep.acm}"
    print(line)

print("\nbrute check for the rank-2 example: the locus is a smooth conic,")
m2 = sym3_to_vec(f7, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
hits = veronese_secant_masks(f7, [m2])[0]
print(f"and a smooth conic over GF(7) has q+1 = 8 points; found {hits.sum()}.")

print("\nover a vertex the conic case stays maximal:")
kind, rep = veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 0]], f7, h=0)
print(f"cone with vertex dim 0 -> {kind}, depth {rep.depth}, maximal: {rep.acm}")
