"""Exact arithmetic building blocks: finite fields, row reduction, quadratic forms.

Run with:  python demos/01_fields_and_forms.py
"""

from scrollsec import QForm, field_make, qform_rank, row_reduce, span_points

# A prime field and its quadratic extension.  Elements are packed integers:
# a0 + q*a1 encodes a0 + a1*w with w^2 equal to the least non-residue.
f7 = field_make(7, 1)
f49 = field_make(7, 2)
print("GF(7):   3 * 5 =", f7.mul(3, 5))
print("GF(49):  w^2    =", f49.mul(7, 7), "(the least non-residue mod 7)")
print("GF(49):  (1+w)^-1 * (1+w) =", f49.mul(f49.inv(8), 8))

# Row reduction returns rank, a canonical echelon basis, and the kernel.
rank, ech, ker = row_reduce(f7, [(1, 2), (2, 4)])
print("\nrank of [[1,2],[2,4]] over GF(7):", rank)
print("kernel basis:", ker)

# Projective spans: five points of a smooth conic fill the plane.
conic_pts = [(1, t, t * t % 7) for t in range(5)]
print("span of five conic points has projective dim", span_points(f7, conic_pts, 2).pdim)

# Quadratic forms live as symmetric Gram matrices (odd characteristic only).
half = f7.inv(2)
q = QForm(f7, 4, (
    (0, 0, 0, half),
    (0, 0, f7.neg(half), 0),
    (0, f7.neg(half), 0, 0),
    (half, 0, 0, 0),
))
print("\nrank of x0*x3 - x1*x2:", qform_rank(q))
# The polar covector at e0, read at e3, is the coefficient of the mixed term.
print("polar of the form at e0, e3:", q.polar((1, 0, 0, 0))[3])

line = span_points(f7, [(1, 0, 0, 0), (0, 0, 0, 1)], 3)
print("restricted to the line <e0, e3> it becomes rank", qform_rank(q.restrict(line)))
