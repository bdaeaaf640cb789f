"""Classifying secant loci: the six types and their signatures.

For an external point p the union of secant lines through p is a linear space,
and the locus it cuts on the scroll is a hyperquadric inside it.  The pair
(span dimension, quadric rank) lands in exactly six combinations.

Run with:  python demos/03_secant_classification.py
"""

import random

from scrollsec import classify_with_data, field_make, normalize_point, scroll_new
from scrollsec.delpezzo import draw_external_point

f7 = field_make(7, 1)

examples = [
    ("S(3), chord point", scroll_new([3]), (1, 0, 0, 1)),
    ("S(3), tangent point", scroll_new([3]), (0, 1, 0, 0)),
    ("S(1,2), conic point", scroll_new([1, 2]), (0, 0, 1, 0, 6)),
    ("S(1,1,1), rank-2 matrix point", scroll_new([1, 1, 1]), (1, 0, 0, 1, 0, 0)),
    ("cone over S(3), lifted chord", scroll_new([3], 0), (0, 1, 0, 0, 1)),
]
for name, spec, p in examples:
    sig = classify_with_data(spec, f7, p)[0]
    print(f"{name:32s} -> {sig.label:14s} (s, rank)=({sig.s},{sig.rank})"
          f"  dim locus {sig.locus_dim}  predicted depth {sig.depth_pred}")

# Random ambient points mostly land in the two open strata; the special ones
# are thin.  On S(1,1,2,3) witnesses for the thin strata are easy to build.
print("\n400 random exterior points of S(1,1,2,3) over GF(101):")
ctx = field_make(101, 1)
spec = scroll_new([1, 1, 2, 3])
rng = random.Random(0)
seen = {}
for _ in range(400):
    while (p := draw_external_point(spec, ctx, rng)) is None:
        pass
    sig = classify_with_data(spec, ctx, p)[0]
    seen[sig.label] = seen.get(sig.label, 0) + 1
for label, count in sorted(seen.items()):
    print(f"  {label:15s} {count}")

print("\nconstructed witnesses reach the thin strata too:")
nv = spec.ambient + 1
witnesses = {
    "QuadricSurface": normalize_point(ctx, (1, 2, 3, 4) + (0,) * (nv - 4)),
    "Conic": normalize_point(ctx, (1, 2, 3, 4, 1, 0, 5) + (0,) * (nv - 7)),
}
for want, p in witnesses.items():
    sig = classify_with_data(spec, ctx, p)[0]
    print(f"  {want:15s} -> classified {sig.label}")
