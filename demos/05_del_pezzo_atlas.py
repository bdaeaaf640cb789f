"""Depth prediction and the atlas of non-normal maximal Del Pezzo projections.

Projecting a scroll from an external point drops the degree-codimension gap
to 2; the projection is arithmetically Cohen-Macaulay (the maximal Del Pezzo
situation) exactly when the secant locus has dimension one less than the
scroll.  Only a handful of scroll families admit such points, each with a
closed-form locus.

Run with:  python demos/05_del_pezzo_atlas.py
"""

from scrollsec import classify_with_data, depth_predict, field_make, is_del_pezzo, project, scroll_new
from scrollsec.delpezzo import atlas_enumerate

f7 = field_make(7, 1)

spec = scroll_new([1, 2])
p = (0, 0, 1, 0, 6)
sig = classify_with_data(spec, f7, p)[0]
rep = depth_predict(spec, sig, in_sec=True)
print(f"S(1,2) from {p}: locus {sig.label}, depth {rep.depth},",
      f"maximal Del Pezzo: {is_del_pezzo(spec, sig)} (case {rep.del_pezzo_case})")
pmap, nonnormal = project(spec, f7, p)
print("the image in P^3 has non-normal locus of projective dim", nonnormal.pdim)

print("\natlas for degree <= 6, up to threefolds, vertex dim <= 0:")
for e in atlas_enumerate(6, 4, 0):
    print(f"  {e.scroll:18s} case {e.case:22s} locus: {e.locus}")
print("\n(no smooth family beyond threefolds appears: the dimension bound)")
