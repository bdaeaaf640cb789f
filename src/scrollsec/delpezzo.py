"""Depth prediction, the non-normal Del Pezzo condition, and its atlas.

The arithmetic depth of the simple projection of a scroll from an external
point is a function of the secant geometry alone: one plus the projective
dimension of the secant cone when the projection is singular, one otherwise
(and the two formulas agree numerically).  The projection is arithmetically
Cohen-Macaulay, hence a non-normal maximal Del Pezzo variety, exactly when the
secant locus has dimension one less than the scroll, i.e. when the locus jump
j equals the number n of parameter blocks.

Since j <= 3, only curves (pairs of entry points), surfaces (line pairs or
conics) and threefolds (quadric surfaces) qualify, and for each family the
qualifying point locus collapses to a closed-form set.  One table, keyed on
the block counts (n, k, m), gives each family its case tag and locus kind;
the test suite checks it against the classification on every exterior point
of the small types over GF(3).

The Veronese surface is handled separately through its symmetric-matrix model:
a symmetric 3x3 matrix of rank 1 is a point of the surface, rank 2 gives a
conic secant locus (always the Del Pezzo situation), rank 3 gives an empty
one.  These equivalences are validated by brute force over small fields
(`oracle.veronese_secant_masks`) rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import strata
from .errors import DimensionMismatchError, EmptyTypeError, InvariantError, ZeroMatrixError
from .exactfield import (
    Binomial,
    FieldCtx,
    normalize_point,
    projective_points,
    rref,
    span_points,
)
from .scroll import ScrollSpec, _integer, contains, embed, random_scroll_point, scroll_literal, scroll_new
from .secant import SIGNATURE_TABLE, SecantSignature, _analysis, validate_point

__all__ = [
    "DepthReport",
    "depth_predict",
    "is_del_pezzo",
    "AtlasEntry",
    "atlas_enumerate",
    "atlas_case_for",
    "locus_member",
    "sample_inside_locus",
    "sample_outside_locus",
    "ProjectionMap",
    "project",
    "veronese_classify",
    "veronese_generators",
    "veronese_embed",
    "veronese_point_table",
    "sym3_rank",
]


@dataclass(frozen=True)
class DepthReport:
    depth: int
    acm: bool
    j: int
    del_pezzo_case: str
    linearly_normal: bool


def depth_predict(spec: ScrollSpec, sig: SecantSignature, in_sec: bool) -> DepthReport:
    """Arithmetic depth of the projection, predicted from the signature.

    The depth is one plus the secant cone dimension, sig.depth_pred (for
    cones the vertex doubles into the locus).  A smooth scroll and a point
    off the secant variety give depth 1, since the cone is p alone, and a
    projection that is not linearly normal.
    """
    acm = is_del_pezzo(spec, sig)
    case = "none"
    if acm:
        tagged = atlas_case_for(spec.a)
        case = tagged[0] if tagged else "none"
    return DepthReport(
        depth=sig.depth_pred,
        acm=acm,
        j=sig.locus_dim - spec.h,
        del_pezzo_case=case,
        linearly_normal=not (spec.h == -1 and not in_sec),
    )


def is_del_pezzo(spec: ScrollSpec, sig: SecantSignature) -> bool:
    """Maximal depth: the locus jump equals the number of parameter blocks."""
    return sig.locus_dim - spec.h == spec.n


# ---------------------------------------------------------------------------
# the atlas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtlasEntry:
    a: tuple
    h: int
    scroll: str
    case: str
    locus_kind: str
    locus: str


# the atlas loci, the points of X removed; `locus_member` answers for the
# closed set, the text without "\ X", except that "sec" refuses a point of X
_LOCUS_TEXT = {
    "full": "ambient \\ X",
    "sec": "Join(Vert, Sec(base)) \\ X",
    "B": "Join(Vert, Join(S(1..), base)) \\ X",
    "U": "Join(Vert, conic planes) \\ X",
    "A": "Join(Vert, span S(1..)) \\ X",
}


# The atlas, keyed on (n, k, m): n blocks, k of degree 1, m of degree <= 2.
# A point qualifies when its locus jump j equals n, and the table lists the
# families where the strata with j = n are nonempty off the scroll:
# - a curve qualifies on its secant variety;
# - on a surface of degrees 1 and 2 the join of A with the conic plane fills
#   the ambient; of degrees 1 and b >= 3 there are no conic planes, so only
#   the line join B survives; with no degree-1 block B degenerates into the
#   scroll, and the conic planes U of a degree-2 block remain, if it has one;
# - on a threefold three degree-1 blocks fill the ambient, and two leave the
#   span A of the degree-1 sub-scroll;
# - with four or more blocks nothing qualifies, since j <= 3.
_ATLAS = {
    (1, 0, 0): ("curve", "sec"),
    (2, 1, 2): ("surface-cubic", "full"),
    (2, 1, 1): ("surface-line-join", "B"),
    (2, 0, 2): ("surface-conic-segre", "U"),
    (2, 0, 1): ("surface-conic-span", "U"),
    (3, 3, 3): ("threefold-full", "full"),
    (3, 2, 3): ("threefold-plane-join", "A"),
    (3, 2, 2): ("threefold-plane-join", "A"),
}


def atlas_case_for(a) -> tuple | None:
    """(case tag, locus kind) for the family of scroll types a, or None: the
    `_ATLAS` entry of its block counts (n, k, m)."""
    return _ATLAS.get((len(a), sum(x == 1 for x in a), sum(x <= 2 for x in a)))


def atlas_enumerate(max_deg: int, max_n: int, max_h: int) -> list:
    """Every scroll type in bounds whose projection can be maximally Del Pezzo,
    with the exact qualifying point locus, read from the `atlas_case_for`
    table.  Families with no such locus are omitted.  Bounds that admit no
    scroll (max_deg below 3, max_n below 1, max_h below -1) raise
    EmptyTypeError.

    Only types of at most 3 blocks are walked.  A point is maximally Del
    Pezzo when its locus jump j (locus dimension minus h) equals n, and j is
    the s of its signature in SIGNATURE_TABLE, at most 3.  So no point of a
    type with n >= 4 blocks qualifies, the table has no key with n >= 4, and
    such a type never has an entry.  The walk over the C(max_deg, n) degree
    tuples therefore stops at n = min(max_n, 3)."""
    if max_deg < 3 or max_n < 1 or max_h < -1:
        raise EmptyTypeError(
            f"atlas bounds max_deg={max_deg}, max_n={max_n}, max_h={max_h} admit no scroll"
        )
    entries = []
    for n in range(1, min(max_n, max(s for s, _ in SIGNATURE_TABLE)) + 1):
        # nondecreasing degree tuples; a degree above max_deg - (n - 1) would
        # leave the other n - 1 blocks less than degree 1 each
        for a in combinations_with_replacement(range(1, max_deg - n + 2), n):
            tagged = atlas_case_for(a)
            if tagged is None or not 3 <= sum(a) <= max_deg:
                continue
            case, kind = tagged
            for h in range(-1, max_h + 1):
                entries.append(
                    AtlasEntry(
                        a=a,
                        h=h,
                        scroll=scroll_literal(scroll_new(a, h)),
                        case=case,
                        locus_kind=kind,
                        locus=_LOCUS_TEXT[kind],
                    )
                )
    return entries


def locus_member(entry_kind: str, spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """Membership of p in the closure of an atlas locus, its `_LOCUS_TEXT`
    set before X is removed: on a point of X "full" is True, "A", "B" and
    "U" answer as `member_A/B/U`, and "sec", which reads the analysis,
    raises PointOnVarietyError."""
    p = validate_point(spec, ctx, p)
    if entry_kind == "full":
        return True
    if entry_kind == "sec":
        return strata.member_secant_variety(spec, ctx, p)
    if entry_kind == "B":
        return strata.member_B(spec, ctx, p)
    if entry_kind == "U":
        return strata.member_U(spec, ctx, p)
    if entry_kind == "A":
        return strata.member_A(spec, ctx, p)
    raise ValueError(f"unknown locus kind {entry_kind!r}")


def sample_inside_locus(entry_kind: str, spec: ScrollSpec, ctx: FieldCtx, rng):
    """A random external point inside the locus, built constructively."""
    nv = spec.ambient + 1
    vs = spec.vertex_size
    for _ in range(1000):
        coords = [0] * nv
        for i in range(vs):
            coords[i] = ctx.rand(rng)
        if entry_kind == "full":
            for i in range(nv):
                coords[i] = ctx.rand(rng)
        elif entry_kind == "sec":
            spec0 = spec.base()
            q1 = embed(spec0, ctx, random_scroll_point(spec0, ctx, rng))
            q2 = embed(spec0, ctx, random_scroll_point(spec0, ctx, rng))
            lam, mu = ctx.rand_nonzero(rng), ctx.rand_nonzero(rng)
            for j in range(spec0.ambient + 1):
                coords[vs + j] = ctx.add(ctx.mul(lam, q1[j]), ctx.mul(mu, q2[j]))
        elif entry_kind == "B":
            spec0 = spec.base()
            q1 = embed(spec0, ctx, random_scroll_point(spec0, ctx, rng))
            lam = ctx.rand_nonzero(rng)
            for j in range(spec0.ambient + 1):
                coords[vs + j] = ctx.mul(lam, q1[j])
            # add a point of the degree-1 sub-scroll
            ws, wt = ctx.rand(rng), ctx.rand(rng)
            for i, ai in enumerate(spec.a):
                if ai != 1:
                    continue
                alpha = ctx.rand(rng)
                start = spec.block_starts[i]
                coords[start] = ctx.add(coords[start], ctx.mul(alpha, ws))
                coords[start + 1] = ctx.add(coords[start + 1], ctx.mul(alpha, wt))
        elif entry_kind == "U":
            c3 = [ctx.rand(rng) for _ in range(3)]
            for i, ai in enumerate(spec.a):
                start = spec.block_starts[i]
                if ai == 1:
                    coords[start] = ctx.rand(rng)
                    coords[start + 1] = ctx.rand(rng)
                elif ai == 2:
                    beta = ctx.rand(rng)
                    for j in range(3):
                        coords[start + j] = ctx.mul(beta, c3[j])
        elif entry_kind == "A":
            for i, ai in enumerate(spec.a):
                start = spec.block_starts[i]
                if ai == 1:
                    coords[start] = ctx.rand(rng)
                    coords[start + 1] = ctx.rand(rng)
        else:
            raise ValueError(f"unknown locus kind {entry_kind!r}")
        if not any(coords):
            continue
        p = normalize_point(ctx, coords)
        if not contains(spec, ctx, p):
            return p
    raise InvariantError("could not sample a point inside the locus")


def locus_fills_ambient(entry_kind: str, spec: ScrollSpec) -> bool:
    """True when the atlas locus is the whole exterior of the scroll.

    Besides the explicitly full loci this happens once more: chords of the
    twisted cubic fill its P^3, so the curve case of degree 3 (and its cones,
    by joining with the vertex) leaves no outside points.
    """
    if entry_kind == "full":
        return True
    return entry_kind == "sec" and spec.a == (3,)


def draw_external_point(spec: ScrollSpec, ctx: FieldCtx, rng):
    """One uniform draw of the ambient space: the normalized point when it is
    nonzero and off the scroll, else None; callers bound their own retries."""
    coords = [ctx.rand(rng) for _ in range(spec.ambient + 1)]
    if not any(coords):
        return None
    p = normalize_point(ctx, coords)
    return None if contains(spec, ctx, p) else p


def sample_outside_locus(entry_kind: str, spec: ScrollSpec, ctx: FieldCtx, rng):
    """A random external point off the locus, or None when the locus is everything."""
    if locus_fills_ambient(entry_kind, spec):
        return None
    for _ in range(5000):
        p = draw_external_point(spec, ctx, rng)
        if p is not None and not locus_member(entry_kind, spec, ctx, p):
            return p
    raise InvariantError("could not sample a point outside the locus")


# ---------------------------------------------------------------------------
# projection from the point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionMap:
    """Linear projection away from p: v -> v - (v_i*/p_i*) p, coordinate i* deleted."""

    ctx: FieldCtx
    p: tuple
    pivot: int

    def apply_linear(self, v):
        """The image of the vector v; the center maps to zero."""
        ctx = self.ctx
        f = ctx.mul(v[self.pivot], ctx.inv(self.p[self.pivot]))
        out = [ctx.sub(x, ctx.mul(f, px)) for x, px in zip(v, self.p)]
        del out[self.pivot]
        return tuple(out)


def project(spec: ScrollSpec, ctx: FieldCtx, p):
    """The projection map from p and the non-normal locus of the image.

    The non-normal locus is the projected span of the secant locus, which is
    the projection of the secant cone sec = <vertex, p, K>: the locus spans
    sec or a hyperplane of it missing p.  Its projective dimension is exactly
    one less than the secant cone dimension.
    Degree bookkeeping: the image has degree exceeding its codimension by 2.
    """
    p = validate_point(spec, ctx, p)
    sig, sec, _, _ = _analysis(spec, ctx, p)
    pivot = next(i for i, x in enumerate(p) if x)
    pmap = ProjectionMap(ctx, p, pivot)
    nonnormal = span_points(ctx, [pmap.apply_linear(r) for r in sec.rows], spec.ambient - 1)
    if nonnormal.pdim != sig.sec_dim - 1:
        raise InvariantError(
            f"non-normal locus dimension {nonnormal.pdim} != {sig.sec_dim - 1}"
        )
    return pmap, nonnormal


# ---------------------------------------------------------------------------
# the Veronese surface via symmetric matrices
# ---------------------------------------------------------------------------

# coordinate order for symmetric 3x3 matrices: (m00, m11, m22, m01, m02, m12)
_SYM_IDX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def sym3_to_vec(ctx: FieldCtx, m):
    return tuple(m[i][j] % ctx.size for i, j in _SYM_IDX)


def sym3_rank(ctx: FieldCtx, m) -> int:
    return rref(ctx, [[x % ctx.size for x in row] for row in m], 3)[0]


def veronese_embed(ctx: FieldCtx, v):
    """The rank-one symmetric matrix v v^T, packed in the 6 coordinates."""
    return tuple(ctx.mul(v[i], v[j]) for i, j in _SYM_IDX)


# the six distinct 2x2 minors of [[x0,x3,x4],[x3,x1,x5],[x4,x5,x2]], in row-pair
# then column-pair order, as (i, j, k, l) for x_i x_j - x_k x_l
_VERONESE_MINORS = (
    (0, 1, 3, 3), (0, 5, 4, 3), (3, 5, 4, 1), (0, 2, 4, 4), (3, 2, 4, 5), (1, 2, 5, 5),
)


def veronese_generators(ctx: FieldCtx) -> tuple:
    """The six 2x2 minors of the generic symmetric 3x3 matrix, as binomials."""
    return tuple(Binomial(ctx, 6, *m) for m in _VERONESE_MINORS)


def veronese_classify(m, ctx: FieldCtx, h: int = -1):
    """Classify a symmetric 3x3 matrix point: OnVariety / Conic / Empty.

    Rank 1 is a point of the (cone over the) Veronese surface; rank 2 gives a
    smooth-conic secant locus (locus jump j = 2), which is always the maximal
    Del Pezzo case; rank 3 gives an empty locus (j = 0).  The DepthReport
    follows the scroll pipeline: depth h + j + 2, ACM iff j = 2, linearly
    normal unless j = 0 on the smooth surface.  A vertex dimension that is
    not an integer >= -1 raises EmptyTypeError, and a matrix that is not 3x3
    and symmetric mod q DimensionMismatchError.
    """
    h = _integer(h, "vertex dimension")
    if h < -1:
        raise EmptyTypeError("vertex dimension must be >= -1")
    if len(m) != 3 or any(len(row) != 3 for row in m) or any(
        (m[i][j] - m[j][i]) % ctx.size for i, j in _SYM_IDX
    ):
        raise DimensionMismatchError("need a symmetric 3x3 matrix")
    if all(x % ctx.size == 0 for row in m for x in row):
        raise ZeroMatrixError("zero symmetric matrix")
    rank = sym3_rank(ctx, m)
    if rank == 1:
        return "OnVariety", None
    j = 2 if rank == 2 else 0
    return "Conic" if j else "Empty", DepthReport(
        depth=h + j + 2,
        acm=j == 2,
        j=j,
        del_pezzo_case="veronese" if j else "none",
        linearly_normal=not (h == -1 and j == 0),
    )


def veronese_point_table(ctx: FieldCtx):
    """All rational points of the Veronese surface (one per point of P^2)."""
    return [normalize_point(ctx, veronese_embed(ctx, v)) for v in projective_points(ctx, 3)]
