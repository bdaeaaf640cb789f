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
qualifying point locus collapses to a closed-form set.  ``atlas_enumerate``
derives that locus from the generic rule j = n, then pattern-matches the
family to a descriptive case tag; the test suite compares the generated atlas
against an independently hand-coded list.

The Veronese surface is handled separately through its symmetric-matrix model:
a symmetric 3x3 matrix of rank 1 is a point of the surface, rank 2 gives a
conic secant locus (always the Del Pezzo situation), rank 3 gives an empty
one.  These equivalences are validated by brute force over small fields rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    InvariantError,
    PointOnVarietyError,
    ZeroMatrixError,
)
from .exactfield import (
    Binomial,
    FieldCtx,
    normalize_point,
    projective_points,
    rref,
    span_points,
)
from .scroll import ScrollSpec, contains, scroll_literal, scroll_new
from .secant import (
    NOT_ON_X,
    SECANT,
    TANGENT_CONTACT,
    SecantSignature,
    _analysis,
    pair_test_with_generators,
    validate_point,
)

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
    "veronese_brute_secant_points",
    "sym3_rank",
    "vec_to_sym3",
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


_LOCUS_TEXT = {
    "full": "ambient \\ X",
    "sec": "Join(Vert, Sec(base)) \\ X",
    "B": "Join(Vert, Join(S(1..), base)) \\ X",
    "U": "Join(Vert, conic planes) \\ X",
    "A": "Join(Vert, span S(1..)) \\ X",
}


def atlas_case_for(a) -> tuple | None:
    """(case tag, locus kind) for the family of scroll types a, or None.

    Resolution of the generic rule j = n: the strata with j = n must be
    nonempty off the scroll, which collapses to the patterns below.
    """
    a = tuple(a)
    n = len(a)
    if n == 1:
        return ("curve", "sec")
    if n == 2:
        x, b = a
        if x == 1 and b == 2:
            return ("surface-cubic", "full")
        if x == 1 and b >= 3:
            return ("surface-line-join", "B")
        if x == 2 and b == 2:
            return ("surface-conic-segre", "U")
        if x == 2 and b >= 3:
            return ("surface-conic-span", "U")
        return None
    if n == 3:
        if a == (1, 1, 1):
            return ("threefold-full", "full")
        if a[0] == 1 and a[1] == 1 and a[2] >= 2:
            return ("threefold-plane-join", "A")
        return None
    return None


def _derived_locus_kind(spec: ScrollSpec) -> str | None:
    """Locus where j = n, derived from (n, k, m) alone."""
    n, k, m = spec.n, spec.k, spec.m
    if n == 1:
        return "sec"
    if n == 2:
        if k == 1 and m == 2:
            return "full"  # the join of A with the conic plane fills the ambient
        if k == 1 and m == 1:
            return "B"  # no conic planes, so only the line join survives
        if k == 0 and m >= 1:
            return "U"  # no degree-1 part: B degenerates into the scroll
        return None
    if n == 3:
        if k == 3:
            return "full"
        if k == 2:
            return "A"
        return None
    return None


def atlas_enumerate(max_deg: int, max_n: int, max_h: int) -> list:
    """Every scroll type in bounds whose projection can be maximally Del Pezzo,
    with the exact qualifying point locus.  Families with no such locus are
    omitted.  The locus kind derived from the generic rule must agree with the
    family pattern; a mismatch is a hard error."""
    entries = []
    for n in range(1, max_n + 1):
        for a in _types_of_length(n, max_deg):
            for h in range(-1, max_h + 1):
                spec = scroll_new(a, h)
                tagged = atlas_case_for(a)
                derived = _derived_locus_kind(spec)
                if tagged is None and derived is None:
                    continue
                if tagged is None or derived is None or tagged[1] != derived:
                    raise InvariantError(
                        f"atlas rule mismatch for {a}: tag {tagged} vs derived {derived}"
                    )
                case, kind = tagged
                entries.append(
                    AtlasEntry(
                        a=a,
                        h=h,
                        scroll=scroll_literal(spec),
                        case=case,
                        locus_kind=kind,
                        locus=_LOCUS_TEXT[kind],
                    )
                )
    return entries


def _types_of_length(n: int, max_deg: int):
    """Nondecreasing degree tuples of length n with 3 <= sum <= max_deg."""
    out = []

    def rec(prefix, lo, left):
        if len(prefix) == n:
            if sum(prefix) >= 3:
                out.append(tuple(prefix))
            return
        rest = n - len(prefix) - 1
        for d in range(lo, left + 1):
            if left - d >= rest:  # each later block needs degree >= d >= 1
                rec(prefix + [d], d, left - d)

    rec([], 1, max_deg)
    return sorted(out)


def locus_member(entry_kind: str, spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """Membership of an external point in an atlas locus."""
    from . import strata

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
    from .scroll import embed, random_scroll_point

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


def sample_outside_locus(entry_kind: str, spec: ScrollSpec, ctx: FieldCtx, rng):
    """A random external point off the locus, or None when the locus is everything."""
    if locus_fills_ambient(entry_kind, spec):
        return None
    nv = spec.ambient + 1
    for _ in range(5000):
        coords = [ctx.rand(rng) for _ in range(nv)]
        if not any(coords):
            continue
        p = normalize_point(ctx, coords)
        if contains(spec, ctx, p):
            continue
        if not locus_member(entry_kind, spec, ctx, p):
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

    def apply(self, v):
        if len(v) != len(self.p):
            raise DimensionMismatchError("point has the wrong number of coordinates")
        out = self.apply_linear(v)
        if not any(out):
            raise PointOnVarietyError("cannot project the center point")
        return normalize_point(self.ctx, out)

    def apply_linear(self, v):
        """Same map without the projective nonzero check (for spans)."""
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


def vec_to_sym3(v):
    m = [[0] * 3 for _ in range(3)]
    for val, (i, j) in zip(v, _SYM_IDX):
        m[i][j] = val
        m[j][i] = val
    return m


def sym3_rank(ctx: FieldCtx, m) -> int:
    return rref(ctx, m, 3)[0]


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
    smooth-conic secant locus, which is always the maximal Del Pezzo case;
    rank 3 gives an empty locus.  The returned DepthReport follows the same
    vertex-lift rules as the scroll pipeline (the surface has dimension 2, so
    the cone has dimension h + 3).
    """
    if all(x % ctx.size == 0 for row in m for x in row):
        raise ZeroMatrixError("zero symmetric matrix")
    rank = sym3_rank(ctx, m)
    if rank == 1:
        return "OnVariety", None
    dim_cone = h + 3
    if rank == 2:
        locus_dim = h + 2
        depth = locus_dim + 2
        return "Conic", DepthReport(
            depth=depth,
            acm=depth == dim_cone + 1,
            j=2,
            del_pezzo_case="veronese",
            linearly_normal=True,
        )
    locus_dim = h  # the doubled vertex only
    depth = locus_dim + 2
    smooth = h == -1
    return "Empty", DepthReport(
        depth=depth,
        acm=False,
        j=0,
        del_pezzo_case="none",
        linearly_normal=not smooth,
    )


def veronese_point_table(ctx: FieldCtx):
    """All rational points of the Veronese surface (one per point of P^2)."""
    return [normalize_point(ctx, veronese_embed(ctx, v)) for v in projective_points(ctx, 3)]


def veronese_brute_secant_points(ctx: FieldCtx, mvec):
    """Brute-force secant locus of a symmetric-matrix point over the full table."""
    gens = veronese_generators(ctx)
    out = []
    for q in veronese_point_table(ctx):
        verdict = pair_test_with_generators(ctx, gens, mvec, q)
        if verdict in (SECANT, TANGENT_CONTACT):
            out.append(q)
        elif verdict == NOT_ON_X:
            raise InvariantError("table point claims to be off the Veronese surface")
    return out
