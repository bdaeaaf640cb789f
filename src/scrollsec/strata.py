"""Membership in the geometric sets that carve up the exterior of a scroll.

The six locus types partition the points off the scroll, and each stratum has
a closed-form geometric description built from five nested sets:

    A   vertex block together with the degree-1 blocks (a linear space),
    B   points whose blocks of degree >= 2 all align with a single ruling,
    U   join of A with the planes spanned by the conic sections,
    Tan join of the vertex with the tangent variety of the smooth part,
    Sec join of the vertex with the secant variety of the smooth part.

All tests run on the smooth reduction (vertex coordinates of p deleted):
membership is insensitive to the vertex part, and working downstairs halves
the case analysis.  The B test deserves a note: the join of the degree-1
sub-scroll with the whole scroll is the union over rulings of the spans of a
line of the sub-scroll with the ruling, and a point lies in such a span exactly
when each of its nonzero blocks of degree >= 2 is proportional to the moment
vector of one common ruling.  The degree-1 blocks are unconstrained.  That
closed form is a derived fact, not an assumption; the brute-force oracle
checks it over small fields.

Tan and Sec are read from the polar kernel K of the one cached secant
analysis of p (`secant.classify_with_data`, whose docstring proves both
rules): p is on the secant side iff K is nonempty, and on the tangent side iff
K is a line or more, or a single point of the scroll.  The signature the
stratum label is checked against comes from the same analysis, so a point's
secant locus is computed once however many of these tests ask about it.

The stratum decision tree runs in the fixed order
quadric-surface / two-lines / conic / double-point / two-points / empty, so a
bug making two raw predicates true would surface as a loud disagreement with
the signature-based label instead of silently relabelling points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactfield import FieldCtx
from .scroll import ScrollSpec, contains
from .secant import (
    _analysis,
    classify_with_data,
    reduced_point,
    validate_point,
)

__all__ = [
    "MembershipReport",
    "member_A",
    "member_U",
    "member_B",
    "member_tangent",
    "member_secant_variety",
    "stratum_geometric",
    "stratum_report",
]


@dataclass(frozen=True)
class MembershipReport:
    in_A: bool
    in_B: bool
    in_U: bool
    in_Tan: bool
    in_Sec: bool
    label_geom: str
    agrees_with_signature: bool


def _block_slices(spec: ScrollSpec, degree_min: int, degree_max: int):
    for i, ai in enumerate(spec.a):
        if degree_min <= ai <= degree_max:
            start = spec.block_starts[i]
            yield i, start, ai


def member_A(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the span of the vertex and the degree-1 blocks."""
    for _, start, ai in _block_slices(spec, 2, 10**9):
        if any(p[start + j] for j in range(ai + 1)):
            return False
    return True


def member_U(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of A with the union of the conic planes.

    Blocks of degree >= 3 must vanish and the 3 x (number of degree-2 blocks)
    coordinate matrix must have rank <= 1 (the conic planes sweep a Segre
    variety).  With no degree-2 blocks this degenerates to membership in A.
    """
    for _, start, ai in _block_slices(spec, 3, 10**9):
        if any(p[start + j] for j in range(ai + 1)):
            return False
    cols = [
        tuple(p[start + j] for j in range(3)) for _, start, _ in _block_slices(spec, 2, 2)
    ]
    return _rank_le_one(ctx, cols)


def _rank_le_one(ctx: FieldCtx, cols) -> bool:
    ref = None
    for col in cols:
        if not any(col):
            continue
        if ref is None:
            ref = col
            continue
        # 2x2 minors of (ref | col)
        for i in range(3):
            for j in range(i + 1, 3):
                if ctx.sub(ctx.mul(ref[i], col[j]), ctx.mul(ref[j], col[i])):
                    return False
    return True


def member_B(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the degree-1 sub-scroll with the scroll.

    Exact over the algebraic closure: the witness ruling, when one exists, can
    be read off rationally from consecutive coordinate ratios of p.
    """
    pbar = reduced_point(spec, p)
    spec0 = spec.base()
    if spec.k == 0:
        # no degree-1 blocks: the join degenerates to the scroll itself
        return contains(spec0, ctx, pbar)
    x = None
    for _, start, ai in _block_slices(spec0, 2, 10**9):
        block = tuple(pbar[start + j] for j in range(ai + 1))
        if not any(block):
            continue
        bx = _geometric_ratio(ctx, block)
        if bx is None:
            return False
        if x is None:
            x = bx
        elif x != bx:
            return False
    return True


def _geometric_ratio(ctx: FieldCtx, block):
    """If block = u * (s^a, ..., t^a) for some (s:t), return normalized (s, t)."""
    a = len(block) - 1
    # rank <= 1 of the two shifted rows (Hankel test)
    for i in range(a):
        for j in range(i + 1, a):
            if ctx.sub(ctx.mul(block[i], block[j + 1]), ctx.mul(block[j], block[i + 1])):
                return None
    # a geometric vector has no interior gap, so some consecutive pair is nonzero
    for j in range(a):
        if block[j] or block[j + 1]:
            s, t = block[j], block[j + 1]
            if s:
                return (1, ctx.mul(ctx.inv(s), t))
            return (0, 1)
    return None


def member_tangent(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the vertex with the tangent variety of the base:
    the polar kernel K of p meets the base scroll over the algebraic closure."""
    return _kernel_meets_scroll(spec, ctx, classify_with_data(spec, ctx, p)[3])


def _kernel_meets_scroll(spec: ScrollSpec, ctx: FieldCtx, kernel) -> bool:
    return kernel.pdim >= 1 or (kernel.pdim == 0 and contains(spec.base(), ctx, kernel.rows[0]))


def member_secant_variety(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the vertex with the secant variety of the base:
    the polar kernel K of p is nonempty."""
    return not classify_with_data(spec, ctx, p)[3].is_empty()


def stratum_geometric(spec: ScrollSpec, ctx: FieldCtx, p) -> MembershipReport:
    """Stratum of p from the set memberships alone, plus the agreement flag.

    p is validated once; Tan, Sec and the signature are read from its one
    cached analysis.
    """
    p = validate_point(spec, ctx, p)
    sig, _, _, kernel = _analysis(spec, ctx, p)
    in_a = member_A(spec, ctx, p)
    in_b = member_B(spec, ctx, p)
    in_u = member_U(spec, ctx, p)
    in_tan = _kernel_meets_scroll(spec, ctx, kernel)
    in_sec = not kernel.is_empty()
    return stratum_report(in_a, in_b, in_u, in_tan, in_sec, sig.label)


def stratum_report(in_a, in_b, in_u, in_tan, in_sec, signature_label: str) -> MembershipReport:
    """The stratum decision tree (in the module docstring's order) on the five
    memberships, and the agreement of its label with the signature-based one.
    The fast path and the brute-force oracle both label through here."""
    if in_a:
        label = "QuadricSurface"
    elif in_b:
        label = "TwoLines"
    elif in_u:
        label = "Conic"
    elif in_tan:
        label = "DoublePoint"
    elif in_sec:
        label = "TwoPoints"
    else:
        label = "Empty2Z"
    return MembershipReport(
        in_A=in_a,
        in_B=in_b,
        in_U=in_u,
        in_Tan=in_tan,
        in_Sec=in_sec,
        label_geom=label,
        agrees_with_signature=(label == signature_label),
    )
