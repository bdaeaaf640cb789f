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
the case analysis.  B and U are rank-one conditions.  The join of the
degree-1 sub-scroll with the whole scroll is the union over rulings of the
spans of a line of the sub-scroll with the ruling, and a point lies in such a
span exactly when its blocks of degree >= 2 are multiples of the moment vector
(s^a, s^(a-1) t, ..., t^a) of one common ruling (s:t), that is, when their
consecutive coordinate pairs span at most a line, the one through (s, t).  The
degree-1 blocks are unconstrained; with none, the join and the test are those
of the scroll itself.  U asks the degree-2 blocks to span at most a line and
the higher blocks to vanish.  These closed forms are derived facts, not
assumptions; the brute-force oracle checks them over small fields.  Every test
checks the coordinates of p first (`secant.validate_point`); A, B and U answer
for points of the scroll too.

Tan and Sec are read from the signature (s, rank) of the one cached secant
analysis of p (`secant.classify_with_data`; the `secant` module docstring
proves both rules): p is on the secant side iff s >= 1, and on the tangent
side iff s >= 2 or (s, rank) = (1, 1).  The signature the stratum label is
checked against comes from the same analysis, so a point's secant locus is
computed once however many of these tests ask about it, and the agreement
flag checks A, B and U against the signature.  The brute-force oracle
(`oracle.brute_membership`) still decides all five memberships by
enumeration, without the analysis.

The stratum decision tree runs in the fixed order
quadric-surface / two-lines / conic / double-point / two-points / empty, so a
bug making two raw predicates true would surface as a loud disagreement with
the signature-based label instead of silently relabelling points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactfield import FieldCtx, _rank_le_one
from .scroll import ScrollSpec
from .secant import _analysis, classify_with_data, validate_point

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
    p = validate_point(spec, ctx, p)
    for _, start, ai in _block_slices(spec, 2, 10**9):
        if any(p[start + j] for j in range(ai + 1)):
            return False
    return True


def member_U(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of A with the union of the conic planes.

    A rank-one condition: blocks of degree >= 3 must vanish and the degree-2
    blocks must span at most a line (the conic planes sweep a Segre variety).
    With no degree-2 blocks this degenerates to membership in A.
    """
    p = validate_point(spec, ctx, p)
    for _, start, ai in _block_slices(spec, 3, 10**9):
        if any(p[start + j] for j in range(ai + 1)):
            return False
    return _rank_le_one(ctx, (p[start:start + 3] for _, start, _ in _block_slices(spec, 2, 2)))


def member_B(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the degree-1 sub-scroll with the scroll.

    A rank-one condition, exact over the algebraic closure: the consecutive
    coordinate pairs of the blocks of degree >= 2 span at most a line, the
    span of the (s, t) of the witness ruling.
    """
    pbar = validate_point(spec, ctx, p)[spec.vertex_size:]
    return _rank_le_one(ctx, (pbar[start + j:start + j + 2]
                              for _, start, ai in _block_slices(spec.base(), 2, 10**9) for j in range(ai)))


def member_tangent(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the vertex with the tangent variety of the base:
    s >= 2 or (s, rank) = (1, 1)."""
    return _in_tangent(classify_with_data(spec, ctx, p)[0])


def _in_tangent(sig) -> bool:
    return sig.s >= 2 or (sig.s, sig.rank) == (1, 1)


def member_secant_variety(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """p lies in the join of the vertex with the secant variety of the base:
    s >= 1."""
    return classify_with_data(spec, ctx, p)[0].s >= 1


def stratum_geometric(spec: ScrollSpec, ctx: FieldCtx, p) -> MembershipReport:
    """Stratum of p from the five memberships, plus the agreement flag.

    A, B and U are closed forms; Tan, Sec and the signature are read from the
    one cached analysis of p, which also refuses a point of the scroll.
    """
    p = validate_point(spec, ctx, p)
    sig = _analysis(spec, ctx, p)[0]
    in_a = member_A(spec, ctx, p)
    in_b = member_B(spec, ctx, p)
    in_u = member_U(spec, ctx, p)
    return stratum_report(in_a, in_b, in_u, _in_tangent(sig), sig.s >= 1, sig.label)


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
