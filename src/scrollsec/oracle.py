"""Brute-force reference implementations over tiny fields.

Everything here is ground truth for the fast paths: the scroll is enumerated
point by point, secancy is decided by the pairwise line test applied to every
enumerated point, and the geometric set memberships are decided by exhaustive
enumeration of the joins that define them.  Deliberately no reduction to the
smooth part: the oracle works on the cone directly, so the vertex-deletion
shortcut used everywhere else is itself under test.

The only concession to speed is that the pairwise scans are vectorized with
numpy; over GF(q^2) the two coordinate components are carried in separate
integer arrays, which keeps all arithmetic plain matrix products mod q.
numpy is imported inside the functions that use it, so the classification
path, which imports this module through the package, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvariantError,
    PointOnVarietyError,
)
from .exactfield import (
    FieldCtx,
    base_of,
    normalize_point,
    projective_points,
    row_reduce,
    span_points,
    unit_rows,
)
from .scroll import (
    ScrollPoint,
    ScrollSpec,
    _ruling_rows,
    embed,
    quadric_generators,
    tangent_space,
)
from .secant import (
    classify_signature,
    classify_with_data,
    reduced_point,
)
from .strata import MembershipReport

__all__ = [
    "PointTable",
    "enumerate_points",
    "brute_secant_locus",
    "brute_membership",
    "brute_tangent_witnesses",
    "check_lift_equalities",
    "ambient_zero_locus",
]


@dataclass
class PointTable:
    """All rational points of a scroll over GF(q^d), with their parameters."""

    spec: ScrollSpec
    ctx: FieldCtx
    points: list
    params: list
    arr0: np.ndarray
    arr1: np.ndarray
    nonvertex: np.ndarray
    index: dict

    def __len__(self):
        return len(self.points)


def _expected_count(spec: ScrollSpec, size: int) -> int:
    base = (size + 1) * (size**spec.n - 1) // (size - 1)
    if spec.h == -1:
        return base
    vert = (size ** (spec.h + 1) - 1) // (size - 1)
    return base * size ** (spec.h + 1) + vert


def enumerate_points(spec: ScrollSpec, ctx: FieldCtx, budget: int = 10**7) -> PointTable:
    """Every point of the scroll over the field of ctx, each exactly once.

    The budget is checked on every call; the table itself is cached on
    (spec, ctx) alone, so calls with different budgets share one build.
    """
    expected = _expected_count(spec, ctx.size)
    if expected > budget:
        raise BudgetExceededError(
            f"point table of size {expected} exceeds budget {budget}"
        )
    return _point_table(spec, ctx)


@lru_cache(maxsize=8)
def _point_table(spec: ScrollSpec, ctx: FieldCtx) -> PointTable:
    import numpy as np

    size = ctx.size
    expected = _expected_count(spec, size)
    pts = []
    params = []
    seen = set()

    def push(param):
        vec = embed(spec, ctx, param)
        key = normalize_point(ctx, vec)
        if key not in seen:
            seen.add(key)
            pts.append(key)
            params.append(param)

    vs = spec.vertex_size
    zero_u = tuple([0] * spec.n)
    for z in projective_points(ctx, vs):
        push(ScrollPoint((0, 0), zero_u, z))
    for x in _line_points(ctx):
        for u in projective_points(ctx, spec.n):
            for z in product(range(size), repeat=vs):
                push(ScrollPoint(x, u, z))
    if len(pts) != expected:
        raise InvariantError(
            f"enumerated {len(pts)} points, expected {expected} for {spec}"
        )
    q = ctx.q
    mat = np.array(pts, dtype=np.int64)
    return PointTable(
        spec=spec,
        ctx=ctx,
        points=pts,
        params=params,
        arr0=mat % q,
        arr1=mat // q,
        nonvertex=(mat[:, vs:] != 0).any(axis=1),
        index={pt: i for i, pt in enumerate(pts)},
    )


# table builds show as cache misses of enumerate_points itself
enumerate_points.cache_info = _point_table.cache_info
enumerate_points.cache_clear = _point_table.cache_clear


def _line_points(ctx: FieldCtx) -> list:
    """P^1 with (0:1) first: the order of the point tables."""
    *finite, infinity = projective_points(ctx, 2)
    return [infinity] + finite


def _pair_data(spec: ScrollSpec, base_ctx: FieldCtx, table: PointTable, p):
    """Vectorized A/B data of the line test for p against the whole table."""
    import numpy as np

    gens = quadric_generators(spec, base_ctx)
    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    w = np.array([g.polar(p) for g in gens], dtype=np.int64)
    q = base_ctx.q
    b0 = table.arr0 @ w.T % q
    b1 = table.arr1 @ w.T % q
    i0 = next(i for i, a in enumerate(a_vals) if a)
    a_arr = np.array(a_vals, dtype=np.int64)
    prop0 = (a_arr[i0] * b0 - a_arr[None, :] * b0[:, i0:i0 + 1]) % q
    prop1 = (a_arr[i0] * b1 - a_arr[None, :] * b1[:, i0:i0 + 1]) % q
    secant_mask = (prop0 == 0).all(axis=1) & (prop1 == 0).all(axis=1)
    tangent_mask = (b0 == 0).all(axis=1) & (b1 == 0).all(axis=1)
    return secant_mask, tangent_mask


def brute_secant_locus(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """All table points on a secant or tangent line through p, as a set.

    This is the pairwise line test applied literally to every rational point
    of the scroll; it must equal the fast path's union of ruling cuts over the
    same field.
    """
    import numpy as np

    base_ctx = base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    secant_mask, _ = _pair_data(spec, base_ctx, table, p)
    return {table.points[i] for i in np.nonzero(secant_mask)[0]}


def brute_tangent_witnesses(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """Indices of non-vertex table points whose tangent space contains p."""
    import numpy as np

    base_ctx = base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    _, tangent_mask = _pair_data(spec, base_ctx, table, p)
    return list(np.nonzero(tangent_mask & table.nonvertex)[0])


def brute_membership(
    spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7
) -> MembershipReport:
    """Set memberships by exhaustive enumeration of the defining joins."""
    base_ctx = base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    secant_mask, tangent_mask = _pair_data(spec, base_ctx, table, p)
    nonvertex = table.nonvertex
    in_sec = bool((secant_mask & nonvertex).any())
    in_tan = bool((tangent_mask & nonvertex).any())

    nv = spec.ambient + 1
    vs = spec.vertex_size
    vertex_rows = unit_rows(nv, range(vs))

    # A: span of the vertex and the enumerated degree-1 sub-scroll
    one_blocks = [i for i, ai in enumerate(spec.a) if ai == 1]
    sub_pts = []
    for x in _line_points(ctx):
        for alpha in projective_points(ctx, len(one_blocks)):
            u = [0] * spec.n
            for ci, i in enumerate(one_blocks):
                u[i] = alpha[ci]
            sub_pts.append(embed(spec, ctx, ScrollPoint(x, tuple(u), tuple([0] * vs))))
    a_rows = vertex_rows + sub_pts
    in_a = span_points(ctx, a_rows, spec.ambient).contains(p)

    # B: union over (alpha, x) of the span of a sub-scroll line with a ruling
    in_b = False
    if one_blocks:
        for alpha in projective_points(ctx, len(one_blocks)):
            line_rows = []
            for fib in ((1, 0), (0, 1)):
                u = [0] * spec.n
                for ci, i in enumerate(one_blocks):
                    u[i] = alpha[ci]
                line_rows.append(
                    embed(spec, ctx, ScrollPoint(fib, tuple(u), tuple([0] * vs)))
                )
            for x in _line_points(ctx):
                rows = line_rows + _ruling_rows(spec, ctx, x)
                if span_points(ctx, rows, spec.ambient).contains(p):
                    in_b = True
                    break
            if in_b:
                break
    else:
        in_b = bool(table.index.get(normalize_point(ctx, p)) is not None)

    # U: union over beta of the span of A with a conic plane
    two_blocks = [i for i, ai in enumerate(spec.a) if ai == 2]
    if two_blocks:
        in_u = False
        for beta in projective_points(ctx, len(two_blocks)):
            plane_rows = []
            for j in range(3):
                row = [0] * nv
                for ci, i in enumerate(two_blocks):
                    row[spec.block_starts[i] + j] = beta[ci]
                plane_rows.append(tuple(row))
            if span_points(ctx, a_rows + plane_rows, spec.ambient).contains(p):
                in_u = True
                break
    else:
        in_u = in_a

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
    sig = classify_signature(spec, base_of(ctx), p)
    return MembershipReport(
        in_A=in_a,
        in_B=in_b,
        in_U=in_u,
        in_Tan=in_tan,
        in_Sec=in_sec,
        label_geom=label,
        agrees_with_signature=(label == sig.label),
    )


def check_lift_equalities(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """Check the two cone-lift identities against the brute data.

    (i) the secant cone equals the span of the vertex with the base secant
    cone: compared as the RREF of {p} + brute locus points versus the fast
    cone; (ii) the secant locus point set equals the join of the vertex with
    the base locus.  Returns a list of discrepancy strings (empty = pass).
    """
    problems = []
    base_ctx = base_of(ctx)
    _, sec, _, _ = classify_with_data(spec, base_ctx, p)
    locus = brute_secant_locus(spec, ctx, p, budget)
    vecs = [normalize_point(ctx, p)] + sorted(locus)
    _, brute_rows, _ = row_reduce(ctx, vecs, spec.ambient + 1)
    if tuple(brute_rows) != tuple(sec.rows):
        problems.append("secant cone differs from vertex-lift of the base cone")

    if spec.h >= 0:
        spec0 = spec.base()
        pbar = reduced_point(spec, p)
        base_locus = brute_secant_locus(spec0, ctx, pbar, budget)
        joined = set()
        vs = spec.vertex_size
        for z in product(range(ctx.size), repeat=vs):
            for w in base_locus:
                vec = tuple(z) + tuple(w)
                if any(vec):
                    joined.add(normalize_point(ctx, vec))
        for zrep in projective_points(ctx, vs):
            joined.add(normalize_point(ctx, tuple(zrep) + tuple([0] * (spec0.ambient + 1))))
        if joined != locus:
            problems.append("secant locus differs from the vertex join of the base locus")
    return problems


def ambient_zero_locus(spec: ScrollSpec, ctx: FieldCtx, budget: int = 10**7):
    """Common zero set of the quadric generators over the whole ambient space."""
    size = ctx.size
    total = (size ** (spec.ambient + 1) - 1) // (size - 1)
    if total > budget:
        raise BudgetExceededError(f"ambient scan of size {total} exceeds budget {budget}")
    gens = quadric_generators(spec, ctx)
    out = set()
    for v in projective_points(ctx, spec.ambient + 1):
        if all(not g.evaluate(v) for g in gens):
            out.add(v)
    return out


def veronese_secant_counts(ctx: FieldCtx, mvecs) -> np.ndarray:
    """Brute secant-locus point counts on the Veronese surface, batched.

    For every external symmetric-matrix point in mvecs (6 packed coordinates,
    prime field only), applies the pairwise line test against the full
    rational point table and returns the number of hits.
    """
    import numpy as np

    from .delpezzo import veronese_generators, veronese_point_table

    if ctx.d != 1:
        raise DimensionMismatchError("batched Veronese scan needs a prime field")
    q = ctx.q
    gens = veronese_generators(ctx)
    table = np.array(veronese_point_table(ctx), dtype=np.int64)
    # generator g is x_i[g] x_j[g] - x_k[g] x_l[g]
    i, j, k, l = (np.array(ix) for ix in zip(*((g.i, g.j, g.k, g.l) for g in gens)))  # noqa: E741
    cls = np.asarray(mvecs, dtype=np.int64)
    a_all = (cls[:, i] * cls[:, j] - cls[:, k] * cls[:, l]) % q
    if (a_all == 0).all(axis=1).any():
        raise PointOnVarietyError("batch contains a point of the surface")
    ti, tj, tk, tl = (table[:, ix].T[None] for ix in (i, j, k, l))
    counts = np.empty(len(cls), dtype=np.int64)
    step = 2048
    for s in range(0, len(cls), step):
        e = min(s + step, len(cls))
        c = cls[s:e]
        # the polar of generator g at the class point, paired with every table point
        b = (c[:, i, None] * tj + c[:, j, None] * ti - c[:, k, None] * tl - c[:, l, None] * tk) % q
        a = a_all[s:e]
        i0 = (a != 0).argmax(axis=1)
        a0 = np.take_along_axis(a, i0[:, None], axis=1)
        b0 = np.take_along_axis(b, i0[:, None, None], axis=1)
        cond = ((a0[:, :, None] * b - a[:, :, None] * b0) % q == 0).all(axis=1)
        counts[s:e] = cond.sum(axis=1)
    return counts


def tangency_crosscheck(spec, ctx, p, indices, table: PointTable):
    """Verify on selected table rows that the polar condition matches the
    Jacobian tangent space test."""
    base_ctx = base_of(ctx)
    _, tangent_mask = _pair_data(spec, base_ctx, table, p)
    for i in indices:
        param = table.params[i]
        if param.is_vertex():
            continue
        space = tangent_space(spec, ctx, param)
        flag = space.contains(p)
        if flag != bool(tangent_mask[i]):
            return False
    return True
