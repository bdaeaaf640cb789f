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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, PointOnVarietyError
from .exactfield import FieldCtx, field_make, normalize_point, row_reduce
from .scroll import (
    ScrollPoint,
    ScrollSpec,
    embed,
    quadric_generators,
    tangent_space,
)
from .secant import (
    _polar_covector,
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


@lru_cache(maxsize=8)
def enumerate_points(spec: ScrollSpec, ctx: FieldCtx, budget: int = 10**7) -> PointTable:
    """Every point of the scroll over the field of ctx, each exactly once."""
    size = ctx.size
    expected = _expected_count(spec, size)
    if expected > budget:
        raise BudgetExceededError(
            f"point table of size {expected} exceeds budget {budget}"
        )
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
    for z in _proj_reps(ctx, vs):
        push(ScrollPoint((0, 0), zero_u, z))
    for x in _line_points(ctx):
        for u in _proj_reps(ctx, spec.n):
            for z in _affine_tuples(ctx, vs):
                push(ScrollPoint(x, u, z))
    if len(pts) != expected:
        raise AssertionError(
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


def _line_points(ctx: FieldCtx):
    yield (0, 1)
    for t in range(ctx.size):
        yield (1, t)


def _proj_reps(ctx: FieldCtx, n: int):
    """Normalized representatives of P^(n-1); empty for n = 0."""
    if n == 0:
        return
    for lead in range(n):
        for tail in _affine_tuples(ctx, n - lead - 1):
            yield tuple([0] * lead + [1] + list(tail))


def _affine_tuples(ctx: FieldCtx, n: int):
    if n == 0:
        yield ()
        return
    idx = [0] * n
    while True:
        yield tuple(idx)
        pos = n - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < ctx.size:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return


def _pair_data(spec: ScrollSpec, base_ctx: FieldCtx, table: PointTable, p):
    """Vectorized A/B data of the line test for p against the whole table."""
    gens = quadric_generators(spec, base_ctx)
    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    w = np.array([_polar_covector(base_ctx, g, p) for g in gens], dtype=np.int64)
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
    base_ctx = _base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    secant_mask, _ = _pair_data(spec, base_ctx, table, p)
    return {table.points[i] for i in np.nonzero(secant_mask)[0]}


def brute_tangent_witnesses(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """Indices of non-vertex table points whose tangent space contains p."""
    base_ctx = _base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    _, tangent_mask = _pair_data(spec, base_ctx, table, p)
    return list(np.nonzero(tangent_mask & table.nonvertex)[0])


def _base_of(ctx: FieldCtx) -> FieldCtx:
    return ctx if ctx.d == 1 else field_make(ctx.q, 1)


def brute_membership(
    spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7
) -> MembershipReport:
    """Set memberships by exhaustive enumeration of the defining joins."""
    base_ctx = _base_of(ctx)
    table = enumerate_points(spec, ctx, budget)
    secant_mask, tangent_mask = _pair_data(spec, base_ctx, table, p)
    nonvertex = table.nonvertex
    in_sec = bool((secant_mask & nonvertex).any())
    in_tan = bool((tangent_mask & nonvertex).any())

    nv = spec.ambient + 1
    vs = spec.vertex_size
    vertex_rows = []
    for i in range(vs):
        e = [0] * nv
        e[i] = 1
        vertex_rows.append(tuple(e))

    # A: span of the vertex and the enumerated degree-1 sub-scroll
    one_blocks = [i for i, ai in enumerate(spec.a) if ai == 1]
    sub_pts = []
    for x in _line_points(ctx):
        for alpha in _proj_reps(ctx, len(one_blocks)):
            u = [0] * spec.n
            for ci, i in enumerate(one_blocks):
                u[i] = alpha[ci]
            sub_pts.append(embed(spec, ctx, ScrollPoint(x, tuple(u), tuple([0] * vs))))
    a_rows = vertex_rows + sub_pts
    in_a = _span_contains(ctx, a_rows, nv, p)

    # B: union over (alpha, x) of the span of a sub-scroll line with a ruling
    in_b = False
    if one_blocks:
        for alpha in _proj_reps(ctx, len(one_blocks)):
            line_rows = []
            for fib in ((1, 0), (0, 1)):
                u = [0] * spec.n
                for ci, i in enumerate(one_blocks):
                    u[i] = alpha[ci]
                line_rows.append(
                    embed(spec, ctx, ScrollPoint(fib, tuple(u), tuple([0] * vs)))
                )
            for x in _line_points(ctx):
                ruling_rows = _ruling_rows(spec, ctx, x)
                if _span_contains(
                    ctx, vertex_rows + line_rows + ruling_rows, nv, p
                ):
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
        for beta in _proj_reps(ctx, len(two_blocks)):
            plane_rows = []
            for j in range(3):
                row = [0] * nv
                for ci, i in enumerate(two_blocks):
                    row[spec.block_starts[i] + j] = beta[ci]
                plane_rows.append(tuple(row))
            if _span_contains(ctx, a_rows + plane_rows, nv, p):
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
    sig = classify_signature(spec, _base_of(ctx), p)
    return MembershipReport(
        in_A=in_a,
        in_B=in_b,
        in_U=in_u,
        in_Tan=in_tan,
        in_Sec=in_sec,
        label_geom=label,
        agrees_with_signature=(label == sig.label),
    )


def _ruling_rows(spec: ScrollSpec, ctx: FieldCtx, x):
    rows = []
    for i in range(spec.n):
        u = [0] * spec.n
        u[i] = 1
        rows.append(embed(spec, ctx, ScrollPoint(x, tuple(u), tuple([0] * spec.vertex_size))))
    return rows


def _span_contains(ctx: FieldCtx, rows, nv: int, p) -> bool:
    _, ech, _ = row_reduce(ctx, rows, nv)
    out = list(p)
    for row in ech:
        pc = next(j for j, x in enumerate(row) if x)
        f = out[pc]
        if f:
            for j in range(pc, nv):
                if row[j]:
                    out[j] = ctx.sub(out[j], ctx.mul(f, row[j]))
    return not any(out)


def check_lift_equalities(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """Check the two cone-lift identities against the brute data.

    (i) the secant cone equals the span of the vertex with the base secant
    cone: compared as the RREF of {p} + brute locus points versus the fast
    cone; (ii) the secant locus point set equals the join of the vertex with
    the base locus.  Returns a list of discrepancy strings (empty = pass).
    """
    problems = []
    base_ctx = _base_of(ctx)
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
        for z in _affine_tuples(ctx, vs):
            for w in base_locus:
                vec = tuple(z) + tuple(w)
                if any(vec):
                    joined.add(normalize_point(ctx, vec))
        for zrep in _proj_reps(ctx, vs):
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
    for v in _proj_reps(ctx, spec.ambient + 1):
        if all(not g.evaluate(v) for g in gens):
            out.add(v)
    return out


def veronese_secant_counts(ctx: FieldCtx, mvecs) -> np.ndarray:
    """Brute secant-locus point counts on the Veronese surface, batched.

    For every external symmetric-matrix point in mvecs (6 packed coordinates,
    prime field only), applies the pairwise line test against the full
    rational point table and returns the number of hits.
    """
    from .delpezzo import veronese_generators, veronese_point_table

    if ctx.d != 1:
        raise DimensionMismatchError("batched Veronese scan needs a prime field")
    q = ctx.q
    gens = veronese_generators(ctx)
    table = np.array(veronese_point_table(ctx), dtype=np.int64)
    gram = np.array([g.gram for g in gens], dtype=np.int64)
    cls = np.asarray(mvecs, dtype=np.int64)
    a_all = np.einsum("ci,gij,cj->cg", cls, gram, cls) % q
    if (a_all == 0).all(axis=1).any():
        raise PointOnVarietyError("batch contains a point of the surface")
    gt = np.einsum("gij,tj->gti", gram, table) % q
    counts = np.empty(len(cls), dtype=np.int64)
    step = 2048
    for s in range(0, len(cls), step):
        e = min(s + step, len(cls))
        b = (2 * np.einsum("ci,gti->cgt", cls[s:e], gt)) % q
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
    base_ctx = _base_of(ctx)
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
