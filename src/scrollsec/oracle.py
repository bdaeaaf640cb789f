"""Brute-force reference implementations over tiny fields.

Everything here is ground truth for the fast paths: the scroll is enumerated
point by point, secancy is decided by the pairwise line test applied to every
enumerated point, and the geometric set memberships are decided by exhaustive
enumeration of the joins that define them.  Deliberately no reduction to the
smooth part: the oracle works on the cone directly, so the vertex-deletion
shortcut used everywhere else is itself under test.

Brute force here means exhaustive, not scalar.  Work that touches every point
runs on numpy arrays of packed coordinates, with GF(q^2) elements either
packed (`FieldCtx.mul` and its siblings take arrays) or split into their two
GF(q) components, which turns the line tests into plain integer matrix
products mod q:

* `enumerate_points` embeds the whole parameter grid at once, normalizes the
  rows with a table of inverses, and checks them against the closed-form
  count, counting distinct rows by sorting them on packed integer keys; the
  parameters of a row are rebuilt from its index on demand.
* the pair scan (`_pair_data`) tests every table row against p with the
  first nonzero secant covector, one matrix-vector product per component,
  and the other covectors only on the rows that pass it; the brute-force
  functions asking about the same point share its masks;
* the joins of `brute_membership` are built from grid embeddings of the
  parameters (`scroll._embed_grid`): A is the span of the vertex and the
  degree-1 sub-scroll, B the union over (alpha, x) of the spans of the
  vertex, the sub-scroll line alpha and the ruling over x, and U the union
  over beta of the spans of A and the conic beta; a union is decided by
  batched `pivot_rows` passes with p as the last row of every matrix;
* the lift check takes the RREF of p and the locus, first cut down to the
  pivot rows that span them when there are more rows than coordinates, and
  builds the vertex join as one array;
* `veronese_secant_masks` line-tests a whole batch of symmetric-matrix
  points against the Veronese surface's point table at once.

numpy is imported inside the functions that use it, so the classification
path, which imports this module through the package, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from . import delpezzo
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
    normalize_rows,
    pivot_rows,
    projective_points,
    rref,
    span_points,
)
from .scroll import ScrollSpec, _embed_grid, quadric_generators
from .secant import (
    classify_signature,
    classify_with_data,
    reduced_point,
)
from .strata import MembershipReport, stratum_report

__all__ = [
    "PointTable",
    "enumerate_points",
    "brute_secant_locus",
    "brute_membership",
    "check_lift_equalities",
    "ambient_zero_locus",
    "veronese_secant_masks",
]


@dataclass(eq=False)
class PointTable:
    """All rational points of a scroll over GF(q^d), normalized, each once.

    Row order is the order of the parameters: the vertex points z of P^h
    first, then every x of P^1 in `_line_points` order, every u of P^(n-1)
    and every affine vertex part z, the last varying fastest.  arr0 and arr1
    hold the two GF(q) components of the packed coordinates (arr1 is zero
    over a prime field) and nonvertex flags the rows off the vertex.
    `points`, every row as a tuple, is built on first use.
    """

    ctx: FieldCtx
    arr0: np.ndarray
    arr1: np.ndarray
    nonvertex: np.ndarray

    def __len__(self):
        return len(self.arr0)

    def __contains__(self, p) -> bool:
        """True when the projective point p is a row of the table."""
        import numpy as np

        k1, k0 = divmod(np.array(normalize_point(self.ctx, p), dtype=np.int64), self.ctx.q)
        return bool(((self.arr0 == k0) & (self.arr1 == k1)).all(axis=1).any())

    def packed(self, which):
        """The packed rows picked by an index array, a mask or a slice."""
        return self.arr0[which] + self.ctx.q * self.arr1[which]

    @cached_property
    def points(self) -> list:
        return [tuple(r) for r in self.packed(slice(None)).tolist()]


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


# rows normalized per pass, which bounds the temporaries of a large build
_NORMALIZE_ROWS = 1 << 14


@lru_cache(maxsize=8)
def _point_table(spec: ScrollSpec, ctx: FieldCtx) -> PointTable:
    """Embed every parameter triple at once, normalize, and check the count.

    The rows are the points z + sum_i u_i v_i(x) of the parameter grid, so
    the grid size is the closed-form count exactly when the embedding is
    injective; a repeated row therefore shows as a count below the closed
    form and raises InvariantError, like any other count mismatch.
    """
    import numpy as np

    vs, nv = spec.vertex_size, spec.ambient + 1
    grid = _embed_grid(spec, ctx, _line_points(ctx), list(projective_points(ctx, spec.n)))
    verts = list(projective_points(ctx, vs))
    nvert = len(verts)
    if not vs:
        mat = grid.reshape(-1, nv)
    else:
        zs = list(product(range(ctx.size), repeat=vs))
        mat = np.zeros((nvert + grid.shape[0] * grid.shape[1] * len(zs), nv), dtype=np.int64)
        mat[:nvert, :vs] = verts
        body = mat[nvert:].reshape(*grid.shape[:2], len(zs), nv)
        body[..., :vs] = zs
        body[..., vs:] = grid[:, :, None, vs:]
    for s in range(0, len(mat), _NORMALIZE_ROWS):
        mat[s:s + _NORMALIZE_ROWS] = normalize_rows(ctx, mat[s:s + _NORMALIZE_ROWS])

    distinct = _distinct_rows(mat, ctx.size)
    expected = _expected_count(spec, ctx.size)
    if distinct != expected:
        raise InvariantError(
            f"enumerated {distinct} points, expected {expected} for {spec}"
        )
    # split the packed entries into their GF(q) components, reusing mat
    arr1 = mat // ctx.q
    arr0 = np.remainder(mat, ctx.q, out=mat)
    nonvertex = np.arange(len(mat)) >= nvert
    for arr in (arr0, arr1, nonvertex):
        arr.flags.writeable = False
    return PointTable(ctx=ctx, arr0=arr0, arr1=arr1, nonvertex=nonvertex)


# a packed key stays below this bound, well inside int64
_KEY_BOUND = 1 << 62


def _distinct_rows(mat, size: int) -> int:
    """The number of distinct rows of a matrix with entries in [0, size).

    Consecutive columns are packed greedily into integer keys of radix size,
    a new key starting whenever the next column would take the key past
    2^62, so no key overflows int64 and a row maps to its keys injectively.
    The rows are sorted lexicographically on their keys, the last key first
    and each earlier one with a stable sort, and neighbours compared.
    """
    import numpy as np

    keys, bound = [], _KEY_BOUND
    for col in mat.T:
        if bound * size > _KEY_BOUND:
            keys.append(col.copy())
            bound = size
        else:
            keys[-1] *= size
            keys[-1] += col
            bound *= size
    order = np.argsort(keys[-1])
    for key in keys[-2::-1]:
        order = order[np.argsort(key[order], kind="stable")]
    srt = np.stack(keys)[:, order]
    return len(mat) - int((srt[:, 1:] == srt[:, :-1]).all(axis=0).sum())


# table builds show as cache misses of enumerate_points itself
enumerate_points.cache_info = _point_table.cache_info
enumerate_points.cache_clear = _point_table.cache_clear


def _line_points(ctx: FieldCtx) -> list:
    """P^1 with (0:1) first: the order of the point tables."""
    *finite, infinity = projective_points(ctx, 2)
    return [infinity] + finite


def _pair_data(spec: ScrollSpec, base_ctx: FieldCtx, table: PointTable, p):
    """The line test for p against every table row: (secant mask, tangent mask).

    With A_i = Q_i(p) and B_i the polar of Q_i at p applied to the row, the
    row lies on a secant or tangent line through p when every
    A_i0 B_i - A_i B_i0 vanishes (i0 the first i with A_i != 0), and p lies
    on its tangent space when every B_i does.  Both conditions are linear in
    the row, with covectors over GF(q), so they hold for a row over GF(q^2)
    when they hold for both of its GF(q) components.

    The scan is filtered: the first nonzero secant covector is tested on
    every row, and the other secant covectors and the polar covectors only
    on the rows that passed it.  A tangent row is a secant row (all B_i = 0
    makes every A_i0 B_i - A_i B_i0 vanish), so the tangent test needs only
    the secant hits.  With no nonzero secant covector every row passes the
    first stage.
    """
    import numpy as np

    gens = quadric_generators(spec, base_ctx)
    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    q = base_ctx.q
    w = np.array([g.polar(p) for g in gens], dtype=np.int64)
    a = np.array(a_vals, dtype=np.int64)
    i0 = int(np.nonzero(a)[0][0])
    secant = (a[i0] * w - a[:, None] * w[i0]) % q
    secant = secant[secant.any(axis=1)]
    comps = (table.arr0, table.arr1) if table.ctx.d == 2 else (table.arr0,)
    if len(secant):
        first, secant = secant[0], secant[1:]
        rows = np.flatnonzero(comps[0] @ first % q == 0)
        for arr in comps[1:]:
            rows = rows[arr[rows] @ first % q == 0]
    else:
        rows = np.arange(len(table))
    rest = np.vstack([secant, w])
    nonzero = rest @ comps[0][rows].T % q != 0
    for arr in comps[1:]:
        nonzero |= rest @ arr[rows].T % q != 0
    secant_mask = np.zeros(len(table), dtype=bool)
    tangent_mask = np.zeros(len(table), dtype=bool)
    secant_mask[rows[~nonzero[:len(secant)].any(axis=0)]] = True
    tangent_mask[rows[~nonzero.any(axis=0)]] = True
    return secant_mask, tangent_mask


@lru_cache(maxsize=4)
def _line_masks(spec: ScrollSpec, ctx: FieldCtx, p: tuple):
    """`_pair_data` of p against the table of (spec, ctx), built once for the
    brute-force functions that all ask about the same point (read-only)."""
    masks = _pair_data(spec, base_of(ctx), _point_table(spec, ctx), p)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _masks(spec: ScrollSpec, ctx: FieldCtx, p, budget: int):
    """The table of (spec, ctx) within the budget, and the line masks of p."""
    table = enumerate_points(spec, ctx, budget)
    return table, _line_masks(spec, ctx, tuple(p))


def brute_secant_locus(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """All table points on a secant or tangent line through p, as a set.

    This is the pairwise line test applied literally to every rational point
    of the scroll; it must equal the fast path's union of ruling cuts over the
    same field.
    """
    return {tuple(r) for r in _locus_array(spec, ctx, p, budget).tolist()}


def _locus_array(spec: ScrollSpec, ctx: FieldCtx, p, budget: int):
    """`brute_secant_locus` as the packed rows of an array."""
    table, (secant_mask, _) = _masks(spec, ctx, p, budget)
    return table.packed(secant_mask)


def brute_membership(
    spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7
) -> MembershipReport:
    """Set memberships by exhaustive enumeration of the defining joins."""
    import numpy as np

    table, (secant_mask, tangent_mask) = _masks(spec, ctx, p, budget)
    in_sec = bool((secant_mask & table.nonvertex).any())
    in_tan = bool((tangent_mask & table.nonvertex).any())

    nv, vs, k, m, n = spec.ambient + 1, spec.vertex_size, spec.k, spec.m, spec.n
    # A: span of the vertex and every point of the degree-1 sub-scroll (blocks < k)
    a_rows = []
    if vs or k:
        xs = _line_points(ctx)
        vertex = np.eye(vs, nv, dtype=np.int64)
        alphas = [alpha + (0,) * (n - k) for alpha in projective_points(ctx, k)]
        rows = np.vstack([vertex, _embed_grid(spec, ctx, xs, alphas).reshape(-1, nv)])
        a_rows = rows[pivot_rows(ctx, rows[None])[0]].tolist()
    a_space = span_points(ctx, a_rows, spec.ambient)
    in_a = a_space.contains(p)

    # B: union over (alpha, x) of span(vertex, line alpha, ruling over x)
    if k:
        lines = _embed_grid(spec, ctx, [(1, 0), (0, 1)], alphas).swapaxes(0, 1)
        rulings = _embed_grid(spec, ctx, xs, np.eye(n, dtype=np.int64))
        in_b = _in_a_span(ctx, p, vertex, lines[:, None], rulings)
    else:
        in_b = p in table

    # U: union over beta of span(A, conic beta), beta on the degree-2 blocks
    if m > k:
        betas = [(0,) * k + beta + (0,) * (n - m) for beta in projective_points(ctx, m - k)]
        conics = _embed_grid(spec, ctx, [(1, 0), (0, 1), (1, 1)], betas).swapaxes(0, 1)
        in_u = _in_a_span(ctx, p, np.reshape(a_space.rows, (-1, nv)), conics)
    else:
        in_u = in_a

    sig = classify_signature(spec, base_of(ctx), p)
    return stratum_report(in_a, in_b, in_u, in_tan, in_sec, sig.label)


# matrices row-reduced per pass, which bounds the temporaries of a large union
_SPAN_BATCH = 1 << 12


def _in_a_span(ctx: FieldCtx, p, *parts) -> bool:
    """Whether p lies in the row span of some matrix of a batch.

    The parts, arrays of rows (..., rows, N+1), broadcast over their leading
    axes and stack along the rows, with p as the last row of every matrix;
    `pivot_rows` picks that row exactly when p is not in the span above it.
    """
    import numpy as np

    parts = [np.asarray(part, dtype=np.int64) for part in (*parts, [p])]
    lead = np.broadcast_shapes(*(part.shape[:-2] for part in parts))
    parts = [np.broadcast_to(part, lead + part.shape[-2:]) for part in parts]
    count = int(np.prod(lead))
    for s in range(0, count, _SPAN_BATCH):
        idx = np.unravel_index(np.arange(s, min(s + _SPAN_BATCH, count)), lead)
        mats = np.concatenate([part[idx] for part in parts], axis=1)
        if not pivot_rows(ctx, mats)[:, -1].all():
            return True
    return False


def check_lift_equalities(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """Check the two cone-lift identities against the brute data.

    (i) the secant cone equals the span of the vertex with the base secant
    cone: compared as the RREF of {p} + brute locus points versus the fast
    cone; (ii) the secant locus point set equals the join of the vertex with
    the base locus.  Returns a list of discrepancy strings (empty = pass).
    The locus can have thousands of points, so more rows than coordinates
    are first cut down to the pivot rows that span them, and the join is
    built as one array.
    """
    import numpy as np

    problems = []
    _, sec, _, _ = classify_with_data(spec, base_of(ctx), p)
    nv = spec.ambient + 1
    locus = _locus_array(spec, ctx, p, budget)
    vecs = np.vstack([np.array(normalize_point(ctx, p), dtype=np.int64), locus])
    if len(vecs) > nv:
        vecs = vecs[pivot_rows(ctx, vecs[None])[0]]
    _, brute_rows = rref(ctx, vecs.tolist(), nv)
    if tuple(brute_rows) != tuple(sec.rows):
        problems.append("secant cone differs from vertex-lift of the base cone")

    if spec.h >= 0:
        spec0 = spec.base()
        base_locus = _locus_array(spec0, ctx, reduced_point(spec, p), budget)
        vs = spec.vertex_size
        zs = np.array(list(product(range(ctx.size), repeat=vs)), dtype=np.int64)
        joined = np.zeros((len(zs), len(base_locus), nv), dtype=np.int64)
        joined[..., :vs] = zs[:, None, :]
        joined[..., vs:] = base_locus
        pts = {tuple(r) for r in normalize_rows(ctx, joined.reshape(-1, nv)).tolist()}
        pts.update(z + (0,) * (nv - vs) for z in projective_points(ctx, vs))
        if pts != {tuple(r) for r in locus.tolist()}:
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


def veronese_secant_masks(ctx: FieldCtx, mvecs):
    """Brute secant loci on the Veronese surface, batched.

    For every external symmetric-matrix point in mvecs (6 packed coordinates,
    prime field only), applies the pairwise line test against every row of
    `veronese_point_table(ctx)` and returns the hits as a boolean array with
    one row per point and one column per table row.  Every table row must lie
    on the surface.
    """
    import numpy as np

    if ctx.d != 1:
        raise DimensionMismatchError("batched Veronese scan needs a prime field")
    q = ctx.q
    gens = delpezzo.veronese_generators(ctx)
    table = np.array(delpezzo.veronese_point_table(ctx), dtype=np.int64)
    # generator g is x_i[g] x_j[g] - x_k[g] x_l[g]
    i, j, k, l = (np.array(ix) for ix in zip(*((g.i, g.j, g.k, g.l) for g in gens)))  # noqa: E741
    if ((table[:, i] * table[:, j] - table[:, k] * table[:, l]) % q).any():
        raise InvariantError("table point claims to be off the Veronese surface")
    cls = np.asarray(mvecs, dtype=np.int64)
    a_all = (cls[:, i] * cls[:, j] - cls[:, k] * cls[:, l]) % q
    if (a_all == 0).all(axis=1).any():
        raise PointOnVarietyError("batch contains a point of the surface")
    ti, tj, tk, tl = (table[:, ix].T[None] for ix in (i, j, k, l))
    hits = np.empty((len(cls), len(table)), dtype=bool)
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
        hits[s:e] = ((a0[:, :, None] * b - a[:, :, None] * b0) % q == 0).all(axis=1)
    return hits
