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

* `enumerate_points` embeds the parameter grid a block of rows at a time,
  normalizes each block through discrete log tables, and checks the rows
  against the closed-form count, counting distinct rows by sorting them on
  packed integer keys; the parameters of a row are rebuilt from its index
  on demand.
* a table stores each GF(q) component in one byte (the smallest unsigned
  dtype that holds q - 1), an eighth of int64; the build writes every block
  straight into those arrays, so no int64 matrix of the whole table exists,
  and everything that computes with the rows upcasts them to int64 a block
  at a time, since a product of one-byte entries would wrap silently; over
  a prime field the second component is zero, and reading packed rows or
  looking a point up touches only the first;
* the pair scan (`_pair_data`) tests every table row against p with the
  first nonzero secant covector, one matrix-vector product per component,
  and the other covectors only on the rows that pass it; the covectors come
  from `secant._secant_rows`, which the fast path shares, once per point for
  its scans over GF(q) and GF(q^2), and the brute-force functions asking
  about the same point and field share its masks and the packed rows of
  its locus;
* the joins of `brute_membership` are built from grid embeddings of the
  parameters (`scroll._embed_grid`), once per (spec, field) on first use:
  A is the span of the vertex and the degree-1 sub-scroll, B the union over
  (alpha, x) of the spans of the vertex, the sub-scroll line alpha and the
  ruling over x, and U the union over beta of the spans of A and the conic
  beta; a union is decided by batched `pivot_rows` passes with p as the
  last row of every matrix;
* the lift check row-reduces p and the locus when they have at most as many
  rows as coordinates; a longer locus is reduced against the fast cone in
  one batched pass and its rank taken on a prefix of its rows, and the
  vertex join is built as one array and compared by distinct counts of
  packed keys;
* `veronese_secant_masks` line-tests a whole batch of symmetric-matrix
  points against the Veronese surface's point table at once.

numpy is imported inside the functions that use it, so the classification
path, which imports this module through the package, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product

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
from .scroll import ScrollSpec, _embed_grid, _embed_rows, quadric_generators
from .secant import _secant_rows, base_field_point, classify_with_data
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
    over a prime field, and then read by nothing), each in the smallest
    unsigned dtype that holds q - 1 (one byte for every q up to 256), and
    nonvertex flags the rows off the vertex.  Arithmetic on the rows upcasts
    them to int64 a block of `_NORMALIZE_ROWS` rows at a time: products of
    one-byte entries would wrap.  `points`, every row as a tuple, is built
    on first use.
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

        q, point = self.ctx.q, normalize_point(self.ctx, p)
        k0 = np.array([x % q for x in point], dtype=self.arr0.dtype)
        k1 = np.array([x // q for x in point], dtype=self.arr1.dtype) if self.ctx.d == 2 else None
        for s in range(0, len(self), _NORMALIZE_ROWS):
            hit = self.arr0[s:s + _NORMALIZE_ROWS] == k0
            if k1 is not None:
                hit &= self.arr1[s:s + _NORMALIZE_ROWS] == k1
            if hit.all(axis=1).any():
                return True
        return False

    def packed(self, which):
        """The packed rows picked by an index array, a mask or a slice, as
        int64; over a prime field these are the rows of arr0 alone."""
        import numpy as np

        if self.ctx.d == 1:
            return self.arr0[which].astype(np.int64)
        out = self.arr1[which].astype(np.int64)
        out *= self.ctx.q
        out += self.arr0[which].astype(np.int64)
        return out

    @cached_property
    def points(self) -> list:
        return [tuple(r) for s in range(0, len(self), _NORMALIZE_ROWS)
                for r in self.packed(slice(s, s + _NORMALIZE_ROWS)).tolist()]


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


# rows per block of a table build or scan, which bounds the int64 temporaries
_NORMALIZE_ROWS = 1 << 14


@lru_cache(maxsize=8)
def _point_table(spec: ScrollSpec, ctx: FieldCtx) -> PointTable:
    """Embed the parameter grid block by block, normalize, and check the count.

    Each block of rows is embedded and normalized in int64 and stored
    straight into the compact component arrays, and the packed keys of the
    distinct count are read back from them block by block, so no int64
    matrix of the whole table is ever built.
    The rows are the points z + sum_i u_i v_i(x) of the parameter grid, so
    the grid size is the closed-form count exactly when the embedding is
    injective; a repeated row therefore shows as a count below the closed
    form and raises InvariantError, like any other count mismatch.
    """
    import numpy as np

    vs, nv, q = spec.vertex_size, spec.ambient + 1, ctx.q
    nvert = (ctx.size**vs - 1) // (ctx.size - 1)
    xs = np.array(_line_points(ctx), dtype=np.int64)
    us = np.array(list(projective_points(ctx, spec.n)), dtype=np.int64)
    total = nvert + len(xs) * len(us) * ctx.size**vs
    arr0 = np.empty((total, nv), dtype=np.min_scalar_type(q - 1))
    arr1 = np.empty_like(arr0)
    for s, rows in _table_blocks(spec, ctx, nvert, xs, us):
        rows = normalize_rows(ctx, rows)
        np.remainder(rows, q, out=arr0[s:s + len(rows)], casting="unsafe")
        np.floor_divide(rows, q, out=arr1[s:s + len(rows)], casting="unsafe")
    nonvertex = np.ones(total, dtype=bool)
    nonvertex[:nvert] = False
    table = PointTable(ctx=ctx, arr0=arr0, arr1=arr1, nonvertex=nonvertex)

    keys = None
    for s in range(0, total, _NORMALIZE_ROWS):
        block = _row_keys(table.packed(slice(s, s + _NORMALIZE_ROWS)), ctx.size)
        if keys is None:
            keys = np.empty((len(block), total), dtype=np.int64)
        keys[:, s:s + _NORMALIZE_ROWS] = block
    distinct = _distinct_rows(keys)
    expected = _expected_count(spec, ctx.size)
    if distinct != expected:
        raise InvariantError(
            f"enumerated {distinct} points, expected {expected} for {spec}"
        )
    for arr in (arr0, arr1, nonvertex):
        arr.flags.writeable = False
    return table


def _table_blocks(spec: ScrollSpec, ctx: FieldCtx, nvert: int, xs, us):
    """The rows of the point table in order, not yet normalized, as pairs
    (first row, int64 block) of at most `_NORMALIZE_ROWS` rows each.

    After the vertex rows, body row b is the (x, u) pair b // size^(h+1),
    x varying slowest, with the vertex part z whose base-size digits are
    b mod size^(h+1); a block embeds only its own consecutive pairs.
    """
    import numpy as np

    vs, nv, size = spec.vertex_size, spec.ambient + 1, ctx.size
    verts = projective_points(ctx, vs)
    for s in range(0, nvert, _NORMALIZE_ROWS):
        rows = np.zeros((min(_NORMALIZE_ROWS, nvert - s), nv), dtype=np.int64)
        rows[:, :vs] = list(islice(verts, len(rows)))
        yield s, rows
    nz = size**vs
    body = len(xs) * len(us) * nz
    for s in range(0, body, _NORMALIZE_ROWS):
        pair, z = np.divmod(np.arange(s, min(s + _NORMALIZE_ROWS, body)), nz)
        pairs = np.arange(pair[0], pair[-1] + 1)
        rows = _embed_rows(spec, ctx, xs[pairs // len(us)], us[pairs % len(us)])[pair - pair[0]]
        for j in range(vs):
            rows[:, j] = z // size ** (vs - 1 - j) % size
        yield nvert + s, rows


# a packed key stays below this bound, well inside int64
_KEY_BOUND = 1 << 62


def _row_keys(mat, size: int):
    """Integer keys of the rows of a matrix with entries in [0, size), shape
    (keys, rows): two rows are equal exactly when all their keys are.

    Consecutive columns are packed greedily into keys of radix size, a new
    key starting whenever the next column would take the key past 2^62, so
    no key overflows int64 and a row maps to its keys injectively.
    """
    import numpy as np

    keys, bound = [], _KEY_BOUND
    for col in mat.T:
        if bound * size > _KEY_BOUND:
            keys.append(col.astype(np.int64))
            bound = size
        else:
            keys[-1] *= size
            keys[-1] += col
            bound *= size
    return np.stack(keys)


def _distinct_rows(keys) -> int:
    """The number of distinct rows among the key columns of `_row_keys`.

    One key is sorted in place and its neighbours compared.  Several keys
    are sorted lexicographically, the first key first, and the neighbours of
    the sorted key columns compared.
    """
    import numpy as np

    if len(keys) == 1:
        key = keys[0]
        key.sort()
        return 1 + int(np.count_nonzero(key[1:] != key[:-1]))
    srt = keys[:, np.lexsort(keys[::-1])]
    return keys.shape[1] - int((srt[:, 1:] == srt[:, :-1]).all(axis=0).sum())


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
    first stage.  The one-byte components are upcast to int64 a block of
    `_NORMALIZE_ROWS` rows at a time, and after the first covector only the
    rows still in play are, so no product wraps and no int64 copy of the
    whole table is made.  The covectors come from the cached
    `secant._secant_rows`: secant rows, the first one first, then polar rows.
    """
    import numpy as np

    q = base_ctx.q
    rows, n = _secant_rows(quadric_generators(spec, base_ctx), tuple(p))
    first, rest, n_secant = (rows[0], rows[1:], n - 1) if n else (None, rows, 0)
    comps = (table.arr0, table.arr1) if table.ctx.d == 2 else (table.arr0,)
    secant_mask = np.zeros(len(table), dtype=bool)
    tangent_mask = np.zeros(len(table), dtype=bool)
    for s in range(0, len(table), _NORMALIZE_ROWS):
        if first is not None:
            block = comps[0][s:s + _NORMALIZE_ROWS].astype(np.int64)
            rows = s + np.flatnonzero(block @ first % q == 0)
            for arr in comps[1:]:
                rows = rows[arr[rows].astype(np.int64) @ first % q == 0]
        else:
            rows = np.arange(s, min(s + _NORMALIZE_ROWS, len(table)))
        nonzero = rest @ comps[0][rows].T.astype(np.int64) % q != 0
        for arr in comps[1:]:
            nonzero |= rest @ arr[rows].T.astype(np.int64) % q != 0
        secant_mask[rows[~nonzero[:n_secant].any(axis=0)]] = True
        tangent_mask[rows[~nonzero.any(axis=0)]] = True
    return secant_mask, tangent_mask


@lru_cache(maxsize=4)
def _line_masks(spec: ScrollSpec, ctx: FieldCtx, p: tuple):
    """`_pair_data` of p against the table of (spec, ctx) and the packed
    rows of its secant mask, built once for the brute-force functions that
    all ask about the same point (read-only)."""
    table = _point_table(spec, ctx)
    secant_mask, tangent_mask = _pair_data(spec, base_of(ctx), table, p)
    out = (secant_mask, tangent_mask, table.packed(secant_mask))
    for arr in out:
        arr.flags.writeable = False
    return out


def _masks(spec: ScrollSpec, ctx: FieldCtx, p, budget: int):
    """The table of (spec, ctx) within the budget, and `_line_masks` of p."""
    table = enumerate_points(spec, ctx, budget)
    return table, _line_masks(spec, ctx, tuple(p))


def brute_secant_locus(spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7):
    """All table points on a secant or tangent line through p, as a set.

    This is the pairwise line test applied literally to every rational point
    of the scroll; it must equal the fast path's union of ruling cuts over the
    same field.  p lies over GF(q) (`secant.base_field_point`).
    """
    p = base_field_point(spec, ctx, p)
    return {tuple(r) for r in _locus_array(spec, ctx, p, budget).tolist()}


def _locus_array(spec: ScrollSpec, ctx: FieldCtx, p, budget: int):
    """`brute_secant_locus` as the packed rows of a read-only array."""
    return _masks(spec, ctx, p, budget)[1][2]


def brute_membership(
    spec: ScrollSpec, ctx: FieldCtx, p, budget: int = 10**7
) -> MembershipReport:
    """Set memberships by exhaustive enumeration of the defining joins; p lies
    over GF(q) (`secant.base_field_point`)."""
    p = base_field_point(spec, ctx, p)
    table, (secant_mask, tangent_mask, _) = _masks(spec, ctx, p, budget)
    in_sec = bool((secant_mask & table.nonvertex).any())
    in_tan = bool((tangent_mask & table.nonvertex).any())

    vertex, a_rows, a_space, lines, rulings, conics = _joins(spec, ctx)
    in_a = a_space.contains(p)
    in_b = _in_a_span(ctx, p, vertex, lines[:, None], rulings) if spec.k else p in table
    in_u = _in_a_span(ctx, p, a_rows, conics) if spec.m > spec.k else in_a

    sig = classify_with_data(spec, base_of(ctx), p)[0]
    return stratum_report(in_a, in_b, in_u, in_tan, in_sec, sig.label)


@lru_cache(maxsize=8)
def _joins(spec: ScrollSpec, ctx: FieldCtx):
    """The point-independent parts of the joins of `brute_membership`, built
    on first use for (spec, ctx): (vertex rows, A rows, A span, B lines,
    B rulings, U conics), every array read-only.

    A is the span of the vertex and every point of the degree-1 sub-scroll
    (blocks < k); B the union over (alpha, x) of span(vertex, line alpha,
    ruling over x); U the union over beta on the degree-2 blocks of
    span(A, conic beta).  The B parts are None without a degree-1 block,
    and the conics None without a degree-2 block.
    """
    import numpy as np

    nv, vs, k, m, n = spec.ambient + 1, spec.vertex_size, spec.k, spec.m, spec.n
    xs = _line_points(ctx)
    vertex = np.eye(vs, nv, dtype=np.int64)
    alphas = [alpha + (0,) * (n - k) for alpha in projective_points(ctx, k)]
    rows = np.vstack([vertex, _embed_grid(spec, ctx, xs, alphas).reshape(-1, nv)])
    a_space = span_points(ctx, rows[pivot_rows(ctx, rows[None])[0]].tolist(), spec.ambient)
    a_rows = np.reshape(a_space.rows, (-1, nv)).astype(np.int64)
    lines = rulings = conics = None
    if k:
        lines = _embed_grid(spec, ctx, [(1, 0), (0, 1)], alphas).swapaxes(0, 1)
        rulings = _embed_grid(spec, ctx, xs, np.eye(n, dtype=np.int64))
    if m > k:
        betas = [(0,) * k + beta + (0,) * (n - m) for beta in projective_points(ctx, m - k)]
        conics = _embed_grid(spec, ctx, [(1, 0), (0, 1), (1, 1)], betas).swapaxes(0, 1)
    for arr in (vertex, a_rows, lines, rulings, conics):
        if arr is not None:
            arr.flags.writeable = False
    return vertex, a_rows, a_space, lines, rulings, conics


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

    At most as many rows as coordinates are row-reduced directly.  A longer
    locus (thousands of points on a cone) is compared by `_spans_cone`, and
    the join, built as one array, is compared with it by distinct counts of
    packed keys.  p lies over GF(q) (`secant.base_field_point`).
    """
    import numpy as np

    p = base_field_point(spec, ctx, p)
    problems = []
    _, sec, _, _ = classify_with_data(spec, base_of(ctx), p)
    nv = spec.ambient + 1
    locus = _locus_array(spec, ctx, p, budget)
    head = normalize_point(ctx, p)
    if len(locus) >= nv:
        same_cone = _spans_cone(ctx, np.vstack([np.array(head, dtype=np.int64), locus]), sec.rows)
    else:
        same_cone = tuple(rref(ctx, [head] + locus.tolist(), nv)[1]) == tuple(sec.rows)
    if not same_cone:
        problems.append("secant cone differs from vertex-lift of the base cone")

    if spec.h >= 0:
        spec0 = spec.base()
        base_locus = _locus_array(spec0, ctx, p[spec.vertex_size:], budget)
        vs = spec.vertex_size
        zs = np.array(list(product(range(ctx.size), repeat=vs)), dtype=np.int64)
        joined = np.zeros((len(zs), len(base_locus), nv), dtype=np.int64)
        joined[..., :vs] = zs[:, None, :]
        joined[..., vs:] = base_locus
        apex = np.zeros(((ctx.size**vs - 1) // (ctx.size - 1), nv), dtype=np.int64)
        apex[:, :vs] = list(projective_points(ctx, vs))
        join = np.vstack([normalize_rows(ctx, joined.reshape(-1, nv)), apex])
        # two row sets are equal exactly when their union has as many
        # distinct rows as each of them
        keys = [_row_keys(rows, ctx.size) for rows in (join, locus)]
        if len({_distinct_rows(k) for k in (np.hstack(keys), *keys)}) > 1:
            problems.append("secant locus differs from the vertex join of the base locus")
    return problems


# rows of the first rank test of `_spans_cone`, widened by doubling
_CONE_PREFIX = 64


def _spans_cone(ctx: FieldCtx, vecs, cone_rows) -> bool:
    """Whether the rows of the packed matrix vecs span the subspace with the
    RREF basis cone_rows, whose entries lie in GF(q).

    Every row must lie in that subspace.  With B the basis and v[piv] a row's
    entries at the pivot columns of B, the row's residue after elimination is
    v - v[piv] B, which is linear with coefficients in GF(q); so a row over
    GF(q^2) lies in the span exactly when both its GF(q) components do, and
    the residues of all rows are two integer matrix products mod q.  The
    rows then span the subspace exactly when their rank is the length of the
    basis; the rank is taken on a prefix of the rows, widened only while the
    prefix falls short of that length.
    """
    import numpy as np

    q = ctx.q
    basis = np.array(cone_rows, dtype=np.int64).reshape(-1, vecs.shape[1])
    pivots = (basis != 0).argmax(axis=1)
    for comp in np.divmod(vecs, q):
        if ((comp - comp[:, pivots] @ basis) % q).any():
            return False
    size = _CONE_PREFIX
    while True:
        if int(pivot_rows(ctx, vecs[None, :size]).sum()) == len(basis):
            return True
        if size >= len(vecs):
            return False
        size *= 2


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
