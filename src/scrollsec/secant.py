"""Secant cones, secant loci, and their six-type classification.

For an external point p, a point q on the scroll lies on a secant (or tangent)
line through p exactly when the quadric generators restricted to the line
l*p + m*q, which are the binary forms l*(A_i*l + B_i*m) with A_i = Q_i(p) and
B_i the polar of Q_i at (p, q), share a common linear factor besides l.  That
happens iff the rows (A_i, B_i) are pairwise proportional, a condition linear
in q.  On each ruling the generators vanish identically, so the secant locus
meets every ruling in a linear subspace: the kernel of a small matrix whose
entries are polynomials in the P^1 coordinate.

The classification pipeline therefore runs fiber-wise on the smooth scroll
obtained by deleting the vertex coordinates (membership is insensitive to the
vertex part), finds the rulings that meet the locus by exact root-finding,
accumulates the span, and reads off the pair

    s    = projective dimension of the span, minus vertex contribution,
    rank = Gram rank of the unique hyperquadric cut on the span,

which lands in one of exactly six legal combinations.

Why searching degree <= 2 extensions suffices: each locus type is cut out over
the ground field, so its reduced components form a single Galois orbit of size
at most two (a pair of points, a pair of rulings).  Components of a
positive-dimensional locus meet every ruling, and the zero-dimensional loci
sit over at most two rulings, which are then conjugate over GF(q^2) at worst.
A pair of conjugate entry points is the forcing case.  It lies over the two
roots of an irreducible quadratic factor, over GF(q), of a pivot polynomial,
which `_binpoly` solves by the quadratic formula; no polynomial with GF(q^2)
coefficients is ever factored.  The search over GF(q) and GF(q^2) always
runs in full; cutting it at GF(q) would miss exactly those chords and report
the point as Empty2Z.

Each external point gets one analysis.  `classify_with_data` validates p and
looks the analysis (signature, cone, quadric, witness sample) up in a small
cache keyed on the validated point, so the stratum and Del Pezzo code read the
ruling scan that classification ran instead of running it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _binpoly as bp
from .errors import (
    BudgetExceededError,
    PointOnVarietyError,
    UnclassifiableSignatureError,
    ZeroVectorError,
)
from .exactfield import (
    FieldCtx,
    LinearSubspace,
    QForm,
    base_of,
    extension_of,
    normalize_point,
    polarize,
    projective_points,
    qform_normalized_gram,
    qform_rank,
    row_reduce,
    unit_rows,
)
from .scroll import ScrollSpec, contains, quadric_generators, _monomials

__all__ = [
    "NOT_ON_X",
    "NOT_SECANT",
    "SECANT",
    "TANGENT_CONTACT",
    "LABELS",
    "SIGNATURE_TABLE",
    "SecantSignature",
    "SecantSample",
    "secant_pair_test",
    "fiber_secant_space",
    "secant_cone_and_quadric",
    "classify_signature",
    "classify_with_data",
    "secant_locus_points",
    "validate_point",
]

NOT_ON_X = "NotOnX"
NOT_SECANT = "NotSecant"
SECANT = "Secant"
TANGENT_CONTACT = "TangentContact"

LABELS = ("Empty2Z", "TwoPoints", "DoublePoint", "TwoLines", "Conic", "QuadricSurface")

# the six legal (s, rank) pairs
SIGNATURE_TABLE = {
    (0, 1): "Empty2Z",
    (1, 2): "TwoPoints",
    (1, 1): "DoublePoint",
    (2, 2): "TwoLines",
    (2, 3): "Conic",
    (3, 4): "QuadricSurface",
}

# dim of the locus exceeds the vertex dimension by this amount, per label
LOCUS_JUMP = {
    "Empty2Z": 0,
    "TwoPoints": 1,
    "DoublePoint": 1,
    "TwoLines": 2,
    "Conic": 2,
    "QuadricSurface": 3,
}


@dataclass(frozen=True)
class SecantSignature:
    """Classification data of the secant locus of one external point."""

    sec_dim: int
    h: int
    s: int
    rank: int
    label: str
    locus_dim: int
    depth_pred: int


@dataclass(frozen=True)
class FiberRecord:
    """One ruling that meets the secant locus: its P^1 point and the cut subspace."""

    x: tuple
    ctx: FieldCtx
    space: LinearSubspace


@dataclass(frozen=True)
class SecantSample:
    """Witness data gathered while classifying: locus points and per-ruling cuts."""

    points: tuple
    fiber_records: tuple
    all_fibers_active: bool


# ---------------------------------------------------------------------------
# pairwise test
# ---------------------------------------------------------------------------


def pair_test_with_generators(ctx: FieldCtx, gens, p, q) -> str:
    """Line classification for any variety cut out by quadric generators.

    With A_i = Q_i(p), B_i = polar of Q_i at (p, q), C_i = Q_i(q): q must lie
    on the variety (C identically zero), and the line meets it in length >= 2
    exactly when the rows (A_i, B_i) are pairwise proportional.
    """
    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the variety")
    if not any(q):
        raise ZeroVectorError("q is the zero vector")
    if any(g.evaluate(q) for g in gens):
        return NOT_ON_X
    b_vals = [polarize(g, p, q) for g in gens]
    if not any(b_vals):
        return TANGENT_CONTACT
    i0 = next(i for i, a in enumerate(a_vals) if a)
    mul, sub = ctx.mul, ctx.sub
    a0 = a_vals[i0]
    b0 = b_vals[i0]
    for a, b in zip(a_vals, b_vals):
        if sub(mul(a0, b), mul(a, b0)):
            return NOT_SECANT
    return SECANT


def secant_pair_test(spec: ScrollSpec, ctx: FieldCtx, p, q) -> str:
    """Classify the line through p and q: NotOnX / NotSecant / Secant / TangentContact.

    Secant and TangentContact both mean q lies on the secant locus of p;
    TangentContact means the line meets the scroll doubly at q itself.
    """
    return pair_test_with_generators(ctx, quadric_generators(spec, ctx), p, q)


def secant_second_point(spec: ScrollSpec, ctx: FieldCtx, p, q):
    """For a Secant pair, the residual intersection point -B0*p + A0*q.

    Coincides with q exactly in the TangentContact case.
    """
    gens = quadric_generators(spec, ctx)
    a_vals = [g.evaluate(p) for g in gens]
    i0 = next(i for i, a in enumerate(a_vals) if a)
    b0 = polarize(gens[i0], p, q)
    lam = ctx.neg(b0)
    mu = a_vals[i0]
    out = tuple(ctx.add(ctx.mul(lam, pi), ctx.mul(mu, qi)) for pi, qi in zip(p, q))
    return normalize_point(ctx, out)


# ---------------------------------------------------------------------------
# fiber-wise machinery on the smooth reduction
# ---------------------------------------------------------------------------


def reduced_point(spec: ScrollSpec, p):
    """Delete the vertex coordinates of p; must leave a nonzero vector."""
    pbar = tuple(p[spec.vertex_size:])
    if not any(pbar):
        raise PointOnVarietyError("p lies in the vertex of the scroll")
    return pbar


def _secant_covectors(spec0: ScrollSpec, ctx: FieldCtx, pbar):
    """Row covectors of the linear system cutting the secant locus on each ruling.

    Row i (for i != pivot) is A_i0 * 2 p G_i - A_i * 2 p G_i0, a linear form on
    the ambient space of the smooth scroll.
    """
    gens = quadric_generators(spec0, ctx)
    a_vals = [g.evaluate(pbar) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    i0 = next(i for i, a in enumerate(a_vals) if a)
    twop = [g.polar(pbar) for g in gens]
    a0 = a_vals[i0]
    rows = []
    nv = spec0.ambient + 1
    for i in range(len(gens)):
        if i == i0:
            continue
        ai = a_vals[i]
        row = tuple(
            ctx.sub(ctx.mul(a0, twop[i][j]), ctx.mul(ai, twop[i0][j]))
            for j in range(nv)
        )
        rows.append(row)
    return rows


def _tangency_covectors(spec0: ScrollSpec, ctx: FieldCtx, pbar):
    """Rows 2 p G_i for every generator; their common kernel on a ruling is the
    set of points whose tangent space contains p."""
    gens = quadric_generators(spec0, ctx)
    if not any(g.evaluate(pbar) for g in gens):
        raise PointOnVarietyError("p lies on the scroll")
    return [g.polar(pbar) for g in gens]


def _poly_fiber_matrix(spec0: ScrollSpec, covectors):
    """Entry (i, j): the covector paired with block j along the ruling at
    x = (1 : tau), as a polynomial in tau.  The coefficients are just the
    covector slice over block j."""
    mat = []
    for w in covectors:
        row = []
        for i, ai in enumerate(spec0.a):
            start = spec0.block_starts[i]
            row.append(bp.pnorm([w[start + l] for l in range(ai + 1)]))
        mat.append(row)
    return mat


def _poly_rank_and_pivots(ctx: FieldCtx, mat, ncols: int):
    """Rank over the rational function field and the pivot polynomials.

    Division-free elimination.  Wherever the numeric rank drops below the
    generic rank, SOME pivot polynomial vanishes: evaluating the recorded row
    operations at such a point can only lose rank, yet nonvanishing pivots
    would exhibit a full echelon minor.  So the exceptional rulings are among
    the roots of the pivots, each kept separately to avoid degree blow-up.
    """
    q = ctx.q
    rows = [[list(e) for e in row] for row in mat if any(e for e in row)]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            e = rows[i][col]
            if e and (piv is None or bp.pdeg(e) < bp.pdeg(rows[piv][col])):
                piv = i
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pe = prow[col]
        for i in range(rank + 1, len(rows)):
            e = rows[i][col]
            if e:
                for j in range(col, ncols):
                    rows[i][j] = bp.psub(
                        q, bp.pmul(q, pe, rows[i][j]), bp.pmul(q, e, prow[j])
                    )
        pivots.append(pe)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots


def _eval_fiber_matrix(spec0: ScrollSpec, ctx_x: FieldCtx, covectors, x):
    """Numeric fiber matrix at x = (s, t) over the field of x."""
    s, t = x
    cols = []
    for i, ai in enumerate(spec0.a):
        start = spec0.block_starts[i]
        mon = _monomials(ctx_x, s, t, ai)
        cols.append((start, mon, ai))
    mat = []
    for w in covectors:
        row = []
        for start, mon, ai in cols:
            acc = 0
            for l in range(ai + 1):
                wl = w[start + l]
                if wl and mon[l]:
                    acc = ctx_x.add(acc, ctx_x.mul(wl, mon[l]))
            row.append(acc)
        mat.append(row)
    return mat


def _fiber_kernel_vectors(spec0: ScrollSpec, ctx_x: FieldCtx, covectors, x):
    """Ambient vectors spanning the ruling cut at x (may be empty)."""
    mat = _eval_fiber_matrix(spec0, ctx_x, covectors, x)
    _, _, kernel = row_reduce(ctx_x, mat, spec0.n)
    s, t = x
    out = []
    nv = spec0.ambient + 1
    for u in kernel:
        vec = [0] * nv
        for i, ai in enumerate(spec0.a):
            if not u[i]:
                continue
            start = spec0.block_starts[i]
            mon = _monomials(ctx_x, s, t, ai)
            for l in range(ai + 1):
                vec[start + l] = ctx_x.mul(u[i], mon[l])
        out.append(tuple(vec))
    return out


def _candidate_and_sample_fibers(spec0: ScrollSpec, ctx: FieldCtx, covectors):
    """Find every ruling that can meet the locus.

    Returns (all_active, fibers) where fibers is a list of
    (x, ctx_of_x, kernel_vectors); in the all_active case the list holds a
    deterministic selection of rulings sufficient to span the locus, plus all
    exceptional rulings where the cut jumps in dimension.
    """
    mat = _poly_fiber_matrix(spec0, covectors)
    generic_rank, pivots = _poly_rank_and_pivots(ctx, mat, spec0.n)
    all_active = generic_rank < spec0.n

    seen = set()
    fibers = []

    def try_fiber(x, ctx_x):
        key = normalize_point(ctx_x, x)
        if (ctx_x.d, key) in seen:
            return
        seen.add((ctx_x.d, key))
        vecs = _fiber_kernel_vectors(spec0, ctx_x, covectors, x)
        if vecs:
            fibers.append((key, ctx_x, tuple(vecs)))

    # exceptional rulings: roots of the pivot polynomials, plus infinity
    try_fiber((0, 1), ctx)
    for pivot in pivots:
        base_roots, ctx2, ext_roots = bp.roots_base_and_ext(ctx, pivot)
        for r in base_roots:
            try_fiber((1, r), ctx)
        for r in ext_roots:
            try_fiber((1, r), ctx2)

    if all_active:
        # every ruling meets the locus; a handful of rational ones spans it
        for tau in range(min(8, ctx.q)):
            try_fiber((1, tau), ctx)
    return all_active, tuple(fibers)


def _lift_rows(spec: ScrollSpec, base_rows):
    """Prepend vertex unit rows and shift base-scroll rows past the vertex block."""
    shift = spec.vertex_size
    rows = unit_rows(spec.ambient + 1, range(shift))
    rows.extend((0,) * shift + tuple(r) for r in base_rows)
    return rows


def _downcast_rows(ctx: FieldCtx, rows):
    """Check RREF rows over GF(q^2) are rational and reinterpret them over GF(q)."""
    for r in rows:
        for x in r:
            if x >= ctx.q:
                raise UnclassifiableSignatureError(
                    "span of the secant cone is not defined over the base field"
                )
    return rows


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def fiber_secant_space(spec: ScrollSpec, ctx: FieldCtx, p, x) -> LinearSubspace:
    """The cut of the secant locus of p on the ruling over x (vertex included).

    Possibly just the vertex subspace, possibly empty for smooth scrolls.
    """
    if contains(spec, ctx, p):
        raise PointOnVarietyError("p lies on the scroll")
    s, t = x
    if not s and not t:
        raise ZeroVectorError("ruling needs (s,t) != (0,0)")
    spec0 = spec.base()
    pbar = reduced_point(spec, p)
    covectors = _secant_covectors(spec0, ctx, pbar)
    vecs = _fiber_kernel_vectors(spec0, ctx, covectors, x)
    rows = _lift_rows(spec, vecs)
    if not rows:
        return LinearSubspace(ctx, spec.ambient, ())
    _, ech, _ = row_reduce(ctx, rows, spec.ambient + 1)
    return LinearSubspace(ctx, spec.ambient, tuple(ech))


def validate_point(spec: ScrollSpec, ctx: FieldCtx, p) -> tuple:
    """p with coordinates reduced mod the field size, as a tuple, checked to
    lie off the scroll.

    A wrong number of coordinates raises DimensionMismatchError, the zero
    vector ZeroVectorError and a point of the scroll PointOnVarietyError.
    """
    p = tuple(x % ctx.size for x in p)
    if contains(spec, ctx, p):
        raise PointOnVarietyError("p lies on the scroll")
    return p


def classify_with_data(spec: ScrollSpec, ctx: FieldCtx, p):
    """The analysis of p: (signature, secant cone, quadric, witness sample).

    Validates p, then reads the analysis from a cache keyed on the validated
    point; every other public view of the secant locus goes through here.
    """
    return _analysis(spec, ctx, validate_point(spec, ctx, p))


@lru_cache(maxsize=64)
def _analysis(spec: ScrollSpec, ctx: FieldCtx, p: tuple):
    spec0 = spec.base()
    pbar = reduced_point(spec, p)
    all_active, fibers = _candidate_and_sample_fibers(
        spec0, ctx, _secant_covectors(spec0, ctx, pbar)
    )

    needs_ext = any(fctx.d == 2 for _, fctx, _ in fibers)
    span_ctx = extension_of(ctx) if needs_ext else ctx
    vectors = [pbar]
    for _, _, vecs in fibers:
        vectors.extend(vecs)
    _, ech, _ = row_reduce(span_ctx, vectors, spec0.ambient + 1)
    if needs_ext:
        ech = _downcast_rows(ctx, ech)
    sec0 = LinearSubspace(ctx, spec0.ambient, tuple(ech))

    # the hyperquadric: all nonzero generator restrictions agree up to scale
    gens0 = quadric_generators(spec0, ctx)
    quadric0 = None
    norm_ref = None
    for g in gens0:
        rg = g.restrict(sec0)
        if all(not x for row in rg.gram for x in row):
            continue
        norm = qform_normalized_gram(rg)
        if norm_ref is None:
            quadric0, norm_ref = rg, norm
        elif norm != norm_ref:
            raise UnclassifiableSignatureError(
                "generator restrictions to the secant cone are not proportional"
            )
    if quadric0 is None:
        raise UnclassifiableSignatureError(
            "every generator vanishes on the secant cone"
        )

    sec_rows = _lift_rows(spec, sec0.rows)
    sec = LinearSubspace(ctx, spec.ambient, tuple(sec_rows))

    # lifted Gram: zero on the vertex block, quadric0 on the base block
    vs = spec.vertex_size
    k = len(sec_rows)
    gram = [[0] * k for _ in range(k)]
    for i in range(len(sec0.rows)):
        for j in range(len(sec0.rows)):
            gram[vs + i][vs + j] = quadric0.gram[i][j]
    quadric = QForm(ctx, k, tuple(tuple(r) for r in gram))

    records = []
    points = []
    for x, fctx, vecs in fibers:
        rows = _lift_rows(spec, vecs)
        _, ech_f, _ = row_reduce(fctx, rows, spec.ambient + 1)
        records.append(
            FiberRecord(x, fctx, LinearSubspace(fctx, spec.ambient, tuple(ech_f)))
        )
        for v in vecs:
            points.append(normalize_point(fctx, tuple([0] * vs + list(v))))
    sample = SecantSample(tuple(points), tuple(records), all_active)

    h = spec.h
    s = sec.pdim - h - 1
    rank = qform_rank(quadric)
    label = SIGNATURE_TABLE.get((s, rank))
    if label is None:
        raise UnclassifiableSignatureError(
            f"(s, rank) = ({s}, {rank}) is not one of the six legal signatures",
            s=s,
            rank=rank,
        )
    sig = SecantSignature(
        sec_dim=sec.pdim,
        h=h,
        s=s,
        rank=rank,
        label=label,
        locus_dim=h + LOCUS_JUMP[label],
        depth_pred=sec.pdim + 1,
    )
    return sig, sec, quadric, sample


def secant_cone_and_quadric(spec: ScrollSpec, ctx: FieldCtx, p):
    """Secant cone of p, the hyperquadric cutting the locus on it, and witnesses.

    Returns (sec, quadric, sample): sec is a linear subspace containing p, the
    quadric lives on sec's basis coordinates, and the zero set of the quadric
    on sec is exactly the secant locus.  All nonzero generator restrictions to
    sec must be pairwise proportional; a violation raises
    UnclassifiableSignatureError rather than guessing.
    """
    return classify_with_data(spec, ctx, p)[1:]


def classify_signature(spec: ScrollSpec, ctx: FieldCtx, p) -> SecantSignature:
    """Signature (dim of secant cone, quadric rank, label, locus dim, depth)."""
    return classify_with_data(spec, ctx, p)[0]


def secant_locus_points(spec: ScrollSpec, ctx_d: FieldCtx, p, budget: int = 10**7):
    """All rational points of the secant locus over the field of ctx_d.

    Exhaustive over the rulings of that field: still the fiber-linear fast
    path, used for set-level comparison against the brute-force oracle.
    """
    spec0 = spec.base()
    pbar = reduced_point(spec, p)
    base_ctx = base_of(ctx_d)
    if contains(spec, base_ctx, p):
        raise PointOnVarietyError("p lies on the scroll")
    covectors = _secant_covectors(spec0, base_ctx, pbar)
    size = ctx_d.size
    est = (size + 1) * max(1, size ** (spec.dim - 1))
    if est > budget:
        raise BudgetExceededError(f"enumeration of size ~{est} exceeds budget {budget}")
    pts = set(_subspace_points(ctx_d, _lift_rows(spec, ())))
    for x in projective_points(ctx_d, 2):
        vecs = _fiber_kernel_vectors(spec0, ctx_d, covectors, x)
        if vecs:
            _, ech, _ = row_reduce(ctx_d, _lift_rows(spec, vecs), spec.ambient + 1)
            pts.update(_subspace_points(ctx_d, ech))
    return pts


def _subspace_points(ctx: FieldCtx, rows):
    """All rational points of the projective subspace spanned by rows."""
    for coeffs in projective_points(ctx, len(rows)):
        v = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                v = [ctx.add(x, ctx.mul(c, y)) if y else x for x, y in zip(v, row)]
        yield normalize_point(ctx, v)
