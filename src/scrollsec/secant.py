"""Secant cones, secant loci, and their six-type classification.

For an external point p, a point q on the scroll lies on a secant (or tangent)
line through p exactly when the quadric generators restricted to the line
l*p + m*q, which are the binary forms l*(A_i*l + B_i*m) with A_i = Q_i(p) and
B_i the polar of Q_i at (p, q), share a common linear factor besides l.  That
happens iff the rows (A_i, B_i) are pairwise proportional, a condition linear
in q.  On each ruling the generators vanish identically, so the secant locus
meets every ruling in a linear subspace: the kernel of a small matrix whose
entries are polynomials in the P^1 coordinate (`fiber_secant_space`,
`secant_locus_points`).

The classification does not scan rulings.  It works on the smooth scroll
obtained by deleting the vertex coordinates (membership is insensitive to the
vertex part), solves one linear system over the ground field, and reads off
the pair

    s    = projective dimension of the secant cone, minus vertex contribution,
    rank = Gram rank of the unique hyperquadric cut on the cone,

which lands in one of exactly six legal combinations.

Why one linear solve over GF(q) gives the geometric answer.  Let M(x) be the
2 x d catalecticant matrix of the smooth scroll, whose columns are the
consecutive coordinate pairs of each block.  `quadric_generators` lists all
C(d, 2) of its 2 x 2 minors, and x -> M(x) is linear and injective.

* For p off the scroll, P = M(p) has rank 2 and the minors at p are the
  Pluecker vector r1 ^ r2 of its rows.  The polar of the minors at p, applied
  to v with V = M(v) of rows v1, v2, is v1 ^ r2 + r1 ^ v2.
* That vanishes exactly when V = A.P with trace A = 0: write v1 and v2 in
  terms of r1, r2 and a complement W; the r1 ^ r2 part is the trace, and the
  W ^ r2 and r1 ^ W parts are the complement components.  So the common kernel
  K of the polar covectors `g.polar(p)` is {v : M(v) in sl2.P}, and p is not
  in K because trace I = 2.
* The pair test's proportional rows B = t.A say that q - (t/2) p lies in K.
  So the secant locus is Sigma_p = X n L_p with L_p = <p, K> =
  {v : M(v) in gl2.P}.  Conversely every point of X n L_p passes the test,
  since on L_p the polar at p is trace A times the minors of P.
* On L_p every minor restricts to Q_g(p) * det A.  So the nonzero generator
  restrictions are proportional, and the check below that they are is a
  theorem, kept as a guard against a wrong generator list.
* det is nonzero at A = I, that is at p.  Over the algebraic closure the
  zero set of a nonzero quadric on a projective space of dimension >= 1 spans
  at least a hyperplane, and with p it spans the whole space; it is empty on
  a point.  Hence the secant cone, the span of p and Sigma_p, is <p, K>: it
  is defined over GF(q) and needs no extension field.
* A point x of the smooth scroll has p in its tangent space iff the polar of
  the minors at x vanishes at p, iff x lies in K.  So p is on the tangent
  variety iff K meets X.  On K the minors restrict to Q_g(p) * det A, a
  quadric with a zero over the closure once pdim K >= 1; a single point of K
  must itself lie on the scroll.  And p is on the secant variety iff Sigma_p
  is nonempty, iff K is nonempty.

The stratum labels stay an independent check of this classification: the
memberships A, B and U are closed forms of their own, and the brute-force
oracle (`oracle.brute_membership`) decides all five memberships by exhaustive
enumeration without using K.

Each external point gets one analysis.  `classify_with_data` validates p and
looks the analysis (signature, cone, quadric, kernel K) up in a small cache
keyed on the validated point, so the stratum and Del Pezzo code read the
solve that classification ran instead of running it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    _dot,
    base_of,
    normalize_point,
    pivot_rows,
    polarize,
    projective_points,
    qform_rank,
    row_reduce,
    rref,
    unit_rows,
)
from .scroll import (
    ScrollPoint,
    ScrollSpec,
    _monomials,
    _ruling_rows,
    contains,
    embed,
    quadric_generators,
)

__all__ = [
    "NOT_ON_X",
    "NOT_SECANT",
    "SECANT",
    "TANGENT_CONTACT",
    "SIGNATURE_TABLE",
    "SecantSignature",
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


def _fiber_kernel_vectors(spec0: ScrollSpec, ctx_x: FieldCtx, fiber, x):
    """Ambient vectors spanning the ruling cut at x (may be empty), from the
    fiber matrix at x: the secant covectors applied to the block vectors."""
    _, _, kernel = row_reduce(ctx_x, fiber, spec0.n)
    return [embed(spec0, ctx_x, ScrollPoint(x, u, ())) for u in kernel]


def _lift_rows(spec: ScrollSpec, base_rows):
    """Prepend vertex unit rows and shift base-scroll rows past the vertex block."""
    shift = spec.vertex_size
    rows = unit_rows(spec.ambient + 1, range(shift))
    rows.extend((0,) * shift + tuple(r) for r in base_rows)
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
    blocks = _ruling_rows(spec0, ctx, x)
    fiber = [[_dot(ctx, w, v) for v in blocks] for w in covectors]
    vecs = _fiber_kernel_vectors(spec0, ctx, fiber, x)
    rows = _lift_rows(spec, vecs)
    if not rows:
        return LinearSubspace(ctx, spec.ambient, ())
    _, ech = rref(ctx, rows, spec.ambient + 1)
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
    """The analysis of p: (signature, secant cone, quadric, polar kernel K).

    K is the common kernel of the polar covectors of the generators at the
    reduced point, a subspace of the base scroll's ambient space (see the
    module docstring).  Validates p, then reads the analysis from a cache
    keyed on the validated point; every other public view of the secant locus
    goes through here.
    """
    return _analysis(spec, ctx, validate_point(spec, ctx, p))


@lru_cache(maxsize=64)
def _analysis(spec: ScrollSpec, ctx: FieldCtx, p: tuple):
    spec0 = spec.base()
    pbar = reduced_point(spec, p)
    gens0 = quadric_generators(spec0, ctx)
    nv0 = spec0.ambient + 1
    _, _, kernel = row_reduce(ctx, [g.polar(pbar) for g in gens0], nv0)
    polar_kernel = LinearSubspace(ctx, spec0.ambient, tuple(kernel))
    _, ech = rref(ctx, [pbar] + kernel, nv0)
    sec0 = LinearSubspace(ctx, spec0.ambient, tuple(ech))

    # the hyperquadric: all nonzero generator restrictions agree up to scale
    quadric0 = None
    norm_ref = None
    for g in gens0:
        rg = g.restrict(sec0)
        flat = [x for row in rg.gram for x in row]
        if not any(flat):
            continue
        norm = normalize_point(ctx, flat)
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
    return sig, sec, quadric, polar_kernel


def secant_cone_and_quadric(spec: ScrollSpec, ctx: FieldCtx, p):
    """Secant cone of p, the hyperquadric cutting the locus on it, and K.

    Returns (sec, quadric, K): sec is a linear subspace containing p, the
    quadric lives on sec's basis coordinates, and the zero set of the quadric
    on sec is exactly the secant locus.  All nonzero generator restrictions to
    sec must be pairwise proportional; a violation raises
    UnclassifiableSignatureError rather than guessing.  K is the polar kernel
    of the reduced point, with sec = the vertex joined with <p, K>.
    """
    return classify_with_data(spec, ctx, p)[1:]


def classify_signature(spec: ScrollSpec, ctx: FieldCtx, p) -> SecantSignature:
    """Signature (dim of secant cone, quadric rank, label, locus dim, depth)."""
    return classify_with_data(spec, ctx, p)[0]


def secant_locus_points(spec: ScrollSpec, ctx_d: FieldCtx, p, budget: int = 10**7):
    """All rational points of the secant locus over the field of ctx_d.

    Exhaustive over the rulings of that field: still the fiber-linear fast
    path, used for set-level comparison against the brute-force oracle.  The
    covectors lie over GF(q), so the fiber matrices of all rulings come from
    two integer matrix products, one per GF(q^2) component
    (`_ruling_monomials`), and one batched rank test finds the rulings with a
    nonzero cut.  Only those go through `_fiber_kernel_vectors`, with their
    matrices from the batch.  The cuts are grouped by size, and the points
    of each group come from one combination of its RREF rows with the
    cached coefficients of `_coefficient_array`.
    """
    import numpy as np

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
    rulings, mon0, mon1 = _ruling_monomials(spec0, ctx_d)
    w = np.array(covectors, dtype=np.int64).reshape(-1, spec0.ambient + 1)
    q = ctx_d.q
    fibers = (w @ mon0) % q + q * ((w @ mon1) % q)
    by_size = {}
    if spec.vertex_size:
        by_size[spec.vertex_size] = [_lift_rows(spec, ())]
    for i in np.nonzero(pivot_rows(ctx_d, fibers).sum(axis=1) < spec0.n)[0]:
        vecs = _fiber_kernel_vectors(spec0, ctx_d, fibers[i].tolist(), rulings[i])
        rank, rows = rref(ctx_d, _lift_rows(spec, vecs), spec.ambient + 1)
        by_size.setdefault(rank, []).append(rows)
    pts = set()
    for k, spans in by_size.items():
        coeffs = _coefficient_array(ctx_d, k)
        rows = np.array(spans, dtype=np.int64)
        combos = ctx_d.mul(coeffs[:, 0, None], rows[:, None, 0])
        for j in range(1, k):
            combos = ctx_d.add(combos, ctx_d.mul(coeffs[:, j, None], rows[:, None, j]))
        pts.update(map(tuple, combos.reshape(-1, spec.ambient + 1).tolist()))
    return pts


@lru_cache(maxsize=8)
def _ruling_monomials(spec0: ScrollSpec, ctx_x: FieldCtx):
    """Every ruling x over the field of ctx_x, and the two GF(q) components of
    the stack of block matrices M(x), one column of monomials per block.

    The fiber matrix of x, the covectors W over GF(q) applied to the block
    vectors of `_ruling_rows`, is W.M(x), so the fiber matrices of all rulings
    are two integer matrix products with these stacks.
    """
    import numpy as np

    rulings = list(projective_points(ctx_x, 2))
    x = np.array(rulings, dtype=np.int64)
    mons = np.zeros((len(x), spec0.ambient + 1, spec0.n), dtype=np.int64)
    for i, (start, ai) in enumerate(zip(spec0.block_starts, spec0.a)):
        mons[:, start:start + ai + 1, i] = np.stack(_monomials(ctx_x, *x.T, ai), axis=1)
    mon1, mon0 = np.divmod(mons, ctx_x.q)
    mon0.flags.writeable = mon1.flags.writeable = False
    return rulings, mon0, mon1


@lru_cache(maxsize=16)
def _coefficient_array(ctx: FieldCtx, k: int):
    """The points of P^(k-1) over the field of ctx, as the rows of a read-only
    array in `projective_points` order.

    As coefficient vectors on k RREF rows they give every point of the span
    once and normalized: the first nonzero coefficient is 1 and falls on the
    first row used, whose pivot entry is 1 and lies left of every later row's
    nonzero entries.
    """
    import numpy as np

    coeffs = np.array(list(projective_points(ctx, k)), dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs
