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
vertex part), solves one linear system in four unknowns over the ground
field, and reads off the pair

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
  terms of r1, r2 and a complement z; the r1 ^ r2 part is the trace, and the
  z ^ r2 and r1 ^ z parts are the complement components.  So the common kernel
  K of the polar covectors `g.polar(p)` is {v : M(v) in sl2.P}, and p is not
  in K because trace I = 2.
* The analysis finds K through the 2 x 2 matrices, not through the C(d, 2)
  polar covectors.  Let W = {A in gl2 : A.P is catalecticant}.  A block of
  degree a_i with coordinates x_0..x_(a_i) gives the columns (x_j, x_(j+1))
  of P, and A = (a b; c e) keeps that block catalecticant iff
  c x_j + e x_(j+1) = a x_(j+1) + b x_(j+2) for j = 0..a_i - 2: the rows
  (x_(j+1), x_(j+2), -x_j, -x_(j+1)) in the unknowns (a, b, c, e), with the
  trace row (1, 0, 0, 1) added for W n sl2.  M is injective with the
  catalecticant matrices as image, and A -> A.P is injective since P has rank
  2, so K = M^-1((W n sl2).P): a kernel vector B maps to the v with
  M(v) = B.P, on each block v_j = a x_j + b x_(j+1) for j < a_i and
  v_(a_i) = c x_(a_i - 1) + e x_(a_i), and the RREF of those images is K.
  The polar covectors stay for the line test of `_secant_rows`, which the
  ruling cuts, the pair scan and the oracle read.
* The pair test's proportional rows B = t.A say that q - (t/2) p lies in K.
  So the secant locus is Sigma_p = X n L_p with L_p = <p, K> =
  {v : M(v) in gl2.P}.  Conversely every point of X n L_p passes the test,
  since on L_p the polar at p is trace A times the minors of P.
* On L_p every minor restricts to Q_g(p) * det A.  So the Gram matrix G_g of
  generator g on the cone is exactly Q_g(p) / Q_g0(p) times G_g0, for g0 the
  first generator with Q_g0(p) != 0; G_g0 is nonzero, since it takes the
  value Q_g0(p) at p.  So the vectors (Q_g(p), G_g) span a line, which
  `_analysis` checks: a theorem, kept as a guard against a wrong generator
  list.
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

The six signatures and the Tan and Sec rules are theorems of W.
* The cone is M^-1(W.P), with p the image of I.  In odd characteristic
  A = (trace A / 2) I + (A - (trace A / 2) I), so W = <I> + (W n sl2), a
  direct sum: s = dim(W n sl2) = dim W - 1 and pdim K = s - 1.  The quadric
  is Q_g0(p) * det A on the cone, so rank is the rank of det on W.
* For B traceless det(l I + m B) = l^2 + m^2 det B, so det on W is the
  orthogonal sum of <1> and det on S = W n sl2, and rank = 1 + rank of det on
  S.  On sl2, det(a b; c -a) = -a^2 - bc has rank 3.  So S of dimension 0
  gives rank 0; dimension 1 gives rank 0 or 1; dimension 2 gives rank 1 or 2,
  since the radical of det on S lies in S n S^perp and S^perp is a line; and
  dimension 3 gives rank 3.  The legal (s, rank) are exactly (0, 1), (1, 1),
  (1, 2), (2, 2), (2, 3) and (3, 4), the keys of `SIGNATURE_TABLE`; any other
  pair means a wrong generator list or a wrong solve.
* Sec holds iff K is nonempty, iff s >= 1.  Tan holds iff K meets X.  For
  s >= 2 it does, by the bullet above.  For s = 1, K is the point B.P with B
  traceless and nonzero; B.P has the rank of B, since P has rank 2, so it
  lies on the scroll iff det B = 0, iff det on W, l^2 + m^2 det B, has
  rank 1.  So Tan holds iff s >= 2 or (s, rank) = (1, 1).  `strata` reads
  both memberships from the signature this way.

The stratum labels stay an independent check of this classification: the
memberships A, B and U are closed forms of their own, and the brute-force
oracle (`oracle.brute_membership`) decides all five memberships by exhaustive
enumeration without using K.

Each point is checked once.  Every public function that takes p first runs
`validate_point`, which checks its coordinates only.  Whether p lies on the
scroll is decided where the generators are evaluated at p anyway: in the
analysis, or in `_secant_rows` for the locus, the ruling cut and the brute
scan.  `classify_with_data` looks the analysis (signature, cone, quadric,
kernel K) up in a small cache keyed on the validated point, so the stratum
and Del Pezzo code read the solve that classification ran, and a cache hit
checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    PointOnVarietyError,
    UnclassifiableSignatureError,
    ZeroVectorError,
)
from .exactfield import (
    FieldCtx,
    LinearSubspace,
    QForm,
    _dot,
    _rank_le_one,
    base_of,
    pivot_rows,
    projective_points,
    qform_rank,
    row_reduce,
    rref,
    unit_rows,
)
from .scroll import (
    ScrollSpec,
    _embed_grid,
    _ruling_rows,
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
    "classify_signature",
    "classify_with_data",
    "secant_locus_points",
    "validate_point",
]

NOT_ON_X = "NotOnX"
NOT_SECANT = "NotSecant"
SECANT = "Secant"
TANGENT_CONTACT = "TangentContact"

# the six legal (s, rank) pairs, derived in the module docstring; the secant
# locus has dimension h + s
SIGNATURE_TABLE = {
    (0, 1): "Empty2Z",
    (1, 2): "TwoPoints",
    (1, 1): "DoublePoint",
    (2, 2): "TwoLines",
    (2, 3): "Conic",
    (3, 4): "QuadricSurface",
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


def secant_pair_test(spec: ScrollSpec, ctx: FieldCtx, p, q) -> str:
    """Classify the line through p and q: NotOnX / NotSecant / Secant / TangentContact.

    With A_i = Q_i(p), B_i = polar of Q_i at (p, q), C_i = Q_i(q): q must lie
    on the scroll (C identically zero), and the line meets it in length >= 2
    exactly when the rows (A_i, B_i) span a line, as A != 0.  Secant and
    TangentContact both mean q lies on the secant locus of p; TangentContact
    means the line meets the scroll doubly at q itself.
    """
    p, q = validate_point(spec, ctx, p), validate_point(spec, ctx, q)
    gens = quadric_generators(spec, ctx)
    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    if any(g.evaluate(q) for g in gens):
        return NOT_ON_X
    b_vals = [_dot(ctx, g.polar(p), q) for g in gens]
    if not any(b_vals):
        return TANGENT_CONTACT
    return SECANT if _rank_le_one(ctx, zip(a_vals, b_vals)) else NOT_SECANT


# ---------------------------------------------------------------------------
# fiber-wise machinery on the smooth reduction
# ---------------------------------------------------------------------------


def base_field_point(spec: ScrollSpec, ctx: FieldCtx, p) -> tuple:
    """`validate_point` of p, checked to lie over GF(q): the secant covectors
    come from the generators over GF(q), which would read a coordinate
    outside GF(q) mod q, so such a p raises DimensionMismatchError.
    """
    p = validate_point(spec, ctx, p)
    if ctx.d != 1 and max(p) >= ctx.q:
        raise DimensionMismatchError("p needs coordinates in GF(q)")
    return p


@lru_cache(maxsize=16)
def _secant_rows(gens: tuple, p: tuple):
    """The covectors of the line test at p for the generators gens over GF(q),
    with plain ints mod q: (rows, n), rows a read-only int64 array holding
    the n nonzero secant covectors A_i0 * 2 p G_i - A_i * 2 p G_i0 (i0 the
    first i with A_i = Q_i(p) != 0) stacked above the polar covectors 2 p G_i.

    The secant rows cut the secant locus out of every ruling; the brute pair
    scan (`oracle._pair_data`) tests table rows against both blocks.  A p of
    the scroll, where every generator vanishes, raises PointOnVarietyError.
    The fast path asks with the base generators and the reduced point, the
    brute scan with the cone generators and the whole point, so on a smooth
    scroll they share one entry, as the GF(q) and GF(q^2) scans of a point do.
    """
    import numpy as np

    a_vals = [g.evaluate(p) for g in gens]
    if not any(a_vals):
        raise PointOnVarietyError("p lies on the scroll")
    q = gens[0].ctx.q
    w = [g.polar(p) for g in gens]
    i0 = next(i for i, a in enumerate(a_vals) if a)
    a0, w0 = a_vals[i0], w[i0]
    secant = [row for row in ([(a0 * x - ai * y) % q for x, y in zip(wi, w0)]
                              for ai, wi in zip(a_vals, w)) if any(row)]
    rows = np.array(secant + w, dtype=np.int64)
    rows.flags.writeable = False
    return rows, len(secant)


def _combinations(ctx: FieldCtx, coeffs, rows):
    """The combinations sum_j c_j r_j of each row set of a stack (sets, k, N)
    with each coefficient row c of coeffs (C, k), shape (sets, C, N): over a
    prime field one integer matrix product.  Over GF(q^2) column 0 of coeffs
    must be 0 or 1, as it is for normalized points and RREF rows, so its term
    is a plain integer product; the others take packed field products.
    """
    if ctx.d == 1:
        return coeffs @ rows % ctx.q
    combos = coeffs[:, 0, None] * rows[:, None, 0]
    for j in range(1, coeffs.shape[1]):
        combos = ctx.add(combos, ctx.mul(coeffs[:, j, None], rows[:, None, j]))
    return combos


def _fiber_kernel_vectors(ctx_x: FieldCtx, fiber, blocks) -> list:
    """Ambient vectors spanning the ruling cut at x (may be empty): the kernel
    vectors u of the fiber matrix at x, the secant covectors applied to the
    n block vectors v_i(x), combined as sum_i u_i v_i(x).

    blocks is the int64 array of those block vectors, a row of the cached
    `_ruling_monomials` stack; the kernel rows are in RREF, so one
    `_combinations` forms them.  A zero fiber matrix, the only kind with a
    nonzero kernel when n = 1, has the unit vectors as its echelonized
    kernel, so it cuts out the block vectors themselves.
    """
    import numpy as np

    if not any(map(any, fiber)):
        return list(map(tuple, blocks.tolist()))
    _, _, kernel = row_reduce(ctx_x, fiber, len(blocks))
    coeffs = np.array(kernel, dtype=np.int64).reshape(-1, len(blocks))
    return list(map(tuple, _combinations(ctx_x, coeffs, blocks[None])[0].tolist()))


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

    Possibly just the vertex subspace, possibly empty for smooth scrolls.  p
    lies over GF(q) (`base_field_point`).  The reference for the cuts of
    `secant_locus_points`, sharing only the covectors of `_secant_rows`: in
    scalar field operations, exact for every q, each kernel vector u of the
    fiber matrix gives the row sum_i u_i v_i(x).
    """
    p = base_field_point(spec, ctx, p)
    spec0 = spec.base()
    # raises PointOnVarietyError when p lies on the scroll
    cov, n = _secant_rows(quadric_generators(spec0, base_of(ctx)), p[spec.vertex_size:])
    blocks = _ruling_rows(spec0, ctx, x)
    fiber = [[_dot(ctx, w, v) for v in blocks] for w in cov[:n].tolist()]
    _, _, kernel = row_reduce(ctx, fiber, len(blocks))
    rows = _lift_rows(spec, [tuple(_dot(ctx, u, col) for col in zip(*blocks)) for u in kernel])
    _, ech = rref(ctx, rows, spec.ambient + 1)
    return LinearSubspace(ctx, spec.ambient, tuple(ech))


def validate_point(spec: ScrollSpec, ctx: FieldCtx, p) -> tuple:
    """p with coordinates reduced mod the field size, as a tuple.  A wrong
    number of coordinates raises DimensionMismatchError and the zero vector
    ZeroVectorError; points of the scroll pass (see the module docstring).
    """
    if len(p) != spec.ambient + 1:
        raise DimensionMismatchError("point has the wrong number of coordinates")
    size = ctx.size
    p = tuple([x % size for x in p])
    if not any(p):
        raise ZeroVectorError("zero vector is not a projective point")
    return p


def classify_with_data(spec: ScrollSpec, ctx: FieldCtx, p):
    """The analysis of p: (signature, secant cone, quadric, polar kernel K).

    K is the common kernel of the polar covectors of the generators at the
    reduced point, a subspace of the base scroll's ambient space, solved as
    M^-1((W n sl2).P) (see the module docstring).  Validates p, then reads
    the analysis from a cache keyed on the validated point; every other
    public view of the secant locus goes through here.  A point of the scroll
    raises PointOnVarietyError.
    """
    return _analysis(spec, ctx, validate_point(spec, ctx, p))


@lru_cache(maxsize=64)
def _analysis(spec: ScrollSpec, ctx: FieldCtx, p: tuple):
    spec0 = spec.base()
    pbar = p[spec.vertex_size:]
    gens0 = quadric_generators(spec0, ctx)
    # p lies on the scroll, or in its vertex (pbar = 0), iff every Q_g(pbar) = 0
    a_vals = [g.evaluate(pbar) for g in gens0]
    i0 = next((i for i, a in enumerate(a_vals) if a), None)
    if i0 is None:
        raise PointOnVarietyError("p lies on the scroll")
    nv0 = spec0.ambient + 1
    # K = M^-1(W n sl2 . P): B = (a b; c e) is traceless and B.P catalecticant
    blocks = [pbar[start:start + ai + 1] for start, ai in zip(spec0.block_starts, spec0.a)]
    neg = ctx.neg
    rows = [(x[j + 1], x[j + 2], neg(x[j]), neg(x[j + 1])) for x in blocks for j in range(len(x) - 2)]
    rows.append((1, 0, 0, 1))
    _, _, pencil = row_reduce(ctx, rows, 4)
    images = []
    for a, b, c, e in pencil:
        # block by block: row 1 of B.P, then the last entry of row 2
        v = []
        for x in blocks:
            v.extend(_dot(ctx, (a, b), xy) for xy in zip(x, x[1:]))
            v.append(_dot(ctx, (c, e), x[-2:]))
        images.append(v)
    _, kernel = rref(ctx, images, nv0)
    polar_kernel = LinearSubspace(ctx, spec0.ambient, tuple(kernel))
    _, ech = rref(ctx, [pbar] + kernel, nv0)
    sec0 = LinearSubspace(ctx, spec0.ambient, tuple(ech))

    # the hyperquadric: the vectors (Q_g(pbar), Gram of g on the cone) span a
    # line, so each Gram is Q_g(pbar) / Q_g0(pbar) times that of g0
    grams = [g.restrict(sec0).gram for g in gens0]
    if not _rank_le_one(ctx, ([a] + [x for row in gram for x in row] for a, gram in zip(a_vals, grams))):
        raise UnclassifiableSignatureError("generator restrictions to the secant cone are not proportional")
    quadric0 = grams[i0]

    sec = LinearSubspace(ctx, spec.ambient, tuple(_lift_rows(spec, sec0.rows)))
    # lifted Gram: the base Gram padded with zeros on the vertex block
    vs = spec.vertex_size
    k = vs + len(quadric0)
    quadric = QForm(ctx, k, ((0,) * k,) * vs + tuple((0,) * vs + row for row in quadric0))

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
        locus_dim=h + s,
        depth_pred=sec.pdim + 1,
    )
    return sig, sec, quadric, polar_kernel


def classify_signature(spec: ScrollSpec, ctx: FieldCtx, p) -> SecantSignature:
    """Signature (dim of secant cone, quadric rank, label, locus dim, depth)."""
    return classify_with_data(spec, ctx, p)[0]


def secant_locus_points(spec: ScrollSpec, ctx_d: FieldCtx, p, budget: int = 10**7):
    """All rational points of the secant locus over the field of ctx_d.

    Exhaustive over the rulings of that field: still the fiber-linear fast
    path, used for set-level comparison against the brute-force oracle.  p
    lies over GF(q) (`base_field_point`); its secant rows come from the cached
    `_secant_rows`.  The fiber matrices of all rulings come from integer
    matrix products, one per GF(q) component of the ruling stack
    (`_ruling_monomials`; over a prime field the second component is zero
    and skipped), and one batched rank test finds the rulings with a nonzero
    cut.  Only those go through `_fiber_kernel_vectors`, with their matrices
    and their block vectors from the cached stacks, so no ruling point is
    embedded one at a time.

    The lifted rows of a cut are already in RREF, so no elimination runs on
    them.  The kernel rows u are in RREF (`row_reduce` echelonizes its
    kernel), and every ruling of the stack is normalized, (1:t) or (0:1), so
    the first nonzero entry of each block vector v_i(x) is 1.  Row r,
    sum_i u_i v_i(x), is zero on the blocks before the pivot i_r of u_r and
    has a 1 at the first nonzero entry of v_(i_r)(x), where every other row
    is zero, since it is zero on the whole block i_r; the blocks come in
    coordinate order, so the pivots increase with r.  The vertex unit rows
    come first and the block rows are zero on the vertex.  The cuts are
    grouped by size, and the points of each group come from one
    `_combinations` of its RREF rows with the cached coefficients of
    `_coefficient_array`.  A cut of one row is that row, a normalized point,
    and needs no combination.  With one block (n = 1) a fiber matrix drops
    rank exactly when it is zero, which one array test finds without
    `pivot_rows`; on a smooth scroll with n = 1 every cut is then one point,
    so an enumeration makes no elimination and no packed array product.
    """
    import numpy as np

    p = base_field_point(spec, ctx_d, p)
    spec0 = spec.base()
    # raises PointOnVarietyError when p lies on the scroll
    cov, n = _secant_rows(quadric_generators(spec0, base_of(ctx_d)), p[spec.vertex_size:])
    size = ctx_d.size
    est = (size + 1) * max(1, size ** (spec.dim - 1))
    if est > budget:
        raise BudgetExceededError(f"enumeration of size ~{est} exceeds budget {budget}")
    blocks, mon0, mon1 = _ruling_monomials(spec0, ctx_d)
    nv = spec.ambient + 1
    q = ctx_d.q
    fibers = cov[:n] @ mon0 % q
    if mon1 is not None:
        fibers += q * (cov[:n] @ mon1 % q)
    by_size = {}
    if spec.vertex_size:
        by_size[spec.vertex_size] = [_lift_rows(spec, ())]
    # with one block a fiber matrix drops rank exactly when it is zero
    if spec0.n == 1:
        drops = ~fibers.any(axis=(1, 2))
    else:
        drops = pivot_rows(ctx_d, fibers).sum(axis=1) < spec0.n
    for i in np.nonzero(drops)[0]:
        cut = _lift_rows(spec, _fiber_kernel_vectors(ctx_d, fibers[i].tolist(), blocks[i]))
        by_size.setdefault(len(cut), []).append(cut)
    pts = set()
    for k, spans in by_size.items():
        if k == 1:
            # a one-row cut is its RREF row, a normalized point
            pts.update(cut[0] for cut in spans)
            continue
        combos = _combinations(ctx_d, _coefficient_array(ctx_d, k), np.array(spans))
        pts.update(map(tuple, combos.reshape(-1, nv).tolist()))
    return pts


@lru_cache(maxsize=8)
def _ruling_monomials(spec0: ScrollSpec, ctx_x: FieldCtx):
    """The packed block vectors of every ruling x over the field of ctx_x, and
    the GF(q) components of the stack of block matrices M(x), whose column i
    is the block vector v_i(x): the grid embedding of the rulings, in
    `projective_points` order, with the unit fibers.  Returns (mons, mon0,
    mon1), every array read-only; over a prime field the second component
    is zero and mon1 is None.

    The fiber matrix of x, the covectors W over GF(q) applied to the block
    vectors, is W.M(x), so the fiber matrices of all rulings are one integer
    matrix product with these stacks per component.
    """
    import numpy as np

    rulings = list(projective_points(ctx_x, 2))
    mons = _embed_grid(spec0, ctx_x, rulings, np.eye(spec0.n, dtype=np.int64))
    if ctx_x.d == 1:
        mon0, mon1 = np.ascontiguousarray(mons.transpose(0, 2, 1)), None
    else:
        mon1, mon0 = np.divmod(mons.transpose(0, 2, 1), ctx_x.q)
    for arr in (mons, mon0, mon1):
        if arr is not None:
            arr.flags.writeable = False
    return mons, mon0, mon1


@lru_cache(maxsize=16)
def _coefficient_array(ctx: FieldCtx, k: int):
    """The points of P^(k-1) over the field of ctx, as the rows of a read-only
    array in `projective_points` order.

    As coefficient vectors on k RREF rows they give every point of the span
    once and normalized: the first nonzero coefficient is 1 and falls on the
    first row used, whose pivot entry is 1 and lies left of every later row's
    nonzero entries.  In particular the first coefficient, column 0, is 0 or
    1, as `_combinations` needs.
    """
    import numpy as np

    coeffs = np.array(list(projective_points(ctx, k)), dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs
