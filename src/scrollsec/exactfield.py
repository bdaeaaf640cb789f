"""Exact arithmetic over odd prime fields GF(q) and quadratic extensions GF(q^2),
plus the projective linear algebra and quadratic-form kernels used everywhere else.

Scalars are packed integers.  An element a0 + a1*w of GF(q^2), where w^2 = c and
c is the least quadratic non-residue mod q, is stored as the Python int
a0 + q*a1.  Elements of the prime field are their own packing, so a GF(q) value
is simultaneously a valid GF(q^2) value and vectors never need re-encoding when
the computation moves into the extension.

The arithmetic of `FieldCtx` is written once for both kinds of operand:
`add`, `sub`, `neg`, `mul` and `conj` also take int64 numpy arrays of packed
elements (any shapes that broadcast) and return arrays.  `inv` takes scalars
only; `inverse_array` is its lookup table for arrays.

Matrices are lists (or tuples) of equal-length coordinate tuples.  Projective
linear subspaces are kept in reduced row-echelon form, which makes subspace
equality literal tuple equality.  Everything here is immutable after
construction and safe to share across threads.

Quadratic forms come in two shapes.  The generators of the scrolls and of the
Veronese surface are binomials x_i*x_j - x_k*x_l (`Binomial`), evaluated,
polarized and restricted from their four indices.  A general form, such as the
quadric cut on a secant cone, is a symmetric Gram matrix (`QForm`).  Only odd
characteristic is supported: a Gram matrix stores half of each mixed
coefficient, and restricting a binomial to a subspace produces one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    DimensionMismatchError,
    EvenCharacteristicError,
    NonPrimeError,
    ZeroVectorError,
)

__all__ = [
    "FieldCtx",
    "field_make",
    "base_of",
    "is_prime",
    "row_reduce",
    "rref",
    "normalize_point",
    "projective_points",
    "unit_rows",
    "LinearSubspace",
    "span_points",
    "subspace_contains",
    "subspace_intersection",
    "QForm",
    "Binomial",
    "polarize",
    "qform_restrict",
    "qform_rank",
    "inverse_array",
    "normalize_rows",
    "pivot_rows",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for the moduli used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for GF(q^d) with d in {1, 2}.

    q: odd prime modulus.
    d: extension degree.
    c: for d = 2, the least quadratic non-residue mod q (the extension is
       GF(q)[w]/(w^2 - c)); 0 for d = 1.

    add, sub, neg, mul and conj accept packed ints or int64 arrays of packed
    elements; inv accepts ints only (use `inverse_array` for arrays).
    """

    q: int
    d: int
    c: int

    @property
    def size(self) -> int:
        return self.q if self.d == 1 else self.q * self.q

    def add(self, a: int, b: int) -> int:
        q = self.q
        if self.d == 1:
            return (a + b) % q
        a1, a0 = divmod(a, q)
        b1, b0 = divmod(b, q)
        return (a0 + b0) % q + q * ((a1 + b1) % q)

    def sub(self, a: int, b: int) -> int:
        q = self.q
        if self.d == 1:
            return (a - b) % q
        a1, a0 = divmod(a, q)
        b1, b0 = divmod(b, q)
        return (a0 - b0) % q + q * ((a1 - b1) % q)

    def neg(self, a: int) -> int:
        q = self.q
        if self.d == 1:
            return (-a) % q
        a1, a0 = divmod(a, q)
        return (-a0) % q + q * ((-a1) % q)

    def mul(self, a: int, b: int) -> int:
        q = self.q
        if self.d == 1:
            return (a * b) % q
        a1, a0 = divmod(a, q)
        b1, b0 = divmod(b, q)
        return (a0 * b0 + self.c * a1 * b1) % q + q * ((a0 * b1 + a1 * b0) % q)

    def inv(self, a: int) -> int:
        q = self.q
        if self.d == 1:
            if a % q == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, q - 2, q)
        a1, a0 = divmod(a, q)
        norm = (a0 * a0 - self.c * a1 * a1) % q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        ninv = pow(norm, q - 2, q)
        return (a0 * ninv) % q + q * ((-a1 * ninv) % q)

    def conj(self, a: int) -> int:
        """Frobenius x -> x^q; identity on the prime field."""
        if self.d == 1:
            return a % self.q
        a1, a0 = divmod(a, self.q)
        return a0 + self.q * ((-a1) % self.q)

    def is_base(self, a: int) -> bool:
        """True when the element lies in the prime subfield GF(q)."""
        return a < self.q

    def elements(self):
        return range(self.size)

    def rand(self, rng) -> int:
        return rng.randrange(self.size)

    def rand_nonzero(self, rng) -> int:
        return rng.randrange(1, self.size)


def _least_nonresidue(q: int) -> int:
    for c in range(2, q):
        if pow(c, (q - 1) // 2, q) == q - 1:
            return c
    raise NonPrimeError(f"no quadratic non-residue mod {q}")


@lru_cache(maxsize=32)
def field_make(q: int, d: int = 1) -> FieldCtx:
    """Build the arithmetic context for GF(q^d).

    The extension modulus w^2 - c uses the least non-residue c, so identical
    (q, d) always produce byte-identical reports downstream.
    """
    if not is_prime(q):
        raise NonPrimeError(f"{q} is not prime")
    if q == 2:
        raise EvenCharacteristicError("characteristic 2 is not supported")
    if d not in (1, 2):
        raise DimensionMismatchError(f"extension degree must be 1 or 2, got {d}")
    return FieldCtx(q, d, _least_nonresidue(q) if d == 2 else 0)


def base_of(ctx: FieldCtx) -> FieldCtx:
    return ctx if ctx.d == 1 else field_make(ctx.q, 1)


# ---------------------------------------------------------------------------
# row reduction, kernels, projective subspaces
# ---------------------------------------------------------------------------


def _rref(ctx: FieldCtx, rows, cols: int):
    """In-place-style RREF; returns (rank, echelon_rows, pivot_columns)."""
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != cols:
            raise DimensionMismatchError("ragged matrix")
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        row = work[rank]
        pinv = inv(row[col])
        if pinv != 1:
            for j in range(col, cols):
                if row[j]:
                    row[j] = mul(row[j], pinv)
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                tgt = work[i]
                for j in range(col, cols):
                    if row[j]:
                        tgt[j] = sub(tgt[j], mul(f, row[j]))
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return rank, [tuple(r) for r in work[:rank]], pivots


def rref(ctx: FieldCtx, rows, cols: int):
    """Rank and reduced row echelon rows over GF(q^d), without the kernel.

    The echelon rows are those of `row_reduce`; callers that only need the
    row space or the rank skip its kernel pass.
    """
    rank, echelon, _ = _rref(ctx, rows, cols)
    return rank, echelon


def row_reduce(ctx: FieldCtx, rows, cols: int | None = None):
    """Reduced row echelon form over GF(q^d).

    Returns (rank, echelon_rows, kernel_rows).  Echelon rows are the nonzero
    RREF rows of the input; kernel rows span {v : M v = 0} and are echelonized
    as well, so both outputs are canonical for the row space / kernel.
    """
    work = [list(r) for r in rows]
    if cols is None:
        if not work:
            raise DimensionMismatchError("cols required for an empty matrix")
        cols = len(work[0])
    rank, echelon, pivots = _rref(ctx, work, cols)
    # kernel: one generator per free column
    pivot_set = set(pivots)
    kernel = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg(echelon[i][free])
        kernel.append(v)
    if kernel:
        _, kernel, _ = _rref(ctx, kernel, cols)
    return rank, echelon, list(kernel)


def normalize_point(ctx: FieldCtx, v) -> tuple:
    """Scale a nonzero homogeneous vector so its first nonzero entry is 1."""
    for x in v:
        if x:
            if x == 1:
                return tuple(v)
            s = ctx.inv(x)
            return tuple(ctx.mul(s, y) if y else 0 for y in v)
    raise ZeroVectorError("cannot normalize the zero vector")


def projective_points(ctx: FieldCtx, n: int):
    """Every point of P^(n-1) over the field of ctx once, normalized; none for n = 0.

    Ordered by the position of the leading 1, then lexicographically.
    """
    for lead in range(n):
        for tail in product(range(ctx.size), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def unit_rows(n: int, cols) -> list:
    """The unit vectors e_c of length n, one row per c in cols."""
    return [tuple(int(j == c) for j in range(n)) for c in cols]


@dataclass(frozen=True)
class LinearSubspace:
    """Projective linear subspace of P^ambient, held as an RREF basis.

    rows is a tuple of nonzero RREF rows; the empty subspace has no rows and
    projective dimension -1.  Because RREF is unique, equality of subspaces is
    equality of the rows tuples.
    """

    ctx: FieldCtx
    ambient: int
    rows: tuple

    @property
    def pdim(self) -> int:
        return len(self.rows) - 1

    def is_empty(self) -> bool:
        return not self.rows

    def reduce(self, v):
        """Residue of v after elimination by the basis rows."""
        if len(v) != self.ambient + 1:
            raise DimensionMismatchError("ambient dimension mismatch")
        ctx = self.ctx
        out = list(v)
        for row in self.rows:
            pc = next(j for j, x in enumerate(row) if x)
            f = out[pc]
            if f:
                for j in range(pc, len(out)):
                    if row[j]:
                        out[j] = ctx.sub(out[j], ctx.mul(f, row[j]))
        return out

    def contains(self, v) -> bool:
        return not any(self.reduce(v))


def span_points(ctx: FieldCtx, points, ambient: int) -> LinearSubspace:
    """Smallest linear subspace of P^ambient through the given points.

    The empty input yields the empty subspace.
    """
    pts = list(points)
    for p in pts:
        if len(p) != ambient + 1:
            raise DimensionMismatchError("point does not live in P^%d" % ambient)
    if not pts:
        return LinearSubspace(ctx, ambient, ())
    _, ech = rref(ctx, pts, ambient + 1)
    return LinearSubspace(ctx, ambient, tuple(ech))


def subspace_contains(space: LinearSubspace, p) -> bool:
    """Membership test p in space; the empty subspace contains nothing."""
    return space.contains(p)


def subspace_intersection(a: LinearSubspace, b: LinearSubspace) -> LinearSubspace:
    """Intersection of two projective subspaces of the same ambient space."""
    if a.ambient != b.ambient or a.ctx != b.ctx:
        raise DimensionMismatchError("subspaces live in different spaces")
    if a.is_empty() or b.is_empty():
        return LinearSubspace(a.ctx, a.ambient, ())
    stacked = list(a.rows) + list(b.rows)
    # row dependencies of the stacked basis give the common vectors
    transpose = [[row[j] for row in stacked] for j in range(a.ambient + 1)]
    _, _, deps = row_reduce(a.ctx, transpose, len(stacked))
    ctx = a.ctx
    na = len(a.rows)
    pts = []
    for dep in deps:
        v = [0] * (a.ambient + 1)
        for i in range(na):
            if dep[i]:
                for j in range(a.ambient + 1):
                    if a.rows[i][j]:
                        v[j] = ctx.add(v[j], ctx.mul(dep[i], a.rows[i][j]))
        if any(v):
            pts.append(tuple(v))
    return span_points(ctx, pts, a.ambient)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QForm:
    """Quadratic form Q(x) = x^T * gram * x with a symmetric Gram matrix.

    Off-diagonal entries hold half the mixed coefficient, which is why the
    characteristic must be odd.
    """

    ctx: FieldCtx
    n_vars: int
    gram: tuple

    def evaluate(self, v) -> int:
        if len(v) != self.n_vars:
            raise DimensionMismatchError("vector length != n_vars")
        ctx = self.ctx
        mul, add = ctx.mul, ctx.add
        total = 0
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = self.gram[i]
            acc = 0
            for j, vj in enumerate(v):
                if vj and row[j]:
                    acc = add(acc, mul(row[j], vj))
            total = add(total, mul(vi, acc))
        return total

    def polar(self, p) -> tuple:
        """The covector 2 * p^T * gram (see `polarize`)."""
        ctx = self.ctx
        return tuple(ctx.add(x, x) for x in (_dot(ctx, p, row) for row in self.gram))

    def restrict(self, space: LinearSubspace) -> "QForm":
        """The form B * gram * B^T on the basis rows B of space."""
        if space.ambient + 1 != self.n_vars:
            raise DimensionMismatchError("form and subspace ambient mismatch")
        ctx, rows = self.ctx, space.rows
        half = (ctx.q + 1) // 2
        gram = tuple(
            tuple(ctx.mul(half, _dot(ctx, w, r)) for r in rows)
            for w in (self.polar(r) for r in rows)
        )
        return QForm(ctx, len(rows), gram)


@dataclass(frozen=True)
class Binomial:
    """The quadric x_i*x_j - x_k*x_l, the shape of every determinantal generator.

    A square is i = j or k = l.  Values, polars and restrictions equal those
    of the QForm of the same polynomial, at the cost of its four indices.
    """

    ctx: FieldCtx
    n_vars: int
    i: int
    j: int
    k: int
    l: int  # noqa: E741

    def evaluate(self, v) -> int:
        if len(v) != self.n_vars:
            raise DimensionMismatchError("vector length != n_vars")
        mul = self.ctx.mul
        return self.ctx.sub(mul(v[self.i], v[self.j]), mul(v[self.k], v[self.l]))

    def polar(self, p) -> tuple:
        """The covector 2 * p^T * G, G the Gram matrix (see `polarize`)."""
        add, sub = self.ctx.add, self.ctx.sub
        i, j, k, l = self.i, self.j, self.k, self.l  # noqa: E741
        out = [0] * self.n_vars
        out[i] = add(out[i], p[j])
        out[j] = add(out[j], p[i])
        out[k] = sub(out[k], p[l])
        out[l] = sub(out[l], p[k])
        return tuple(out)

    def restrict(self, space: LinearSubspace) -> QForm:
        """The form on the basis rows of space, read off the basis columns c:
        1/2 (c_i c_j^T + c_j c_i^T - c_k c_l^T - c_l c_k^T)."""
        if space.ambient + 1 != self.n_vars:
            raise DimensionMismatchError("form and subspace ambient mismatch")
        ctx = self.ctx
        mul, add, sub = ctx.mul, ctx.add, ctx.sub
        ci, cj, ck, cl = ([r[x] for r in space.rows] for x in (self.i, self.j, self.k, self.l))
        # u = c_i c_j^T - c_k c_l^T; the Gram matrix is its symmetric part
        u = [[sub(mul(xi, yj), mul(xk, yl)) for yj, yl in zip(cj, cl)] for xi, xk in zip(ci, ck)]
        half = (ctx.q + 1) // 2
        m = len(u)
        gram = tuple(tuple(mul(half, add(u[a][b], u[b][a])) for b in range(m)) for a in range(m))
        return QForm(ctx, m, gram)


def polarize(form, p, v) -> int:
    """Bilinear coefficient B with Q(l*p + m*v) = l^2 Q(p) + l*m*B + m^2 Q(v).

    Equals 2 * p^T * gram * v, the product of `form.polar(p)` with v, for a
    QForm or a Binomial.
    """
    if len(p) != form.n_vars or len(v) != form.n_vars:
        raise DimensionMismatchError("vector length != n_vars")
    return _dot(form.ctx, form.polar(p), v)


def qform_restrict(form, space: LinearSubspace) -> QForm:
    """Pull the form back along the parametrization of a subspace.

    The result acts on coefficient vectors w with respect to the basis rows:
    Q'(w) = Q(w . basis).  form is a QForm or a Binomial.
    """
    return form.restrict(space)


def _dot(ctx: FieldCtx, u, v) -> int:
    mul, add = ctx.mul, ctx.add
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def qform_rank(form: QForm) -> int:
    """Rank of the Gram matrix; invariant under congruence and field extension."""
    return rref(form.ctx, form.gram, form.n_vars)[0]


# ---------------------------------------------------------------------------
# packed arithmetic on integer arrays
# ---------------------------------------------------------------------------
#
# The brute-force oracle and the secant-locus enumeration work on whole tables
# of packed elements at once, with the `FieldCtx` operations applied to int64
# numpy arrays.  The helpers below add what those lack: inverses and batched
# elimination.  numpy is imported only where a function builds an array itself,
# so the classification path never loads it.


@lru_cache(maxsize=8)
def inverse_array(ctx: FieldCtx):
    """Read-only lookup table of inverses indexed by packed element; 0 maps to 0."""
    import numpy as np

    table = np.array([0] + [ctx.inv(a) for a in range(1, ctx.size)], dtype=np.int64)
    table.flags.writeable = False
    return table


def normalize_rows(ctx: FieldCtx, mat):
    """Scale every row of a 2-d packed array so its first nonzero entry is 1,
    the array form of `normalize_point`; zero rows stay zero."""
    import numpy as np

    lead = mat[np.arange(len(mat)), (mat != 0).argmax(axis=1)]
    return ctx.mul(mat, inverse_array(ctx)[lead][:, None])


def pivot_rows(ctx: FieldCtx, mats):
    """Rows of each matrix in a packed array of shape (batch, rows, cols)
    that Gaussian elimination takes as pivots, as a boolean mask.

    The elimination runs on the whole batch at once: each column takes the
    first row with a nonzero entry there, if any, as its pivot, and
    subtracts multiples of it from every row, the pivot row included, so
    that the column becomes zero.  No later step reads a column again, so
    only the columns right of the pivot are updated, and the last column
    updates nothing.  No rows are swapped, so the pivot rows of a matrix are
    a basis of its row space among its own rows, and their number is its
    rank.
    """
    import numpy as np

    work = mats.copy()
    picked = np.zeros(work.shape[:2], dtype=bool)
    inv = inverse_array(ctx)
    for col in range(work.shape[2]):
        nonzero = work[:, :, col] != 0
        batch = np.nonzero(nonzero.any(axis=1))[0]
        if not len(batch):
            continue
        rows = nonzero[batch].argmax(axis=1)
        picked[batch, rows] = True
        if col + 1 == work.shape[2]:
            break
        sub = work[batch, :, col:]
        piv = sub[np.arange(len(batch)), rows]
        piv = ctx.mul(piv[:, 1:], inv[piv[:, 0]][:, None])
        work[batch, :, col + 1:] = ctx.sub(sub[:, :, 1:], ctx.mul(sub[:, :, :1], piv[:, None, :]))
    return picked
