"""Exact arithmetic over odd prime fields GF(q) and quadratic extensions GF(q^2),
plus the projective linear algebra and quadratic-form kernels used everywhere else.

Scalars are packed integers.  An element a0 + a1*w of GF(q^2), where w^2 = c and
c is the least quadratic non-residue mod q, is stored as the Python int
a0 + q*a1.  Elements of the prime field are their own packing, so a GF(q) value
is simultaneously a valid GF(q^2) value and vectors never need re-encoding when
the computation moves into the extension.

The arithmetic of `FieldCtx` is written once for both kinds of operand:
`add`, `sub`, `neg` and `mul` also take int64 numpy arrays of packed
elements (any shapes that broadcast) and return arrays.  `inv` takes scalars
only; `normalize_rows` divides arrays, through discrete log tables.

Matrices are lists (or tuples) of equal-length coordinate tuples.  Projective
linear subspaces are kept in reduced row-echelon form, which makes subspace
equality literal tuple equality.  The row reduction behind them runs on plain
ints with an inline `% q`, not through `FieldCtx`: over GF(q) on the entries,
over GF(q^2) on the two GF(q) components of each entry.
Everything here is immutable after construction and safe to share across
threads.

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
    "QForm",
    "Binomial",
    "qform_rank",
    "normalize_rows",
    "pivot_rows",
]


# the first 13 primes; as Miller-Rabin bases they decide every n below _MR_BOUND
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.3 * 10^24.

    Bases 2, 3, ..., 41 admit no strong pseudoprime below _MR_BOUND, so the
    answer is exact there; a larger n raises NonPrimeError, since no answer
    would be a proof.
    """
    if n >= _MR_BOUND:
        raise NonPrimeError(f"{n} is beyond the primality bound {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for GF(q^d) with d in {1, 2}.

    q: odd prime modulus.
    d: extension degree.
    c: for d = 2, the least quadratic non-residue mod q (the extension is
       GF(q)[w]/(w^2 - c)); 0 for d = 1.

    add, sub, neg and mul accept packed ints or int64 arrays of packed
    elements; inv accepts ints only (`normalize_rows` divides arrays).
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
    """In-place-style RREF; returns (rank, echelon_rows, pivot_columns).

    Every step is plain integer arithmetic with an inline `% q`: over a
    prime field on the entries themselves (`_rref_prime`), over GF(q^2) on
    the two GF(q) components of each entry (`_rref_ext`).
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != cols:
            raise DimensionMismatchError("ragged matrix")
    if ctx.d == 1:
        return _rref_prime(ctx, work, cols)
    return _rref_ext(ctx, work, cols)


def _rref_prime(ctx: FieldCtx, work: list, cols: int):
    """`_rref` over GF(q) on a list of row lists, with plain ints mod q.

    It touches only the columns where the pivot row is nonzero, listed once
    per pivot."""
    q = ctx.q
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        row = work[rank]
        pinv = ctx.inv(row[col])
        support = [j for j in range(col, cols) if row[j]]
        if pinv != 1:
            for j in support:
                row[j] = row[j] * pinv % q
        for i, tgt in enumerate(work):
            f = tgt[col]
            if f and i != rank:
                for j in support:
                    tgt[j] = (tgt[j] - f * row[j]) % q
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return rank, [tuple(r) for r in work[:rank]], pivots


def _rref_ext(ctx: FieldCtx, work: list, cols: int):
    """`_rref` over GF(q^2) on a list of row lists of packed elements, with
    plain ints mod q.

    An element a0 + q*a1 stands for a0 + a1 w with w^2 = c, so a product is
    (a0 + a1 w)(b0 + b1 w) = a0 b0 + c a1 b1 + (a0 b1 + a1 b0) w.  Each
    step splits the entries it reads into their two GF(q) components,
    updates both with an inline `% q` and packs the result again; like
    `_rref_prime` it touches only the columns where the pivot row is
    nonzero.  The pivot column is set to 1 in the pivot row and to 0 in the
    others without arithmetic.  The matrices here have a few rows, so no
    split copy of the whole matrix is made."""
    q, c = ctx.q, ctx.c
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        row = work[rank]
        if row[col] != 1:
            # 1 / (p0 + p1 w) = (p0 - p1 w) / (p0^2 - c p1^2)
            p1, p0 = divmod(row[col], q)
            ninv = pow((p0 * p0 - c * p1 * p1) % q, q - 2, q)
            i0, i1 = p0 * ninv % q, -p1 * ninv % q
            row[col] = 1
            for j in range(col + 1, cols):
                if row[j]:
                    x1, x0 = divmod(row[j], q)
                    row[j] = (x0 * i0 + c * x1 * i1) % q + q * ((x0 * i1 + x1 * i0) % q)
        for i, tgt in enumerate(work):
            f = tgt[col]
            if f and i != rank:
                tgt[col] = 0
                f1, f0 = divmod(f, q)
                cf1 = c * f1
                for j in range(col + 1, cols):
                    x = row[j]
                    if x:
                        x1, x0 = divmod(x, q)
                        t1, t0 = divmod(tgt[j], q)
                        tgt[j] = (t0 - f0 * x0 - cf1 * x1) % q + q * ((t1 - f0 * x1 - f1 * x0) % q)
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return rank, [tuple(r) for r in work[:rank]], pivots


def rref(ctx: FieldCtx, rows, cols: int):
    """Rank and RREF rows over GF(q^d), without the kernel; entries lie in [0, size).

    The echelon rows are those of `row_reduce`; callers that only need the
    row space or the rank skip its kernel pass.
    """
    rank, echelon, _ = _rref(ctx, rows, cols)
    return rank, echelon


def row_reduce(ctx: FieldCtx, rows, cols: int | None = None):
    """Reduced row echelon form over GF(q^d); entries must lie in [0, size).

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
            if ctx.d == 1:
                q = ctx.q
                return tuple(s * y % q for y in v)
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
        """Residue of v, read mod the field size, after elimination by the basis rows."""
        if len(v) != self.ambient + 1:
            raise DimensionMismatchError("ambient dimension mismatch")
        ctx = self.ctx
        out = [x % ctx.size for x in v]
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

    Coordinates are read mod the field size; no points give the empty subspace.
    """
    pts = [[x % ctx.size for x in p] for p in points]
    for p in pts:
        if len(p) != ambient + 1:
            raise DimensionMismatchError("point does not live in P^%d" % ambient)
    if not pts:
        return LinearSubspace(ctx, ambient, ())
    _, ech = rref(ctx, pts, ambient + 1)
    return LinearSubspace(ctx, ambient, tuple(ech))


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
        """The covector 2 * p^T * gram; its product with v is the coefficient
        B of l*m in Q(l*p + m*v) = l^2 Q(p) + l*m*B + m^2 Q(v)."""
        if len(p) != self.n_vars:
            raise DimensionMismatchError("vector length != n_vars")
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
        ctx = self.ctx
        if ctx.d == 1:
            return (v[self.i] * v[self.j] - v[self.k] * v[self.l]) % ctx.q
        return ctx.sub(ctx.mul(v[self.i], v[self.j]), ctx.mul(v[self.k], v[self.l]))

    def polar(self, p) -> tuple:
        """The covector 2 * p^T * G, G the Gram matrix (see `QForm.polar`)."""
        if len(p) != self.n_vars:
            raise DimensionMismatchError("vector length != n_vars")
        ctx = self.ctx
        i, j, k, l = self.i, self.j, self.k, self.l  # noqa: E741
        out = [0] * self.n_vars
        if ctx.d == 1:
            out[i] += p[j]
            out[j] += p[i]
            out[k] -= p[l]
            out[l] -= p[k]
            for x in (i, j, k, l):
                out[x] %= ctx.q
            return tuple(out)
        add, sub = ctx.add, ctx.sub
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


def _dot(ctx: FieldCtx, u, v) -> int:
    if ctx.d == 1:
        return sum(a * b for a, b in zip(u, v)) % ctx.q
    mul, add = ctx.mul, ctx.add
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def _rank_le_one(ctx: FieldCtx, vecs) -> bool:
    """Whether the vectors, tuples or lists of reduced entries, span at most a
    line: each v is c * r, for r the first nonzero vector, i its first nonzero
    index and c = v_i / r_i.  The vectors are read in turn, up to the first
    one off the line."""
    r = None
    for v in vecs:
        if r is not None:
            c = mul(v[i], inv)
            # list against list: a tuple never equals a list
            if list(v) != ([c * x % q for x in r] if ctx.d == 1 else [mul(c, x) for x in r]):
                return False
        elif any(v):
            r, i = list(v), 0
            while not r[i]:
                i += 1
            q, mul, inv = ctx.q, ctx.mul, ctx.inv(r[i])
    return True


def qform_rank(form: QForm) -> int:
    """Rank of the Gram matrix, whose entries lie in [0, size); invariant under
    congruence and field extension."""
    return rref(form.ctx, form.gram, form.n_vars)[0]


# ---------------------------------------------------------------------------
# packed arithmetic on integer arrays
# ---------------------------------------------------------------------------
#
# The brute-force oracle and the secant-locus enumeration work on whole tables
# of packed elements at once, with the `FieldCtx` operations applied to int64
# numpy arrays.  The helpers below add what those lack: division through
# discrete logarithms and batched elimination.  numpy is imported only where a
# function builds an array itself, so the classification path never loads it.


@lru_cache(maxsize=8)
def _log_exp(ctx: FieldCtx):
    """Read-only discrete log and exp tables of the field, for g its least
    packed generator: log[a] = k with g^k = a for a != 0, and exp[k] = g^k.

    The tables are laid out so that exp[log[a] + (-log[b] mod (size - 1))]
    is a/b for every b != 0, and 0 for a = 0: log[0] = 2 (size - 1), and exp
    holds g^k for k < 2 (size - 1) and zeros above.  The offset is 0 for
    b = 0, so a zero row normalized this way stays zero.
    """
    import numpy as np

    order = ctx.size - 1
    primes = _prime_factors(order)
    # over GF(q^2) the packed elements below q form GF(q), whose orders
    # divide q - 1, so the least generator is at least q
    g = next(g for g in range(2 if ctx.d == 1 else ctx.q, ctx.size)
             if all(_power(ctx, g, order // f) != 1 for f in primes))
    # exp[m:2m] = g^m exp[:m], doubling the filled prefix each step
    exp = np.zeros(3 * order, dtype=np.int64)
    exp[0], m, gm = 1, 1, g
    while m < order:
        k = min(m, order - m)
        exp[m:m + k] = ctx.mul(exp[:k], gm)
        m, gm = m + k, ctx.mul(gm, gm)
    exp[order:2 * order] = exp[:order]
    log = np.full(ctx.size, 2 * order, dtype=np.int64)
    log[exp[:order]] = np.arange(order)
    for arr in (log, exp):
        arr.flags.writeable = False
    return log, exp


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _power(ctx: FieldCtx, a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = ctx.mul(out, a)
        a, e = ctx.mul(a, a), e >> 1
    return out


def normalize_rows(ctx: FieldCtx, mat):
    """Scale every row of a 2-d packed array so its first nonzero entry is 1,
    the array form of `normalize_point`; zero rows stay zero.  Each entry is
    divided by the lead through the discrete log tables of `_log_exp`."""
    import numpy as np

    log, exp = _log_exp(ctx)
    lead = mat[np.arange(len(mat)), (mat != 0).argmax(axis=1)]
    idx = log[mat]
    idx += (-log[lead] % (ctx.size - 1))[:, None]
    return exp[idx]


def pivot_rows(ctx: FieldCtx, mats):
    """Rows of each matrix in a packed array of shape (batch, rows, cols)
    that Gaussian elimination takes as pivots, as a boolean mask.

    The elimination runs on the whole batch at once: each column takes the
    first row with a nonzero entry there, if any, as its pivot, and
    subtracts multiples of it from every row, the pivot row included, so
    that the column becomes zero.  No later step reads a column again, so
    only the columns right of the pivot are updated, and the last column
    updates nothing.  No rows are swapped, and a pivot only changes the rows
    below it, so a row is picked exactly when it is not in the span of the
    rows above it: the pivot rows of a matrix are the first basis of its row
    space among its own rows, and their number is its rank.  The pivot entry
    leads its row from its column on, so `normalize_rows` divides by it; the
    stack is copied only once a column right of a pivot remains to update.
    """
    import numpy as np

    cols = mats.shape[2]
    work = mats
    picked = np.zeros(mats.shape[:2], dtype=bool)
    for col in range(cols):
        nonzero = work[:, :, col] != 0
        batch = np.nonzero(nonzero.any(axis=1))[0]
        if not len(batch):
            continue
        rows = nonzero[batch].argmax(axis=1)
        picked[batch, rows] = True
        if col + 1 == cols:
            break
        if work is mats:
            work = mats.copy()
        sub = work[batch, :, col:]
        piv = normalize_rows(ctx, sub[np.arange(len(batch)), rows])[:, 1:]
        work[batch, :, col + 1:] = ctx.sub(sub[:, :, 1:], ctx.mul(sub[:, :, :1], piv[:, None, :]))
    return picked
