"""Exact arithmetic over odd prime fields GF(q) and quadratic extensions GF(q^2),
plus the projective linear algebra and quadratic-form kernels used everywhere else.

Scalars are packed integers.  An element a0 + a1*w of GF(q^2), where w^2 = c and
c is the least quadratic non-residue mod q, is stored as the Python int
a0 + q*a1.  Elements of the prime field are their own packing, so a GF(q) value
is simultaneously a valid GF(q^2) value and vectors never need re-encoding when
the computation moves into the extension.

Matrices are lists (or tuples) of equal-length coordinate tuples.  Projective
linear subspaces are kept in reduced row-echelon form, which makes subspace
equality literal tuple equality.  Everything here is immutable after
construction and safe to share across threads.

Only odd characteristic is supported: quadratic forms are represented by
symmetric Gram matrices, whose rank classification needs 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DimensionMismatchError,
    EvenCharacteristicError,
    NonPrimeError,
)

__all__ = [
    "FieldCtx",
    "field_make",
    "is_prime",
    "row_reduce",
    "normalize_point",
    "LinearSubspace",
    "span_points",
    "subspace_contains",
    "subspace_intersection",
    "QForm",
    "polarize",
    "qform_restrict",
    "qform_rank",
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

    def sqrt_base(self, a: int) -> int | None:
        """Square root of a prime-field element inside GF(q), or None.

        Tonelli-Shanks, made deterministic by reusing the stored non-residue
        (for d = 1 contexts the non-residue is recomputed on demand).
        """
        q = self.q
        a %= q
        if a == 0:
            return 0
        if pow(a, (q - 1) // 2, q) != 1:
            return None
        if q % 4 == 3:
            return pow(a, (q + 1) // 4, q)
        nonres = self.c if self.c else _least_nonresidue(q)
        # write q-1 = odd * 2^e and walk the 2-Sylow tower
        odd, e = q - 1, 0
        while odd % 2 == 0:
            odd //= 2
            e += 1
        g = pow(nonres, odd, q)
        x = pow(a, (odd + 1) // 2, q)
        b = pow(a, odd, q)
        while b != 1:
            m, t = 0, b
            while t != 1:
                t = t * t % q
                m += 1
            gs = pow(g, 1 << (e - m - 1), q)
            x = x * gs % q
            b = b * gs % q * gs % q
            g = gs * gs % q
            e = m
        return x


def _least_nonresidue(q: int) -> int:
    for c in range(2, q):
        if pow(c, (q - 1) // 2, q) == q - 1:
            return c
    raise NonPrimeError(f"no quadratic non-residue mod {q}")


@lru_cache(maxsize=None)
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


def extension_of(ctx: FieldCtx) -> FieldCtx:
    return ctx if ctx.d == 2 else field_make(ctx.q, 2)


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
    raise DimensionMismatchError("cannot normalize the zero vector")


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
    _, ech, _ = row_reduce(ctx, pts, ambient + 1)
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


def polarize(form: QForm, p, v) -> int:
    """Bilinear coefficient B with Q(l*p + m*v) = l^2 Q(p) + l*m*B + m^2 Q(v).

    Equals 2 * p^T * gram * v.
    """
    if len(p) != form.n_vars or len(v) != form.n_vars:
        raise DimensionMismatchError("vector length != n_vars")
    ctx = form.ctx
    mul, add = ctx.mul, ctx.add
    total = 0
    for i, pi in enumerate(p):
        if not pi:
            continue
        row = form.gram[i]
        acc = 0
        for j, vj in enumerate(v):
            if vj and row[j]:
                acc = add(acc, mul(row[j], vj))
        total = add(total, mul(pi, acc))
    return ctx.add(total, total)


def qform_restrict(form: QForm, space: LinearSubspace) -> QForm:
    """Pull the form back along the parametrization of a subspace.

    The result acts on coefficient vectors w with respect to the basis rows:
    Q'(w) = Q(w . basis).
    """
    if space.ambient + 1 != form.n_vars:
        raise DimensionMismatchError("form and subspace ambient mismatch")
    ctx = form.ctx
    rows = space.rows
    k = len(rows)
    mul, add = ctx.mul, ctx.add
    # G' = B G B^T
    gb = []
    for r in rows:
        line = []
        for j in range(form.n_vars):
            acc = 0
            for t in range(form.n_vars):
                if r[t] and form.gram[t][j]:
                    acc = add(acc, mul(r[t], form.gram[t][j]))
            line.append(acc)
        gb.append(line)
    gram = tuple(
        tuple(
            _dot(ctx, gb[i], rows[j])
            for j in range(k)
        )
        for i in range(k)
    )
    return QForm(ctx, k, gram)


def _dot(ctx: FieldCtx, u, v) -> int:
    mul, add = ctx.mul, ctx.add
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def qform_rank(form: QForm) -> int:
    """Rank of the Gram matrix; invariant under congruence and field extension."""
    rank, _, _ = row_reduce(form.ctx, [list(r) for r in form.gram], form.n_vars)
    return rank


def qform_normalized_gram(form: QForm):
    """Gram matrix scaled so its first nonzero entry is 1 (for proportionality tests)."""
    ctx = form.ctx
    flat = [x for row in form.gram for x in row]
    for x in flat:
        if x:
            s = ctx.inv(x)
            return tuple(
                tuple(ctx.mul(s, y) if y else 0 for y in row) for row in form.gram
            )
    return form.gram
