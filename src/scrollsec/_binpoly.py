"""Dense univariate polynomials over a prime field GF(q), with root finding.

Polynomials are little-endian lists of plain ints in [0, q), and every kernel
takes the prime q itself: the arithmetic is inline `% q`, with no FieldCtx
dispatch.  Degrees stay tiny (bounded by the scroll degree).

Only prime-field polynomials are ever factored.  A root z of f in
GF(q^2) \\ GF(q) has a minimal polynomial over GF(q) of degree 2, an
irreducible quadratic factor of f, and its conjugate z^q is the other root of
that factor.  So f splits over GF(q) into linear and irreducible quadratic
factors (the rest has no roots in GF(q^2)), and each quadratic is solved by
formula:

* a linear factor f1*x + f0 has the root -f0/f1;
* a monic x^2 + b*x + e has the discriminant D = b^2 - 4e.  D = 0 gives the
  double root -b/2; a residue D gives (-b +- sqrt(D))/2 by Tonelli-Shanks; a
  non-residue D gives the conjugate pair (-b +- y*w)/2 with y^2 = D/c, where
  w^2 = c is the extension's non-residue (see `exactfield`).

For degree 3 and more, x^q mod f by square and multiply gives
g1 = gcd(x^q - x, f), the product of the distinct linear factors.  With those
roots peeled off f, x^(q^2) mod the rest is x^q composed with itself
(modular composition, von zur Gathen and Shoup 1992), and
g2 = gcd(x^(q^2) - x, rest) is the product of the distinct irreducible
quadratics.  Cantor-Zassenhaus (1981) splits g1 and g2 into pieces of degree
at most 2: over GF(q^d) the roots z with chi(z + k) = 1 lie in
gcd((x + k)^((q^d - 1)/2) - 1, g) for the shifts k = 0, 1, 2, ...

No classification call reaches this module: the secant cone comes from the
polar-kernel solve in `secant`, which needs no roots.  It stays for its own
tests and for the benchmark tracer, which imports it to hook root finding.
"""

from __future__ import annotations

from .errors import InvariantError
from .exactfield import FieldCtx, extension_of


def pnorm(f):
    """Strip trailing zero coefficients."""
    d = len(f) - 1
    while d >= 0 and not f[d]:
        d -= 1
    return f[: d + 1]


def pdeg(f) -> int:
    return len(f) - 1


def psub(q: int, f, g):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return pnorm([(a - b) % q for a, b in zip(f, g)])


def pmul(q: int, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return pnorm([x % q for x in out])


def pdivmod(q: int, f, g):
    g = pnorm(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = pnorm(list(f))
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], f
    inv_lead = pow(g[-1], q - 2, q)
    quot = [0] * (len(f) - dg)
    for k in range(len(f) - dg - 1, -1, -1):
        c = f[k + dg] * inv_lead % q
        if c:
            quot[k] = c
            for j in range(dg):
                f[k + j] = (f[k + j] - c * g[j]) % q
    return pnorm(quot), pnorm(f[:dg])


def pmod(q: int, f, g):
    return pdivmod(q, f, g)[1]


def pmonic(q: int, f):
    f = pnorm(list(f))
    if not f or f[-1] == 1:
        return f
    s = pow(f[-1], q - 2, q)
    return [a * s % q for a in f]


def pgcd(q: int, f, g):
    a, b = pnorm(list(f)), pnorm(list(g))
    while b:
        a, b = b, pmod(q, a, b)
    return pmonic(q, a)


def ppowmod(q: int, base, e: int, mod):
    """base^e mod `mod` by square and multiply."""
    result = [1]
    base = pmod(q, base, mod)
    while e:
        if e & 1:
            result = pmod(q, pmul(q, result, base), mod)
        base = pmod(q, pmul(q, base, base), mod)
        e >>= 1
    return result


def _compose(q: int, f, g, mod):
    """f(g) mod `mod` by Horner."""
    acc = []
    for a in reversed(f):
        acc = pmul(q, acc, g) or [0]
        acc[0] = (acc[0] + a) % q
        acc = pmod(q, acc, mod)
    return acc


def _split(ctx: FieldCtx, g, d: int, base, ext) -> None:
    """Append the roots of g to base and ext.  g is monic, of degree at most 2
    or a product of distinct irreducibles of degree d (1 or 2) over GF(q)."""
    q = ctx.q
    if pdeg(g) == 1:
        base.append(-g[0] % q)
    elif pdeg(g) == 2:
        half = (q + 1) // 2
        disc = (g[1] * g[1] - 4 * g[0]) % q
        s = ctx.sqrt_base(disc)
        if s is not None:
            base.extend({(s - g[1]) * half % q, (-s - g[1]) * half % q})
        else:
            # disc = y^2 * c with w^2 = c, so sqrt(disc) = y*w
            y = ctx.sqrt_base(disc * pow(extension_of(ctx).c, q - 2, q)) * half % q
            a0 = -g[1] * half % q
            ext.extend([a0 + q * y, a0 + q * (-y % q)])
    elif pdeg(g) > 2:
        e = (q**d - 1) // 2
        for k in range(q):
            h = pgcd(q, psub(q, ppowmod(q, [k, 1], e, g), [1]), g)
            if 0 < pdeg(h) < pdeg(g):
                _split(ctx, h, d, base, ext)
                _split(ctx, pdivmod(q, g, h)[0], d, base, ext)
                return
        raise InvariantError("character split failed to separate roots")


def roots_base_and_ext(ctx: FieldCtx, f):
    """Roots of a GF(q) polynomial in GF(q) and in GF(q^2) \\ GF(q).

    ctx is a prime field.  Returns (base_roots, ext_ctx_or_None, ext_roots),
    both root lists sorted; ext_ctx is `extension_of(ctx)` exactly when there
    are ext roots.
    """
    q = ctx.q
    f = pmonic(q, f)
    base, ext = [], []
    if pdeg(f) <= 2:
        _split(ctx, f, 1, base, ext)
    else:
        xq = ppowmod(q, [0, 1], q, f)
        g1 = pgcd(q, psub(q, xq, [0, 1]), f)
        _split(ctx, g1, 1, base, ext)
        # peel the base roots, with their multiplicities, off f
        rem = f
        while pdeg(g := pgcd(q, rem, g1)) > 0:
            rem = pdivmod(q, rem, g)[0]
        if pdeg(rem) == 2:
            _split(ctx, rem, 2, base, ext)
        elif pdeg(rem) > 3:
            # a cubic rem has no root in GF(q), so it is irreducible: skip it
            xq = pmod(q, xq, rem)
            g2 = pgcd(q, psub(q, _compose(q, xq, xq, rem), [0, 1]), rem)
            _split(ctx, g2, 2, base, ext)
    return sorted(base), extension_of(ctx) if ext else None, sorted(ext)
