"""Dense univariate polynomial arithmetic over a FieldCtx, with root finding.

Polynomials are little-endian coefficient lists of packed field elements.
Root finding follows the usual split: gcd with x^|F| - x isolates the part
that splits over the field, and a deterministic sweep of Legendre-character
splits extracts the roots.  Degrees here stay tiny (bounded by the scroll
degree), so none of this needs to be asymptotically clever.
"""

from __future__ import annotations

from .exactfield import FieldCtx, extension_of


def pnorm(f):
    """Strip trailing zero coefficients."""
    d = len(f) - 1
    while d >= 0 and not f[d]:
        d -= 1
    return f[: d + 1]


def pdeg(f) -> int:
    return len(f) - 1


def padd(ctx: FieldCtx, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(ctx.add(a, b))
    return pnorm(out)


def psub(ctx: FieldCtx, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(ctx.sub(a, b))
    return pnorm(out)


def pscale(ctx: FieldCtx, s, f):
    if not s:
        return []
    return pnorm([ctx.mul(s, a) if a else 0 for a in f])


def pmul(ctx: FieldCtx, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    mul, add = ctx.mul, ctx.add
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = add(out[i + j], mul(a, b))
    return pnorm(out)


def pdivmod(ctx: FieldCtx, f, g):
    g = pnorm(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(pnorm(list(f)))
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], f
    inv_lead = ctx.inv(g[-1])
    quot = [0] * (len(f) - dg)
    mul, sub = ctx.mul, ctx.sub
    for k in range(len(f) - dg - 1, -1, -1):
        c = f[k + dg]
        if not c:
            continue
        c = mul(c, inv_lead)
        quot[k] = c
        for j in range(dg + 1):
            if g[j]:
                f[k + j] = sub(f[k + j], mul(c, g[j]))
    return pnorm(quot), pnorm(f)


def pmod(ctx: FieldCtx, f, g):
    return pdivmod(ctx, f, g)[1]


def pmonic(ctx: FieldCtx, f):
    f = pnorm(list(f))
    if not f or f[-1] == 1:
        return f
    return pscale(ctx, ctx.inv(f[-1]), f)


def pgcd(ctx: FieldCtx, f, g):
    a, b = pnorm(list(f)), pnorm(list(g))
    while b:
        a, b = b, pmod(ctx, a, b)
    return pmonic(ctx, a)


def peval(ctx: FieldCtx, f, x: int) -> int:
    acc = 0
    mul, add = ctx.mul, ctx.add
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def ppowmod(ctx: FieldCtx, base, e: int, mod):
    """base^e mod `mod` by square and multiply."""
    result = [1]
    base = pmod(ctx, base, mod)
    while e:
        if e & 1:
            result = pmod(ctx, pmul(ctx, result, base), mod)
        base = pmod(ctx, pmul(ctx, base, base), mod)
        e >>= 1
    return result


def _shift_sweep(ctx: FieldCtx, k: int) -> int:
    """Deterministic enumeration of field elements for the character split.

    Over GF(q) the sweep is 0, 1, 2, ...  Over GF(q^2) no sweep along a line
    of shifts c + k*w works for every input: a conjugate pair -c +- b*w keeps
    one character on the whole line, and the pairs r, -conj(r) - 2c of a
    quartic never split on it.  So the sweep steps through GF(q^2) by a fixed
    multiplier whose two coordinates are about 0.618 q and 0.414 q.  Its
    shifts do not run along one line, and a pair of roots of any of those
    families splits after about two of them.  The multiplier is a unit mod
    q^2, so k -> (k + 1) * step is still a bijection of GF(q^2).
    """
    if ctx.d == 1:
        return k % ctx.size
    q = ctx.q
    step = round(q * 0.6180339887) + q * round(q * 0.4142135624)
    return (k + 1) * step % ctx.size


def _split_linear(ctx: FieldCtx, f, roots):
    """Extract all roots of f, assuming f splits into distinct linear factors."""
    f = pmonic(ctx, f)
    if pdeg(f) <= 0:
        return
    if pdeg(f) == 1:
        roots.append(ctx.neg(f[0]))
        return
    if not f[0]:
        roots.append(0)
        _split_linear(ctx, pdivmod(ctx, f, [0, 1])[0], roots)
        return
    half = (ctx.size - 1) // 2
    for k in range(ctx.size + 1):
        # character split: roots with chi(root + shift) = 1 land in the gcd
        shift = _shift_sweep(ctx, k)
        power = ppowmod(ctx, [shift, 1], half, f)
        g = pgcd(ctx, psub(ctx, power, [1]), f)
        if 0 < pdeg(g) < pdeg(f):
            _split_linear(ctx, g, roots)
            _split_linear(ctx, pdivmod(ctx, f, g)[0], roots)
            return
    raise RuntimeError("character split failed to separate roots")


def roots_in_field(ctx: FieldCtx, f) -> list[int]:
    """All roots of f in GF(q^d), sorted.  f need not be squarefree."""
    f = pnorm(list(f))
    if pdeg(f) < 1:
        return []
    xq = ppowmod(ctx, [0, 1], ctx.size, f)
    g = pgcd(ctx, psub(ctx, xq, [0, 1]), f)
    roots: list[int] = []
    _split_linear(ctx, g, roots)
    return sorted(roots)


def roots_base_and_ext(ctx: FieldCtx, f):
    """Roots of a GF(q) polynomial in GF(q) and in GF(q^2) \\ GF(q).

    The distinct-degree bookkeeping runs entirely over the prime field; only
    the final extraction of conjugate root pairs touches extension arithmetic.
    Returns (base_roots, ext_ctx_or_None, ext_roots).
    """
    f = pnorm(list(f))
    if pdeg(f) < 1:
        return [], None, []
    base_roots = roots_in_field(ctx, f)
    # peel off the linear factors found over the base field
    rem = f
    for r in base_roots:
        while True:
            q_, rem_ = pdivmod(ctx, rem, [ctx.neg(r), 1])
            if rem_:
                break
            rem = q_
            if peval(ctx, rem, r):
                break
    if pdeg(rem) < 2:
        return base_roots, None, []
    ctx2 = extension_of(ctx)
    xq2 = ppowmod(ctx, [0, 1], ctx.size * ctx.size, rem)
    g2 = pgcd(ctx, psub(ctx, xq2, [0, 1]), rem)
    if pdeg(g2) < 2:
        return base_roots, None, []
    ext_roots = [r for r in roots_in_field(ctx2, g2) if not ctx2.is_base(r)]
    return base_roots, ctx2, sorted(ext_roots)
