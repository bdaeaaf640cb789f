import itertools
import random

import pytest

from conftest import external_point
from scrollsec import _binpoly as bp
from scrollsec import classify_with_data, field_make, scroll_new, stratum_geometric
from scrollsec.exactfield import extension_of
from scrollsec.secant import _analysis
from test_acceptance import H_VALUES, MATRIX


def _counted_ppowmod(monkeypatch):
    calls = []
    real = bp.ppowmod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bp, "ppowmod", counted)
    return calls


def _poly_from_roots(ctx2, roots):
    """prod (x - r) over GF(q^2), by the field's own arithmetic."""
    f = [1]
    for r in roots:
        out = [0] * (len(f) + 1)
        for i, a in enumerate(f):
            out[i + 1] = ctx2.add(out[i + 1], a)
            out[i] = ctx2.sub(out[i], ctx2.mul(a, r))
        f = out
    return f


def _brute_roots(ctx2, f):
    """Roots of f in GF(q) and in GF(q^2) \\ GF(q), by evaluation everywhere."""
    base, ext = [], []
    for z in ctx2.elements():
        acc = 0
        for a in reversed(f):
            acc = ctx2.add(ctx2.mul(acc, z), a)
        if not acc:
            (base if ctx2.is_base(z) else ext).append(z)
    return base, ext


def _assert_roots_match_brute_force(ctx, f):
    ctx2 = extension_of(ctx)
    base, ext = _brute_roots(ctx2, f)
    assert bp.roots_base_and_ext(ctx, f) == (base, ctx2 if ext else None, ext), f


def _irreducible_quadratics(q):
    return [[e, b, 1] for b in range(q) for e in range(q)
            if pow((b * b - 4 * e) % q, (q - 1) // 2, q) == q - 1]


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_roots_of_every_small_monic_polynomial(q):
    ctx = field_make(q)
    for deg in range(4 if q > 5 else 5):
        for low in itertools.product(range(q), repeat=deg):
            _assert_roots_match_brute_force(ctx, list(low) + [1])


@pytest.mark.parametrize("q", [3, 5, 7])
def test_roots_with_repeated_linear_and_quadratic_factors(q):
    ctx = field_make(q)
    factors = [[-a % q, 1] for a in range(q)] + _irreducible_quadratics(q)
    for f1, f2 in itertools.product(factors, repeat=2):
        for f in (bp.pmul(q, bp.pmul(q, f1, f1), f2),
                  bp.pmul(q, bp.pmul(q, f1, f2), f2),
                  bp.pmul(q, bp.pmul(q, f1, f1), bp.pmul(q, f1, f2))):
            # a non-monic multiple has the same roots
            _assert_roots_match_brute_force(ctx, [2 * a % q for a in f])


def test_conjugate_pairs_need_no_powmod(monkeypatch):
    # (x - a)^2 - (b*w)^2 has the roots a +- b*w.  The real parts 0, +-1, +-2,
    # b and -b once made a character sweep over GF(q^2) slow; the quadratic
    # formula does not sweep.
    q = 10007
    ctx = field_make(q)
    ctx2 = extension_of(ctx)
    calls = _counted_ppowmod(monkeypatch)
    for a in (0, q - 1, 1, 2, q - 2):
        for b in (1, 2, 5000, q - 1):
            for real_part in (a, b, q - b):
                f = [(real_part * real_part - b * b * ctx2.c) % q, (-2 * real_part) % q, 1]
                roots = [real_part + q * b, real_part + q * (q - b)]
                assert bp.roots_base_and_ext(ctx, f) == ([], ctx2, sorted(roots))
    assert calls == []


def test_quartic_pairs_split_in_few_shifts(monkeypatch):
    # two conjugate pairs r, conj(r) and -conj(r) - 2c, -r - 2c: their
    # characters agree on every shift c + k*w of GF(q^2), and the quartic
    # has GF(q) coefficients
    q = 10007
    ctx = field_make(q)
    ctx2 = extension_of(ctx)
    calls = _counted_ppowmod(monkeypatch)
    for c in (0, 1, 2):
        for a, b in ((3, 7), (q - 1, 5000), (1234, 4321)):
            r = a + q * b
            roots = {r, ctx2.conj(r)}
            roots |= {ctx2.sub(ctx2.neg(x), 2 * c % q) for x in set(roots)}
            f = _poly_from_roots(ctx2, sorted(roots))
            assert all(ctx2.is_base(x) for x in f)
            del calls[:]
            assert bp.roots_base_and_ext(ctx, f) == ([], ctx2, sorted(roots))
            assert len(calls) <= 16, (c, a, b, len(calls))


def test_root_finding_cost_per_point_is_bounded(monkeypatch):
    # Counts, not timings: a slow root family shows up as a spike in ppowmod
    # calls.  Two seeded points per spec of the acceptance matrix, q = 10007.
    ctx = field_make(10007)
    _analysis.cache_clear()
    calls = _counted_ppowmod(monkeypatch)
    per_point = []
    for idx, a in enumerate(MATRIX):
        for h in H_VALUES:
            spec = scroll_new(a, h)
            rng = random.Random(20_000 + 37 * idx + (h + 1))
            for _ in range(2):
                p = external_point(spec, ctx, rng)
                del calls[:]
                classify_with_data(spec, ctx, p)
                stratum_geometric(spec, ctx, p)
                per_point.append(len(calls))
    assert len(per_point) == 66
    assert max(per_point) <= 6, max(per_point)
    assert sum(per_point) <= 120, sum(per_point)
