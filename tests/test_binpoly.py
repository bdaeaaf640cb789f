from scrollsec import _binpoly as bp
from scrollsec import field_make


def test_shift_sweep_is_a_bijection():
    for q in (3, 5, 7):
        for d in (1, 2):
            ctx = field_make(q, d)
            shifts = sorted(bp._shift_sweep(ctx, k) for k in range(ctx.size))
            assert shifts == list(range(ctx.size))


def _counted_ppowmod(monkeypatch):
    calls = []
    real = bp.ppowmod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bp, "ppowmod", counted)
    return calls


def test_conjugate_pair_splits_in_few_shifts(monkeypatch):
    # (x - a)^2 - (b*w)^2 has the roots a +- b*w.  A sweep of shifts along a
    # line c + k*w keeps both roots of the pair -c +- b*w on one character
    # until it reaches them, so a = 0 and a = -1 are the cases that once took
    # thousands of attempts; the others guard against a sweep along another line.
    q = 10007
    ctx2 = field_make(q, 2)
    calls = _counted_ppowmod(monkeypatch)
    for a in (0, q - 1, 1, 2, q - 2):
        for b in (1, 2, 5000, q - 1):
            for real_part in (a, b, q - b):
                del calls[:]
                f = [(real_part * real_part - b * b * ctx2.c) % q, (-2 * real_part) % q, 1]
                roots = [real_part + q * b, real_part + q * (q - b)]
                assert bp.roots_in_field(ctx2, f) == sorted(roots)
                assert len(calls) <= 12, (real_part, b, len(calls))


def test_quartic_pairs_split_in_few_shifts(monkeypatch):
    # two conjugate pairs r, conj(r) and -conj(r) - 2c, -r - 2c share their
    # characters on every shift c + k*w
    q = 10007
    ctx2 = field_make(q, 2)
    calls = _counted_ppowmod(monkeypatch)
    for c in (0, 1, 2):
        for a, b in ((3, 7), (q - 1, 5000), (1234, 4321)):
            r = a + q * b
            roots = {r, ctx2.conj(r)}
            roots |= {ctx2.sub(ctx2.neg(x), 2 * c % q) for x in set(roots)}
            f = [1]
            for x in roots:
                f = bp.pmul(ctx2, f, [ctx2.neg(x), 1])
            del calls[:]
            assert bp.roots_in_field(ctx2, f) == sorted(roots)
            assert len(calls) <= 16, (c, a, b, len(calls))
