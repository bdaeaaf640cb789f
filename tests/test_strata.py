import itertools
import random

import pytest

from conftest import external_point
from scrollsec import (
    PointOnVarietyError,
    classify_with_data,
    contains,
    embed,
    field_make,
    member_A,
    member_B,
    member_tangent,
    member_U,
    member_secant_variety,
    normalize_point,
    scroll_new,
    stratum_geometric,
)
from scrollsec.delpezzo import sample_inside_locus
from scrollsec.oracle import brute_membership
from scrollsec.scroll import ScrollPoint, random_scroll_point


def test_member_A_examples(f7):
    s113 = scroll_new([1, 1, 3])
    # generic point of the span of the two degree-1 blocks, off the sub-scroll
    p = (1, 2, 3, 5, 0, 0, 0, 0)
    assert not contains(s113, f7, p)
    assert member_A(s113, f7, p)
    s22 = scroll_new([2, 2])
    rng = random.Random(1)
    for _ in range(10):
        assert not member_A(s22, f7, external_point(s22, f7, rng))


def test_member_U_examples(f7):
    s12 = scroll_new([1, 2])
    rng = random.Random(2)
    for _ in range(10):
        assert member_U(s12, f7, external_point(s12, f7, rng))
    s22 = scroll_new([2, 2])
    # rank-1 pattern across the two conic blocks, but off the scroll
    p = (1, 0, 1, 2, 0, 2)
    assert not contains(s22, f7, p)
    assert member_U(s22, f7, p)
    # generic rank-2 pattern
    p2 = (1, 0, 0, 0, 0, 1)
    assert not member_U(s22, f7, p2)


def test_member_B_examples(f7):
    s12 = scroll_new([1, 2])
    assert not member_B(s12, f7, (0, 0, 1, 0, 6))
    assert member_B(s12, f7, (0, 1, 1, 1, 1))
    s13 = scroll_new([1, 3])
    # degree-3 block proportional to the moment vector of (1:2), free 1-block
    t = 2
    p = (3, 1, 1, t, (t * t) % 7, (t ** 3) % 7)
    assert not contains(s13, f7, p)
    assert member_B(s13, f7, p)
    # breaking the alignment leaves B
    p_bad = (3, 1, 1, t, (t * t + 1) % 7, (t ** 3) % 7)
    assert not member_B(s13, f7, p_bad)


def test_member_tangent_examples(f7, s3):
    assert member_tangent(s3, f7, (0, 1, 0, 0))
    assert not member_tangent(s3, f7, (1, 0, 0, 1))
    s111 = scroll_new([1, 1, 1])
    rng = random.Random(3)
    for _ in range(10):
        assert member_tangent(s111, f7, external_point(s111, f7, rng))


def test_member_secant_examples(f7, s3):
    rng = random.Random(4)
    # chords of the twisted cubic fill all of P^3
    for _ in range(10):
        assert member_secant_variety(s3, f7, external_point(s3, f7, rng))
    # S(1,4) sits in P^6 and its secant variety is a proper subset
    s14 = scroll_new([1, 4])
    found_outside = False
    for _ in range(60):
        p = external_point(s14, f7, rng)
        if not member_secant_variety(s14, f7, p):
            found_outside = True
            sig = classify_with_data(s14, f7, p)[0]
            assert sig.label == "Empty2Z"
            # brute-force confirmation that the locus really is empty
            from scrollsec import brute_secant_locus

            for d in (1, 2):
                assert brute_secant_locus(s14, field_make(7, d), p) == set()
            break
    assert found_outside


def test_tangent_implies_secant(f7):
    rng = random.Random(5)
    for a in ([3], [1, 2], [2, 2], [1, 3]):
        spec = scroll_new(a)
        for _ in range(12):
            p = external_point(spec, f7, rng)
            if member_tangent(spec, f7, p):
                assert member_secant_variety(spec, f7, p)


def test_stratum_examples(f7, s3):
    s12 = scroll_new([1, 2])
    rep = stratum_geometric(s12, f7, (0, 0, 1, 0, 6))
    assert rep.label_geom == "Conic"
    assert rep.in_U and not rep.in_B
    assert rep.agrees_with_signature

    rep3 = stratum_geometric(s3, f7, (1, 0, 0, 1))
    assert rep3.label_geom == "TwoPoints"
    assert rep3.in_Sec and not rep3.in_Tan

    s113 = scroll_new([1, 1, 3])
    repq = stratum_geometric(s113, f7, (1, 2, 3, 5, 0, 0, 0, 0))
    assert repq.label_geom == "QuadricSurface"
    assert repq.agrees_with_signature


def test_stratum_rejects_point_on_scroll(f7, s3):
    with pytest.raises(PointOnVarietyError):
        stratum_geometric(s3, f7, (1, 1, 1, 1))


def test_partition_and_containment_chain():
    f101 = field_make(101, 1)
    rng = random.Random(6)
    for a, h in (([1, 2], -1), ([2, 2], -1), ([1, 1, 2], 0), ([1, 3], -1), ([1, 1, 3], -1)):
        spec = scroll_new(a, h)
        for _ in range(25):
            p = external_point(spec, f101, rng)
            rep = stratum_geometric(spec, f101, p)
            assert rep.agrees_with_signature
            if rep.in_A:
                assert rep.in_B
            if rep.in_B or rep.in_U:
                assert rep.in_Tan
            if rep.in_Tan:
                assert rep.in_Sec


def test_small_type_dimension_laws():
    f101 = field_make(101, 1)
    rng = random.Random(7)
    s12 = scroll_new([1, 2])
    for _ in range(50):
        sig = classify_with_data(s12, f101, external_point(s12, f101, rng))[0]
        assert sig.locus_dim == 1
    s112 = scroll_new([1, 1, 2])
    for _ in range(50):
        sig = classify_with_data(s112, f101, external_point(s112, f101, rng))[0]
        assert sig.locus_dim >= 1
    s1111 = scroll_new([1, 1, 1, 1])
    for _ in range(50):
        sig = classify_with_data(s1111, f101, external_point(s1111, f101, rng))[0]
        assert sig.label == "QuadricSurface"


def test_all_six_strata_realizable_on_s1123():
    """Constructed witnesses, one per stratum, on S(1,1,2,3)."""
    q = 101
    ctx = field_make(q, 1)
    spec = scroll_new([1, 1, 2, 3])
    rng = random.Random(8)
    nv = spec.ambient + 1

    def finish(coords, want):
        p = normalize_point(ctx, tuple(coords))
        assert not contains(spec, ctx, p)
        rep = stratum_geometric(spec, ctx, p)
        assert rep.label_geom == want, (want, rep)
        assert rep.agrees_with_signature

    # QuadricSurface: generic point of the span of the degree-1 blocks
    finish([1, 2, 3, 4] + [0] * (nv - 4), "QuadricSurface")

    # TwoLines: line of the 1-part joined with a ruling point, escaping A
    base_pt = embed(spec, ctx, ScrollPoint((1, 2), (0, 0, 1, 1), ()))
    coords = list(base_pt)
    coords[0] = ctx.add(coords[0], 5)
    finish(coords, "TwoLines")

    # Conic: 1-blocks free, degree-2 block arbitrary, rank mismatch with B
    coords = [1, 2, 3, 4, 1, 0, 5] + [0] * (nv - 7)
    finish(coords, "Conic")

    # DoublePoint: a tangent-space point off B and U
    pt = random_scroll_point(spec, ctx, rng)
    from scrollsec import tangent_space

    tan = tangent_space(spec, ctx, pt)
    for _ in range(50):
        coeffs = [ctx.rand(rng) for _ in tan.rows]
        v = [0] * nv
        for c, row in zip(coeffs, tan.rows):
            for j in range(nv):
                if row[j]:
                    v[j] = ctx.add(v[j], ctx.mul(c, row[j]))
        if not any(v):
            continue
        p = normalize_point(ctx, v)
        if contains(spec, ctx, p):
            continue
        rep = stratum_geometric(spec, ctx, p)
        if rep.label_geom == "DoublePoint":
            assert rep.agrees_with_signature
            break
    else:
        pytest.fail("no double-point witness found in the tangent space")

    # TwoPoints: a chord point off the tangent side
    for _ in range(50):
        q1 = embed(spec, ctx, random_scroll_point(spec, ctx, rng))
        q2 = embed(spec, ctx, random_scroll_point(spec, ctx, rng))
        lam, mu = ctx.rand_nonzero(rng), ctx.rand_nonzero(rng)
        v = tuple(ctx.add(ctx.mul(lam, a), ctx.mul(mu, b)) for a, b in zip(q1, q2))
        if not any(v):
            continue
        p = normalize_point(ctx, v)
        if contains(spec, ctx, p):
            continue
        rep = stratum_geometric(spec, ctx, p)
        if rep.label_geom == "TwoPoints":
            assert rep.agrees_with_signature
            break
    else:
        pytest.fail("no two-points witness found among chords")

    # Empty2Z: a generic ambient point (the secant variety has codimension 2)
    for _ in range(50):
        p = external_point(spec, ctx, rng)
        rep = stratum_geometric(spec, ctx, p)
        if rep.label_geom == "Empty2Z":
            assert rep.agrees_with_signature
            break
    else:
        pytest.fail("no empty-locus witness found")


def test_containment_chain_with_sparse_blocks():
    """Points supported on few blocks once slipped past the tangency search:
    a ruling where an untouched elimination row kept a low-degree entry was
    not offered as a root candidate.  Pin the exact failing case and sweep
    nearby ones."""
    ctx = field_make(3, 1)
    spec = scroll_new([1, 2, 2])
    p = (1, 2, 1, 0, 0, 0, 0, 0)
    rep = stratum_geometric(spec, ctx, p)
    assert rep.label_geom == "TwoLines"
    assert rep.in_B and rep.in_Tan and rep.in_Sec
    rng = random.Random(31337)
    for q in (3, 5):
        qctx = field_make(q, 1)
        for a, h in (([1, 2, 2], -1), ([2, 2, 2], -1), ([1, 2, 2], 0)):
            sp = scroll_new(a, h)
            for _ in range(15):
                pt = external_point(sp, qctx, rng)
                r = stratum_geometric(sp, qctx, pt)
                assert r.agrees_with_signature
                if r.in_B or r.in_U:
                    assert r.in_Tan
                if r.in_Tan:
                    assert r.in_Sec


def test_member_B_matches_join_enumeration():
    """The rank-one closed forms of B and U against brute-force join scans.

    Random external points rarely land in B at q = 5 and 7, so points sampled
    inside B (with a degree-1 block) and inside U (with a degree-2 block)
    compare the True side of both closed forms too."""
    rng = random.Random(9)
    inside = random.Random(25)
    for q in (5, 7):
        ctx = field_make(q, 1)
        ctx2 = field_make(q, 2)
        for a, h in (([1, 2], -1), ([1, 3], -1), ([2, 2], -1), ([1, 2], 0)):
            spec = scroll_new(a, h)
            points = [(None, external_point(spec, ctx, rng)) for _ in range(8)]
            for kind in [k for k, deg in (("B", 1), ("U", 2)) if deg in a]:
                points += [(kind, sample_inside_locus(kind, spec, ctx, inside)) for _ in range(4)]
            for kind, p in points:
                fast = (member_B(spec, ctx, p), member_U(spec, ctx, p))
                brute = brute_membership(spec, ctx2, p)
                assert fast == (brute.in_B, brute.in_U), (q, a, h, p)
                assert kind is None or fast[kind == "U"], (kind, p)


def _exterior(spec, ctx):
    """Every point of the ambient space off the scroll, normalized."""
    for v in itertools.product(range(ctx.q), repeat=spec.ambient + 1):
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1:
            if not contains(spec, ctx, v):
                yield v


def _census(spec, ctx):
    counts = {}
    for p in _exterior(spec, ctx):
        rep = stratum_geometric(spec, ctx, p)
        assert rep.agrees_with_signature, p
        counts[rep.label_geom] = counts.get(rep.label_geom, 0) + 1
    return counts


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_twisted_cubic_exterior_census(q):
    # tangent lines and real plus imaginary chords (Hirschfeld's orbit counts)
    counts = _census(scroll_new([3]), field_make(q, 1))
    assert counts == {"DoublePoint": q * q + q, "TwoPoints": q**3 - q}


def test_s111_exterior_is_all_quadric_surface():
    f3 = field_make(3, 1)
    counts = _census(scroll_new([1, 1, 1]), f3)
    # the points of P^5 minus those of the Segre threefold P^1 x P^2
    assert counts == {"QuadricSurface": (3**6 - 1) // 2 - 4 * 13}


def test_stratum_validates_the_point_once(monkeypatch, f7):
    """The analysis decides whether p lies on the scroll, so stratum_geometric
    on a point already analysed reads Tan, Sec and the signature from the
    cache and never calls `contains`."""
    import sys

    from scrollsec import scroll

    calls = []
    real = scroll.contains

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("scrollsec") and getattr(module, "contains", None) is real:
            monkeypatch.setattr(module, "contains", counted)
    spec = scroll_new([1, 2])
    p = (0, 0, 1, 0, 6)
    classify_with_data(spec, f7, p)
    calls.clear()
    rep = stratum_geometric(spec, f7, p)
    assert rep.label_geom == "Conic" and rep.agrees_with_signature
    assert calls == []
