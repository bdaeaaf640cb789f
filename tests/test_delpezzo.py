import random

import pytest

from conftest import external_point
from scrollsec import (
    ZeroMatrixError,
    classify_signature,
    depth_predict,
    field_make,
    is_del_pezzo,
    normalize_point,
    project,
    scroll_new,
    veronese_classify,
)
from scrollsec.delpezzo import (
    atlas_enumerate,
    locus_member,
    sample_inside_locus,
    sample_outside_locus,
    sym3_rank,
    veronese_brute_secant_points,
    veronese_point_table,
)
from scrollsec.strata import member_secant_variety


# ---------------------------------------------------------------------------
# depth prediction
# ---------------------------------------------------------------------------


def test_depth_two_points_on_cubic_curve(f7, s3):
    sig = classify_signature(s3, f7, (1, 0, 0, 1))
    rep = depth_predict(s3, sig, in_sec=True)
    assert rep.depth == 2
    assert rep.acm  # curve case: j = 1 = n
    assert rep.linearly_normal


def test_depth_quadric_on_s113(f7):
    spec = scroll_new([1, 1, 3])
    p = (1, 2, 3, 5, 0, 0, 0, 0)
    sig = classify_signature(spec, f7, p)
    assert sig.label == "QuadricSurface"
    rep = depth_predict(spec, sig, in_sec=True)
    assert rep.depth == 4
    assert rep.acm


def test_depth_smooth_empty_case(f7):
    spec = scroll_new([1, 4])
    rng = random.Random(1)
    for _ in range(60):
        p = external_point(spec, f7, rng)
        if not member_secant_variety(spec, f7, p):
            sig = classify_signature(spec, f7, p)
            rep = depth_predict(spec, sig, in_sec=False)
            assert rep.depth == 1
            assert not rep.linearly_normal
            assert not rep.acm
            return
    pytest.fail("no point off the secant variety found")


def test_is_del_pezzo_examples(f7):
    s3 = scroll_new([3])
    assert is_del_pezzo(s3, classify_signature(s3, f7, (1, 0, 0, 1)))
    s12 = scroll_new([1, 2])
    assert is_del_pezzo(s12, classify_signature(s12, f7, (0, 0, 1, 0, 6)))
    # a locus of dimension jump 2 on a threefold is not maximal
    from scrollsec.secant import SecantSignature

    s113 = scroll_new([1, 1, 3])
    conic_sig = SecantSignature(
        sec_dim=2, h=-1, s=2, rank=3, label="Conic", locus_dim=1, depth_pred=3
    )
    assert not is_del_pezzo(s113, conic_sig)
    # and a realizable jump-2 stratum on S(1,1,3): two lines through a B-point
    ctx = field_make(101, 1)
    rng = random.Random(2)
    from scrollsec import embed
    from scrollsec.scroll import random_scroll_point

    for _ in range(50):
        base = embed(s113, ctx, random_scroll_point(s113, ctx, rng))
        coords = list(base)
        coords[0] = ctx.add(coords[0], ctx.rand_nonzero(rng))
        p = normalize_point(ctx, coords)
        from scrollsec import contains

        if contains(s113, ctx, p):
            continue
        sig = classify_signature(s113, ctx, p)
        if sig.label == "TwoLines":
            assert not is_del_pezzo(s113, sig)
            return
    pytest.fail("no two-lines point found on S(1,1,3)")


# ---------------------------------------------------------------------------
# the atlas
# ---------------------------------------------------------------------------

GOLDEN_FAMILIES = [
    ((3,), "curve", "sec"),
    ((4,), "curve", "sec"),
    ((5,), "curve", "sec"),
    ((6,), "curve", "sec"),
    ((1, 2), "surface-cubic", "full"),
    ((1, 3), "surface-line-join", "B"),
    ((1, 4), "surface-line-join", "B"),
    ((1, 5), "surface-line-join", "B"),
    ((2, 2), "surface-conic-segre", "U"),
    ((2, 3), "surface-conic-span", "U"),
    ((2, 4), "surface-conic-span", "U"),
    ((1, 1, 1), "threefold-full", "full"),
    ((1, 1, 2), "threefold-plane-join", "A"),
    ((1, 1, 3), "threefold-plane-join", "A"),
    ((1, 1, 4), "threefold-plane-join", "A"),
]


def test_atlas_equals_golden_list():
    entries = atlas_enumerate(6, 4, 1)
    got = sorted((e.a, e.h, e.case, e.locus_kind) for e in entries)
    want = sorted(
        (a, h, case, kind) for a, case, kind in GOLDEN_FAMILIES for h in (-1, 0, 1)
    )
    assert got == want


def test_atlas_small_bounds():
    entries = atlas_enumerate(3, 2, -1)
    got = {(e.a, e.case) for e in entries}
    assert got == {((3,), "curve"), ((1, 2), "surface-cubic")}


def test_atlas_excludes_s123_and_s23_has_span_locus():
    entries = {e.a: e for e in atlas_enumerate(6, 4, -1)}
    assert (1, 2, 3) not in entries
    assert entries[(2, 3)].case == "surface-conic-span"


def test_atlas_dimension_bound_without_vertex():
    # no maximal Del Pezzo projection of a smooth scroll beyond threefolds
    for e in atlas_enumerate(8, 6, -1):
        assert len(e.a) <= 3


def test_atlas_loci_sample_verification():
    from scrollsec.delpezzo import locus_fills_ambient

    ctx = field_make(101, 1)
    rng = random.Random(3)
    for e in atlas_enumerate(5, 3, 0):
        spec = scroll_new(e.a, e.h)
        for _ in range(8):
            p = sample_inside_locus(e.locus_kind, spec, ctx, rng)
            assert locus_member(e.locus_kind, spec, ctx, p)
            sig = classify_signature(spec, ctx, p)
            assert is_del_pezzo(spec, sig), (e, p)
        if not locus_fills_ambient(e.locus_kind, spec):
            for _ in range(8):
                p = sample_outside_locus(e.locus_kind, spec, ctx, rng)
                sig = classify_signature(spec, ctx, p)
                assert not is_del_pezzo(spec, sig), (e, p)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_chord_of_cubic(f7, s3):
    pmap, nonnormal = project(s3, f7, (1, 0, 0, 1))
    assert nonnormal.ambient == 2
    assert nonnormal.pdim == 0
    # both entry points collapse to the same image point
    img1 = pmap.apply((1, 0, 0, 0))
    img2 = pmap.apply((0, 0, 0, 1))
    assert img1 == img2
    assert nonnormal.contains(img1)


def test_project_conic_case(f7):
    s12 = scroll_new([1, 2])
    _, nonnormal = project(s12, f7, (0, 0, 1, 0, 6))
    assert nonnormal.ambient == 3
    assert nonnormal.pdim == 1


def test_project_cone_lift(f7):
    cone = scroll_new([3], 0)
    _, nonnormal = project(cone, f7, (0, 1, 0, 0, 1))
    assert nonnormal.ambient == 3
    assert nonnormal.pdim == 1


def test_project_tangent_point(f7, s3):
    # double contact: the locus span is a single point, its image a point of P^2
    sig = classify_signature(s3, f7, (0, 1, 0, 0))
    assert sig.label == "DoublePoint"
    _, nonnormal = project(s3, f7, (0, 1, 0, 0))
    assert nonnormal.pdim == 0


def test_project_reduces_coordinates(f7, s3):
    # 7 = 0 in GF(7): the projection must not pivot on that coordinate
    _, nonnormal = project(s3, f7, (7, 1, 0, 0))
    assert nonnormal == project(s3, f7, (0, 1, 0, 0))[1]


def test_project_dimension_matches_signature():
    ctx = field_make(101, 1)
    rng = random.Random(4)
    for a, h in (([3], -1), ([1, 2], -1), ([2, 2], -1), ([1, 2], 0), ([1, 1, 2], -1)):
        spec = scroll_new(a, h)
        for _ in range(10):
            p = external_point(spec, ctx, rng)
            sig = classify_signature(spec, ctx, p)
            if spec.h == -1 and sig.label == "Empty2Z":
                continue
            _, nonnormal = project(spec, ctx, p)
            assert nonnormal.pdim == sig.sec_dim - 1


# ---------------------------------------------------------------------------
# the Veronese surface
# ---------------------------------------------------------------------------


def test_veronese_rank_one_is_on_variety(f7):
    kind, rep = veronese_classify([[1, 0, 0], [0, 0, 0], [0, 0, 0]], f7)
    assert kind == "OnVariety" and rep is None


def test_veronese_rank_two_is_conic(f7):
    kind, rep = veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 0]], f7)
    assert kind == "Conic"
    assert rep.acm and rep.depth == 3 and rep.del_pezzo_case == "veronese"
    # over a vertex the projection stays maximal
    kind_c, rep_c = veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 0]], f7, h=0)
    assert kind_c == "Conic" and rep_c.acm and rep_c.depth == 4


def test_veronese_rank_three_is_empty(f7):
    kind, rep = veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 1]], f7)
    assert kind == "Empty"
    assert rep.depth == 1 and not rep.acm and not rep.linearly_normal


def test_veronese_zero_matrix_rejected(f7):
    with pytest.raises(ZeroMatrixError):
        veronese_classify([[0, 0, 0], [0, 0, 0], [0, 0, 0]], f7)


def test_veronese_rank_vs_determinant_exhaustive_f3():
    ctx = field_make(3, 1)
    for m in _all_sym3(3):
        if all(x == 0 for row in m for x in row):
            continue
        det = _det3(ctx, m)
        rank = sym3_rank(ctx, m)
        assert (rank == 3) == (det != 0)


def _all_sym3(q):
    import itertools

    for vals in itertools.product(range(q), repeat=6):
        a, b, c, d, e, f = vals
        yield [[a, d, e], [d, b, f], [e, f, c]]


def _det3(ctx, m):
    (a, b, c), (d, e, f), (g, h, i) = m
    pos = ctx.add(ctx.add(ctx.mul(a, ctx.mul(e, i)), ctx.mul(b, ctx.mul(f, g))),
                  ctx.mul(c, ctx.mul(d, h)))
    neg = ctx.add(ctx.add(ctx.mul(c, ctx.mul(e, g)), ctx.mul(b, ctx.mul(d, i))),
                  ctx.mul(a, ctx.mul(f, h)))
    return ctx.sub(pos, neg)


def test_veronese_point_table_size(f5, f7):
    assert len(veronese_point_table(f5)) == 31  # |P^2(F_5)|
    assert len(veronese_point_table(f7)) == 57


def test_veronese_brute_conic_count():
    rng = random.Random(5)
    for q in (5, 7):
        ctx = field_make(q, 1)
        found = 0
        while found < 4:
            m = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    v = rng.randrange(q)
                    m[i][j] = v
                    m[j][i] = v
            if any(x for row in m for x in row) and sym3_rank(ctx, m) == 2:
                found += 1
                from scrollsec.delpezzo import sym3_to_vec

                mvec = normalize_point(ctx, sym3_to_vec(ctx, m))
                pts = veronese_brute_secant_points(ctx, mvec)
                assert len(pts) == q + 1
