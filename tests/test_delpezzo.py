import random

import pytest

from conftest import external_point
from scrollsec import (
    DimensionMismatchError,
    EmptyTypeError,
    InvariantError,
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
    sym3_to_vec,
    veronese_point_table,
)
from scrollsec.oracle import veronese_secant_masks
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


@pytest.mark.parametrize("bounds", [(-1, 4, 1), (2, 4, 1), (6, 0, 1), (6, 4, -2), (6, 4, -5)],
                         ids=["max_deg", "max_deg_2", "max_n", "max_h", "max_h_far"])
def test_atlas_bounds_that_admit_no_scroll_are_rejected(bounds):
    with pytest.raises(EmptyTypeError):
        atlas_enumerate(*bounds)


def test_atlas_excludes_s123_and_s23_has_span_locus():
    entries = {e.a: e for e in atlas_enumerate(6, 4, -1)}
    assert (1, 2, 3) not in entries
    assert entries[(2, 3)].case == "surface-conic-span"


def test_atlas_dimension_bound_without_vertex():
    # no maximal Del Pezzo projection of a smooth scroll beyond threefolds
    for e in atlas_enumerate(8, 6, -1):
        assert len(e.a) <= 3


def test_atlas_walks_at_most_three_blocks(monkeypatch):
    """No locus jump exceeds 3, so no type of 4 or more blocks is even built,
    whatever max_n; the entries of (7, 4, 1) are those of the walk over every
    block count, in which no 4-block type of degree at most 7 had a case."""
    from itertools import combinations_with_replacement

    from scrollsec import delpezzo

    blocks = []
    real = delpezzo.scroll_new
    monkeypatch.setattr(delpezzo, "scroll_new",
                        lambda a, h: blocks.append(len(a)) or real(a, h))
    assert len(atlas_enumerate(30, 15, -1)) == 111
    assert max(blocks) == 3
    blocks.clear()
    got = [(e.a, e.h) for e in atlas_enumerate(7, 4, 1)]
    assert max(blocks) == 3
    families = [(3,), (4,), (5,), (6,), (7,), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                (2, 2), (2, 3), (2, 4), (2, 5), (1, 1, 1), (1, 1, 2), (1, 1, 3),
                (1, 1, 4), (1, 1, 5)]
    assert got == [(a, h) for a in families for h in (-1, 0, 1)]
    four = [a for a in combinations_with_replacement(range(1, 5), 4) if sum(a) <= 7]
    assert four and all(delpezzo.atlas_case_for(a) is None for a in four)
    assert all(delpezzo._derived_locus_kind(real(a)) is None for a in four)


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


def test_locus_member_answers_for_the_closed_set_on_points_of_x(f7):
    """On points of the scroll X, vertex points among them, every kind but
    "sec" answers membership of the closed locus: "full" is True and "A",
    "B" and "U" agree with the closed forms; "sec" raises PointOnVarietyError."""
    from scrollsec import PointOnVarietyError, contains, embed, random_scroll_point
    from scrollsec.strata import member_A, member_B, member_U

    rng = random.Random(31)
    answers = set()
    for a, h in (([1, 2], -1), ([2, 2], -1), ([1, 1, 2], 0), ([1, 3], 1), ([1, 1, 1], -1)):
        spec = scroll_new(a, h)
        points = [embed(spec, f7, random_scroll_point(spec, f7, rng)) for _ in range(12)]
        points += [tuple(int(i == j) for j in range(spec.ambient + 1)) for i in range(spec.vertex_size)]
        for p in points:
            assert contains(spec, f7, p)
            assert locus_member("full", spec, f7, p) is True
            for kind, closed in (("A", member_A), ("B", member_B), ("U", member_U)):
                got = locus_member(kind, spec, f7, p)
                assert got == closed(spec, f7, p), (kind, a, h, p)
                answers.add(got)
            with pytest.raises(PointOnVarietyError):
                locus_member("sec", spec, f7, p)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_chord_of_cubic(f7, s3):
    pmap, nonnormal = project(s3, f7, (1, 0, 0, 1))
    assert nonnormal.ambient == 2
    assert nonnormal.pdim == 0
    # both entry points collapse to the same image point
    img1 = normalize_point(f7, pmap.apply_linear((1, 0, 0, 0)))
    img2 = normalize_point(f7, pmap.apply_linear((0, 0, 0, 1)))
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


def test_veronese_reads_entries_mod_q(f7):
    """An entry that is zero mod q is zero: the rank is taken of the reduced
    matrix, not with 7 as a pivot, whose inverse raised ZeroDivisionError."""
    assert veronese_classify([[7, 0, 0], [0, 1, 0], [0, 0, 1]], f7) == veronese_classify(
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]], f7)
    assert veronese_classify([[8, 14, 0], [0, -6, 0], [0, 0, -7]], f7)[0] == "Conic"
    assert sym3_rank(f7, [[1, 0, 0], [0, 7, 0], [0, 0, 14]]) == 1


# (rank, h, depth, acm, j, del_pezzo_case, linearly_normal): a conic locus
# (j = 2) lifts the depth to h + 4 and is ACM; an empty one (j = 0) has depth
# h + 2, and only the smooth surface projects without linear normality
VERONESE_DEPTH_TABLE = [
    (2, -1, 3, True, 2, "veronese", True),
    (2, 0, 4, True, 2, "veronese", True),
    (2, 1, 5, True, 2, "veronese", True),
    (2, 2, 6, True, 2, "veronese", True),
    (3, -1, 1, False, 0, "none", False),
    (3, 0, 2, False, 0, "none", True),
    (3, 1, 3, False, 0, "none", True),
    (3, 2, 4, False, 0, "none", True),
]


@pytest.mark.parametrize("rank, h, depth, acm, j, case, normal", VERONESE_DEPTH_TABLE)
def test_veronese_depth_report_table(f7, rank, h, depth, acm, j, case, normal):
    from scrollsec import DepthReport

    m = [[1, 0, 0], [0, 1, 0], [0, 0, int(rank == 3)]]
    kind, rep = veronese_classify(m, f7, h=h)
    assert kind == ("Conic" if rank == 2 else "Empty")
    assert rep == DepthReport(depth=depth, acm=acm, j=j, del_pezzo_case=case, linearly_normal=normal)


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


def test_veronese_rejects_a_vertex_dimension_below_minus_one(f7):
    with pytest.raises(EmptyTypeError):
        veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 0]], f7, h=-3)


def test_veronese_rejects_a_non_integral_vertex_dimension(f7):
    # before, h = 0.5 returned depth 4.5
    with pytest.raises(EmptyTypeError, match="must be an integer"):
        veronese_classify([[1, 0, 0], [0, 1, 0], [0, 0, 0]], f7, h=0.5)


@pytest.mark.parametrize("m", [
    [[1, 2, 0], [0, 1, 0], [0, 0, 0]],
    [[1, 0], [0, 1]],
    [[1, 0, 0], [0, 1], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
], ids=["nonsymmetric", "2x2", "ragged", "4x3"])
def test_veronese_rejects_a_matrix_that_is_not_symmetric_3x3(f7, m):
    with pytest.raises(DimensionMismatchError):
        veronese_classify(m, f7)


def test_veronese_brute_conic_count():
    rng = random.Random(5)
    for q in (5, 7):
        ctx = field_make(q, 1)
        mvecs = []
        while len(mvecs) < 4:
            m = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    v = rng.randrange(q)
                    m[i][j] = v
                    m[j][i] = v
            if any(x for row in m for x in row) and sym3_rank(ctx, m) == 2:
                mvecs.append(normalize_point(ctx, sym3_to_vec(ctx, m)))
        hits = veronese_secant_masks(ctx, mvecs)
        assert hits.shape == (4, len(veronese_point_table(ctx)))
        assert (hits.sum(axis=1) == q + 1).all()


def test_veronese_secant_masks_checks_its_input(f7, monkeypatch):
    from scrollsec import delpezzo

    with pytest.raises(DimensionMismatchError):
        veronese_secant_masks(field_make(7, 2), [(1, 1, 0, 0, 0, 0)])
    table = veronese_point_table(f7)
    monkeypatch.setattr(delpezzo, "veronese_point_table", lambda ctx: table + [(1, 1, 0, 0, 0, 0)])
    with pytest.raises(InvariantError):
        veronese_secant_masks(f7, [(1, 1, 0, 0, 0, 0)])
