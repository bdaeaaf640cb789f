import random

import pytest

from scrollsec import (
    CodimTooSmallError,
    DimensionMismatchError,
    EmptyTypeError,
    ScrollParseError,
    ScrollPoint,
    VertexPointError,
    ZeroVectorError,
    contains,
    embed,
    field_make,
    normalize_point,
    parse_scroll,
    quadric_generators,
    random_scroll_point,
    ruling_subspace,
    scroll_literal,
    scroll_new,
    span_points,
    special_subspaces,
    tangent_space,
)
from scrollsec.oracle import ambient_zero_locus, enumerate_points


def test_scroll_new_s12():
    spec = scroll_new([1, 2])
    assert spec.ambient == 4
    assert spec.deg == 3
    assert spec.k == 1
    assert spec.m == 2
    assert spec.dim == 2


def test_scroll_new_cone_over_cubic():
    spec = scroll_new([3], 0)
    assert spec.ambient == 4
    assert spec.dim == 2
    assert spec.vertex_size == 1


def test_base_of_a_cone_is_one_cached_instance():
    """A cone's `base()` is the smooth scroll of its type, the same instance
    on every call, so its layout is computed once; a smooth spec is its own
    base."""
    cone = scroll_new([1, 2], 1)
    base = cone.base()
    assert base == scroll_new([1, 2]) and base.h == -1
    assert cone.base() is base
    assert base.base() is base


def test_scroll_new_rejects_small_degree():
    with pytest.raises(CodimTooSmallError):
        scroll_new([1, 1])


@pytest.mark.parametrize("a,h", [
    ([1.5, 2], -1),
    ([1, 2], 0.5),
    (["2", 1], -1),
    ([1, 2], None),
])
def test_scroll_new_rejects_non_integral_degrees_and_vertex(a, h):
    # before, int() truncated 1.5 to S(1,2) and h = 0.5 gave ambient 5.5
    with pytest.raises(EmptyTypeError, match="must be an integer"):
        scroll_new(a, h)


def test_scroll_new_accepts_integral_floats():
    spec = scroll_new([2.0, 1], 0.0)
    assert spec == scroll_new([1, 2], 0) and spec.ambient == 5


def test_minimal_degree_identity():
    # ambient - dim = deg - 1 for every constructible type
    for a in ([3], [4], [1, 2], [2, 2], [1, 1, 1], [1, 2, 3], [1, 1, 2, 3]):
        for h in (-1, 0, 2):
            spec = scroll_new(a, h)
            assert spec.ambient - spec.dim == spec.deg - 1


def test_parse_and_format_literals():
    assert parse_scroll("S(1,2)") == scroll_new([1, 2])
    assert parse_scroll("S(3)+cone(0)") == scroll_new([3], 0)
    assert parse_scroll(" S(1, 2)+cone(1) ") == scroll_new([1, 2], 1)
    assert scroll_literal(scroll_new([1, 2], 1)) == "S(1,2)+cone(1)"
    assert scroll_literal(scroll_new([3])) == "S(3)"
    with pytest.raises(ScrollParseError):
        parse_scroll("S()")
    with pytest.raises(ScrollParseError):
        parse_scroll("S(1,1)")


def test_embed_extreme_power(f7, s3):
    e = embed(s3, f7, ScrollPoint((1, 0), (1,), ()))
    assert e == (1, 0, 0, 0)


def test_embed_s12_all_ones(f7, s12):
    e = embed(s12, f7, ScrollPoint((1, 1), (1, 1), ()))
    assert e == (1, 1, 1, 1, 1)


def test_embed_vertex_point(f7):
    spec = scroll_new([3], 0)
    e = embed(spec, f7, ScrollPoint((0, 0), (0,), (1,)))
    assert e == (1, 0, 0, 0, 0)
    assert contains(spec, f7, e)


def test_generators_of_twisted_cubic(f7, s3):
    gens = quadric_generators(s3, f7)
    assert len(gens) == 3
    # x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2 up to order
    vals = sorted(
        (g.evaluate((1, 0, 0, 0)), g.evaluate((0, 1, 0, 0)), g.evaluate((1, 1, 1, 1)))
        for g in gens
    )
    for g in gens:
        for t in range(7):
            pt = (1, t, (t * t) % 7, (t * t * t) % 7)
            assert g.evaluate(pt) == 0
    assert vals == sorted([(0, 0, 0), (0, 6, 0), (0, 0, 0)])


def test_generator_count_and_vertex_absence():
    f7 = field_make(7, 1)
    for a, h in (([1, 2], -1), ([3], 0), ([1, 1, 2], 1)):
        spec = scroll_new(a, h)
        gens = quadric_generators(spec, f7)
        assert len(gens) == spec.deg * (spec.deg - 1) // 2
        for g in gens:
            assert min(g.i, g.j, g.k, g.l) >= spec.vertex_size


def test_cone_shares_generators(f7):
    base = scroll_new([3])
    cone = scroll_new([3], 0)
    vs = cone.vertex_size
    gb = quadric_generators(base, f7)
    gc = quadric_generators(cone, f7)
    assert len(gb) == len(gc)
    for b, c in zip(gb, gc):
        assert (c.i, c.j, c.k, c.l) == (b.i + vs, b.j + vs, b.k + vs, b.l + vs)


def test_contains_spec_examples(f7, s3):
    assert not contains(s3, f7, (0, 1, 0, 0))
    cone = scroll_new([3], 0)
    assert contains(cone, f7, (1, 0, 0, 0, 0))
    with pytest.raises(ZeroVectorError):
        contains(s3, f7, (0, 0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        contains(s3, f7, (1, 0, 0, 1, 0))


def test_embedded_points_satisfy_generators():
    rng = random.Random(99)
    f101 = field_make(101, 1)
    for a, h in (([3], -1), ([1, 2], -1), ([2, 3], 0), ([1, 1, 2], 1)):
        spec = scroll_new(a, h)
        gens = quadric_generators(spec, f101)
        for _ in range(1000):
            p = embed(spec, f101, random_scroll_point(spec, f101, rng))
            assert all(not g.evaluate(p) for g in gens)


def test_ruling_subspace_s12(f7, s12):
    r = ruling_subspace(s12, f7, (1, 0))
    assert r.pdim == 1
    assert r.contains((1, 0, 0, 0, 0))
    assert r.contains((0, 0, 1, 0, 0))
    assert r.contains((3, 0, 5, 0, 0))


def test_ruling_is_point_for_curve(f7, s3):
    r = ruling_subspace(s3, f7, (1, 2))
    assert r.pdim == 0
    assert r.contains(embed(s3, f7, ScrollPoint((1, 2), (1,), ())))


def test_cone_ruling_gains_vertex(f7):
    spec = scroll_new([1, 2], 0)
    r = ruling_subspace(spec, f7, (1, 3))
    assert r.pdim == 2
    assert r.contains((1, 0, 0, 0, 0, 0))


def test_tangent_space_of_cubic_at_power_point(f7, s3):
    t = tangent_space(s3, f7, ScrollPoint((1, 0), (1,), ()))
    assert t.pdim == 1
    assert t.rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_tangent_space_s12(f7, s12):
    t = tangent_space(s12, f7, ScrollPoint((1, 0), (1, 0), ()))
    assert t.pdim == 2


def test_tangent_space_contains_point_and_ruling():
    rng = random.Random(5)
    f11 = field_make(11, 1)
    for a, h in (([1, 2], -1), ([2, 3], 0), ([1, 1, 2], 0)):
        spec = scroll_new(a, h)
        for _ in range(25):
            pt = random_scroll_point(spec, f11, rng)
            t = tangent_space(spec, f11, pt)
            assert t.pdim == spec.dim
            assert t.contains(embed(spec, f11, pt))
            assert_contains_ruling(spec, f11, pt, t)


def assert_contains_ruling(spec, ctx, pt, tangent):
    ruling = ruling_subspace(spec, ctx, pt.x)
    for row in ruling.rows:
        assert tangent.contains(row)


def test_same_ruling_tangents_meet_in_ruling():
    rng = random.Random(31)
    f11 = field_make(11, 1)
    for a in ([1, 2], [1, 1, 2], [2, 3]):
        spec = scroll_new(a)
        for _ in range(15):
            x = (1, rng.randrange(11))
            u1 = tuple(rng.randrange(11) for _ in range(spec.n))
            u2 = tuple(rng.randrange(11) for _ in range(spec.n))
            if not any(u1) or not any(u2):
                continue
            p1 = ScrollPoint(x, u1, ())
            p2 = ScrollPoint(x, u2, ())
            e1, e2 = embed(spec, f11, p1), embed(spec, f11, p2)
            if normalize_point(f11, e1) == normalize_point(f11, e2):
                continue
            t1 = tangent_space(spec, f11, p1)
            t2 = tangent_space(spec, f11, p2)
            # the ruling lies in both planes, and by the dimension of their
            # span it is all of their intersection
            ruling = ruling_subspace(spec, f11, x)
            assert all(t1.contains(r) and t2.contains(r) for r in ruling.rows)
            span = span_points(f11, t1.rows + t2.rows, spec.ambient)
            assert span.pdim == t1.pdim + t2.pdim - ruling.pdim


def test_tangent_space_when_char_divides_degree():
    """Formal derivatives of s^a, t^a vanish when the characteristic divides a;
    the fiber row and the Euler relation still give the right tangent space."""
    rng = random.Random(4444)
    for a, q, h in (([3], 3, -1), ([1, 3], 3, -1), ([5], 5, -1), ([3, 3], 3, 0)):
        spec = scroll_new(a, h)
        ctx = field_make(q, 1)
        for _ in range(20):
            pt = random_scroll_point(spec, ctx, rng)
            t = tangent_space(spec, ctx, pt)
            assert t.pdim == spec.dim
            assert t.contains(embed(spec, ctx, pt))
            for row in ruling_subspace(spec, ctx, pt.x).rows:
                assert t.contains(row)


def test_tangent_space_rejects_vertex(f7):
    spec = scroll_new([3], 0)
    with pytest.raises(VertexPointError):
        tangent_space(spec, f7, ScrollPoint((0, 0), (0,), (1,)))


def test_special_subspaces_s12(f7, s12):
    data = special_subspaces(s12, f7)
    assert data["A"].pdim == 1
    assert data["S2span"].pdim == 2
    assert data["A"].contains((1, 4, 0, 0, 0))
    assert data["S2span"].contains((0, 0, 1, 2, 3))


def test_special_subspaces_s22(f7):
    data = special_subspaces(scroll_new([2, 2]), f7)
    assert data["A"].rows == ()
    assert data["S2span"].pdim == 5


def test_special_subspaces_s111(f7):
    data = special_subspaces(scroll_new([1, 1, 1]), f7)
    assert data["A"].pdim == 5


def test_point_set_equals_zero_locus_small_fields():
    f5 = field_make(5, 1)
    for a, h in (([3], -1), ([1, 2], -1), ([3], 0), ([1, 1, 1], -1)):
        spec = scroll_new(a, h)
        table = enumerate_points(spec, f5)
        assert set(table.points) == ambient_zero_locus(spec, f5)
