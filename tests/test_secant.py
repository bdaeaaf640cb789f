import random

import pytest

from conftest import external_point
from scrollsec import (
    DimensionMismatchError,
    PointOnVarietyError,
    ZeroVectorError,
    classify_signature,
    classify_with_data,
    contains,
    fiber_secant_space,
    field_make,
    normalize_point,
    qform_rank,
    scroll_new,
    secant_cone_and_quadric,
    secant_pair_test,
    stratum_geometric,
    subspace_contains,
)
from scrollsec.secant import (
    NOT_ON_X,
    NOT_SECANT,
    SECANT,
    SIGNATURE_TABLE,
    TANGENT_CONTACT,
    secant_second_point,
)


def test_pair_test_secant(f7, s3):
    assert secant_pair_test(s3, f7, (1, 0, 0, 1), (1, 0, 0, 0)) == SECANT
    second = secant_second_point(s3, f7, (1, 0, 0, 1), (1, 0, 0, 0))
    assert second == (0, 0, 0, 1)


def test_pair_test_tangent_contact(f7, s3):
    assert secant_pair_test(s3, f7, (0, 1, 0, 0), (1, 0, 0, 0)) == TANGENT_CONTACT


def test_pair_test_not_secant(f7, s3):
    assert secant_pair_test(s3, f7, (1, 0, 0, 1), (1, 1, 1, 1)) == NOT_SECANT


def test_pair_test_not_on_x(f7, s3):
    assert secant_pair_test(s3, f7, (1, 0, 0, 1), (0, 1, 0, 0)) == NOT_ON_X


def test_pair_test_p_on_variety(f7, s3):
    with pytest.raises(PointOnVarietyError):
        secant_pair_test(s3, f7, (1, 0, 0, 0), (0, 0, 0, 1))


def test_fiber_secant_space_examples(f7, s3):
    p = (1, 0, 0, 1)
    hit = fiber_secant_space(s3, f7, p, (1, 0))
    assert hit.pdim == 0
    assert subspace_contains(hit, (1, 0, 0, 0))
    miss = fiber_secant_space(s3, f7, p, (1, 1))
    assert miss.is_empty()


def test_fiber_secant_space_s111_is_line(f7):
    spec = scroll_new([1, 1, 1])
    rng = random.Random(2)
    for _ in range(10):
        p = external_point(spec, f7, rng)
        x = (1, rng.randrange(7))
        cut = fiber_secant_space(spec, f7, p, x)
        assert cut.pdim == 1


def test_secant_cone_chord_case(f7, s3):
    sec, quadric, sample = secant_cone_and_quadric(s3, f7, (1, 0, 0, 1))
    assert sec.pdim == 1
    assert subspace_contains(sec, (1, 0, 0, 1))
    assert subspace_contains(sec, (1, 0, 0, 0))
    assert subspace_contains(sec, (0, 0, 0, 1))
    assert qform_rank(quadric) == 2
    assert not sample.all_fibers_active
    assert len(sample.fiber_records) == 2


def test_secant_cone_tangent_case(f7, s3):
    sec, quadric, sample = secant_cone_and_quadric(s3, f7, (0, 1, 0, 0))
    assert sec.pdim == 1
    assert subspace_contains(sec, (1, 0, 0, 0))
    assert qform_rank(quadric) == 1


def test_secant_cone_s111_rank2_point(f7):
    spec = scroll_new([1, 1, 1])
    p = (1, 0, 0, 1, 0, 0)
    sec, quadric, sample = secant_cone_and_quadric(spec, f7, p)
    assert sec.pdim == 3
    assert qform_rank(quadric) == 4
    assert sample.all_fibers_active


def test_sample_points_lie_on_locus(f7):
    rng = random.Random(8)
    for a, h in (([3], -1), ([1, 2], -1), ([1, 2], 0), ([2, 3], -1)):
        spec = scroll_new(a, h)
        for _ in range(8):
            p = external_point(spec, f7, rng)
            _, _, sample = secant_cone_and_quadric(spec, f7, p)
            for rec in sample.fiber_records:
                gens_ctx = rec.ctx
                for q in [normalize_point(gens_ctx, r) for r in rec.space.rows]:
                    verdict = secant_pair_test(spec, gens_ctx, p, q)
                    assert verdict in (SECANT, TANGENT_CONTACT)
            for i, q in enumerate(sample.points):
                rec_ctx = field_make(7, 2) if any(x >= 7 for x in q) else f7
                verdict = secant_pair_test(spec, rec_ctx, p, q)
                assert verdict in (SECANT, TANGENT_CONTACT)


def test_quadric_zero_set_on_cone_is_the_locus():
    """The rational zeros of the hyperquadric on the secant cone are exactly
    the rational points of the secant locus (checked against brute force)."""
    import random

    from scrollsec import brute_secant_locus

    rng = random.Random(616)
    for q in (5, 7):
        ctx = field_make(q, 1)
        for a, h in (([3], -1), ([1, 2], -1), ([2, 2], -1), ([3], 0), ([1, 2], 0)):
            spec = scroll_new(a, h)
            for _ in range(5):
                p = external_point(spec, ctx, rng)
                sig, sec, quadric, _ = classify_with_data(spec, ctx, p)
                zeros = set()
                for coeffs in _proj_coeffs(ctx, len(sec.rows)):
                    if quadric.evaluate(coeffs):
                        continue
                    v = [0] * (spec.ambient + 1)
                    for c, row in zip(coeffs, sec.rows):
                        if c:
                            for j, x in enumerate(row):
                                if x:
                                    v[j] = ctx.add(v[j], ctx.mul(c, x))
                    zeros.add(normalize_point(ctx, v))
                assert zeros == brute_secant_locus(spec, ctx, p), (q, a, h, p)


def _proj_coeffs(ctx, k):
    import itertools

    for lead in range(k):
        for tail in itertools.product(range(ctx.size), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def test_classify_spec_examples(f7, s3):
    sig = classify_signature(s3, f7, (1, 0, 0, 1))
    assert (sig.s, sig.rank, sig.label) == (1, 2, "TwoPoints")
    assert sig.depth_pred == 2

    cone = scroll_new([3], 0)
    sig_cone = classify_signature(cone, f7, (0, 1, 0, 0, 1))
    assert (sig_cone.s, sig_cone.rank) == (1, 2)
    assert sig_cone.label == "TwoPoints"
    assert sig_cone.locus_dim == 1
    assert sig_cone.depth_pred == 3

    s12 = scroll_new([1, 2])
    sig_conic = classify_signature(s12, f7, (0, 0, 1, 0, 6))
    assert (sig_conic.s, sig_conic.rank, sig_conic.label) == (2, 3, "Conic")
    assert sig_conic.depth_pred == 3


def test_classify_rejects_point_on_scroll(f7, s3):
    with pytest.raises(PointOnVarietyError):
        classify_signature(s3, f7, (1, 0, 0, 0))
    cone = scroll_new([3], 0)
    with pytest.raises(PointOnVarietyError):
        classify_signature(cone, f7, (1, 0, 0, 0, 0))


def test_classify_validates_the_point(f7, s3):
    with pytest.raises(DimensionMismatchError):
        classify_with_data(s3, f7, (1, 0, 0, 1, 0))
    with pytest.raises(ZeroVectorError):
        classify_with_data(s3, f7, (0, 0, 0, 0))
    with pytest.raises(ZeroVectorError):
        classify_with_data(s3, f7, (7, 0, 14, 0))
    # coordinates are reduced mod q and lists are accepted
    assert classify_with_data(s3, f7, [8, 0, 0, -6]) == classify_with_data(s3, f7, (1, 0, 0, 1))


def test_conjugate_two_points_needs_extension():
    # a chord through two conjugate points of the twisted cubic over GF(25)
    f5 = field_make(5, 1)
    f25 = field_make(5, 2)
    s3 = scroll_new([3])
    tau = 5  # the extension generator w
    q1 = tuple(_pow(f25, tau, k) for k in (0, 1, 2, 3))
    q2 = tuple(f25.conj(x) for x in q1)
    p = tuple(f25.add(a, b) for a, b in zip(q1, q2))
    assert all(f25.is_base(x) for x in p)
    assert not contains(s3, f5, p)
    sig, _, _, sample = classify_with_data(s3, f5, p)
    assert sig.label == "TwoPoints"
    # the chord is visible only over GF(q^2): both rulings it meets are conjugate
    assert sample.fiber_records
    assert all(rec.ctx.d == 2 for rec in sample.fiber_records)


def _pow(ctx, x, k):
    acc = 1
    for _ in range(k):
        acc = ctx.mul(acc, x)
    return acc


def test_conjugate_chords_never_classify_empty():
    """Rational points on chords through conjugate point pairs, many types."""
    import random

    from scrollsec.scroll import embed as embed_pt
    from scrollsec.scroll import random_scroll_point

    rng = random.Random(2024)
    for q in (5, 7):
        ctx = field_make(q, 1)
        ctx2 = field_make(q, 2)
        for a, h in (([3], -1), ([1, 3], -1), ([2, 3], -1), ([3], 1), ([1, 2], 0)):
            spec = scroll_new(a, h)
            spec0 = spec.base()
            found = 0
            while found < 5:
                pt = random_scroll_point(spec0, ctx2, rng)
                e1 = embed_pt(spec0, ctx2, pt)
                e2 = tuple(ctx2.conj(x) for x in e1)
                lam = ctx2.rand_nonzero(rng)
                base_part = tuple(
                    ctx2.add(ctx2.mul(lam, x), ctx2.mul(ctx2.conj(lam), y))
                    for x, y in zip(e1, e2)
                )
                if not all(ctx2.is_base(x) for x in base_part) or not any(base_part):
                    continue
                vert = tuple(ctx.rand(rng) for _ in range(spec.vertex_size))
                p = normalize_point(ctx, vert + base_part)
                if contains(spec, ctx, p):
                    continue
                found += 1
                sig = classify_signature(spec, ctx, p)
                assert sig.label != "Empty2Z", (q, a, h, p)


def test_six_types_only_and_depth_identity():
    f101 = field_make(101, 1)
    rng = random.Random(13)
    seen = set()
    matrix = ([3], [4], [1, 2], [1, 3], [2, 2], [1, 1, 1], [1, 1, 2], [1, 2, 3])
    for a in matrix:
        for h in (-1, 0):
            spec = scroll_new(a, h)
            for _ in range(40):
                p = external_point(spec, f101, rng)
                sig = classify_signature(spec, f101, p)
                assert (sig.s, sig.rank) in SIGNATURE_TABLE
                seen.add(sig.label)
                assert sig.depth_pred == sig.sec_dim + 1
                assert sig.depth_pred == sig.locus_dim + 2
                assert sig.locus_dim == spec.h + sig.s
    assert "TwoPoints" in seen and "Empty2Z" in seen


def test_vertex_contained_in_every_fiber_space():
    f7 = field_make(7, 1)
    rng = random.Random(21)
    for a, h in (([3], 0), ([1, 2], 1)):
        spec = scroll_new(a, h)
        for _ in range(10):
            p = external_point(spec, f7, rng)
            _, _, sample = secant_cone_and_quadric(spec, f7, p)
            for rec in sample.fiber_records:
                for i in range(spec.vertex_size):
                    e = [0] * (spec.ambient + 1)
                    e[i] = 1
                    assert subspace_contains(rec.space, tuple(e))


def test_cone_and_base_signatures_agree():
    f7 = field_make(7, 1)
    rng = random.Random(34)
    for a in ([3], [1, 2], [2, 2]):
        base = scroll_new(a)
        for h in (0, 1):
            cone = scroll_new(a, h)
            for _ in range(10):
                p = external_point(cone, f7, rng)
                pbar = p[cone.vertex_size:]
                if not any(pbar) or contains(base, f7, normalize_point(f7, pbar)):
                    continue
                sig_cone = classify_signature(cone, f7, p)
                sig_base = classify_signature(base, f7, normalize_point(f7, pbar))
                assert (sig_cone.s, sig_cone.rank) == (sig_base.s, sig_base.rank)
                assert sig_cone.label == sig_base.label
                assert sig_cone.locus_dim == sig_base.locus_dim + (cone.h + 1)
                assert sig_cone.depth_pred == sig_base.depth_pred + (cone.h + 1)


def test_classify_with_data_consistency(f7):
    spec = scroll_new([1, 1, 2])
    rng = random.Random(55)
    for _ in range(10):
        p = external_point(spec, f7, rng)
        sig, sec, quadric, sample = classify_with_data(spec, f7, p)
        assert sec.pdim == sig.sec_dim
        assert qform_rank(quadric) == sig.rank
        assert subspace_contains(sec, p)
        for rec in sample.fiber_records:
            for row in rec.space.rows:
                if rec.ctx.d == 1:
                    assert subspace_contains(sec, row)


def test_one_secant_scan_and_one_tangency_scan_per_point(monkeypatch, f7):
    from scrollsec import secant, strata

    spec = scroll_new([1, 2], 0)
    p = external_point(spec, f7, random.Random(8))
    scans = []

    def counted(module, name, kind):
        real = getattr(module, name)

        def wrapper(*args):
            scans.append(kind)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(secant, "_secant_covectors", "secant")
    counted(strata, "_tangency_covectors", "tangency")
    counted(secant, "_candidate_and_sample_fibers", "scan")
    counted(strata, "_candidate_and_sample_fibers", "scan")
    secant._analysis.cache_clear()
    classify_with_data(spec, f7, p)
    stratum_geometric(spec, f7, p)
    assert sorted(scans) == ["scan", "scan", "secant", "tangency"]
