import random

import pytest

from conftest import external_point, external_points
from scrollsec import (
    DimensionMismatchError,
    PointOnVarietyError,
    UnclassifiableSignatureError,
    ZeroVectorError,
    classify_signature,
    classify_with_data,
    contains,
    fiber_secant_space,
    field_make,
    normalize_point,
    projective_points,
    qform_rank,
    scroll_new,
    secant_cone_and_quadric,
    secant_locus_points,
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
)


def test_pair_test_secant(f7, s3):
    assert secant_pair_test(s3, f7, (1, 0, 0, 1), (1, 0, 0, 0)) == SECANT


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
    p = (1, 0, 0, 1)
    sec, quadric, kernel = secant_cone_and_quadric(s3, f7, p)
    assert sec.pdim == 1
    assert subspace_contains(sec, (1, 0, 0, 1))
    assert subspace_contains(sec, (1, 0, 0, 0))
    assert subspace_contains(sec, (0, 0, 0, 1))
    assert qform_rank(quadric) == 2
    # the polar kernel is one point off the cubic: a chord, no tangent
    assert kernel.rows == ((1, 0, 0, 6),)
    assert not contains(s3, f7, kernel.rows[0])
    assert secant_locus_points(s3, f7, p) == {(1, 0, 0, 0), (0, 0, 0, 1)}


def test_secant_cone_tangent_case(f7, s3):
    sec, quadric, sample = secant_cone_and_quadric(s3, f7, (0, 1, 0, 0))
    assert sec.pdim == 1
    assert subspace_contains(sec, (1, 0, 0, 0))
    assert qform_rank(quadric) == 1


def test_secant_cone_s111_rank2_point(f7):
    spec = scroll_new([1, 1, 1])
    p = (1, 0, 0, 1, 0, 0)
    sec, quadric, kernel = secant_cone_and_quadric(spec, f7, p)
    assert sec.pdim == 3
    assert qform_rank(quadric) == 4
    assert kernel.pdim == 2
    # every ruling meets the locus
    for x in projective_points(f7, 2):
        assert not fiber_secant_space(spec, f7, p, x).is_empty()


def test_sample_points_lie_on_locus(f7):
    """Ruling cuts lie on the locus, and kernel points of the scroll are
    tangency points, over GF(7) and GF(49)."""
    f49 = field_make(7, 2)
    rng = random.Random(8)
    for a, h in (([3], -1), ([1, 2], -1), ([1, 2], 0), ([2, 3], -1)):
        spec = scroll_new(a, h)
        for _ in range(8):
            p = external_point(spec, f7, rng)
            _, sec, _, kernel = classify_with_data(spec, f7, p)
            for ctx_x in (f7, f49):
                for x in [(0, 1), (1, ctx_x.rand(rng)), (1, ctx_x.rand(rng))]:
                    cut = fiber_secant_space(spec, ctx_x, p, x)
                    for q in [normalize_point(ctx_x, r) for r in cut.rows]:
                        verdict = secant_pair_test(spec, ctx_x, p, q)
                        assert verdict in (SECANT, TANGENT_CONTACT)
            for row in kernel.rows:
                q = (0,) * spec.vertex_size + row
                if contains(spec, f7, q):
                    assert secant_pair_test(spec, f7, p, q) == TANGENT_CONTACT
                assert subspace_contains(sec, q)


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
    sig = classify_signature(s3, f5, p)
    assert sig.label == "TwoPoints"
    # the chord is visible only over GF(q^2): its two points are conjugate
    assert secant_locus_points(s3, f5, p) == set()
    assert len(secant_locus_points(s3, f25, p)) == 2


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
            sec, _, _ = secant_cone_and_quadric(spec, f7, p)
            for x in projective_points(f7, 2):
                space = fiber_secant_space(spec, f7, p, x)
                for i in range(spec.vertex_size):
                    e = [0] * (spec.ambient + 1)
                    e[i] = 1
                    assert subspace_contains(space, tuple(e))
                    assert subspace_contains(sec, tuple(e))


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
        sig, sec, quadric, kernel = classify_with_data(spec, f7, p)
        assert sec.pdim == sig.sec_dim
        assert qform_rank(quadric) == sig.rank
        assert subspace_contains(sec, p)
        # sec = <p, K> with p off K
        assert kernel.pdim == sec.pdim - 1
        assert not subspace_contains(kernel, p)
        for row in kernel.rows:
            assert subspace_contains(sec, row)


def _subspace_point_set(space):
    """Every point of a projective subspace, enumerated with scalar arithmetic."""
    ctx, rows = space.ctx, space.rows
    out = set()
    for coeffs in projective_points(ctx, len(rows)):
        v = [0] * (space.ambient + 1)
        for c, row in zip(coeffs, rows):
            v = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row)]
        out.add(normalize_point(ctx, v))
    return out


def test_secant_locus_points_is_the_union_of_ruling_cuts():
    """The batched ruling scan of `secant_locus_points` finds exactly the
    points of the per-ruling cuts `fiber_secant_space`: every exterior point
    of S(3) over GF(5) and GF(25), seeded points of S(1,2)+cone(0) and
    S(2,2) over GF(3^2), and a TwoLines point of S(1,2)+cone(0) over GF(49),
    where one ruling is cut in a plane and the others in lines, so that one
    call enumerates cuts of two sizes."""
    cases = []
    s3, f5 = scroll_new([3]), field_make(5, 1)
    exterior = [p for p in projective_points(f5, 4) if not contains(s3, f5, p)]
    assert len(exterior) == 150
    cases += [(s3, 5, d, p) for d in (1, 2) for p in exterior]
    f3 = field_make(3, 1)
    for a, h in (([1, 2], 0), ([2, 2], -1)):
        spec = scroll_new(a, h)
        rng = random.Random(17)
        cases += [(spec, 3, 2, external_point(spec, f3, rng)) for _ in range(20)]
    cases.append((scroll_new([1, 2], 0), 7, 2, (1, 0, 1, 1, 0, 0)))
    nonempty = mixed = 0
    for spec, q, d, p in cases:
        ctx_d = field_make(q, d)
        union = set()
        cut_dims = set()
        for x in projective_points(ctx_d, 2):
            cut = fiber_secant_space(spec, ctx_d, p, x)
            union |= _subspace_point_set(cut)
            cut_dims.add(cut.pdim)
        assert secant_locus_points(spec, ctx_d, p) == union, (spec, d, p)
        nonempty += bool(union)
        mixed += len(cut_dims - {spec.h}) > 1
    assert nonempty > len(cases) // 2
    assert mixed


def test_one_polar_solve_per_point(monkeypatch, f7):
    """Classification, strata and projection share one polar-kernel solve
    (one row reduction with its kernel, one echelon-only reduction for the
    cone) and scan no ruling."""
    from scrollsec import project, secant

    spec = scroll_new([1, 2], 0)
    p = external_point(spec, f7, random.Random(8))
    calls = []

    def counted(name):
        real = getattr(secant, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(secant, name, wrapper)

    counted("row_reduce")
    counted("rref")
    counted("_secant_covectors")
    counted("_fiber_kernel_vectors")
    secant._analysis.cache_clear()
    classify_with_data(spec, f7, p)
    stratum_geometric(spec, f7, p)
    project(spec, f7, p)
    assert calls == ["row_reduce", "rref"]
    assert secant._analysis.cache_info().misses == 1


def test_analysis_refuses_non_proportional_generator_restrictions(monkeypatch, f7):
    """The proportionality guard: with the last minor replaced by a binomial
    that is not a minor, the restrictions to the secant cone disagree (or all
    vanish), and the analysis raises instead of picking one."""
    from scrollsec import secant
    from scrollsec.exactfield import Binomial

    real = secant.quadric_generators

    def tampered(spec, ctx):
        gens = real(spec, ctx)
        g0 = gens[0]
        return gens[:-1] + (Binomial(ctx, g0.n_vars, g0.i, g0.i, g0.k, g0.l),)

    monkeypatch.setattr(secant, "quadric_generators", tampered)
    secant._analysis.cache_clear()
    try:
        for spec in (scroll_new([1, 2]), scroll_new([3])):
            p = external_points(spec, f7, 1, 1)[0]
            with pytest.raises(UnclassifiableSignatureError, match="are not proportional"):
                classify_with_data(spec, f7, p)
        p = external_points(scroll_new([1, 2]), f7, 1, 8)[7]
        with pytest.raises(UnclassifiableSignatureError, match="every generator vanishes"):
            classify_with_data(scroll_new([1, 2]), f7, p)
    finally:
        # analyses made with the tampered generators must not outlive the test
        secant._analysis.cache_clear()


def test_classification_path_does_not_load_numpy():
    """numpy serves only the brute-force oracle; importing the package and
    classifying a point must not load it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from scrollsec import classify_with_data, field_make, project, scroll_new,"
        " stratum_geometric\n"
        "spec, ctx, p = scroll_new([1, 2], 0), field_make(7), (1, 2, 3, 4, 5, 6)\n"
        "classify_with_data(spec, ctx, p)\n"
        "stratum_geometric(spec, ctx, p)\n"
        "project(spec, ctx, p)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
