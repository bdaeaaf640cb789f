import itertools
import math
import random

import pytest

from conftest import external_point, external_points
from scrollsec import (
    DimensionMismatchError,
    LinearSubspace,
    PointOnVarietyError,
    QForm,
    UnclassifiableSignatureError,
    ZeroVectorError,
    classify_with_data,
    contains,
    field_make,
    normalize_point,
    projective_points,
    qform_rank,
    quadric_generators,
    row_reduce,
    scroll_new,
    secant_locus_points,
    stratum_geometric,
)
from scrollsec.exactfield import rref
from scrollsec.secant import (
    NOT_ON_X,
    NOT_SECANT,
    SECANT,
    SIGNATURE_TABLE,
    TANGENT_CONTACT,
    fiber_secant_space,
    secant_pair_test,
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
    assert hit.contains((1, 0, 0, 0))
    miss = fiber_secant_space(s3, f7, p, (1, 1))
    assert miss.rows == ()


def test_fiber_secant_space_s111_is_line(f7):
    spec = scroll_new([1, 1, 1])
    rng = random.Random(2)
    for _ in range(10):
        p = external_point(spec, f7, rng)
        x = (1, rng.randrange(7))
        cut = fiber_secant_space(spec, f7, p, x)
        assert cut.pdim == 1


def test_fiber_secant_space_below_and_above_the_int64_bound():
    """The ruling cut is computed with scalar field operations only, so it
    stays exact past the bounds of int64 products: at the largest prime
    below 2^26 and at the 61-bit prime 2^61 - 1, over GF(q) and GF(q^2), the
    cut of S(1,1,1) is a line and every row passes the pair test."""
    spec, rng = scroll_new([1, 1, 1]), random.Random(3)
    for q in (67108859, 2**61 - 1):
        for d in (1, 2):
            ctx = field_make(q, d)
            p = external_point(spec, field_make(q, 1), rng)
            x = (1, ctx.rand(rng))
            cut = fiber_secant_space(spec, ctx, p, x)
            assert cut.pdim == 1
            for row in cut.rows:
                assert secant_pair_test(spec, ctx, p, normalize_point(ctx, row)) in (SECANT, TANGENT_CONTACT)


def test_secant_cone_chord_case(f7, s3):
    p = (1, 0, 0, 1)
    _, sec, quadric, kernel = classify_with_data(s3, f7, p)
    assert sec.pdim == 1
    assert sec.contains((1, 0, 0, 1))
    assert sec.contains((1, 0, 0, 0))
    assert sec.contains((0, 0, 0, 1))
    assert qform_rank(quadric) == 2
    # the polar kernel is one point off the cubic: a chord, no tangent
    assert kernel.rows == ((1, 0, 0, 6),)
    assert not contains(s3, f7, kernel.rows[0])
    assert secant_locus_points(s3, f7, p) == {(1, 0, 0, 0), (0, 0, 0, 1)}


def test_secant_cone_tangent_case(f7, s3):
    _, sec, quadric, _ = classify_with_data(s3, f7, (0, 1, 0, 0))
    assert sec.pdim == 1
    assert sec.contains((1, 0, 0, 0))
    assert qform_rank(quadric) == 1


def test_secant_cone_s111_rank2_point(f7):
    spec = scroll_new([1, 1, 1])
    p = (1, 0, 0, 1, 0, 0)
    _, sec, quadric, kernel = classify_with_data(spec, f7, p)
    assert sec.pdim == 3
    assert qform_rank(quadric) == 4
    assert kernel.pdim == 2
    # every ruling meets the locus
    for x in projective_points(f7, 2):
        assert fiber_secant_space(spec, f7, p, x).rows


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
                assert sec.contains(q)


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
    sig = classify_with_data(s3, f7, (1, 0, 0, 1))[0]
    assert (sig.s, sig.rank, sig.label) == (1, 2, "TwoPoints")
    assert sig.depth_pred == 2

    cone = scroll_new([3], 0)
    sig_cone = classify_with_data(cone, f7, (0, 1, 0, 0, 1))[0]
    assert (sig_cone.s, sig_cone.rank) == (1, 2)
    assert sig_cone.label == "TwoPoints"
    assert sig_cone.locus_dim == 1
    assert sig_cone.depth_pred == 3

    s12 = scroll_new([1, 2])
    sig_conic = classify_with_data(s12, f7, (0, 0, 1, 0, 6))[0]
    assert (sig_conic.s, sig_conic.rank, sig_conic.label) == (2, 3, "Conic")
    assert sig_conic.depth_pred == 3


def test_classify_rejects_point_on_scroll(f7, s3):
    with pytest.raises(PointOnVarietyError):
        classify_with_data(s3, f7, (1, 0, 0, 0))[0]
    cone = scroll_new([3], 0)
    with pytest.raises(PointOnVarietyError):
        classify_with_data(cone, f7, (1, 0, 0, 0, 0))[0]


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
    q2 = tuple(_frobenius(f25, x) for x in q1)
    p = tuple(f25.add(a, b) for a, b in zip(q1, q2))
    assert all(x < f25.q for x in p)  # prime-field elements are their own packing
    assert not contains(s3, f5, p)
    sig = classify_with_data(s3, f5, p)[0]
    assert sig.label == "TwoPoints"
    # the chord is visible only over GF(q^2): its two points are conjugate
    assert secant_locus_points(s3, f5, p) == set()
    assert len(secant_locus_points(s3, f25, p)) == 2


def _frobenius(ctx, x):
    """x -> x^q on GF(q^2): the packed a0 + q*a1 (for a0 + a1*w) goes to a0 - a1*w."""
    a1, a0 = divmod(x, ctx.q)
    return a0 + ctx.q * (-a1 % ctx.q)


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
                e2 = tuple(_frobenius(ctx2, x) for x in e1)
                lam = ctx2.rand_nonzero(rng)
                base_part = tuple(
                    ctx2.add(ctx2.mul(lam, x), ctx2.mul(_frobenius(ctx2, lam), y))
                    for x, y in zip(e1, e2)
                )
                if not all(x < q for x in base_part) or not any(base_part):
                    continue
                vert = tuple(ctx.rand(rng) for _ in range(spec.vertex_size))
                p = normalize_point(ctx, vert + base_part)
                if contains(spec, ctx, p):
                    continue
                found += 1
                sig = classify_with_data(spec, ctx, p)[0]
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
                sig = classify_with_data(spec, f101, p)[0]
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
            _, sec, _, _ = classify_with_data(spec, f7, p)
            for x in projective_points(f7, 2):
                space = fiber_secant_space(spec, f7, p, x)
                for i in range(spec.vertex_size):
                    e = [0] * (spec.ambient + 1)
                    e[i] = 1
                    assert space.contains(tuple(e))
                    assert sec.contains(tuple(e))


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
                sig_cone = classify_with_data(cone, f7, p)[0]
                sig_base = classify_with_data(base, f7, normalize_point(f7, pbar))[0]
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
        assert sec.contains(p)
        # sec = <p, K> with p off K
        assert kernel.pdim == sec.pdim - 1
        assert not kernel.contains(p)
        for row in kernel.rows:
            assert sec.contains(row)


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
    of S(3) over GF(5) and GF(25), seeded points of S(1,2)+cone(0), S(2,2)
    and S(1,1,2) over GF(3^2), and a TwoLines point of S(1,2)+cone(0) over
    GF(49), where one ruling is cut in a plane and the others in lines, so
    that one call enumerates cuts of two sizes.  With n = 3 blocks, S(1,1,2)
    has cuts whose fiber matrices have 2-dimensional kernels, so the cached
    block vectors are combined with more than one kernel vector."""
    cases = []
    s3, f5 = scroll_new([3]), field_make(5, 1)
    exterior = [p for p in projective_points(f5, 4) if not contains(s3, f5, p)]
    assert len(exterior) == 150
    cases += [(s3, 5, d, p) for d in (1, 2) for p in exterior]
    f3 = field_make(3, 1)
    for a, h in (([1, 2], 0), ([2, 2], -1), ([1, 1, 2], -1)):
        spec = scroll_new(a, h)
        rng = random.Random(17)
        cases += [(spec, 3, 2, external_point(spec, f3, rng)) for _ in range(20)]
    cases.append((scroll_new([1, 2], 0), 7, 2, (1, 0, 1, 1, 0, 0)))
    nonempty = mixed = wide = 0
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
        # a line cut of the smooth S(1,1,2): a rank-1 fiber matrix, not the
        # zero matrix of a whole ruling, with a 2-dimensional kernel
        wide += spec.a == (1, 1, 2) and 1 in cut_dims
    assert nonempty > len(cases) // 2
    assert mixed
    assert wide


def test_one_polar_solve_per_point(monkeypatch, f7):
    """Classification, strata and projection share one polar-kernel solve
    (one row reduction with its kernel, of the 4-unknown system of W n sl2,
    one echelon-only reduction of its images for K and one for the cone) and
    scan no ruling."""
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
    counted("_secant_rows")
    counted("_fiber_kernel_vectors")
    secant._analysis.cache_clear()
    classify_with_data(spec, f7, p)
    stratum_geometric(spec, f7, p)
    project(spec, f7, p)
    assert calls == ["row_reduce", "rref", "rref"]
    assert secant._analysis.cache_info().misses == 1


# the types of the reference check, each taken wherever its ambient space fits
REFERENCE_TYPES = [([3], -1), ([1, 2], -1), ([1, 2], 0), ([2, 2], -1), ([1, 3], -1), ([2, 3], -1), ([1, 1, 2], -1),
                   ([1, 1, 1], 0)]
MATRIX_TYPES = [[3], [4], [1, 2], [1, 3], [2, 2], [2, 3], [1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 2, 3], [1, 1, 2, 3]]


def _reference_kernel(spec, ctx, p):
    """K as the common kernel of the C(d, 2) polar covectors of the base
    generators at the reduced point: one row reduction over all coordinates."""
    spec0 = spec.base()
    pbar = p[spec.vertex_size:]
    polars = [g.polar(pbar) for g in quadric_generators(spec0, ctx)]
    return tuple(map(tuple, row_reduce(ctx, polars, spec0.ambient + 1)[2]))


def _check_against_the_reference(spec, ctx, p):
    """K of the analysis equals the reference, and the Tan and Sec that
    `strata` reads from the signature equal the rules on the reference K:
    nonempty, and a line or more or a single point of the scroll."""
    ref = _reference_kernel(spec, ctx, p)
    assert classify_with_data(spec, ctx, p)[3].rows == ref
    report = stratum_geometric(spec, ctx, p)
    assert report.in_Sec == bool(ref)
    assert report.in_Tan == (len(ref) >= 2 or (len(ref) == 1 and contains(spec.base(), ctx, ref[0])))


@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_pencil_solve_equals_the_polar_solve_on_whole_spaces(q, d):
    """On every point of each reference type's ambient space with at most
    4,000 points, the 4-unknown solve of W n sl2 gives the polar-covector K,
    and a point of the scroll raises.  Over GF(7) that is S(3) and S(1,2),
    the scrolls where the polar system is smallest."""
    ctx = field_make(q, d)
    checked = 0
    for a, h in REFERENCE_TYPES:
        spec = scroll_new(a, h)
        if (ctx.size ** (spec.ambient + 1) - 1) // (ctx.size - 1) > 4000:
            continue
        for p in projective_points(ctx, spec.ambient + 1):
            if contains(spec, ctx, p):
                with pytest.raises(PointOnVarietyError):
                    classify_with_data(spec, ctx, p)
                continue
            _check_against_the_reference(spec, ctx, p)
            checked += 1
    assert checked > (800 if d == 2 else 2000)


@pytest.mark.parametrize("a,p,rank", [
    pytest.param([1, 1, 2], (1, 0, 0, 1, 0, 0, 0), 0, id="rank0-zero-rows"),
    pytest.param([2, 2], (1, 0, 1, 2, 0, 2), 1, id="rank1-proportional-rows"),
    pytest.param([3], (1, 0, 0, 1), 2, id="rank2-two-rows"),
    pytest.param([4], (1, 0, 0, 1, 1), 3, id="rank3-three-rows"),
])
def test_pencil_solve_at_each_rank_of_the_row_matrix(a, p, rank):
    """W n sl2 in the entries (a, b, c) of B = (a b; c -a) is the kernel of
    the rows (2 x_(j+1), x_(j+2), -x_j).  At one point per rank over GF(7)
    that kernel is all of sl2, a plane, a line or zero, so s = 3 - rank, and
    K equals the polar-covector reference."""
    spec, ctx = scroll_new(a), field_make(7, 1)
    starts = [sum(a[:i]) + i for i in range(len(a))]
    blocks = [p[start:start + ai + 1] for start, ai in zip(starts, a)]
    rows = [(2 * x[j + 1] % 7, x[j + 2], -x[j] % 7) for x in blocks for j in range(len(x) - 2)]
    assert row_reduce(ctx, rows, 3)[0] == rank
    assert classify_with_data(spec, ctx, p)[0].s == 3 - rank
    _check_against_the_reference(spec, ctx, p)


def test_analysis_work_per_point_on_the_matrix_specs(monkeypatch):
    """Counts of one analysis that no host changes, on seeded external points
    of the 33 specs of the acceptance matrix at q = 10007.  A one-point cone
    (s = 0) restricts one generator, g0, and a larger cone all C(d, 2) for
    the guard.  The RREF passes are the solve of W n sl2, and when its kernel
    is not zero the echelon form of that kernel and of its images for K, then
    the cone and the quadric's rank: three when s = 0, five otherwise."""
    from scrollsec import exactfield, secant
    from scrollsec.exactfield import Binomial

    counts = {}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(Binomial, "restrict", counted("restrict", Binomial.restrict))
    monkeypatch.setattr(exactfield, "_rref", counted("_rref", exactfield._rref))
    ctx = field_make(10007, 1)
    one_point = larger = 0
    for a in MATRIX_TYPES:
        for h in (-1, 0, 1):
            spec = scroll_new(a, h)
            for p in external_points(spec, ctx, f"work/{a}/{h}", 5):
                secant._analysis.cache_clear()
                counts.update(restrict=0, _rref=0)
                s = classify_with_data(spec, ctx, p)[0].s
                expected = {"restrict": 1, "_rref": 3} if s == 0 else {"restrict": math.comb(sum(a), 2), "_rref": 5}
                assert counts == expected, (a, h, p)
                one_point += s == 0
                larger += s > 0
    secant._analysis.cache_clear()
    assert one_point and larger


@pytest.mark.parametrize("q", [10007, 2**61 - 1])
def test_pencil_solve_equals_the_polar_solve_on_matrix_specs(q):
    """The same at large q, on seeded external points of the 33 specs of the
    acceptance matrix."""
    ctx = field_make(q, 1)
    for a in MATRIX_TYPES:
        for h in (-1, 0, 1):
            spec = scroll_new(a, h)
            for p in external_points(spec, ctx, f"pencil/{a}/{h}", 10):
                _check_against_the_reference(spec, ctx, p)


@pytest.mark.parametrize("q", [3, 5])
def test_every_subspace_of_gl2_through_the_identity_has_a_legal_signature(q):
    """W runs over every subspace of gl2 = {(a b; c e)} that contains I: with
    s = dim W - 1 and rank the rank of det on W, (s, rank) is one of the six
    keys of SIGNATURE_TABLE, and each key occurs.  On a plane W, rank 1 holds
    exactly when its traceless line is singular, the DoublePoint case of Tan
    (proofs in the `secant` module docstring)."""
    ctx = field_make(q, 1)
    half = ctx.inv(2)
    det = QForm(ctx, 4, ((0, 0, 0, half), (0, 0, q - half, 0), (0, q - half, 0, 0), (half, 0, 0, 0)))
    ident = (1, 0, 0, 1)
    points = list(projective_points(ctx, 4))
    spaces = {tuple(rref(ctx, [ident, *extra], 4)[1])
              for k in range(3) for extra in itertools.combinations(points, k)}
    spaces.add(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert len(spaces) == 2 * q * q + 2 * q + 4
    seen = set()
    for rows in spaces:
        s = len(rows) - 1
        rank = qform_rank(det.restrict(LinearSubspace(ctx, 3, rows)))
        assert (s, rank) in SIGNATURE_TABLE
        seen.add((s, rank))
        if s == 1:
            v = next(r for r in rows if r != ident)
            t = (v[0] + v[3]) * half % q
            b = (v[0] - t, v[1], v[2], v[3] - t)
            assert (rank == 1) == ((b[0] * b[3] - b[1] * b[2]) % q == 0)
    assert seen == set(SIGNATURE_TABLE)


def test_one_covector_computation_per_point_and_field(monkeypatch):
    """One builder makes the covectors of both sides: after
    `secant_locus_points` and `brute_secant_locus` over GF(q) and GF(q^2)
    and the lift check, `secant._secant_rows` reports one miss for a point
    of the smooth S(3), where the fast and brute sides ask with the same
    generators and point, and two for a point of S(1,2)+cone(0): the base
    key of the fast side, which the lift check's base scan hits, and the
    cone key of the brute side.  No ruling point is embedded one at a
    time."""
    from scrollsec import brute_secant_locus, check_lift_equalities, oracle, scroll, secant

    f7 = field_make(7, 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return real_embed(*args)

    real_embed = scroll.embed
    for module in (scroll, secant):
        if hasattr(module, "embed"):
            monkeypatch.setattr(module, "embed", counted)
    for spec, misses in ((scroll_new([3]), 1), (scroll_new([1, 2], 0), 2)):
        p = external_point(spec, f7, random.Random(5))
        secant._secant_rows.cache_clear()
        oracle._line_masks.cache_clear()
        for d in (1, 2):
            ctx_d = field_make(7, d)
            assert secant_locus_points(spec, ctx_d, p) == brute_secant_locus(spec, ctx_d, p)
        assert check_lift_equalities(spec, ctx_d, p) == []
        info = secant._secant_rows.cache_info()
        assert (info.misses, info.hits) == (misses, 3), spec
    assert calls == []


def test_one_point_cuts_take_no_packed_array_products(monkeypatch, f7, s3):
    """On the twisted cubic every ruling is a point, so a TwoPoints locus
    over GF(7^2) is two one-point cuts: with the ruling stack cached, its
    enumeration makes no `FieldCtx.mul` call on arrays (one block needs no
    elimination to find the cuts, and a one-row cut no combination).  Over
    GF(7) the ruling stack keeps no second GF(q) component."""
    import numpy as np

    from scrollsec import secant
    from scrollsec.exactfield import FieldCtx

    f49 = field_make(7, 2)
    p = (1, 0, 0, 1)
    assert classify_with_data(s3, f7, p)[0].label == "TwoPoints"
    expected = {(1, 0, 0, 0), (0, 0, 0, 1)}
    assert secant_locus_points(s3, f49, p) == expected
    real_mul = FieldCtx.mul
    array_calls = []

    def counted(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            array_calls.append(self)
        return real_mul(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", counted)
    assert secant_locus_points(s3, f49, p) == expected
    assert array_calls == []
    mons, mon0, mon1 = secant._ruling_monomials(s3, f7)
    assert mon1 is None
    assert mons.shape == (8, 1, 4) and mon0.shape == (8, 4, 1)
    assert secant._ruling_monomials(s3, f49)[2] is not None


# over GF(7), a point of each signature with s >= 1 where the tampered list of
# the guard test breaks proportionality; on some other points it does not
GUARD_CASES = [
    ([3], (1, 0, 0, 1), "TwoPoints"),
    ([3], (0, 1, 0, 0), "DoublePoint"),
    ([1, 2], (1, 0, 0, 0, 1), "TwoLines"),
    ([1, 2], (0, 1, 0, 1, 0), "Conic"),
    ([1, 1, 1], (1, 0, 0, 1, 0, 0), "QuadricSurface"),
]


def test_analysis_refuses_non_proportional_generator_restrictions(monkeypatch, f7):
    """The proportionality guard: with the last minor replaced by a binomial
    that is not a minor, the restrictions to a secant cone of dimension >= 1
    are not the scale Q_g(p) / Q_g0(p) of one Gram matrix, and the analysis
    raises instead of picking one, at a point of each signature with s >= 1.
    A one-point cone r = l p passes for every list, as Q(r) = l^2 Q(p), so
    at an Empty2Z point the tampered list gives the analysis of the true one.
    A list that vanishes at p declares p a point of the scroll."""
    from scrollsec import secant
    from scrollsec.exactfield import Binomial

    s4, empty2z = scroll_new([4]), (1, 0, 0, 1, 1)
    secant._analysis.cache_clear()
    for a, p, label in GUARD_CASES:
        assert classify_with_data(scroll_new(a), f7, p)[0].label == label
    true_analysis = classify_with_data(s4, f7, empty2z)
    assert true_analysis[0].label == "Empty2Z"
    real = secant.quadric_generators

    def tampered(spec, ctx):
        gens = real(spec, ctx)
        g0 = gens[0]
        return gens[:-1] + (Binomial(ctx, g0.n_vars, g0.i, g0.i, g0.k, g0.l),)

    monkeypatch.setattr(secant, "quadric_generators", tampered)
    secant._analysis.cache_clear()
    try:
        for a, p, label in GUARD_CASES:
            with pytest.raises(UnclassifiableSignatureError, match="are not proportional"):
                classify_with_data(scroll_new(a), f7, p)
        assert classify_with_data(s4, f7, empty2z) == true_analysis
        p = external_points(scroll_new([1, 2]), f7, 1, 8)[7]
        with pytest.raises(PointOnVarietyError):
            classify_with_data(scroll_new([1, 2]), f7, p)
    finally:
        # analyses made with the tampered generators must not outlive the test
        secant._analysis.cache_clear()


def test_classification_path_does_not_load_numpy():
    """numpy serves only the brute-force oracle; importing the package,
    classifying a point and the atlas path (enumeration, sampling inside and
    outside a locus, membership, depth) must not load it."""
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
        "from random import Random\n"
        "from scrollsec.delpezzo import atlas_enumerate, depth_predict, is_del_pezzo, locus_member,"
        " sample_inside_locus, sample_outside_locus\n"
        "for e in atlas_enumerate(6, 4, 1):\n"
        "    spec = scroll_new(e.a, e.h)\n"
        "    for sample in (sample_inside_locus, sample_outside_locus):\n"
        "        p = sample(e.locus_kind, spec, ctx, Random(1))\n"
        "        if p is not None:\n"
        "            sig, _, _, kernel = classify_with_data(spec, ctx, p)\n"
        "            locus_member(e.locus_kind, spec, ctx, p)\n"
        "            depth_predict(spec, sig, bool(kernel.rows))\n"
        "            is_del_pezzo(spec, sig)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# Every public function that takes a point p checks its coordinates first
# (`validate_point`): a wrong length raises DimensionMismatchError and the zero
# vector ZeroVectorError.  Each row says how a function is called around p,
# whether it answers for points of the scroll (its vertex included) instead
# of raising PointOnVarietyError, and whether p must lie over GF(q).
_POINT_CONTRACT = [
    # (name, arguments before p, arguments after p, answers on X, GF(q) only)
    ("contains", (), (), True, False),
    ("validate_point", (), (), True, False),
    ("member_A", (), (), True, False),
    ("member_B", (), (), True, False),
    ("member_U", (), (), True, False),
    ("locus_member", ("full",), (), True, False),
    ("locus_member", ("A",), (), True, False),
    ("locus_member", ("B",), (), True, False),
    ("locus_member", ("U",), (), True, False),
    ("locus_member", ("sec",), (), False, False),
    ("secant_pair_test", (), ((0, 1, 0, 0, 0, 0),), False, False),
    ("classify_with_data", (), (), False, False),
    ("member_tangent", (), (), False, False),
    ("member_secant_variety", (), (), False, False),
    ("stratum_geometric", (), (), False, False),
    ("project", (), (), False, False),
    ("fiber_secant_space", (), ((1, 2),), False, True),
    ("secant_locus_points", (), (), False, True),
    ("brute_secant_locus", (), (), False, True),
    ("brute_membership", (), (), False, True),
    ("check_lift_equalities", (), (), False, True),
]

# S(1,2)+cone(0) over GF(5): six coordinates, the vertex first
_CONTRACT_CASES = {
    "zero": ((0,) * 6, ZeroVectorError),
    "zero_mod_q": ((5, 0, 10, 0, 0, -5), ZeroVectorError),
    "short": ((1, 2, 3, 4, 1), DimensionMismatchError),
    "long": ((1, 2, 3, 4, 1, 2, 3), DimensionMismatchError),
    # z = 3 over the ruling (1:2) with fiber (1, 1): (3, 1, 2, 1, 2, 4)
    "on_X": ((3, 1, 2, 1, 2, 4), None),
    "vertex": ((2, 0, 0, 0, 0, 0), None),
}


def _public_point_functions():
    """Every function in a module's `__all__` with a parameter named p."""
    import inspect

    from scrollsec import delpezzo, oracle, scroll, secant, strata

    found = {}
    for module in (scroll, secant, strata, delpezzo, oracle):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "p" in inspect.signature(obj).parameters:
                found[name] = obj
    return found


def test_the_point_contract_covers_every_public_function_with_a_point():
    assert set(_public_point_functions()) == {row[0] for row in _POINT_CONTRACT}


def _contract_id(row):
    return row[0] + (f"[{row[1][0]}]" if row[1] else "")


@pytest.mark.parametrize("case", sorted(_CONTRACT_CASES))
@pytest.mark.parametrize("row", _POINT_CONTRACT, ids=_contract_id)
def test_every_entry_point_checks_p_the_same_way(row, case):
    """Zero, short and long points raise the coordinate errors everywhere; a
    point of the scroll and a vertex point raise PointOnVarietyError except
    in the functions that answer for them."""
    name, before, after, answers_on_x, _ = row
    func = _public_point_functions()[name]
    spec, f5 = scroll_new([1, 2], 0), field_make(5, 1)
    p, error = _CONTRACT_CASES[case]
    if error is None and not answers_on_x:
        error = PointOnVarietyError
    if case == "on_X":
        assert contains(spec, f5, p)
    if error is None:
        func(*before, spec, f5, p, *after)
    else:
        with pytest.raises(error):
            func(*before, spec, f5, p, *after)


@pytest.mark.parametrize("row", [row for row in _POINT_CONTRACT if row[4]], ids=_contract_id)
def test_base_field_entry_points_refuse_a_point_outside_gf_q(row):
    """The functions that read p through the generators over GF(q) refuse a
    packed GF(25) coordinate, here w = 5, even when they enumerate GF(25)."""
    name, before, after, _, _ = row
    func = _public_point_functions()[name]
    spec, f25 = scroll_new([1, 2], 0), field_make(5, 2)
    with pytest.raises(DimensionMismatchError, match="GF\\(q\\)"):
        func(*before, spec, f25, (0, 1, 0, 5, 0, 1), *after)
