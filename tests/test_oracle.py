import random
from itertools import product

import pytest

from conftest import external_point
from scrollsec import (
    BudgetExceededError,
    InvariantError,
    ScrollPoint,
    brute_membership,
    brute_secant_locus,
    check_lift_equalities,
    embed,
    enumerate_points,
    field_make,
    normalize_point,
    projective_points,
    scroll_new,
    secant_locus_points,
    stratum_geometric,
)
from scrollsec.oracle import _pair_data


def test_point_counts(f5):
    assert len(enumerate_points(scroll_new([3]), f5)) == 6
    assert len(enumerate_points(scroll_new([1, 2]), f5)) == 36
    assert len(enumerate_points(scroll_new([3], 0), f5)) == 31


def test_point_count_extension_field():
    f25 = field_make(5, 2)
    assert len(enumerate_points(scroll_new([3]), f25)) == 26
    assert len(enumerate_points(scroll_new([1, 2]), f25)) == 26 * 26


def _reference_table(spec, ctx):
    """The point table built one scalar embedding at a time: vertex points
    first, then x = (0:1), (1:0), (1:1), ..., u over P^(n-1) and the affine
    vertex part z, keeping the first copy of each normalized point, as a
    dict from each point to its parameters."""
    *finite, infinity = projective_points(ctx, 2)
    vs = spec.vertex_size
    params = [ScrollPoint((0, 0), (0,) * spec.n, z) for z in projective_points(ctx, vs)]
    params += [
        ScrollPoint(x, u, z)
        for x in [infinity] + finite
        for u in projective_points(ctx, spec.n)
        for z in product(range(ctx.size), repeat=vs)
    ]
    points = {}
    for param in params:
        points.setdefault(normalize_point(ctx, embed(spec, ctx, param)), param)
    return points


# S(1,1,2)+cone(1) over GF(25) has 10.5 million points and is left out
@pytest.mark.parametrize(
    "a,h,fields",
    [
        ((3,), -1, ((3, 1), (3, 2), (5, 1), (5, 2))),
        ((1, 2), 0, ((3, 1), (3, 2), (5, 1), (5, 2))),
        ((2, 2), 0, ((3, 1), (3, 2), (5, 1), (5, 2))),
        ((1, 1, 2), 1, ((3, 1), (3, 2), (5, 1))),
    ],
)
def test_point_table_matches_scalar_reference(a, h, fields):
    spec = scroll_new(a, h)
    for q, d in fields:
        ctx = field_make(q, d)
        table = enumerate_points(spec, ctx)
        reference = _reference_table(spec, ctx)
        assert table.points == list(reference), (spec, q, d)
        assert len(table) == len(reference)
        # every row of the smaller tables, a stride through the larger ones
        params = list(reference.values())
        for i in range(0, len(reference), 1 + len(reference) // 5000):
            assert table.nonvertex[i] == (not params[i].is_vertex())
            assert table.packed(i).tolist() == list(table.points[i])


def test_point_table_over_the_largest_oracle_field():
    """S(3) over GF(101^2): the largest field the oracle commands accept."""
    spec = scroll_new([3])
    ctx = field_make(101, 2)
    table = enumerate_points(spec, ctx)
    assert len(table) == 10202
    assert len(set(table.points)) == 10202
    assert table.points == list(_reference_table(spec, ctx))
    assert (1, 0, 0, 0) in table and (1, 0, 0, 1) not in table


def test_point_table_count_mismatch_raises(monkeypatch, f5):
    from scrollsec import oracle

    spec = scroll_new([1, 2], 0)
    real_count, real_line = oracle._expected_count, oracle._line_points
    enumerate_points.cache_clear()
    monkeypatch.setattr(oracle, "_expected_count", lambda sp, size: real_count(sp, size) + 1)
    with pytest.raises(InvariantError):
        enumerate_points(spec, f5)
    monkeypatch.setattr(oracle, "_expected_count", real_count)
    # (0:1) replaced by a second (1:0): every point of that ruling repeats
    monkeypatch.setattr(oracle, "_line_points", lambda ctx: [(1, 0)] + real_line(ctx)[1:])
    with pytest.raises(InvariantError):
        enumerate_points(spec, f5)
    monkeypatch.setattr(oracle, "_line_points", real_line)
    assert len(enumerate_points(spec, f5)) == 181
    enumerate_points.cache_clear()


def test_budget_guard(f5):
    with pytest.raises(BudgetExceededError):
        enumerate_points(scroll_new([1, 1, 2, 3], 2), f5, budget=1000)


def test_points_off_the_base_field_are_rejected():
    """The secant covectors come from the generators over GF(q), which read a
    coordinate of GF(q^2) outside GF(q) mod q, so the fast and brute sides
    would agree on the locus of another point.  Every entry point that reads
    p that way rejects such a point; these are TwoPoints over GF(49)."""
    from scrollsec import DimensionMismatchError, classify_signature
    from scrollsec.secant import fiber_secant_space

    s3, f49 = scroll_new([3]), field_make(7, 2)
    for p in ((1, 0, 9, 0), (1, 2, 10, 3), (0, 1, 0, 15)):
        assert classify_signature(s3, f49, p).label == "TwoPoints"
        for read in (secant_locus_points, brute_secant_locus, brute_membership, check_lift_equalities):
            with pytest.raises(DimensionMismatchError):
                read(s3, f49, p)
        with pytest.raises(DimensionMismatchError):
            fiber_secant_space(s3, f49, p, (1, 0))


def test_brute_secant_locus_examples(f5):
    s3 = scroll_new([3])
    assert brute_secant_locus(s3, f5, (1, 0, 0, 1)) == {(1, 0, 0, 0), (0, 0, 0, 1)}
    assert brute_secant_locus(s3, f5, (0, 1, 0, 0)) == {(1, 0, 0, 0)}


def test_brute_secant_s111_quadric_count(f5):
    spec = scroll_new([1, 1, 1])
    p = (1, 0, 0, 1, 0, 0)
    locus = brute_secant_locus(spec, f5, p)
    # a smooth quadric surface has (q+1)^2 rational points
    assert len(locus) == 36


def test_brute_membership_examples(f5):
    s12 = scroll_new([1, 2])
    rep = brute_membership(s12, f5, (0, 0, 1, 0, 4))
    assert rep.in_U and not rep.in_B
    assert rep.label_geom == "Conic"

    s3 = scroll_new([3])
    rep3 = brute_membership(s3, f5, (1, 0, 0, 1))
    assert rep3.in_Sec and not rep3.in_Tan
    assert rep3.label_geom == "TwoPoints"

    s113 = scroll_new([1, 1, 3])
    repq = brute_membership(s113, f5, (1, 2, 3, 4, 0, 0, 0, 0))
    assert repq.label_geom == "QuadricSurface"


def test_brute_agrees_with_fast_path():
    rng = random.Random(77)
    specs = [
        scroll_new([3]),
        scroll_new([1, 2]),
        scroll_new([2, 2]),
        scroll_new([1, 1, 1]),
        scroll_new([3], 0),
        scroll_new([1, 2], 0),
    ]
    for q in (5, 7):
        ctx = field_make(q, 1)
        ctx2 = field_make(q, 2)
        for spec in specs:
            for _ in range(4):
                p = external_point(spec, ctx, rng)
                for ctx_d in (ctx, ctx2):
                    if len(enumerate_points(spec, ctx_d, 10**7).points) > 20000:
                        continue
                    assert brute_secant_locus(spec, ctx_d, p) == secant_locus_points(
                        spec, ctx_d, p
                    )
                if len(enumerate_points(spec, ctx2, 10**7).points) <= 20000:
                    assert brute_membership(spec, ctx2, p) == stratum_geometric(
                        spec, ctx, p
                    )


def test_lift_equalities_on_cones():
    rng = random.Random(88)
    f25 = field_make(5, 2)
    f5 = field_make(5, 1)
    for a in ([3], [1, 2]):
        spec = scroll_new(a, 0)
        for _ in range(6):
            p = external_point(spec, f5, rng)
            assert check_lift_equalities(spec, f25, p) == []


def test_lift_check_reports_a_wrong_cone_and_a_wrong_join(monkeypatch):
    """Both lift identities stay exact checks.  A fast cone one row too
    small, one row too large, or as large but another subspace is reported
    on a census point of S(3), whose locus has at most as many rows as
    coordinates, and on a point of S(1,2)+cone(0) over GF(49), whose locus
    has thousands and goes through the batched reduction and the rank test
    on a prefix, here widened from one row; a locus with one row missing,
    or with one row swapped for a point outside it, is reported as
    differing from the vertex join."""
    import numpy as np

    from scrollsec import LinearSubspace, contains, oracle, rref

    f7, f49 = field_make(7, 1), field_make(7, 2)
    s3, cone = scroll_new([3]), scroll_new([1, 2], 0)
    p3 = next(p for p in projective_points(f7, 4) if not contains(s3, f7, p))
    pc = (1, 0, 1, 1, 0, 0)
    assert len(oracle._locus_array(s3, f49, p3, 10**7)) + 1 <= s3.ambient + 1
    assert len(oracle._locus_array(cone, f49, pc, 10**7)) > 1000
    assert check_lift_equalities(s3, f49, p3) == check_lift_equalities(cone, f49, pc) == []
    # a one-row first prefix makes the rank test widen before it succeeds
    monkeypatch.setattr(oracle, "_CONE_PREFIX", 1)
    assert check_lift_equalities(cone, f49, pc) == []
    real_analysis = oracle.classify_with_data
    cone_msg = "secant cone differs from vertex-lift of the base cone"

    def with_cone(change):
        def analysis(spec, ctx, p):
            sig, sec, quadric, kernel = real_analysis(spec, ctx, p)
            return sig, LinearSubspace(ctx, sec.ambient, change(sec)), quadric, kernel
        return analysis

    def extra_row(sec, keep):
        nv = sec.ambient + 1
        extra = next(e for e in np.eye(nv, dtype=int).tolist() if not sec.contains(e))
        return tuple(rref(sec.ctx, list(sec.rows[:keep]) + [extra], nv)[1])

    # smaller, larger, and as large but another subspace (only the
    # containment test sees that one)
    for change in (lambda sec: sec.rows[:-1], lambda sec: extra_row(sec, len(sec.rows)),
                   lambda sec: extra_row(sec, -1)):
        monkeypatch.setattr(oracle, "classify_with_data", with_cone(change))
        for spec, p in ((s3, p3), (cone, pc)):
            assert check_lift_equalities(spec, f49, p) == [cone_msg], (spec, p)
    monkeypatch.setattr(oracle, "classify_with_data", real_analysis)

    real_locus = oracle._locus_array
    join_msg = "secant locus differs from the vertex join of the base locus"
    locus = real_locus(cone, f49, pc, 10**7)
    outside = next(e for e in np.eye(6, dtype=np.int64) if not (locus == e).all(axis=1).any())
    # one row missing; one row swapped for a point outside, same count
    for wrong in (locus[:-1], np.vstack([locus[:-1], outside])):
        monkeypatch.setattr(oracle, "_locus_array",
                            lambda spec, ctx, p, budget, wrong=wrong: wrong
                            if spec.h >= 0 else real_locus(spec, ctx, p, budget))
        assert join_msg in check_lift_equalities(cone, f49, pc)

    # (1 : w) over GF(49), packed (1, 7), has its GF(7) part (1, 0) on the
    # line spanned by (1, 0) but is not on it: both parts are checked
    assert oracle._spans_cone(f49, np.array([[1, 0], [3, 0]]), ((1, 0),))
    assert not oracle._spans_cone(f49, np.array([[1, 7]]), ((1, 0),))


def test_exhaustive_sweep_whole_ambient_q3():
    """Every external point of five whole ambient spaces over GF(3): the fast
    membership report, locus point set, and lift identities must equal the
    brute oracle's, with no sampling gaps at all."""
    import itertools

    ctx = field_make(3, 1)
    ctx2 = field_make(3, 2)
    from scrollsec import contains, stratum_geometric

    for a, h, exterior in (((3,), -1, 36), ((1, 2), -1, 105), ((3,), 0, 108),
                           ((1, 2), 0, 315), ((1, 3), -1, 348)):
        spec = scroll_new(a, h)
        nv = spec.ambient + 1
        checked = 0
        for lead in range(nv):
            for tail in itertools.product(range(3), repeat=nv - lead - 1):
                p = (0,) * lead + (1,) + tail
                if contains(spec, ctx, p):
                    continue
                checked += 1
                rep = stratum_geometric(spec, ctx, p)
                assert rep.agrees_with_signature
                assert rep == brute_membership(spec, ctx2, p)
                assert brute_secant_locus(spec, ctx2, p) == secant_locus_points(
                    spec, ctx2, p
                )
                if h >= 0:
                    assert check_lift_equalities(spec, ctx2, p) == []
        assert checked == exterior


def test_tangency_matches_jacobian(f5):
    """The polar condition of the pair scan flags exactly the rows whose
    Jacobian tangent space contains p."""
    from scrollsec import tangent_space

    rng = random.Random(99)
    for a, h in (([1, 2], -1), ([3], 0)):
        spec = scroll_new(a, h)
        table = enumerate_points(spec, f5)
        params = list(_reference_table(spec, f5).values())
        for _ in range(5):
            p = external_point(spec, f5, rng)
            _, tangent_mask = _pair_data(spec, f5, table, p)
            idx = [rng.randrange(len(table.points)) for _ in range(25)]
            for i in idx:
                if not params[i].is_vertex():
                    assert tangent_space(spec, f5, params[i]).contains(p) == bool(tangent_mask[i])
            # and the flagged witnesses really are tangency points
            for i in (tangent_mask & table.nonvertex).nonzero()[0]:
                assert tangent_space(spec, f5, params[i]).contains(p)


def test_enumerate_points_builds_once_whatever_the_budget(f5):
    from scrollsec import oracle

    spec = scroll_new([2, 2])
    enumerate_points.cache_clear()
    first = enumerate_points(spec, f5, 10**7)
    assert enumerate_points(spec, f5) is first
    assert oracle.enumerate_points(spec, f5, budget=5000) is first
    assert enumerate_points.cache_info().misses == 1
    with pytest.raises(BudgetExceededError):
        enumerate_points(spec, f5, 10)


# (type, vertex dimension, fields): every exterior point is checked
CENSUS = (
    ((3,), -1, (3, 5)), ((4,), -1, (3, 5)), ((1, 2), -1, (3, 5)), ((2, 2), -1, (3, 5)),
    ((1, 3), -1, (3,)), ((1, 1, 1), -1, (3,)), ((1, 1, 2), -1, (3,)),
    ((1, 2), 0, (3,)), ((3,), 0, (3, 5)),
)


def test_polar_kernel_census_matches_brute_force():
    """The secant cone <vertex, p, K> is the span of p and the brute-force
    locus over GF(q^2), and the kernel's Tan and Sec verdicts are the brute
    pair scan's, at every exterior point of small types.  in_Tan and in_Sec
    are read off the same masks `brute_membership` reads."""
    from scrollsec import classify_with_data, contains, projective_points, row_reduce

    checked = 0
    for a, h, fields in CENSUS:
        spec = scroll_new(a, h)
        nv = spec.ambient + 1
        for q in fields:
            ctx, ctx2 = field_make(q, 1), field_make(q, 2)
            table = enumerate_points(spec, ctx2)
            for p in projective_points(ctx, nv):
                if contains(spec, ctx, p):
                    continue
                checked += 1
                _, sec, _, _ = classify_with_data(spec, ctx, p)
                rep = stratum_geometric(spec, ctx, p)
                secant_mask, tangent_mask = _pair_data(spec, ctx, table, p)
                locus = [table.points[i] for i in secant_mask.nonzero()[0]]
                _, rows, _ = row_reduce(ctx2, [p] + locus, nv)
                assert tuple(rows) == sec.rows, (spec, q, p)
                assert rep.in_Sec == bool((secant_mask & table.nonvertex).any()), (spec, q, p)
                assert rep.in_Tan == bool((tangent_mask & table.nonvertex).any()), (spec, q, p)
    assert checked == 9020


def _dense_line_masks(gens, q, table, p):
    """The line test of `_pair_data` with every secant and polar covector
    applied to every row of the table, in both GF(q) components."""
    import numpy as np

    a = np.array([g.evaluate(p) for g in gens], dtype=np.int64)
    w = np.array([g.polar(p) for g in gens], dtype=np.int64)
    i0 = int(np.flatnonzero(a)[0])
    secant = (a[i0] * w - a[:, None] * w[i0]) % q
    secant_mask = np.ones(len(table), dtype=bool)
    tangent_mask = np.ones(len(table), dtype=bool)
    for arr in (table.arr0.astype(np.int64), table.arr1.astype(np.int64)):
        secant_mask &= (arr @ secant.T % q == 0).all(axis=1)
        tangent_mask &= (arr @ w.T % q == 0).all(axis=1)
    return secant_mask, tangent_mask


def test_filtered_pair_scan_matches_the_dense_scan(monkeypatch):
    """`_pair_data` tests the later covectors only on the rows that pass the
    first one; its masks equal the dense scan's at every exterior point of
    S(3) and S(1,2)+cone(0) over GF(3) and seeded points of S(2,2) and
    S(1,1,2) over GF(5), against the tables over GF(q) and GF(q^2)."""
    from scrollsec import contains, oracle, quadric_generators

    cases = []
    for a, h in (((3,), -1), ((1, 2), 0)):
        spec = scroll_new(a, h)
        f3 = field_make(3, 1)
        cases += [(spec, 3, p) for p in projective_points(f3, spec.ambient + 1)
                  if not contains(spec, f3, p)]
    for a in ((2, 2), (1, 1, 2)):
        spec = scroll_new(a)
        rng = random.Random(23)
        cases += [(spec, 5, external_point(spec, field_make(5, 1), rng)) for _ in range(12)]
    assert len(cases) == 36 + 315 + 24
    tangent_hits = 0
    for spec, q, p in cases:
        base = field_make(q, 1)
        gens = quadric_generators(spec, base)
        for d in (1, 2):
            table = enumerate_points(spec, field_make(q, d))
            got = oracle._pair_data(spec, base, table, p)
            want = _dense_line_masks(gens, q, table, p)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all(), (spec, d, p)
            tangent_hits += bool(got[1].any())
    assert tangent_hits

    # one generator leaves no nonzero secant covector: every row passes the
    # first stage and the tangent test runs on the whole table
    spec, f3 = scroll_new([1, 2], 0), field_make(3, 1)
    table = enumerate_points(spec, field_make(3, 2))
    first = quadric_generators(spec, f3)[:1]
    monkeypatch.setattr(oracle, "quadric_generators", lambda sp, ctx: first)
    points = [p for p in projective_points(f3, 6) if first[0].evaluate(p)]
    for p in points:
        secant_mask, tangent_mask = oracle._pair_data(spec, f3, table, p)
        assert secant_mask.all()
        assert (tangent_mask == _dense_line_masks(first, 3, table, p)[1]).all(), p
    assert points


def test_compact_tables_over_the_largest_oracle_field():
    """The components of GF(101) and GF(101^2) tables take one byte each, and
    a product of two of them, or 101 times one, does not fit in a byte: a
    scan or a packing that did not upcast would wrap.  At seeded exterior
    points of S(3) the brute locus is the fast locus over both fields, the
    brute membership is the fast report, and `_pair_data` equals the dense
    int64 scan."""
    import numpy as np

    from scrollsec import quadric_generators

    spec, base = scroll_new([3]), field_make(101, 1)
    gens = quadric_generators(spec, base)
    rng = random.Random(101)
    points = [external_point(spec, base, rng) for _ in range(10)]
    for d in (1, 2):
        ctx = field_make(101, d)
        table = enumerate_points(spec, ctx)
        assert table.arr0.dtype == table.arr1.dtype == np.uint8
        assert table.packed(slice(None)).max() == ctx.size - 1
        for p in points:
            assert brute_secant_locus(spec, ctx, p) == secant_locus_points(spec, ctx, p), (d, p)
            got, want = _pair_data(spec, base, table, p), _dense_line_masks(gens, 101, table, p)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all(), (d, p)
    for p in points:
        assert brute_membership(spec, field_make(101, 2), p) == stratum_geometric(spec, base, p)


def test_point_table_build_is_compact_and_streamed():
    """S(1,2)+cone(0) over GF(49), 122,501 rows: the components take at most
    two bytes per coordinate, and the build, which embeds and normalizes a
    block of rows at a time, peaks below 6 MB of traced allocations.  Two
    int64 component arrays alone would take 11.8 MB."""
    import tracemalloc

    spec, ctx = scroll_new([1, 2], 0), field_make(7, 2)
    enumerate_points.cache_clear()
    tracemalloc.start()
    try:
        table = enumerate_points(spec, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 122501
    assert table.arr0.nbytes <= 2 * table.arr0.size
    assert table.arr1.nbytes <= 2 * table.arr1.size
    assert peak < 6 * 10**6, peak


@pytest.mark.parametrize("size,cols,rows", [(3, 4, 60), (49, 6, 5000), (10201, 8, 3000)])
def test_packed_key_distinct_count(size, cols, rows):
    """`_row_keys` packs the columns into int64 keys, several keys when one
    would overflow (size 10,201 with 8 columns needs two), and `_distinct_rows`
    counts as many distinct rows among them as numpy's row-wise unique, with
    duplicates planted, including rows that differ from an earlier one in a
    single column."""
    import numpy as np

    from scrollsec.oracle import _distinct_rows, _row_keys

    nkeys = 2 if size == 10201 else 1

    def distinct(mat):
        keys = _row_keys(mat, size)
        assert keys.shape == (nkeys, len(mat))
        return _distinct_rows(keys)

    rng = np.random.default_rng(size)
    for _ in range(5):
        mat = rng.integers(0, size, size=(rows, cols), dtype=np.int64)
        dup = rng.integers(0, rows, size=(2, rows // 3))
        mat[dup[0]] = mat[dup[1]]
        near = rng.integers(0, rows, size=(2, rows // 10))
        mat[near[0]] = mat[near[1]]
        mat[near[0], rng.integers(0, cols, size=rows // 10)] = rng.integers(0, size, size=rows // 10)
        assert distinct(mat) == len(np.unique(mat, axis=0))
    assert distinct(np.zeros((4, cols), dtype=np.int64)) == 1
    full = np.full((2, cols), size - 1, dtype=np.int64)
    full[1, -1] = 0
    assert distinct(full) == 2
