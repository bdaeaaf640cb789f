import random

import pytest

from scrollsec import (
    DimensionMismatchError,
    EvenCharacteristicError,
    LinearSubspace,
    NonPrimeError,
    QForm,
    ZeroVectorError,
    field_make,
    normalize_point,
    parse_scroll,
    polarize,
    projective_points,
    qform_rank,
    qform_restrict,
    quadric_generators,
    row_reduce,
    span_points,
    subspace_contains,
    subspace_intersection,
)
from scrollsec import exactfield
from scrollsec.delpezzo import veronese_generators


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def test_prime_field():
    ctx = field_make(7, 1)
    assert ctx.size == 7
    assert ctx.mul(3, 5) == 1
    assert ctx.inv(3) == 5


def test_extension_modulus_is_least_nonresidue():
    ctx = field_make(7, 2)
    # squares mod 7 are {1, 2, 4}, so the least non-residue is 3
    assert ctx.c == 3
    w = 7  # the packed extension generator
    assert ctx.mul(w, w) == 3


def test_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristicError):
        field_make(2, 1)


def test_non_prime_rejected():
    with pytest.raises(NonPrimeError):
        field_make(9, 1)


def test_extension_field_axioms_exhaustive_small():
    ctx = field_make(3, 2)
    elems = list(ctx.elements())
    for a in elems:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elems:
                lhs = ctx.mul(a, ctx.add(b, c))
                rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert lhs == rhs


def test_frobenius_fixes_base_field():
    ctx = field_make(5, 2)
    for a in range(5):
        assert ctx.conj(a) == a
    w = 5
    assert ctx.conj(w) == ctx.neg(w)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def test_row_reduce_identity(f7):
    rank, ech, ker = row_reduce(f7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert rank == 3
    assert ker == []


def test_row_reduce_zero(f7):
    rank, ech, ker = row_reduce(f7, [(0, 0, 0, 0), (0, 0, 0, 0)])
    assert rank == 0
    assert ech == []
    assert len(ker) == 4


def test_row_reduce_rank_one_kernel(f7):
    rank, ech, ker = row_reduce(f7, [(1, 2), (2, 4)])
    assert rank == 1
    assert len(ker) == 1
    # kernel must annihilate the rows: 1*k0 + 2*k1 = 0, i.e. (2, -1) up to scale
    k = ker[0]
    assert (k[0] + 2 * k[1]) % 7 == 0
    assert normalize_point(f7, k) == normalize_point(f7, (2, 6))


def test_rank_plus_kernel_dim_over_both_fields():
    rng = random.Random(42)
    for ctx in (field_make(7, 1), field_make(5, 2)):
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            mat = [[ctx.rand(rng) for _ in range(cols)] for _ in range(rows)]
            rank, ech, ker = row_reduce(ctx, mat, cols)
            assert rank + len(ker) == cols
            # kernel rows annihilate the matrix
            for k in ker:
                for r in mat:
                    acc = 0
                    for a, b in zip(r, k):
                        acc = ctx.add(acc, ctx.mul(a, b))
                    assert acc == 0


def test_rref_is_row_reduce_without_the_kernel():
    rng = random.Random(43)
    for ctx in (field_make(7, 1), field_make(5, 2)):
        for _ in range(40):
            cols = rng.randrange(1, 6)
            mat = [[ctx.rand(rng) for _ in range(cols)] for _ in range(rng.randrange(1, 5))]
            rank, ech, _ = row_reduce(ctx, mat, cols)
            assert exactfield.rref(ctx, mat, cols) == (rank, ech)


def test_array_arithmetic_matches_the_scalar_field():
    import numpy as np

    for ctx in (field_make(5, 1), field_make(3, 2)):
        a, b = np.meshgrid(np.arange(ctx.size), np.arange(ctx.size), indexing="ij")
        for op in (ctx.add, ctx.sub, ctx.mul):
            got = op(a, b)
            assert all(got[x, y] == op(x, y) for x in range(ctx.size) for y in range(ctx.size))
        for op in (ctx.neg, ctx.conj):
            assert op(a[:, 0]).tolist() == [op(x) for x in range(ctx.size)]
        inv = exactfield.inverse_array(ctx)
        assert inv[0] == 0 and all(ctx.mul(x, int(inv[x])) == 1 for x in range(1, ctx.size))


def test_normalize_rows_and_pivot_rows_match_the_scalar_versions():
    import numpy as np

    rng = random.Random(44)
    for ctx in (field_make(7, 1), field_make(5, 2)):
        for _ in range(60):
            cols = rng.randrange(1, 6)
            # low-rank matrices too: rows drawn from a few random rows
            basis = [[ctx.rand(rng) for _ in range(cols)] for _ in range(rng.randrange(1, 4))]
            mat = []
            for _ in range(rng.randrange(1, 7)):
                row = [0] * cols
                for b in basis:
                    c = ctx.rand(rng)
                    row = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(row, b)]
                mat.append(row)
            arr = np.array(mat, dtype=np.int64)
            normalized = exactfield.normalize_rows(ctx, arr).tolist()
            for row, got in zip(mat, normalized):
                assert tuple(got) == (normalize_point(ctx, row) if any(row) else tuple(row))
            picked = exactfield.pivot_rows(ctx, arr[None])[0]
            rank, ech, _ = row_reduce(ctx, mat, cols)
            assert picked.sum() == rank
            assert exactfield.rref(ctx, arr[picked].tolist(), cols)[1] == ech
        # the batched form gives every matrix of a stack its own rank
        stack = [[[ctx.rand(rng) if rng.random() < 0.4 else 0 for _ in range(3)]
                  for _ in range(4)] for _ in range(200)]
        ranks = exactfield.pivot_rows(ctx, np.array(stack, dtype=np.int64)).sum(axis=1)
        assert ranks.tolist() == [row_reduce(ctx, m, 3)[0] for m in stack]
        assert len(set(ranks.tolist())) >= 3


# ---------------------------------------------------------------------------
# spans and membership
# ---------------------------------------------------------------------------


def test_span_single_point(f7):
    s = span_points(f7, [(1, 0, 0)], 2)
    assert s.pdim == 0


def test_span_dependent_points(f7):
    s = span_points(f7, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], 2)
    assert s.pdim == 1


def test_conic_points_span_plane(f7):
    # five points of the smooth conic x0*x2 = x1^2 in P^2
    pts = [(1, t, (t * t) % 7) for t in range(5)]
    s = span_points(f7, pts, 2)
    assert s.pdim == 2


def test_span_idempotent_and_order_independent(f7):
    rng = random.Random(3)
    for _ in range(30):
        pts = [tuple(rng.randrange(7) for _ in range(4)) for _ in range(4)]
        pts = [p for p in pts if any(p)]
        if not pts:
            continue
        s1 = span_points(f7, pts, 3)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        s2 = span_points(f7, shuffled, 3)
        assert s1 == s2
        s3 = span_points(f7, list(s1.rows), 3)
        assert s3 == s1


def test_subspace_contains(f7):
    line = span_points(f7, [(1, 0, 0), (0, 1, 0)], 2)
    assert subspace_contains(line, (1, 3, 0))
    point = span_points(f7, [(1, 0, 0)], 2)
    assert not subspace_contains(point, (0, 1, 0))
    empty = LinearSubspace(f7, 2, ())
    assert not subspace_contains(empty, (1, 1, 1))


def test_subspace_contains_dim_mismatch(f7):
    line = span_points(f7, [(1, 0, 0)], 2)
    with pytest.raises(DimensionMismatchError):
        subspace_contains(line, (1, 0, 0, 0))


def test_normalize_zero_vector_is_rejected(f7):
    with pytest.raises(ZeroVectorError):
        normalize_point(f7, (0, 0, 0))


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, 2)])
def test_projective_points_count_normalized_distinct(q, d):
    ctx = field_make(q, d)
    for n in range(5):
        pts = list(projective_points(ctx, n))
        assert len(pts) == (ctx.size**n - 1) // (ctx.size - 1)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert len(p) == n and normalize_point(ctx, p) == p


def test_subspace_intersection(f7):
    a = span_points(f7, [(1, 0, 0, 0), (0, 1, 0, 0)], 3)
    b = span_points(f7, [(0, 1, 0, 0), (0, 0, 1, 0)], 3)
    meet = subspace_intersection(a, b)
    assert meet.pdim == 0
    assert subspace_contains(meet, (0, 1, 0, 0))


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def _form(ctx, n, terms):
    """Build sum of c * x_i * x_j from (i, j, c) triples."""
    gram = [[0] * n for _ in range(n)]
    half = ctx.inv(2)
    for i, j, c in terms:
        if i == j:
            gram[i][i] = ctx.add(gram[i][i], c % ctx.size)
        else:
            val = ctx.mul(half, c % ctx.size)
            gram[i][j] = ctx.add(gram[i][j], val)
            gram[j][i] = ctx.add(gram[j][i], val)
    return QForm(ctx, n, tuple(tuple(r) for r in gram))


def test_polarize_mixed_term(f7):
    q = _form(f7, 2, [(0, 1, 1)])  # x0*x1
    assert polarize(q, (1, 0), (0, 1)) == 1


def test_polarize_self_is_twice_value(f7):
    rng = random.Random(5)
    q = _form(f7, 3, [(0, 0, 2), (1, 2, 3), (0, 2, 5)])
    for _ in range(20):
        p = tuple(rng.randrange(7) for _ in range(3))
        assert polarize(q, p, p) == f7.add(q.evaluate(p), q.evaluate(p))


def test_polarize_specific(f7):
    q = _form(f7, 3, [(0, 2, 1), (1, 1, -1)])  # x0*x2 - x1^2
    assert polarize(q, (1, 0, 0), (0, 0, 1)) == 1


def test_polarize_definitional_identity():
    rng = random.Random(11)
    for ctx in (field_make(7, 1), field_make(5, 2)):
        for _ in range(30):
            n = rng.randrange(2, 5)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = ctx.rand(rng)
                    gram[i][j] = v
                    gram[j][i] = v
            q = QForm(ctx, n, tuple(tuple(r) for r in gram))
            p = tuple(ctx.rand(rng) for _ in range(n))
            v = tuple(ctx.rand(rng) for _ in range(n))
            pv = tuple(ctx.add(a, b) for a, b in zip(p, v))
            lhs = polarize(q, p, v)
            rhs = ctx.sub(ctx.sub(q.evaluate(pv), q.evaluate(p)), q.evaluate(v))
            assert lhs == rhs


def test_restrict_to_coordinate_line(f7):
    q = _form(f7, 2, [(0, 0, 1), (1, 1, 1)])  # x0^2 + x1^2
    s = span_points(f7, [(1, 0)], 1)
    r = qform_restrict(q, s)
    assert r.n_vars == 1 and r.evaluate((1,)) == 1


def test_restrict_drops_middle_variable(f7):
    q = _form(f7, 3, [(0, 2, 1), (1, 1, -1)])  # x0*x2 - x1^2
    s = span_points(f7, [(1, 0, 0), (0, 0, 1)], 2)
    r = qform_restrict(q, s)
    # w0*w1 in the basis coordinates
    assert r.evaluate((1, 1)) == 1
    assert r.evaluate((1, 0)) == 0
    assert qform_rank(r) == 2


def test_restrict_full_space_identity_basis(f7):
    q = _form(f7, 3, [(0, 1, 3), (2, 2, 2)])
    s = span_points(f7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)
    r = qform_restrict(q, s)
    assert r.gram == q.gram


def test_qform_rank_examples(f7):
    assert qform_rank(_form(f7, 2, [(0, 0, 1)])) == 1  # x0^2
    assert qform_rank(_form(f7, 2, [(0, 1, 1)])) == 2  # x0*x1
    assert qform_rank(_form(f7, 4, [(0, 3, 1), (1, 2, -1)])) == 4  # x0*x3 - x1*x2


def test_qform_rank_congruence_invariant():
    rng = random.Random(17)
    ctx = field_make(7, 1)
    trials = 0
    while trials < 100:
        n = rng.randrange(2, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(7)
                gram[i][j] = v
                gram[j][i] = v
        q = QForm(ctx, n, tuple(tuple(r) for r in gram))
        # random invertible matrix
        mat = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        rank, _, _ = row_reduce(ctx, mat, n)
        if rank < n:
            continue
        trials += 1
        sub = LinearSubspace(ctx, n - 1, tuple(tuple(r) for r in mat))
        assert qform_rank(qform_restrict(q, sub)) == qform_rank(q)


def test_qform_rank_stable_under_field_extension():
    ctx = field_make(7, 1)
    ctx2 = field_make(7, 2)
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(7)
                gram[i][j] = v
                gram[j][i] = v
        g = tuple(tuple(r) for r in gram)
        assert qform_rank(QForm(ctx, n, g)) == qform_rank(QForm(ctx2, n, g))


# ---------------------------------------------------------------------------
# binomial generators against the dense reference
# ---------------------------------------------------------------------------


def _binomial_cases(ctx):
    for literal in ("S(3)", "S(2,3)", "S(1,2)+cone(0)", "S(1,1,2)+cone(1)"):
        yield from quadric_generators(parse_scroll(literal), ctx)
    yield from veronese_generators(ctx)


@pytest.mark.parametrize("d", [1, 2])
def test_binomials_match_their_dense_forms(d):
    ctx = field_make(7, d)
    rng = random.Random(70 + d)
    minus_one = ctx.neg(1)
    for b in _binomial_cases(ctx):
        n = b.n_vars
        dense = _form(ctx, n, [(b.i, b.j, 1), (b.k, b.l, minus_one)])

        def vec():
            return tuple(ctx.rand(rng) for _ in range(n))

        for _ in range(10):
            p, v = vec(), vec()
            assert b.evaluate(p) == dense.evaluate(p)
            assert polarize(b, p, v) == polarize(dense, p, v)
            assert b.polar(p) == dense.polar(p)
            # polar from the values alone: Q(p + v) - Q(p) - Q(v)
            pv = tuple(ctx.add(x, y) for x, y in zip(p, v))
            want = ctx.sub(ctx.sub(b.evaluate(pv), b.evaluate(p)), b.evaluate(v))
            assert polarize(b, p, v) == want
        for k in (1, 2, 3, 4):
            rows = [vec() for _ in range(k)]
            if not any(any(r) for r in rows):
                continue
            space = span_points(ctx, rows, n - 1)
            restricted = b.restrict(space)
            assert restricted == qform_restrict(dense, space)
            w = tuple(ctx.rand(rng) for _ in space.rows)
            point = [0] * n
            for c, row in zip(w, space.rows):
                point = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(point, row)]
            assert restricted.evaluate(w) == b.evaluate(point)


def test_binomial_rejects_wrong_lengths(f7):
    b = veronese_generators(f7)[0]
    with pytest.raises(DimensionMismatchError):
        b.evaluate((1, 0, 0))
    with pytest.raises(DimensionMismatchError):
        polarize(b, (1, 0, 0), (1, 0, 0, 0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        b.restrict(span_points(f7, [(1, 0, 0)], 2))
