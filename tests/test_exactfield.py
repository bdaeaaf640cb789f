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
    projective_points,
    qform_rank,
    quadric_generators,
    row_reduce,
    span_points,
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


@pytest.mark.parametrize("n", [10007, 2**31 - 1, 2**61 - 1])
def test_miller_rabin_accepts_primes(n):
    assert exactfield.is_prime(n)
    assert field_make(n, 1).q == n


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051],
                         ids=["carmichael", "spsp_2_3_5_7", "spsp_to_37"])
def test_miller_rabin_rejects_strong_pseudoprimes(n):
    """561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    bases 2, 3, 5 and 7, and 3825123056546413051 to every prime base up to
    37: the base 41 is what decides it."""
    assert not exactfield.is_prime(n)
    with pytest.raises(NonPrimeError):
        field_make(n, 1)


def test_primality_agrees_with_trial_division_below_5000():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if exactfield.is_prime(n)] == [
        n for n in range(5000) if trial(n)]


def test_moduli_beyond_the_primality_bound_are_rejected():
    """The 13 bases decide primality only below 3.3 * 10^24, so the Mersenne
    prime 2^89 - 1 is refused rather than answered."""
    with pytest.raises(NonPrimeError, match="primality bound"):
        exactfield.is_prime(2**89 - 1)
    with pytest.raises(NonPrimeError):
        field_make(2**89 - 1, 1)


def test_extension_field_axioms_exhaustive_small():
    ctx = field_make(3, 2)
    for a in range(ctx.size):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in range(ctx.size):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in range(ctx.size):
                lhs = ctx.mul(a, ctx.add(b, c))
                rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert lhs == rhs


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
        assert ctx.neg(a[:, 0]).tolist() == [ctx.neg(x) for x in range(ctx.size)]


def test_normalize_rows_and_pivot_rows_match_the_scalar_versions():
    """`pivot_rows` divides by its pivots through `normalize_rows`, so both
    are checked on seeded batches over small fields and over GF(101) and
    GF(11^2), whose discrete log tables are larger."""
    import numpy as np

    rng = random.Random(44)
    for ctx in (field_make(7, 1), field_make(5, 2), field_make(101, 1), field_make(11, 2)):
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


def test_normalize_rows_matches_normalize_point_on_whole_spaces():
    """`normalize_rows` divides through discrete log tables.  It equals the
    row-wise `normalize_point` on every point of P^3 over GF(9) and GF(49),
    each scaled by a seeded nonzero scalar, and on a seeded sample of
    vectors over GF(101^2) with a third of the entries zero; zero rows stay
    zero."""
    import numpy as np

    rng = np.random.default_rng(9)
    for q, whole in ((3, True), (7, True), (101, False)):
        ctx = field_make(q, 2)
        if whole:
            points = np.array(list(projective_points(ctx, 4)), dtype=np.int64)
            mat = ctx.mul(points, rng.integers(1, ctx.size, size=(len(points), 1)))
        else:
            mat = rng.integers(0, ctx.size, size=(20000, 4))
            mat[rng.random(mat.shape) < 1 / 3] = 0
        mat = np.vstack([mat, np.zeros((3, 4), dtype=np.int64)])
        got = exactfield.normalize_rows(ctx, mat).tolist()
        want = [list(normalize_point(ctx, row)) if any(row) else row for row in mat.tolist()]
        assert got == want, q
        if whole:
            assert got[:len(points)] == points.tolist()


def test_pivot_rows_picks_exactly_the_rows_outside_the_span_above():
    """A row is picked exactly when the rank of the prefix ending in it
    exceeds the rank of the prefix before it, on whole stacks of matrices
    with zero and repeated rows."""
    import numpy as np

    rng = random.Random(45)

    def random_row(ctx, basis, mat):
        kind = rng.random()
        if kind < 0.15:
            return [0] * len(basis[0])
        if kind < 0.3 and mat:
            return list(rng.choice(mat))
        row = [0] * len(basis[0])
        for b in basis:
            c = ctx.rand(rng)
            row = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(row, b)]
        return row

    for q, d in ((5, 1), (7, 1), (3, 2), (5, 2)):
        ctx = field_make(q, d)
        for _ in range(12):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 6)
            stack = []
            for _ in range(25):
                basis = [[ctx.rand(rng) for _ in range(cols)] for _ in range(rng.randrange(1, 4))]
                mat = []
                for _ in range(rows):
                    mat.append(random_row(ctx, basis, mat))
                stack.append(mat)
            picked = exactfield.pivot_rows(ctx, np.array(stack, dtype=np.int64))
            for mat, got in zip(stack, picked.tolist()):
                ranks = [exactfield.rref(ctx, mat[:j], cols)[0] for j in range(rows + 1)]
                assert got == [ranks[j + 1] > ranks[j] for j in range(rows)]


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
    assert line.contains((1, 3, 0))
    point = span_points(f7, [(1, 0, 0)], 2)
    assert not point.contains((0, 1, 0))
    empty = LinearSubspace(f7, 2, ())
    assert not empty.contains((1, 1, 1))


def test_spans_read_coordinates_mod_the_field_size(f7):
    """A coordinate and its residue mod the field size give the same
    subspace, whose rows are its identity, and the same membership."""
    assert span_points(f7, [(1, 8, 0)], 2) == span_points(f7, [(1, 1, 0)], 2)
    assert span_points(f7, [(1, 0, 0)], 2).contains((1, 7, 0))
    f49 = field_make(7, 2)
    assert span_points(f49, [(1, 59, -1)], 2) == span_points(f49, [(1, 10, 48)], 2)
    assert span_points(f49, [(1, 0, 0)], 2).contains((50, 49, -49))


def test_subspace_contains_dim_mismatch(f7):
    line = span_points(f7, [(1, 0, 0)], 2)
    with pytest.raises(DimensionMismatchError):
        line.contains((1, 0, 0, 0))


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


def _polar_pairing(form, p, v):
    """The coefficient B of l*m in Q(l*p + m*v): the polar of Q at p, dotted with v."""
    ctx = form.ctx
    acc = 0
    for a, b in zip(form.polar(p), v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def test_polarize_mixed_term(f7):
    q = _form(f7, 2, [(0, 1, 1)])  # x0*x1
    assert _polar_pairing(q, (1, 0), (0, 1)) == 1


def test_polarize_self_is_twice_value(f7):
    rng = random.Random(5)
    q = _form(f7, 3, [(0, 0, 2), (1, 2, 3), (0, 2, 5)])
    for _ in range(20):
        p = tuple(rng.randrange(7) for _ in range(3))
        assert _polar_pairing(q, p, p) == f7.add(q.evaluate(p), q.evaluate(p))


def test_polarize_specific(f7):
    q = _form(f7, 3, [(0, 2, 1), (1, 1, -1)])  # x0*x2 - x1^2
    assert _polar_pairing(q, (1, 0, 0), (0, 0, 1)) == 1


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
            lhs = _polar_pairing(q, p, v)
            rhs = ctx.sub(ctx.sub(q.evaluate(pv), q.evaluate(p)), q.evaluate(v))
            assert lhs == rhs


def test_restrict_to_coordinate_line(f7):
    q = _form(f7, 2, [(0, 0, 1), (1, 1, 1)])  # x0^2 + x1^2
    s = span_points(f7, [(1, 0)], 1)
    r = q.restrict(s)
    assert r.n_vars == 1 and r.evaluate((1,)) == 1


def test_restrict_drops_middle_variable(f7):
    q = _form(f7, 3, [(0, 2, 1), (1, 1, -1)])  # x0*x2 - x1^2
    s = span_points(f7, [(1, 0, 0), (0, 0, 1)], 2)
    r = q.restrict(s)
    # w0*w1 in the basis coordinates
    assert r.evaluate((1, 1)) == 1
    assert r.evaluate((1, 0)) == 0
    assert qform_rank(r) == 2


def test_restrict_full_space_identity_basis(f7):
    q = _form(f7, 3, [(0, 1, 3), (2, 2, 2)])
    s = span_points(f7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)
    r = q.restrict(s)
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
        assert qform_rank(q.restrict(sub)) == qform_rank(q)


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
            assert _polar_pairing(b, p, v) == _polar_pairing(dense, p, v)
            assert b.polar(p) == dense.polar(p)
            # polar from the values alone: Q(p + v) - Q(p) - Q(v)
            pv = tuple(ctx.add(x, y) for x, y in zip(p, v))
            want = ctx.sub(ctx.sub(b.evaluate(pv), b.evaluate(p)), b.evaluate(v))
            assert _polar_pairing(b, p, v) == want
        for k in (1, 2, 3, 4):
            rows = [vec() for _ in range(k)]
            if not any(any(r) for r in rows):
                continue
            space = span_points(ctx, rows, n - 1)
            restricted = b.restrict(space)
            assert restricted == dense.restrict(space)
            w = tuple(ctx.rand(rng) for _ in space.rows)
            point = [0] * n
            for c, row in zip(w, space.rows):
                point = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(point, row)]
            assert restricted.evaluate(w) == b.evaluate(point)


def test_binomial_rejects_wrong_lengths(f7):
    b = veronese_generators(f7)[0]
    with pytest.raises(DimensionMismatchError):
        b.evaluate((1, 0, 0))
    for p in ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            b.polar(p)
    with pytest.raises(DimensionMismatchError):
        QForm(f7, 2, ((0, 4), (4, 0))).polar((1,))
    with pytest.raises(DimensionMismatchError):
        b.restrict(span_points(f7, [(1, 0, 0)], 2))


def test_prime_field_kernels_match_the_packed_path():
    """Over GF(q) `_rref`, `row_reduce`, `Binomial.evaluate` and `polar`,
    `_dot` and `normalize_point` run on plain ints mod q.  GF(q) sits inside
    GF(q^2) with the same packing, and an RREF is unique and does not change
    under field extension, so on GF(q) inputs every result must equal the
    GF(q^2) path's: seeded matrices with zero and repeated rows, the
    generators of S(1,1,2) and seeded vectors over four primes.

    The GF(q^2) `_rref` runs on plain ints too, on the two GF(q) components
    of each entry, so it is checked on its own on matrices with entries
    outside GF(q) (`_check_ext_rref`)."""
    rng = random.Random(31)
    for q in (3, 7, 101):
        _check_ext_rref(field_make(q, 2), rng)
    spec = parse_scroll("S(1,1,2)")
    for q in (3, 7, 101, 10007):
        ctx, ext = field_make(q, 1), field_make(q, 2)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            mat = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(cols)]
                   for _ in range(rows)]
            mat += [mat[0], [0] * cols]
            assert exactfield._rref(ctx, mat, cols) == exactfield._rref(ext, mat, cols), (q, mat)
            assert row_reduce(ctx, mat, cols) == row_reduce(ext, mat, cols), (q, mat)
        pairs = zip(quadric_generators(spec, ctx), quadric_generators(spec, ext))
        vecs = [tuple(rng.randrange(q) for _ in range(spec.ambient + 1)) for _ in range(40)]
        for g, g_ext in pairs:
            for v in vecs:
                assert g.evaluate(v) == g_ext.evaluate(v)
                assert g.polar(v) == g_ext.polar(v)
        for u, v in zip(vecs, vecs[1:]):
            assert exactfield._dot(ctx, u, v) == exactfield._dot(ext, u, v)
            if any(u):
                assert normalize_point(ctx, u) == normalize_point(ext, u)


def _check_ext_rref(ext, rng):
    """Seeded matrices over GF(q^2) with entries >= q, zero rows, repeated
    rows and sums of rows: the echelon rows of `_rref` are in RREF, every
    input row reduces to zero against them (`LinearSubspace.reduce`, packed
    `FieldCtx` arithmetic), the rank is the pivot count of the batched
    `pivot_rows`, and the matrix annihilates every kernel row of
    `row_reduce`."""
    import numpy as np

    q, seen_ext = ext.q, 0
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        mat = [[rng.randrange(ext.size) if rng.random() < 0.7 else 0 for _ in range(cols)]
               for _ in range(rows)]
        mat += [mat[0], [0] * cols, [ext.add(a, b) for a, b in zip(mat[0], mat[-1])]]
        rng.shuffle(mat)
        seen_ext += any(x >= q for row in mat for x in row)
        rank, echelon, pivots = exactfield._rref(ext, mat, cols)
        assert rank == len(echelon) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, pc) in enumerate(zip(echelon, pivots)):
            assert all(x == 0 for x in row[:pc]) and row[pc] == 1
            assert all(other[pc] == 0 for k, other in enumerate(echelon) if k != i)
        space = LinearSubspace(ext, cols - 1, tuple(echelon))
        assert all(not any(space.reduce(row)) for row in mat), (q, mat)
        picked = exactfield.pivot_rows(ext, np.array(mat, dtype=np.int64)[None])
        assert int(picked.sum()) == rank, (q, mat)
        r2, ech2, kernel = row_reduce(ext, mat, cols)
        assert (r2, ech2) == (rank, echelon)
        assert len(kernel) == cols - rank
        for v in kernel:
            assert all(exactfield._dot(ext, row, v) == 0 for row in mat), (q, mat, v)
    assert seen_ext > 70


def test_log_exp_tables_are_powers_of_the_least_generator():
    """`_log_exp` builds exp by doubling and searches GF(q^2) for its
    generator from q upward.  On GF(q) and GF(q^2) for q in {3, 5, 7, 11},
    g is the least packed element of order size - 1 (found here by scalar
    powers from 2 upward), exp[k] = g^k for k < 2 (size - 1) with zeros
    above, and log inverts exp with log[0] = 2 (size - 1).  Over GF(101^2)
    exp runs through every nonzero element once and g is not in GF(101)."""
    for q, d in [(q, d) for q in (3, 5, 7, 11) for d in (1, 2)] + [(101, 2)]:
        ctx = field_make(q, d)
        order = ctx.size - 1
        log, exp = exactfield._log_exp(ctx)
        g = int(exp[1])
        assert sorted(exp[:order].tolist()) == list(range(1, ctx.size))
        assert exp[order:2 * order].tolist() == exp[:order].tolist()
        assert not exp[2 * order:].any()
        assert log[0] == 2 * order
        assert log[exp[:order]].tolist() == list(range(order))
        if d == 2:
            assert g >= q
        if ctx.size > 200:
            continue
        x = 1
        for k in range(order):
            assert exp[k] == x, (q, d, k)
            x = ctx.mul(x, g)

        def element_order(a):
            k, x = 1, a
            while x != 1:
                k, x = k + 1, ctx.mul(x, a)
            return k

        assert g == next(a for a in range(2, ctx.size) if element_order(a) == order), (q, d)


# ---------------------------------------------------------------------------
# the rank-one test
# ---------------------------------------------------------------------------


def test_rank_le_one_is_rank_at_most_one():
    """`_rank_le_one` against the rank from `rref`, on seeded sets of rank 0, 1
    and 2: r, zero on its first coordinates, then combinations of r and s,
    with zero vectors before and after, tuples mixed with lists."""
    rng = random.Random(25)
    for ctx in (field_make(7), field_make(7, 2), field_make(10007)):
        assert exactfield._rank_le_one(ctx, [])
        assert exactfield._rank_le_one(ctx, [(0, 0), [0, 0]])
        answers = set()
        for rank in (0, 1, 2) * 60:
            n = rng.randrange(1, 6)
            lead = rng.randrange(n)
            r = [0] * lead + [ctx.rand_nonzero(rng)] + [ctx.rand(rng) for _ in range(n - lead - 1)]
            r = r if rank else [0] * n
            s = [ctx.rand(rng) * (rank > 1) for _ in range(n)]
            vecs = [[0] * n for _ in range(rng.randrange(3))] + [r]
            for _ in range(rng.randrange(4)):
                c, e = ctx.rand(rng), ctx.rand(rng)
                vecs.append([ctx.add(ctx.mul(c, x), ctx.mul(e, y)) for x, y in zip(r, s)])
            vecs += [[0] * n for _ in range(rng.randrange(3))]
            vecs = [tuple(v) if rng.randrange(2) else v for v in vecs]
            expected = exactfield.rref(ctx, vecs, n)[0] <= 1
            assert exactfield._rank_le_one(ctx, vecs) == expected, (ctx, vecs)
            answers.add(expected)
        assert answers == {True, False}
