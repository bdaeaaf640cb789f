"""Acceptance suite: one test per criterion, exact checks, no tolerances.

The sampling criteria share one seeded classification run over the whole
spec matrix at q = 10007 (200 external points per scroll type and vertex
dimension).  Every test prints a single pass line; run with -s to see them.
"""

import random

import numpy as np
import pytest

from conftest import external_point
from scrollsec import (
    classify_with_data,
    field_make,
    project,
    scroll_new,
    stratum_geometric,
)
from scrollsec.cli import main as cli_main
from scrollsec.delpezzo import (
    atlas_enumerate,
    depth_predict,
    is_del_pezzo,
    locus_fills_ambient,
    sample_inside_locus,
    sample_outside_locus,
    sym3_rank,
    veronese_classify,
)
from scrollsec.errors import UnclassifiableSignatureError
from scrollsec.oracle import (
    _expected_count,
    brute_membership,
    brute_secant_locus,
    check_lift_equalities,
    veronese_secant_masks,
)
from scrollsec.secant import SIGNATURE_TABLE, secant_locus_points

MATRIX = [
    (3,),
    (4,),
    (1, 2),
    (1, 3),
    (2, 2),
    (2, 3),
    (1, 1, 1),
    (1, 1, 2),
    (1, 1, 3),
    (1, 2, 3),
    (1, 1, 2, 3),
]
H_VALUES = (-1, 0, 1)
# dim(locus) - h per label, the paper's table of the six types, kept here so
# that criterion 4 checks the program against the paper, not against itself
PAPER_LOCUS_JUMP = {
    "Empty2Z": 0,
    "TwoPoints": 1,
    "DoublePoint": 1,
    "TwoLines": 2,
    "Conic": 2,
    "QuadricSurface": 3,
}
Q = 10007
N_PER_SPEC = 200


@pytest.fixture(scope="module")
def matrix_runs():
    """(a, h) -> list of (point, signature, membership report, depth report)."""
    ctx = field_make(Q, 1)
    runs = {}
    unclassifiable = 0
    for idx, a in enumerate(MATRIX):
        for h in H_VALUES:
            spec = scroll_new(a, h)
            rng = random.Random(10_000 + 37 * idx + (h + 1))
            rows = []
            for _ in range(N_PER_SPEC):
                p = external_point(spec, ctx, rng)
                try:
                    sig, _, _, _ = classify_with_data(spec, ctx, p)
                    report = stratum_geometric(spec, ctx, p)
                except UnclassifiableSignatureError:
                    unclassifiable += 1
                    continue
                depth = depth_predict(spec, sig, report.in_Sec)
                rows.append((p, sig, report, depth))
            runs[(a, h)] = rows
    runs["unclassifiable"] = unclassifiable
    return runs


def test_criterion_1_six_type_exhaustiveness(matrix_runs):
    assert matrix_runs["unclassifiable"] == 0
    total = 0
    for a in MATRIX:
        for h in H_VALUES:
            rows = matrix_runs[(a, h)]
            assert len(rows) == N_PER_SPEC
            for _, sig, _, _ in rows:
                assert (sig.s, sig.rank) in SIGNATURE_TABLE
                total += 1
    print(f"\n[acceptance] criterion 1 (six types, {total} samples, q={Q}): PASS")


def test_criterion_2_stratum_equals_signature(matrix_runs):
    checked = 0
    for a in MATRIX:
        for h in H_VALUES:
            for _, sig, report, _ in matrix_runs[(a, h)]:
                assert report.agrees_with_signature
                assert report.label_geom == sig.label
                if report.in_A:
                    assert report.in_B
                if report.in_B or report.in_U:
                    assert report.in_Tan
                if report.in_Tan:
                    assert report.in_Sec
                checked += 1
    print(f"\n[acceptance] criterion 2 (geometric = signature, {checked} samples): PASS")


ORACLE_SPECS = [
    ((3,), -1),
    ((1, 2), -1),
    ((2, 2), -1),
    ((1, 1, 1), -1),
    ((3,), 0),
    ((1, 2), 0),
]
ORACLE_TABLE_CAP = 20000


def test_criterion_3_oracle_equivalence():
    checked_sets = checked_labels = checked_lifts = 0
    for q in (5, 7):
        ctx = field_make(q, 1)
        for a, h in ORACLE_SPECS:
            spec = scroll_new(a, h)
            rng = random.Random(500 + q + 7 * len(a) + h)
            pts = [external_point(spec, ctx, rng) for _ in range(25)]
            for d in (1, 2):
                ctx_d = field_make(q, d)
                if _expected_count(spec, ctx_d.size) > ORACLE_TABLE_CAP:
                    continue
                for p in pts:
                    brute = brute_secant_locus(spec, ctx_d, p)
                    fast = secant_locus_points(spec, ctx_d, p)
                    assert brute == fast, (q, d, a, h, p)
                    checked_sets += 1
                    if d == 2:
                        brep = brute_membership(spec, ctx_d, p)
                        frep = stratum_geometric(spec, ctx, p)
                        assert brep == frep, (q, a, h, p)
                        checked_labels += 1
                        assert check_lift_equalities(spec, ctx_d, p) == []
                        checked_lifts += 1
    print(
        f"\n[acceptance] criterion 3 (oracle: {checked_sets} locus sets, "
        f"{checked_labels} labels, {checked_lifts} lift checks): PASS"
    )


def test_criterion_4_table_reproduction(matrix_runs):
    seen_smooth_empty = 0
    for a in MATRIX:
        for h in H_VALUES:
            for _, sig, report, depth in matrix_runs[(a, h)]:
                assert sig.locus_dim == h + PAPER_LOCUS_JUMP[sig.label]
                assert depth.depth == sig.locus_dim + 2
                if h == -1 and sig.label == "Empty2Z":
                    assert depth.depth == 1
                    assert not depth.linearly_normal
                    seen_smooth_empty += 1
                else:
                    assert depth.linearly_normal
    assert seen_smooth_empty > 0
    print(
        f"\n[acceptance] criterion 4 (locus dims and depth, "
        f"{seen_smooth_empty} smooth empty cases): PASS"
    )


def test_criterion_5_small_type_properties(matrix_runs):
    rows = matrix_runs[((1, 1, 1), -1)]
    assert all(sig.label == "QuadricSurface" for _, sig, _, _ in rows)
    rows12 = matrix_runs[((1, 2), -1)]
    assert all(sig.locus_dim == 1 for _, sig, _, _ in rows12)
    rows112 = matrix_runs[((1, 1, 2), -1)]
    assert all(sig.locus_dim >= 1 for _, sig, _, _ in rows112)
    # secant-defect inequality on the filling cases: (2n+1) - dim Sec <= dim locus
    for a in ((1, 1, 1), (1, 2), (1, 1, 2)):
        spec = scroll_new(a, -1)
        rows_a = matrix_runs[(a, -1)]
        assert all(rep.in_Sec for _, _, rep, _ in rows_a)  # the secant variety fills
        bound = (2 * spec.n + 1) - spec.ambient
        for _, sig, _, _ in rows_a:
            assert bound <= sig.locus_dim
    print("\n[acceptance] criterion 5 (small-type locus dimensions): PASS")


GOLDEN_ATLAS = [
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


def test_criterion_6_atlas():
    entries = atlas_enumerate(6, 4, 1)
    got = sorted((e.a, e.h, e.case, e.locus_kind) for e in entries)
    want = sorted(
        (a, h, case, kind) for a, case, kind in GOLDEN_ATLAS for h in (-1, 0, 1)
    )
    assert got == want
    for e in entries:
        if e.h == -1:
            assert len(e.a) <= 3
    # sampled verification: 50 inside all maximal, 50 outside none
    ctx = field_make(Q, 1)
    rng = random.Random(606)
    for e in entries:
        spec = scroll_new(e.a, e.h)
        inside_ok = 0
        for _ in range(50):
            p = sample_inside_locus(e.locus_kind, spec, ctx, rng)
            sig, _, _, _ = classify_with_data(spec, ctx, p)
            if is_del_pezzo(spec, sig):
                inside_ok += 1
        assert inside_ok == 50, e
        if not locus_fills_ambient(e.locus_kind, spec):
            for _ in range(50):
                p = sample_outside_locus(e.locus_kind, spec, ctx, rng)
                sig, _, _, _ = classify_with_data(spec, ctx, p)
                assert not is_del_pezzo(spec, sig), (e, p)
    print(f"\n[acceptance] criterion 6 (atlas: {len(entries)} entries, 50/50): PASS")


def _sym_classes(q):
    """Projective representatives of nonzero symmetric 3x3 matrices, packed."""
    reps = []
    for lead in range(6):
        tail = 6 - lead - 1
        grids = np.meshgrid(*([np.arange(q)] * tail), indexing="ij") if tail else []
        block = (
            np.stack([g.ravel() for g in grids], axis=1)
            if tail
            else np.zeros((1, 0), dtype=np.int64)
        )
        rows = np.zeros((block.shape[0], 6), dtype=np.int64)
        rows[:, lead] = 1
        if tail:
            rows[:, lead + 1:] = block
        reps.append(rows)
    return np.concatenate(reps, axis=0)


def test_criterion_7_veronese():
    for q in (7, 11):
        ctx = field_make(q, 1)
        cls = _sym_classes(q)
        assert len(cls) == (q**6 - 1) // (q - 1)
        x00, x11, x22, x01, x02, x12 = (cls[:, i] for i in range(6))
        det = (
            x00 * x11 % q * x22
            + 2 * (x01 * x02 % q * x12)
            - x00 * x12 % q * x12
            - x11 * x02 % q * x02
            - x22 * x01 % q * x01
        ) % q
        # the six 2x2 minors, vanishing exactly on the surface
        minors = np.stack(
            [
                x00 * x11 - x01 * x01,
                x00 * x22 - x02 * x02,
                x11 * x22 - x12 * x12,
                x00 * x12 - x01 * x02,
                x11 * x02 - x01 * x12,
                x22 * x01 - x02 * x12,
            ],
            axis=1,
        ) % q
        on_surface = (minors == 0).all(axis=1)
        rank3 = det != 0
        assert not (on_surface & rank3).any()
        rank2 = ~on_surface & ~rank3
        # elimination-based rank agrees on a deterministic subsample
        rng = random.Random(q)
        for idx in rng.sample(range(len(cls)), 2000):
            m00, m11, m22, m01, m02, m12 = (int(v) for v in cls[idx])
            m = [[m00, m01, m02], [m01, m11, m12], [m02, m12, m22]]
            r = sym3_rank(ctx, m)
            assert (r == 3) == bool(rank3[idx])
            assert (r == 1) == bool(on_surface[idx])
            kind, rep = veronese_classify(m, ctx)
            want = "OnVariety" if r == 1 else ("Conic" if r == 2 else "Empty")
            assert kind == want
        # every rank-2 class has a smooth-conic locus: exactly q + 1 points
        assert (veronese_secant_masks(ctx, cls[rank2]).sum(axis=1) == q + 1).all()
        # and every rank-3 class has an empty locus
        assert not veronese_secant_masks(ctx, cls[rank3]).any()
    print("\n[acceptance] criterion 7 (Veronese ranks over F7 and F11): PASS")


def test_criterion_8_nonnormal_locus(matrix_runs):
    ctx = field_make(Q, 1)
    done = 0
    for a in MATRIX:
        for h in H_VALUES:
            for p, sig, report, _ in matrix_runs[(a, h)]:
                if done >= 50:
                    break
                if not report.in_Sec and h == -1:
                    continue
                spec = scroll_new(a, h)
                _, nonnormal = project(spec, ctx, p)
                assert nonnormal.pdim == sig.sec_dim - 1
                done += 1
    assert done == 50
    print("\n[acceptance] criterion 8 (non-normal locus dimension, 50 points): PASS")


def test_criterion_9_determinism(tmp_path, capsys):
    configs = [
        ["sample", "--scroll", "S(1,2)", "--n", "25", "--q", "101", "--seed", "4"],
        ["classify", "--scroll", "S(3)", "--point", "1,0,0,1", "--q", "7"],
        ["atlas", "--max-deg", "3", "--max-n", "2", "--max-h", "-1",
         "--q", "101", "--verify-samples", "5", "--seed", "2"],
        ["oracle-check", "--scroll", "S(3)", "--q", "5", "--n", "3", "--seed", "8"],
    ]
    for i, argv in enumerate(configs):
        p1 = tmp_path / f"r{i}a.json"
        p2 = tmp_path / f"r{i}b.json"
        assert cli_main(argv + ["--out", str(p1)]) == cli_main(argv + ["--out", str(p2)])
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
    print("\n[acceptance] criterion 9 (byte-identical reports): PASS")
