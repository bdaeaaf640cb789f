"""The benchmark's three workloads: inputs from a seed, one round of work, checks.

A round is the unit every run repeats whole.  `inputs(rnd)` draws the round's
inputs from the workload seed and the round number only; `run(inputs, rec)`
does the work, timing every point and every step that is not a point (table
builds, sampling, atlas enumeration) through `rec`; `check(inputs, outputs)`
returns the problems found, an empty list when every output is right.

Every check compares against the paper or an independent count, never
against stored output of the program.
"""

from __future__ import annotations

import random
from time import perf_counter

from scrollsec import delpezzo, oracle, scroll, secant, strata
from scrollsec.exactfield import field_make, normalize_point

# dim(locus) - h per label (the paper's six types).
LOCUS_JUMP = {
    "Empty2Z": 0,
    "TwoPoints": 1,
    "DoublePoint": 1,
    "TwoLines": 2,
    "Conic": 2,
    "QuadricSurface": 3,
}

# The paper's non-normal Del Pezzo families: (type, case, locus kind), each
# with vertex dimension h in {-1, 0, 1} up to degree 6 and 4 blocks.
DEL_PEZZO_FAMILIES = (
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
)
DEL_PEZZO_TYPES = {a for a, _, _ in DEL_PEZZO_FAMILIES}
H_VALUES = (-1, 0, 1)

# Budget the program's oracle functions pass on to enumerate_points.  The
# tables are built with exactly this argument list so that the points reuse
# them from the cache instead of building them inside a timed point.
ORACLE_BUDGET = 10**7


class Recorder:
    """Wall time of every point and every other step of one round."""

    def __init__(self, tracer=None):
        self.point_s = []
        self.step_s = []
        self.failed = 0
        self.errors = []
        self._tracer = tracer

    def point(self, fn, *args):
        """Run one point; None when the program raised (counted as failed)."""
        if self._tracer is not None:
            self._tracer.point = len(self.point_s) + self.failed
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed point is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.point_s.append(perf_counter() - start)
        return out

    def step(self, fn, *args):
        if self._tracer is not None:
            self._tracer.point = None
        start = perf_counter()
        out = fn(*args)
        self.step_s.append(perf_counter() - start)
        return out


def _rng(*parts) -> random.Random:
    # str seeds hash with sha512, so the stream does not depend on PYTHONHASHSEED
    return random.Random("/".join(str(x) for x in parts))


def external_point(spec, ctx, rng):
    """Uniform random point of the ambient space off the scroll."""
    nv = spec.ambient + 1
    while True:
        p = tuple(ctx.rand(rng) for _ in range(nv))
        if not any(p):
            continue
        p = normalize_point(ctx, p)
        if not scroll.contains(spec, ctx, p):
            return p


def scroll_point_count(a, h: int, size: int) -> int:
    """Points of S(a)+cone(h) over a field with `size` elements.

    The smooth scroll is a P^(n-1)-bundle over P^1; every other point of the
    cone is a vertex point or an affine vertex part over a smooth point.
    """
    smooth = (size + 1) * (size ** len(a) - 1) // (size - 1)
    if h < 0:
        return smooth
    vertex = (size ** (h + 1) - 1) // (size - 1)
    return smooth * size ** (h + 1) + vertex


def projective_points(ctx, nv: int):
    """Normalized representatives of every point of P^(nv-1) over ctx."""
    for lead in range(nv):
        tail = nv - lead - 1
        for k in range(ctx.size ** tail):
            digits = []
            for _ in range(tail):
                k, r = divmod(k, ctx.size)
                digits.append(r)
            yield (0,) * lead + (1,) + tuple(reversed(digits))


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

MATRIX_TYPES = (
    (3,), (4,), (1, 2), (1, 3), (2, 2), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 1, 2, 3),
)
MATRIX_Q = 10007


def _analyse(spec, ctx, p):
    """The analysis `scrollsec classify` gives one point."""
    sig, _, _, _ = secant.classify_with_data(spec, ctx, p)
    report = strata.stratum_geometric(spec, ctx, p)
    depth = delpezzo.depth_predict(spec, sig, report.in_Sec)
    return sig, report, depth, delpezzo.is_del_pezzo(spec, sig)


class Matrix:
    """The acceptance matrix: 11 types x h in {-1, 0, 1}, random points, q = 10007."""

    name = "matrix"
    tail = 0.99

    def __init__(self, seed: int, per_spec: int):
        self.seed = seed
        self.per_spec = per_spec
        self.ctx = field_make(MATRIX_Q, 1)
        self.specs = [scroll.scroll_new(a, h) for a in MATRIX_TYPES for h in H_VALUES]

    def inputs(self, rnd: int):
        out = []
        for spec in self.specs:
            rng = _rng("matrix", self.seed, rnd, spec.a, spec.h)
            out.extend((spec, external_point(spec, self.ctx, rng))
                       for _ in range(self.per_spec))
        return out

    def warm(self, inputs) -> None:
        for spec, p in inputs[::self.per_spec]:
            _analyse(spec, self.ctx, p)

    def run(self, inputs, rec: Recorder):
        return [rec.point(_analyse, spec, self.ctx, p) for spec, p in inputs]

    def check(self, inputs, outputs):
        problems = []
        for (spec, p), out in zip(inputs, outputs):
            if out is None:
                problems.append(f"{scroll.scroll_literal(spec)} {p}: unclassifiable")
                continue
            sig, rep, depth, dp = out
            where = f"{scroll.scroll_literal(spec)} {p}"
            if not rep.agrees_with_signature or rep.label_geom != sig.label:
                problems.append(f"{where}: geometric {rep.label_geom} != {sig.label}")
            nested = ((not rep.in_A or rep.in_B)
                      and (not (rep.in_B or rep.in_U) or rep.in_Tan)
                      and (not rep.in_Tan or rep.in_Sec))
            if not nested:
                problems.append(f"{where}: memberships do not nest: {rep}")
            jump = LOCUS_JUMP.get(sig.label)
            if jump is None or sig.locus_dim != spec.h + jump:
                problems.append(f"{where}: locus dim {sig.locus_dim} for {sig.label}")
                continue
            if spec.h == -1 and sig.label == "Empty2Z":
                if depth.depth != 1 or depth.linearly_normal:
                    problems.append(f"{where}: smooth Empty2Z with {depth}")
            elif depth.depth != sig.locus_dim + 2 or not depth.linearly_normal:
                problems.append(f"{where}: depth {depth.depth}, locus dim {sig.locus_dim}")
            if spec.a == (1, 1, 1) and sig.label != "QuadricSurface":
                problems.append(f"{where}: S(1,1,1) point labelled {sig.label}")
            if dp != (jump == spec.n) or (dp and spec.a not in DEL_PEZZO_TYPES):
                problems.append(f"{where}: Del Pezzo flag {dp} for {sig.label}")
        return problems


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------


def _fills_ambient(a, kind: str) -> bool:
    # chords of the twisted cubic fill P^3, so S(3) and its cones have no outside
    return kind == "full" or a == (3,)


class Atlas:
    """Seeded points inside and outside every Del Pezzo locus of atlas_enumerate(6, 4, 1)."""

    name = "atlas"
    tail = 0.99

    def __init__(self, seed: int, per_entry: int):
        self.seed = seed
        self.per_entry = per_entry
        self.ctx = field_make(MATRIX_Q, 1)

    def inputs(self, rnd: int):
        return rnd

    def warm(self, rnd) -> None:
        for entry in delpezzo.atlas_enumerate(6, 4, 1)[::5]:
            spec = scroll.parse_scroll(entry.scroll)
            p = delpezzo.sample_inside_locus(entry.locus_kind, spec, self.ctx,
                                             _rng("atlas-warm", self.seed))
            secant.classify_with_data(spec, self.ctx, p)

    def run(self, rnd, rec: Recorder):
        ctx = self.ctx
        entries = rec.step(delpezzo.atlas_enumerate, 6, 4, 1)
        results = []
        for i, entry in enumerate(entries):
            spec = scroll.parse_scroll(entry.scroll)
            rng = _rng("atlas", self.seed, rnd, i)
            draws = [(True, delpezzo.sample_inside_locus)] * self.per_entry
            if not _fills_ambient(entry.a, entry.locus_kind):
                draws += [(False, delpezzo.sample_outside_locus)] * self.per_entry
            for inside, sample in draws:
                p = rec.step(sample, entry.locus_kind, spec, ctx, rng)
                if p is None:
                    results.append((entry, spec, inside, None, None))
                    continue
                out = rec.point(secant.classify_with_data, spec, ctx, p)
                sig = out[0] if out is not None else None
                results.append((entry, spec, inside, p, sig))
        return entries, results

    def check(self, rnd, outputs):
        entries, results = outputs
        problems = []
        got = sorted((e.a, e.h, e.case, e.locus_kind) for e in entries)
        want = sorted((a, h, case, kind)
                      for a, case, kind in DEL_PEZZO_FAMILIES for h in H_VALUES)
        if got != want:
            problems.append(f"atlas entries differ from the paper's list: {got}")
        for entry, spec, inside, p, sig in results:
            where = f"{entry.scroll} {'inside' if inside else 'outside'} {p}"
            if p is None:
                problems.append(f"{where}: no point sampled")
            elif sig is None:
                problems.append(f"{where}: unclassifiable")
            elif delpezzo.is_del_pezzo(spec, sig) != inside:
                problems.append(f"{where}: Del Pezzo flag wrong ({sig.label})")
            elif (LOCUS_JUMP[sig.label] == len(entry.a)) != inside:
                problems.append(f"{where}: label {sig.label} contradicts the locus")
        return problems


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_point(spec, q: int, p):
    """`scrollsec oracle-check` on one point: brute force against the fast path."""
    base = field_make(q, 1)
    agree = []
    for d in (1, 2):
        ctx_d = field_make(q, d)
        brute = oracle.brute_secant_locus(spec, ctx_d, p)
        fast = secant.secant_locus_points(spec, ctx_d, p)
        agree.append(brute == fast)
    brute_rep = oracle.brute_membership(spec, field_make(q, 2), p)
    fast_rep = strata.stratum_geometric(spec, base, p)
    lift = oracle.check_lift_equalities(spec, field_make(q, 2), p)
    return fast_rep.label_geom, agree, brute_rep == fast_rep, lift


class Oracle:
    """Brute-force cross-checks: the whole exterior of S(3) over GF(census_q)
    and seeded points of S(1,2)+cone(0) over GF(cone_q), both up to GF(q^2)."""

    name = "oracle"
    tail = 0.95

    def __init__(self, seed: int, census_q: int, cone_q: int, cone_points: int):
        self.seed = seed
        self.census_spec = scroll.scroll_new((3,), -1)
        self.cone_spec = scroll.scroll_new((1, 2), 0)
        self.census_q = census_q
        self.cone_q = cone_q
        self.cone_points = cone_points
        # every table the points read, the cone's base included (lift check)
        self.tables = [(self.census_spec, census_q, 1), (self.census_spec, census_q, 2),
                       (self.cone_spec, cone_q, 1), (self.cone_spec, cone_q, 2),
                       (self.cone_spec.base(), cone_q, 2)]

    def inputs(self, rnd: int):
        ctx = field_make(self.census_q, 1)
        census = [p for p in projective_points(ctx, self.census_spec.ambient + 1)
                  if not scroll.contains(self.census_spec, ctx, p)]
        cone_ctx = field_make(self.cone_q, 1)
        rng = _rng("oracle", self.seed, rnd)
        cone = [external_point(self.cone_spec, cone_ctx, rng)
                for _ in range(self.cone_points)]
        return census, cone

    def warm(self, inputs) -> None:
        census, _ = inputs
        for p in census[:8]:
            _oracle_point(self.census_spec, self.census_q, p)

    def run(self, inputs, rec: Recorder):
        census, cone = inputs
        sizes = [len(rec.step(oracle.enumerate_points, spec, field_make(q, d), ORACLE_BUDGET))
                 for spec, q, d in self.tables]
        census_out = [rec.point(_oracle_point, self.census_spec, self.census_q, p)
                      for p in census]
        cone_out = [rec.point(_oracle_point, self.cone_spec, self.cone_q, p) for p in cone]
        return sizes, census_out, cone_out

    def check(self, inputs, outputs):
        census, cone = inputs
        sizes, census_out, cone_out = outputs
        problems = []
        for (spec, q, d), size in zip(self.tables, sizes):
            want = scroll_point_count(spec.a, spec.h, q ** d)
            if size != want:
                problems.append(f"{scroll.scroll_literal(spec)} over GF({q}^{d}): "
                                f"table has {size} points, expected {want}")
        labels = {}
        for spec, pts, outs in ((self.census_spec, census, census_out),
                                (self.cone_spec, cone, cone_out)):
            for p, out in zip(pts, outs):
                where = f"{scroll.scroll_literal(spec)} {p}"
                if out is None:
                    problems.append(f"{where}: oracle check raised")
                    continue
                label, agree, same_report, lift = out
                if not all(agree):
                    problems.append(f"{where}: brute locus != fast locus {agree}")
                if not same_report:
                    problems.append(f"{where}: brute membership != fast report")
                problems.extend(f"{where}: {msg}" for msg in lift)
                if spec is self.census_spec:
                    labels[label] = labels.get(label, 0) + 1
        q = self.census_q
        want = {"DoublePoint": q * q + q, "TwoPoints": q ** 3 - q}
        if labels != want:
            problems.append(f"S(3) census over GF({q}) is {labels}, expected {want}")
        return problems


def make(name: str, seed: int, quick: bool):
    """The named workload at full size, or at a few points per round."""
    if name == "matrix":
        return Matrix(seed, per_spec=1 if quick else 10)
    if name == "atlas":
        return Atlas(seed, per_entry=1 if quick else 10)
    if name == "oracle":
        if quick:
            return Oracle(seed, census_q=3, cone_q=5, cone_points=1)
        return Oracle(seed, census_q=7, cone_q=7, cone_points=4)
    raise ValueError(f"unknown workload {name!r}")

