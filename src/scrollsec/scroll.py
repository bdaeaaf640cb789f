"""Rational normal scrolls S(a_1,...,a_n), their cones, and the attached data.

Coordinate convention: the vertex block of h+1 coordinates comes first, then
one block of a_i + 1 coordinates per parameter degree a_i, in the sorted order
of the type.  With this layout the distinguished subspaces (the span of the
degree-1 part, the span of the degree-2 part) and the vertex projection are
plain coordinate deletions.

A scroll point is parametrized by x = (s:t) on the line, fiber coordinates u,
and vertex coordinates z; its embedding is z + sum_i u_i * v_i(s,t) where
v_i(s,t) = (s^a_i, s^(a_i-1) t, ..., t^a_i).  The scroll itself is cut out by
the 2x2 minors of the 2 x deg block matrix whose block i has top row
x_{i,0..a_i-1} and bottom row x_{i,1..a_i}; the vertex variables never occur.
That determinantal description is not assumed: the test suite checks it
against the parametrization point-for-point over small fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CodimTooSmallError,
    DimensionMismatchError,
    EmptyTypeError,
    ScrollParseError,
    VertexPointError,
    ZeroVectorError,
)
from .exactfield import Binomial, FieldCtx, LinearSubspace, span_points, unit_rows

__all__ = [
    "ScrollSpec",
    "ScrollPoint",
    "scroll_new",
    "parse_scroll",
    "scroll_literal",
    "embed",
    "quadric_generators",
    "contains",
    "ruling_subspace",
    "tangent_space",
    "special_subspaces",
    "random_scroll_point",
]


@dataclass(frozen=True)
class ScrollSpec:
    """Combinatorial type of a scroll: degrees a (nondecreasing) and vertex dim h."""

    a: tuple
    h: int

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def deg(self) -> int:
        return sum(self.a)

    @property
    def ambient(self) -> int:
        """Projective dimension N of the ambient space."""
        return self.deg + self.n + self.h

    @property
    def dim(self) -> int:
        return self.n + self.h + 1

    @property
    def k(self) -> int:
        """Number of degree-1 blocks."""
        return sum(1 for x in self.a if x == 1)

    @property
    def m(self) -> int:
        """Index of the last block of degree <= 2."""
        return sum(1 for x in self.a if x <= 2)

    @property
    def vertex_size(self) -> int:
        return self.h + 1

    @property
    def block_starts(self) -> tuple:
        starts = []
        pos = self.h + 1
        for ai in self.a:
            starts.append(pos)
            pos += ai + 1
        return tuple(starts)

    def base(self) -> "ScrollSpec":
        """The smooth scroll this one is a cone over (itself when smooth)."""
        return self if self.h == -1 else ScrollSpec(self.a, -1)


def scroll_new(a, h: int = -1) -> ScrollSpec:
    """Validate and build a scroll type; degrees sum must be at least 3."""
    a = tuple(sorted(int(x) for x in a))
    if not a:
        raise EmptyTypeError("scroll type needs at least one degree")
    if any(x < 1 for x in a):
        raise EmptyTypeError("scroll degrees must be >= 1")
    if sum(a) < 3:
        raise CodimTooSmallError(
            f"sum of degrees is {sum(a)} < 3, codimension would be < 2"
        )
    if h < -1:
        raise EmptyTypeError("vertex dimension must be >= -1")
    return ScrollSpec(a, h)


_SCROLL_RE = re.compile(r"^S\(([0-9,\s]+)\)(?:\+cone\((\-?\d+)\))?$")


def parse_scroll(text: str) -> ScrollSpec:
    """Parse literals like "S(1,2)" or "S(3)+cone(0)"."""
    m = _SCROLL_RE.match(text.strip())
    if not m:
        raise ScrollParseError(f"cannot parse scroll literal {text!r}")
    try:
        a = [int(x) for x in m.group(1).split(",")]
    except ValueError as exc:
        raise ScrollParseError(f"bad degree list in {text!r}") from exc
    h = int(m.group(2)) if m.group(2) is not None else -1
    try:
        return scroll_new(a, h)
    except (CodimTooSmallError, EmptyTypeError) as exc:
        raise ScrollParseError(str(exc)) from exc


def scroll_literal(spec: ScrollSpec) -> str:
    body = "S(%s)" % ",".join(str(x) for x in spec.a)
    if spec.h >= 0:
        body += f"+cone({spec.h})"
    return body


@dataclass(frozen=True)
class ScrollPoint:
    """Parameter data of a scroll point: x = (s, t), fiber u, vertex z.

    A pure vertex point has x = (0, 0) and u all zero; otherwise x must be
    nonzero.
    """

    x: tuple
    u: tuple
    z: tuple

    def is_vertex(self) -> bool:
        return not any(self.u)


def embed(spec: ScrollSpec, ctx: FieldCtx, pt: ScrollPoint) -> tuple:
    """Homogeneous coordinates of a scroll point in P^N."""
    s, t = pt.x
    coords = [0] * (spec.ambient + 1)
    for i, zi in enumerate(pt.z):
        coords[i] = zi % ctx.size
    if any(pt.u):
        if not s and not t:
            raise ZeroVectorError("non-vertex point needs (s,t) != (0,0)")
        for i, ai in enumerate(spec.a):
            ui = pt.u[i]
            if not ui:
                continue
            start = spec.block_starts[i]
            mon = _monomials(ctx, s, t, ai)
            for j in range(ai + 1):
                coords[start + j] = ctx.mul(ui, mon[j])
    if not any(coords):
        raise ZeroVectorError("scroll point embeds to the zero vector")
    return tuple(coords)


def _monomials(ctx: FieldCtx, s: int, t: int, a: int):
    """(s^a, s^(a-1) t, ..., t^a); for a >= 1, s and t may be packed arrays."""
    spow = [1]
    tpow = [1]
    for _ in range(a):
        spow.append(ctx.mul(spow[-1], s))
        tpow.append(ctx.mul(tpow[-1], t))
    return [ctx.mul(spow[a - j], tpow[j]) for j in range(a + 1)]


@lru_cache(maxsize=64)
def quadric_generators(spec: ScrollSpec, ctx: FieldCtx) -> tuple:
    """The C(deg, 2) quadric minors cutting out the scroll, as binomials.

    Column c of the block matrix is (x_top[c], x_(top[c]+1)); the minor of
    columns c < d is x_top[c] x_(top[d]+1) - x_top[d] x_(top[c]+1).
    """
    top = [start + j for start, ai in zip(spec.block_starts, spec.a) for j in range(ai)]
    nv = spec.ambient + 1
    return tuple(
        Binomial(ctx, nv, top[c], top[d] + 1, top[d], top[c] + 1)
        for c in range(len(top))
        for d in range(c + 1, len(top))
    )


def contains(spec: ScrollSpec, ctx: FieldCtx, p) -> bool:
    """True when every quadric generator vanishes at p."""
    if len(p) != spec.ambient + 1:
        raise DimensionMismatchError("point has the wrong number of coordinates")
    if not any(p):
        raise ZeroVectorError("zero vector is not a projective point")
    return all(not g.evaluate(p) for g in quadric_generators(spec, ctx))


def _ruling_rows(spec: ScrollSpec, ctx: FieldCtx, x) -> list:
    """The vertex unit rows and the n block vectors v_i(x): a basis of the ruling."""
    rows = unit_rows(spec.ambient + 1, range(spec.vertex_size))
    for start, ai in zip(spec.block_starts, spec.a):
        e = [0] * (spec.ambient + 1)
        e[start:start + ai + 1] = _monomials(ctx, x[0], x[1], ai)
        rows.append(tuple(e))
    return rows


def ruling_subspace(spec: ScrollSpec, ctx: FieldCtx, x) -> LinearSubspace:
    """The ruling over x in P^1: span of the vertex and the n block vectors v_i(x)."""
    s, t = x
    if not s and not t:
        raise ZeroVectorError("ruling needs (s,t) != (0,0)")
    return span_points(ctx, _ruling_rows(spec, ctx, x), spec.ambient)


def tangent_space(spec: ScrollSpec, ctx: FieldCtx, pt: ScrollPoint) -> LinearSubspace:
    """Projective tangent space at a smooth (non-vertex) point.

    Row span of the Jacobian of the affine-cone parametrization with respect
    to (s, t, u, z); projective dimension n + h + 1.
    """
    if pt.is_vertex():
        raise VertexPointError("tangent space is not defined at a vertex point")
    s, t = pt.x
    q = ctx.q
    ds = [0] * (spec.ambient + 1)
    dt = [0] * (spec.ambient + 1)
    for ui, start, ai in zip(pt.u, spec.block_starts, spec.a):
        # with m the degree-(a-1) monomials: d/ds s^(a-j) t^j = (a-j) m[j],
        # d/dt s^(a-j-1) t^(j+1) = (j+1) m[j]
        for j, mj in enumerate(_monomials(ctx, s, t, ai - 1)):
            ds[start + j] = ctx.mul(ui, ctx.mul((ai - j) % q, mj))
            dt[start + j + 1] = ctx.mul(ui, ctx.mul((j + 1) % q, mj))
    return span_points(ctx, _ruling_rows(spec, ctx, pt.x) + [ds, dt], spec.ambient)


def special_subspaces(spec: ScrollSpec, ctx: FieldCtx) -> dict:
    """Coordinate data of the distinguished subspaces.

    A: vertex block plus all degree-1 blocks (empty when h = -1 and k = 0);
    S2span: the degree-2 blocks; block_index_map: coordinate ranges per class.
    """
    nv = spec.ambient + 1
    one_cols = list(range(spec.vertex_size))
    two_cols = []
    high_cols = []
    one_blocks, two_blocks, high_blocks = [], [], []
    for i, ai in enumerate(spec.a):
        start = spec.block_starts[i]
        cols = list(range(start, start + ai + 1))
        if ai == 1:
            one_cols.extend(cols)
            one_blocks.append(i)
        elif ai == 2:
            two_cols.extend(cols)
            two_blocks.append(i)
        else:
            high_cols.extend(cols)
            high_blocks.append(i)

    def coord_space(cols):
        return LinearSubspace(ctx, spec.ambient, tuple(unit_rows(nv, cols)))

    return {
        "A": coord_space(one_cols),
        "S2span": coord_space(two_cols),
        "block_index_map": {
            "vertex": tuple(range(spec.vertex_size)),
            "one_blocks": tuple(one_blocks),
            "two_blocks": tuple(two_blocks),
            "higher_blocks": tuple(high_blocks),
            "block_starts": spec.block_starts,
        },
    }


def random_scroll_point(spec: ScrollSpec, ctx: FieldCtx, rng) -> ScrollPoint:
    """Uniform-ish random point: random fiber, random fiber direction, random vertex part."""
    while True:
        s = ctx.rand(rng)
        t = ctx.rand(rng)
        if s or t:
            break
    while True:
        u = tuple(ctx.rand(rng) for _ in range(spec.n))
        if any(u):
            break
    z = tuple(ctx.rand(rng) for _ in range(spec.vertex_size))
    return ScrollPoint((s, t), u, z)
