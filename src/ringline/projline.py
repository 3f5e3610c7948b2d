"""The projective line over Z_d: points as free cyclic submodules, counting, incidence; any d."""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import accumulate
from typing import Any

from . import symplectic
from .ring import Modulus, Record, is_unit
from .symplectic import Vector2


def is_admissible(v: Vector2, m: Modulus) -> bool:
    """True iff v = (b, c) is unimodular over Z_d, i.e. gcd(b, c, d) = 1.

    Equivalent formulations: some u, w solve u*b + w*c = 1; v is the first row
    of an invertible 2x2 matrix; v extends to a basis of Z_d^2; no prime of d
    divides both coordinates, i.e. index_set_K(v, m) is empty.
    """
    return math.gcd(v[0], v[1], m.d) == 1


def cyclic_submodule(v: Vector2, m: Modulus) -> frozenset[Vector2]:
    """The orbit Z_d * v = {(u*b, u*c) : u in Z_d}.

    Its size divides d, with size exactly d iff scaling is injective iff v is
    admissible.
    """
    d = m.d
    return frozenset(((u * v[0]) % d, (u * v[1]) % d) for u in range(d))


class Point(Record):
    """A free cyclic submodule of Z_d^2 (a point of the line).

    ``generator`` is canonical: the lexicographically smallest admissible
    member.  Equality and hashing go through the generator alone.  That agrees
    with member-set equality because Points are built only by
    ``point_through`` and by enumeration, and both store the canonical member.
    """

    __slots__ = ("generator", "members")

    def _key(self) -> Vector2:
        return self.generator

    def label(self, d: int) -> str:
        return f"Z{d}({self.generator[0]},{self.generator[1]})"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "generator": list(self.generator),
            "members": [list(w) for w in sorted(self.members)],
        }


def point_through(v: Vector2, m: Modulus) -> Point:
    """The point generated by an admissible vector, with canonical generator.

    The admissible members of Z_d * (b, c) are its unit multiples, and the
    first coordinates u*b of those are the residues sharing g = gcd(b, d)
    with d, the least of which is g.  So the canonical generator is (0, 1)
    when b = 0, and otherwise (g, least u*c mod d) over the units u with
    u*b = g, i.e. u = (b/g)^-1 mod d/g: g candidates instead of a scan of
    the d members.
    """
    d = m.d
    b, c = v = (v[0] % d, v[1] % d)
    if not is_admissible(v, m):
        raise ValueError(f"{v} is not admissible mod {d}: gcd = {math.gcd(b, c, d)}")
    g = math.gcd(b, d)
    if g == d:
        gen = (0, 1)
    else:
        step = d // g
        gen = (g, min(u * c % d for u in range(pow(b // g, -1, step), d, step)
                      if math.gcd(u, d) == 1))
    return Point(gen, cyclic_submodule(v, m))


class _Points(tuple):
    # The cached points of one modulus, carrying the incidence state of
    # ``points_containing``: an index lives and dies with its points.  ``index``
    # shadows ``tuple.index``, so no public value is one of these.
    scans = 0
    index: tuple[array, array] | None = None


@lru_cache(maxsize=8)
def _points_cached(m: Modulus) -> _Points:
    # The admissible members of Z_d*(b, c) are its unit multiples, so the
    # lex-smallest one sits in row g = gcd(b, d) (row 0 when g = d).  In row g,
    # (g, c) and (g, c') share a point iff c' = u*c for a unit u = 1 mod d/g:
    # visit those rows only, and mark each orbit's row-g members as it is found.
    # Members are drawn from one table of Z_d^2, so a vector on several points
    # is one tuple, and each set is copied from a set, which sizes its hash
    # table for its final length.
    d = m.d
    vectors = [(b, c) for b in range(d) for c in range(d)]
    points: list[Point] = []
    for g in [0] + [g for g in range(1, d) if d % g == 0]:
        step = d // g if g else 1
        units = [u for u in range(1, d, step) if math.gcd(u, d) == 1]
        seen = bytearray(d)
        for c in range(d):
            if seen[c] or math.gcd(g, c, d) != 1:
                continue
            for u in units:
                seen[u * c % d] = 1
            members = frozenset({vectors[(u * g % d) * d + u * c % d] for u in range(d)})
            points.append(Point((g, c), members))
    return _Points(points)


def enumerate_points(m: Modulus) -> list[Point]:
    """All points of the line over Z_d, ordered by canonical generator.

    Works for any d > 1, and there are ``line_size_formula(m)`` of them.
    """
    return list(_points_cached(m))


def line_size_formula(m: Modulus) -> int:
    """Predicted number of points, d * prod (1 + 1/p) over the primes of d: the
    zero vector lies on every point, so this is ``point_count_formula((0, 0))``."""
    return point_count_formula((0, 0), m)


def index_set_K(v: Vector2, m: Modulus) -> frozenset[int]:
    """The 1-based indices k whose prime kills v: b = c = 0 mod p_k.

    These are the indices of the primes of gcd(b, c, d), at any d, so K is
    empty exactly when v is admissible.
    """
    g = math.gcd(v[0], v[1], m.d)
    return frozenset(k for k, p in enumerate(m.primes, start=1) if g % p == 0)


def point_count_formula(v: Vector2, m: Modulus) -> int:
    """Predicted number of points containing v, any d: with g = gcd(b, c, d),
    the product over p^n || d of p^(n-1) * (p + 1) when p^n | g, and of
    gcd(g, p^n) otherwise; for square-free d, the product of (p + 1) over p | g."""
    g = math.gcd(v[0], v[1], m.d)
    return math.prod(p ** (n - 1) * (p + 1) if g % p**n == 0 else math.gcd(g, p**n)
                     for p, n in m.factors)


def perp_size_formula(v: Vector2, m: Modulus) -> int:
    """Predicted perp-set size, any d: d * gcd(b, c, d)."""
    return m.d * math.gcd(v[0], v[1], m.d)


def _build_incidence(pts: tuple[Point, ...], d: int) -> tuple[array, array]:
    # CSR incidence: the indices of the points through (b, c) are
    # indices[offsets[b*d + c]:offsets[b*d + c + 1]], ascending, since the
    # points are visited in enumeration order.
    counts = [0] * (d * d + 1)
    for p in pts:
        for b, c in p.members:
            counts[b * d + c + 1] += 1
    offsets = array("I", accumulate(counts))
    fill = offsets[:-1]
    indices = array("H" if len(pts) < 1 << 16 else "I")
    indices.frombytes(bytes(indices.itemsize * offsets[-1]))
    for i, p in enumerate(pts):
        for k in [b * d + c for b, c in p.members]:
            indices[fill[k]] = i
            fill[k] += 1
    return offsets, indices


def points_containing(v: Vector2, m: Modulus) -> list[Point]:
    """All points whose member set contains v, in enumeration order; any d.

    The first d queries of a modulus scan every point.  The next one builds an
    incidence index from vector to points (5-12 times the cost of d scans at
    d = 105-330), and it and all later queries read v's points from it.  The
    index lives on the cached tuple of points it was built from, so it is
    dropped with that tuple when the point cache evicts it.  It is built from
    the enumerated members alone, never through ``point_through``, which
    ``verify_theorem1`` compares it with.
    """
    d = m.d
    b, c = v = (v[0] % d, v[1] % d)
    pts = _points_cached(m)
    index = pts.index
    if index is None:
        if pts.scans < d:
            pts.scans += 1
            return [p for p in pts if v in p.members]
        index = pts.index = _build_incidence(pts, d)
    offsets, indices = index
    k = b * d + c
    return [pts[i] for i in indices[offsets[k]:offsets[k + 1]]]


def perp_as_point_union(v: Vector2, m: Modulus) -> frozenset[Vector2]:
    """The union of the member sets of every point through v.

    At every d it lies inside the perp-set of v, and it equals the perp-set for
    every v iff d is square-free; at d = 4, (0, 2) has 8 perp-set members but
    only 6 in points.  The verification harness checks the inclusion at every d
    and the equality at square-free d.
    """
    return frozenset().union(*(p.members for p in points_containing(v, m)))


def is_distant(p: Point, q: Point, m: Modulus) -> bool:
    """True iff the two generators form a basis of Z_d^2 (unit determinant).

    Distant points share only the zero vector; any other pair of distinct
    points shares a non-zero vector and is called neighbouring.
    """
    return is_unit(symplectic.form(p.generator, q.generator, m), m)


class NeighbourGraph(Record):
    """Simple undirected graph on the points; edges join distinct neighbouring points."""

    __slots__ = ("d", "vertices", "edges")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "vertices": [list(p.generator) for p in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = [f"graph line_d{self.d} {{"]
        for i, p in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{p.label(self.d)}"];')
        for i, j in self.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines)


def neighbour_graph(m: Modulus) -> NeighbourGraph:
    """Build the neighbour graph of the line; over a field it is edgeless."""
    pts = _points_cached(m)
    edges = tuple(
        (i, j)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if not is_distant(pts[i], pts[j], m)
    )
    return NeighbourGraph(m.d, tuple(pts), edges)
