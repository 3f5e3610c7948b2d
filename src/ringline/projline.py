"""The projective line over Z_d: points as free cyclic submodules, counting, incidence; any d."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Iterator

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


class Point(symplectic._Solved):
    """A free cyclic submodule of Z_d^2 (a point of the line).

    ``generator`` is canonical: the lexicographically smallest admissible
    member.  Equality and hashing go through the generator alone.  That agrees
    with member-set equality because Points are built only by
    ``point_through`` and by enumeration, and both take the generator from
    ``_generator``.

    The point of an admissible p is perp(p), the vectors orthogonal to p
    (Havlicek & Saniga, J. Phys. A 41 (2008) 015302, at any d).  So a point
    of the line, as ``enumerate_points``, ``points_containing`` and
    ``point_through`` return it, is made from its generator alone, with no
    member set, by ``symplectic._solved`` (see ``symplectic._Solved``).
    """

    __slots__ = ("generator", "members")

    def _key(self) -> Vector2:
        return self.generator

    def label(self, d: int) -> str:
        return f"Z{d}({self.generator[0]},{self.generator[1]})"


def _generator(g: int, x: int, d: int) -> Vector2:
    """The canonical generator of the point through (g, x), for g | d (g = d
    for row 0) and gcd(x, g, d/g) = 1.  (g, x') lies on that point iff
    x' = u*x for a unit u = 1 (mod d/g), which prime by prime holds iff
    x' = x (mod d/g) and x' is prime to g: the least such x' is the generator's."""
    n = d // g
    for y in range(x % n, d, n):
        if math.gcd(y, g) == 1:
            return g % d, y
    raise ValueError(f"({g}, {x}) lies on no point mod {d}")


def point_through(v: Vector2, m: Modulus) -> Point:
    """The point generated by an admissible vector, with canonical generator.

    Its admissible members are the unit multiples of v = (b, c), whose first
    coordinates share g = gcd(b, d) with d, so the least lies in row g: the
    unit u = (b/g)^-1 mod d/g maps v to (g, u*c), which ``_generator`` lifts.
    The point is made from that generator alone, as a point of the line is,
    with no member set: the orbit Z_d*v is the generator's perp-set, which
    ``members`` makes on first read.
    """
    d = m.d
    b, c = v = (v[0] % d, v[1] % d)
    if not is_admissible(v, m):
        raise ValueError(f"{v} is not admissible mod {d}: gcd = {math.gcd(b, c, d)}")
    g = math.gcd(b, d)
    return symplectic._solved(Point, _generator(g, c * pow(b // g, -1, d // g), d), d)


@lru_cache(maxsize=8)
def _points_cached(
    m: Modulus,
) -> tuple[tuple[Point, ...], list[tuple[int, list]], list[tuple[int, int, list]]]:
    # The lex-least admissible member of Z_d*(b, c), a unit multiple, lies in
    # row g = gcd(b, d), keyed d for row 0.  Row g has one point per residue
    # r mod d/g with gcd(r, g, d/g) = 1, generated by ``_generator(g, r, d)``,
    # and is a length-d list whose slot c holds the point of generator
    # (g mod d, c), or None if that is no canonical generator.  Every point is
    # made here from its generator, with no member set, and the rows are never
    # written after this, so every caller of one cached line gets the same
    # objects.  The points tuple lists the row slots in order, which is the
    # order of the generators.  The row table, read by ``points_containing``,
    # has one entry per b: (h, (b/h)^-1 mod d/h, the rows g | h in
    # enumeration order) with h = gcd(b, d), since only those rows can hold a
    # vector (b, c).
    d = m.d
    rows: list[tuple[int, list]] = []
    for g in [d, *(g for g in range(1, d) if d % g == 0)]:
        n = d // g
        row: list[Point | None] = [None] * d
        for r in range(n):
            if math.gcd(r, g, n) == 1:
                p = symplectic._solved(Point, _generator(g, r, d), d)
                row[p.generator[1]] = p
        rows.append((g, row))
    points = tuple(p for _, row in rows for p in row if p is not None)
    dividing = {h: [(g, row) for g, row in rows if h % g == 0] for h, _ in rows}
    table = [(h, pow(b // h, -1, d // h), dividing[h])
             for b in range(d) for h in [math.gcd(b, d)]]
    return points, rows, table


def enumerate_points(m: Modulus) -> list[Point]:
    """All points of the line over Z_d, ordered by canonical generator.

    Works for any d > 1, and there are ``line_size_formula(m)`` of them.  The
    points of a line are made together from their generators, with no member
    set: each point makes its set on first read of ``members`` and keeps it.
    Every call, and every ``points_containing`` query, returns the same
    objects while the line stays cached.
    """
    return list(_points_cached(m)[0])


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


def points_containing(v: Vector2, m: Modulus) -> list[Point]:
    """All points whose member set contains v, in enumeration order; any d.

    The perp-set of an admissible generator p is its point (both have d
    members, and the point lies in the perp-set), so v lies on p's point iff
    form(p, v) = 0.  For p = (g, x) and v = (b, c) that is x*b = c*g (mod d):
    with h = gcd(b, d), only rows g | h can hold v, a row has solutions iff
    h | c*g, and they are x = (c*g/h) * (b/h)^-1 mod d/h plus multiples of d/h.
    A query reads the tau(h) rows g | h, h slots of each, from the row table
    built with the points, and reads no member set.  It returns the points
    kept in the row slots, the objects ``enumerate_points`` returns.
    """
    d = m.d
    b, c = v[0] % d, v[1] % d
    _, _, table = _points_cached(m)
    h, inverse, rows = table[b]
    n = d // h
    return [p for g, row in rows if c * g % h == 0
            for p in row[c * g // h * inverse % n::n] if p is not None]


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
            "edges": self.edges,
        }

    def dot_lines(self) -> Iterator[str]:
        """The lines of ``to_dot``, one at a time, without their newlines."""
        yield f"graph line_d{self.d} {{"
        for i, p in enumerate(self.vertices):
            yield f'  v{i} [label="{p.label(self.d)}"];'
        for i, j in self.edges:
            yield f"  v{i} -- v{j};"
        yield "}"

    def to_dot(self) -> str:
        return "\n".join(self.dot_lines())


def neighbour_graph(m: Modulus) -> NeighbourGraph:
    """Build the neighbour graph of the line; over a field it is edgeless.

    The edges take their ends from one list of vertex indices, so the edges
    at a vertex share one int object instead of each holding a copy (the
    interpreter caches only the ints up to 256)."""
    pts = tuple(enumerate_points(m))
    index = list(range(len(pts)))
    edges = tuple(
        (i, j)
        for i in index
        for j in index[i + 1:]
        if not is_distant(pts[i], pts[j], m)
    )
    return NeighbourGraph(m.d, pts, edges)
