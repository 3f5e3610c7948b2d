"""The projective line over Z_d: points as free cyclic submodules, counting, incidence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from . import symplectic
from .ring import Modulus, is_unit
from .symplectic import Vector2


def is_admissible(v: Vector2, m: Modulus) -> bool:
    """True iff v = (b, c) is unimodular over Z_d, i.e. gcd(b, c, d) = 1.

    Equivalent formulations: some u, w solve u*b + w*c = 1; v is the first row
    of an invertible 2x2 matrix; v extends to a basis of Z_d^2.  For square-free
    d this is also equivalent to v having a non-zero component pair at every
    prime, i.e. index_set_K(v, m) being empty.
    """
    return math.gcd(v[0], v[1], m.d) == 1


def cyclic_submodule(v: Vector2, m: Modulus) -> frozenset[Vector2]:
    """The orbit Z_d * v = {(u*b, u*c) : u in Z_d}.

    Its size divides d, with size exactly d iff scaling is injective iff v is
    admissible.
    """
    d = m.d
    return frozenset(((u * v[0]) % d, (u * v[1]) % d) for u in range(d))


@dataclass(frozen=True)
class Point:
    """A free cyclic submodule of Z_d^2 (a point of the line).

    ``generator`` is canonical: the lexicographically smallest admissible
    member.  Equality and hashing go through the generator alone.  That agrees
    with member-set equality because Points are built only by
    ``point_through`` and by enumeration, and both store the canonical member.
    """

    generator: Vector2
    members: frozenset[Vector2] = field(compare=False)

    def label(self, d: int) -> str:
        return f"Z{d}({self.generator[0]},{self.generator[1]})"

    def sorted_members(self) -> list[Vector2]:
        return sorted(self.members)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "generator": list(self.generator),
            "members": [list(w) for w in self.sorted_members()],
        }


def point_through(v: Vector2, m: Modulus) -> Point:
    """The point generated by an admissible vector, with canonical generator."""
    d = m.d
    v = (v[0] % d, v[1] % d)
    if not is_admissible(v, m):
        raise ValueError(f"{v} is not admissible mod {d}: gcd = {math.gcd(v[0], v[1], d)}")
    members = cyclic_submodule(v, m)
    gen = min(w for w in members if is_admissible(w, m))
    return Point(generator=gen, members=members)


@lru_cache(maxsize=8)
def _points_cached(m: Modulus) -> tuple[Point, ...]:
    # The admissible members of Z_d*(b, c) are its unit multiples, so the
    # lex-smallest one sits in row g = gcd(b, d) (row 0 when g = d).  In row g,
    # (g, c) and (g, c') share a point iff c' = u*c for a unit u = 1 mod d/g:
    # visit those rows only, and mark each orbit's row-g members as it is found.
    d = m.d
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
            points.append(Point(generator=(g, c), members=cyclic_submodule((g, c), m)))
    return tuple(points)


def enumerate_points(m: Modulus) -> list[Point]:
    """All points of the line over Z_d, ordered by canonical generator.

    Works for any d > 1, and there are ``line_size_formula(m)`` of them.
    """
    return list(_points_cached(m))


def line_size_formula(m: Modulus) -> int:
    """Predicted number of points, d * prod (1 + 1/p): the product of
    p^(n-1) * (p + 1) over p^n || d, i.e. of (p + 1) for square-free d."""
    return math.prod(p ** (n - 1) * (p + 1) for p, n in m.factors)


def _vanishing_gcd(v: Vector2, m: Modulus) -> int:
    """g = gcd(b, c, d), whose primes are exactly the primes that kill v."""
    if not m.square_free:
        raise ValueError(f"index set K requires square-free d, got d={m.d}")
    return math.gcd(v[0], v[1], m.d)


def index_set_K(v: Vector2, m: Modulus) -> frozenset[int]:
    """The 1-based indices k whose prime kills v: b = c = 0 mod p_k.

    These are the indices of the primes of gcd(b, c, d), so K is empty exactly
    when v is admissible.  Every counting formula for square-free d is
    controlled by this set.
    """
    g = _vanishing_gcd(v, m)
    return frozenset(k for k, p in enumerate(m.primes, start=1) if g % p == 0)


def point_count_formula(v: Vector2, m: Modulus) -> int:
    """Predicted number of points containing v: product of (p + 1) over p | gcd(b, c, d)."""
    g = _vanishing_gcd(v, m)
    return math.prod(p + 1 for p in m.primes if g % p == 0)


def perp_size_formula(v: Vector2, m: Modulus) -> int:
    """Predicted perp-set size: d * gcd(b, c, d), i.e. d times the product of the primes in K."""
    return m.d * _vanishing_gcd(v, m)


def points_containing(v: Vector2, m: Modulus) -> list[Point]:
    """All points whose member set contains v, in enumeration order; any d."""
    v = (v[0] % m.d, v[1] % m.d)
    return [p for p in _points_cached(m) if v in p.members]


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


@dataclass(frozen=True)
class NeighbourGraph:
    """Simple undirected graph on the points; edges join distinct neighbouring points."""

    d: int
    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]

    def degree_sequence(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

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
    return NeighbourGraph(d=m.d, vertices=pts, edges=edges)
