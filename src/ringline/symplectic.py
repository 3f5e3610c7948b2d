"""The module Z_d^2 carrying the alternating bilinear form cb' - c'b, and perp-sets."""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add
from typing import Any, Iterable, Iterator

from .ring import Modulus, Record

Vector2 = tuple[int, int]


def form(v: Vector2, w: Vector2, m: Modulus) -> int:
    """The alternating form [(b,c), (b',c')] = c*b' - c'*b mod d.

    This value is the omega-exponent of the group commutator of X^b Z^c with
    X^b' Z^c', so two operators commute exactly when their vectors are
    orthogonal.  The sign convention is pinned: flipping it would leave every
    perp-set unchanged but negate commutator exponents.
    """
    return (v[1] * w[0] - w[1] * v[0]) % m.d


def is_perp(v: Vector2, w: Vector2, m: Modulus) -> bool:
    """True iff form(v, w) = 0; symmetric, since the form is skew."""
    return form(v, w, m) == 0


class _Solved(Record):
    """A record whose members are the perp-set of its first field, a vector: a
    perp-set from ``perp_set`` or a point of the line.  ``_solved`` makes one
    with d in the ``_d`` slot and no member set; ``members`` is made from
    ``_perp_in_order`` on first read and kept (two threads reading it first
    make equal sets), and ``sorted_members`` streams it.  A clone is solved
    again, equal within one version; a record built by hand sorts its set."""

    __slots__ = ("_d",)

    def __getattr__(self, name: str) -> Any:
        # reached only for an unset slot: ``members`` of an unread solved record
        if name != "members":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        members = frozenset(_perp_in_order(self._vector(), self._d))
        object.__setattr__(self, "members", members)
        return members

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        d = getattr(self, "_d", None)
        return (_solved, (type(self), self._vector(), d)) if d else super().__reduce__()

    def _vector(self) -> Vector2:
        return getattr(self, self.__slots__[0])

    def sorted_members(self) -> Iterable[Vector2]:
        """The members in sorted order.  A solved record yields the solution
        at its vector and makes no set; one built by hand sorts its set."""
        d = getattr(self, "_d", None)
        return _perp_in_order(self._vector(), d) if d else sorted(self.members)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            self.__slots__[0]: list(self._vector()),
            "members": [list(w) for w in self.sorted_members()],
        }


def _solved(cls: type[_Solved], key: Vector2, d: int) -> Any:
    """The ``cls`` record keyed by the vector ``key`` of Z_d^2, reduced mod d,
    with no member set yet.  This is the one writer of ``_d``."""
    record = object.__new__(cls)
    object.__setattr__(record, cls.__slots__[0], key)
    object.__setattr__(record, "_d", d)
    return record


class PerpSet(_Solved):
    """All vectors orthogonal to ``base``; a submodule of Z_d^2 containing Z_d*base.

    ``size``, which ``to_json_dict`` also writes, reads the member set and keeps it."""

    __slots__ = ("base", "members")

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict[str, Any]:
        return {**super().to_json_dict(), "size": self.size}


def perp_set(v: Vector2, m: Modulus) -> PerpSet:
    """The perp-set of v = (b, c): the solutions (b', c') of b*c' = c*b' mod d,
    as ``_perp_in_order`` yields them.  For an admissible v it is the point
    that v generates (both have d members, and the point lies in it), and like
    a point it is made from its base alone and makes its set on first read."""
    d = m.d
    return _solved(PerpSet, (v[0] % d, v[1] % d), d)


# Below this many members per row, _perp_in_order streams each coset whole
# and interleaves them, rather than making a repeat and a range per row: at
# g = 2 and 3 that took 30-45% off a perp-set at d = 210-360, at g = 7 the
# two tie, and from g = 10 on the ranges win (Python 3.11, 2 shared vCPUs).
_FEW_PER_ROW = 8


def _perp_in_order(v: Vector2, d: int) -> Iterator[Vector2]:
    """perp(v) for v = (b, c) reduced mod d, in sorted order, row by row.

    With g = gcd(b, d), n = d/g and k = g/gcd(g, c), a row b' has solutions
    iff g | c*b', that is iff k | b'.  Row k*t has the g solutions t*step mod
    n plus multiples of n, with step = (c/gcd(g, c)) * (b/g)^-1 mod n.  The
    cost is d/k rows, one list comprehension step each for the row's first
    solution, plus the members, which C iterators stream with no bytecode per
    member.  At g = 1 (b a unit) perp(v) is the line {(b', c*b^-1*b')}, one
    member per row, streamed as a ``zip`` of the rows and their solutions;
    below ``_FEW_PER_ROW`` members per row the g cosets are zipped row by row;
    above it each row is a ``range``.  There is no call to ``form``, so
    ``perp_rows``, which reads the form, is an independent build to compare
    with.  b = 0 needs no branch: then n = 1 and every c' solves a solvable
    row.  At a canonical generator these are the members of its point: every
    ``_Solved`` record, a point or a perp-set, reads its members here, and
    ``oracle.verify_witness_construction`` walks every perp(v) here.
    """
    b, c = v
    g = math.gcd(b, d)
    n = d // g
    h = math.gcd(g, c)
    step = c // h * pow(b // g, -1, n) % n
    rows = range(0, d, g // h)
    first = [t * step % n for t in range(len(rows))]
    if g == 1:
        return zip(rows, first)
    if g < _FEW_PER_ROW:
        # one stream per coset j, its members first + j*n, taken a row at a time
        cosets = [zip(rows, map(add, first, repeat(j * n))) for j in range(g)]
        return chain.from_iterable(zip(*cosets))
    return zip(chain.from_iterable(map(repeat, rows, repeat(g))),
               chain.from_iterable(map(range, first, repeat(d), repeat(n))))


def perp_rows(m: Modulus) -> Iterator[tuple[Vector2, list[int]]]:
    """Every vector v of Z_d^2 in row-major order, with its perp-set as d bit rows.

    Bit c' of ``rows[b']`` is set iff form(v, (b', c')) = 0.  By bilinearity
    form((b,c),(b',c')) = form((b,0),(0,c')) + form((0,c),(b',0)), so 2d^2
    calls to ``form`` settle all d^4 pairs: row b' of (b, c) is the set of c'
    whose first term is minus the second, read off a per-b table of d-bit rows.
    """
    d = m.d
    coords = range(d)
    # minus_second[c][b'] = -form((0,c),(b',0)), the value the first term must take
    minus_second = [[-form((0, c), (b2, 0), m) % d for b2 in coords] for c in coords]
    for b in coords:
        # by_value[r] = {c' : form((b,0),(0,c')) = r}, as a d-bit row
        by_value = [0] * d
        for c2 in coords:
            by_value[form((b, 0), (0, c2), m) % d] |= 1 << c2
        for c in coords:
            yield (b, c), [by_value[r] for r in minus_second[c]]
