"""Arithmetic in Z_d: factorization, units, and the square-free CRT split into fields."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Modulus:
    """A factored modulus d > 1, the arithmetic context threaded through everything.

    ``factors`` holds (prime, multiplicity) pairs with primes strictly increasing.
    For square-free d, ``idempotents`` holds one element e_k of Z_d per prime,
    with e_k = 1 mod p_k and e_k = 0 mod every other prime factor; these are the
    units of the field ideals Z_d * (d / p_k) whose inner direct product is Z_d.
    For non-square-free d there is no such field decomposition and the slot is
    None.
    """

    d: int
    factors: tuple[tuple[int, int], ...]
    square_free: bool
    idempotents: tuple[int, ...] | None

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def r(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "d": self.d,
            "factors": [[p, m] for p, m in self.factors],
            "square_free": self.square_free,
            "idempotents": list(self.idempotents) if self.idempotents is not None else None,
        }


def make_modulus(d: int) -> Modulus:
    """Factor d by trial division; for square-free d also solve the idempotent congruences.

    Each idempotent is e_k = q * (q^-1 mod p_k) with q = d/p_k, which is 1 mod
    p_k and 0 mod the cofactor.  Trial division is plenty here; d is desk-scale.
    """
    if d <= 1:
        raise ValueError(f"modulus must be an integer > 1, got {d}")
    factors: list[tuple[int, int]] = []
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            mult = 0
            while n % p == 0:
                n //= p
                mult += 1
            factors.append((p, mult))
        p += 1
    if n > 1:
        factors.append((n, 1))
    square_free = all(mult == 1 for _, mult in factors)
    idempotents: tuple[int, ...] | None = None
    if square_free:
        idempotents = tuple((d // p) * pow(d // p, -1, p) % d for p, _ in factors)
    return Modulus(d=d, factors=tuple(factors), square_free=square_free, idempotents=idempotents)


def is_unit(x: int, m: Modulus) -> bool:
    """True iff x is invertible in Z_d, i.e. coprime to d."""
    return math.gcd(x % m.d, m.d) == 1


def unit_count(m: Modulus) -> int:
    """Euler's totient of d.

    For square-free d this is the product of (p_k - 1) over the prime factors;
    the general formula below specializes to that when every multiplicity is 1.
    """
    n = 1
    for p, mult in m.factors:
        n *= (p - 1) * p ** (mult - 1)
    return n


def component(y: int, k: int, m: Modulus) -> int:
    """The k-th CRT component of y (k is 1-based), as a residue mod p_k.

    The field ideal belonging to p_k has a unique isomorphism onto Z_{p_k}; it
    sends y * e_k to y mod p_k, and that residue is what we return.  Components
    are additive and multiplicative: the component of x + y (or x * y) is the
    sum (or product) of components mod p_k.
    """
    if not m.square_free:
        raise ValueError(f"components are defined for square-free d only, got d={m.d}")
    if not 1 <= k <= m.r:
        raise ValueError(f"component index {k} out of range 1..{m.r}")
    return y % m.factors[k - 1][0]


def invert(x: int, m: Modulus) -> int:
    """The inverse of x in Z_d; rejects non-units."""
    x = x % m.d
    g = math.gcd(x, m.d)
    if g != 1:
        raise ValueError(f"{x} is not a unit mod {m.d}: gcd({x}, {m.d}) = {g}")
    return pow(x, -1, m.d)
