"""Arithmetic in Z_d: factorization, units, and the square-free CRT split into fields."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Modulus:
    """A factored modulus d > 1, the arithmetic context threaded through everything.

    ``factors`` holds (prime, multiplicity) pairs with primes strictly increasing,
    and ``primes`` the primes alone.
    For square-free d, ``idempotents`` holds one element e_k of Z_d per prime,
    with e_k = 1 mod p_k and e_k = 0 mod every other prime factor; these are the
    units of the field ideals Z_d * (d / p_k) whose inner direct product is Z_d.
    For non-square-free d there is no such field decomposition and the slot is
    None.
    """

    d: int
    factors: tuple[tuple[int, int], ...]
    primes: tuple[int, ...]
    square_free: bool
    idempotents: tuple[int, ...] | None

    @property
    def r(self) -> int:
        """Number of distinct prime factors."""
        return len(self.primes)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "d": self.d,
            "factors": [[p, m] for p, m in self.factors],
            "square_free": self.square_free,
            "idempotents": list(self.idempotents) if self.idempotents is not None else None,
        }


# The first 13 primes.  Miller-Rabin with these bases is exact below
# _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_EXACT_BELOW with no prime factor <= 41."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor <= 41 (Pollard-Brent rho,
    Brent, BIT 1980): x -> x^2 + c, with c = 1, 2, ... until a factor splits off."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step again one at a time from ys
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n > 1, with repetition, when no prime <= 41 divides n."""
    if n < 43 * 43 or _is_prime(n):
        return [n]
    f = _rho(n)
    return _prime_factors(f) + _prime_factors(n // f)


def make_modulus(d: int) -> Modulus:
    """Factor d; for square-free d also solve the idempotent congruences.

    Trial division by the primes up to 41 leaves a cofactor n with no small
    prime factor.  Deterministic Miller-Rabin settles which parts of n are
    prime in polylog(n) time, and Pollard-Brent rho splits the composite parts
    in about n^(1/4) steps.  Miller-Rabin on these bases is proved exact only
    below 3317044064679887385961981, so a larger n is rejected with ValueError.

    Each idempotent is e_k = q * (q^-1 mod p_k) with q = d/p_k, which is 1 mod
    p_k and 0 mod the cofactor.
    """
    if d <= 1:
        raise ValueError(f"modulus must be an integer > 1, got {d}")
    counts: Counter[int] = Counter()
    n = d
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            counts[p] += 1
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot factor d={d} exactly: after removing the primes up to 41 the cofactor "
            f"{n} is not below {_MR_EXACT_BELOW}, the bound of deterministic Miller-Rabin"
        )
    if n > 1:
        counts.update(_prime_factors(n))
    factors = sorted(counts.items())
    primes = tuple(p for p, _ in factors)
    square_free = all(mult == 1 for _, mult in factors)
    idempotents: tuple[int, ...] | None = None
    if square_free:
        idempotents = tuple((d // p) * pow(d // p, -1, p) % d for p in primes)
    return Modulus(d=d, factors=tuple(factors), primes=primes, square_free=square_free,
                   idempotents=idempotents)


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
