"""Arithmetic in Z_d: factorization, units, and the square-free CRT split into fields."""

from __future__ import annotations

import math
from collections import Counter
from typing import Any


class Record:
    """Base of the library's immutable values: fields are the ``__slots__``, set
    once, by position.  Equality and hashing go through ``_key()`` (every field
    unless a class narrows it) and hold only between instances of one class."""

    __slots__ = ()

    def __init__(self, *values: Any) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _fields

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Modulus(Record):
    """A factored modulus d > 1, the arithmetic context threaded through everything.

    ``factors`` holds (prime, multiplicity) pairs with primes strictly increasing,
    and ``primes`` the primes alone.
    For square-free d, ``idempotents`` holds one element e_k of Z_d per prime,
    with e_k = 1 mod p_k and e_k = 0 mod every other prime factor; these are the
    units of the field ideals Z_d * (d / p_k) whose inner direct product is Z_d.
    For non-square-free d there is no such field decomposition and the slot is
    None.  Every field follows from d, so moduli compare and hash by d alone.
    """

    __slots__ = ("d", "factors", "primes", "square_free", "idempotents")

    def _key(self) -> int:
        return self.d

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
    return Modulus(d, tuple(factors), primes, square_free, idempotents)


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

