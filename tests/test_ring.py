import math
import time

import pytest

from ringline.ring import Modulus, is_unit, make_modulus, unit_count


def square_free_moduli(limit):
    return [
        m
        for m in (make_modulus(d) for d in range(2, limit + 1))
        if m.square_free
    ]


def test_make_modulus_six():
    m = make_modulus(6)
    assert m.d == 6
    assert m.factors == ((2, 1), (3, 1))
    assert m.square_free
    assert m.idempotents == (3, 4)
    # the defining congruences, by direct mod-6 arithmetic
    assert 3 % 2 == 1 and 3 % 3 == 0
    assert 4 % 2 == 0 and 4 % 3 == 1
    assert (3 + 4) % 6 == 1
    assert (3 * 3) % 6 == 3 and (4 * 4) % 6 == 4 and (3 * 4) % 6 == 0


def test_make_modulus_prime():
    m = make_modulus(7)
    assert m.factors == ((7, 1),)
    assert m.square_free
    assert m.idempotents == (1,)


def test_make_modulus_not_square_free():
    m = make_modulus(12)
    assert m.factors == ((2, 2), (3, 1))
    assert not m.square_free
    assert m.idempotents is None


@pytest.mark.parametrize("bad", [1, 0, -5])
def test_make_modulus_rejects_small(bad):
    with pytest.raises(ValueError):
        make_modulus(bad)


def test_factorization_reconstructs_d():
    for d in range(2, 500):
        m = make_modulus(d)
        prod = 1
        for p, mult in m.factors:
            prod *= p**mult
            assert all(p % q for q in range(2, int(p**0.5) + 1))
        assert prod == d
        assert list(m.primes) == sorted(m.primes)
        assert m.square_free == all(mult == 1 for _, mult in m.factors)


def trial_division(d):
    # reference factorization: every candidate divisor up to sqrt of the cofactor
    factors, p = [], 2
    while p * p <= d:
        mult = 0
        while d % p == 0:
            d //= p
            mult += 1
        if mult:
            factors.append((p, mult))
        p += 1
    return tuple(factors) + (((d, 1),) if d > 1 else ())


def test_factorization_matches_trial_division():
    for d in range(2, 20001):
        assert make_modulus(d).factors == trial_division(d), d
    # products of two primes near 10^6 (and squares), split by rho not trial division
    for p, q in ((999983, 1000003), (1000003, 1000003), (1000033, 1000037), (43, 1000003)):
        assert make_modulus(p * q).factors == trial_division(p * q)


def test_factor_large_prime_is_fast():
    start = time.perf_counter()
    assert make_modulus(2**61 - 1).factors == ((2**61 - 1, 1),)
    assert make_modulus(3 * 7**2 * (2**61 - 1)).factors == ((3, 1), (7, 2), (2**61 - 1, 1))
    assert time.perf_counter() - start < 1.0


def test_factor_rejects_cofactor_beyond_exact_primality_bound():
    # 2^89 - 1 is prime, but Miller-Rabin on bases 2..41 is proved exact only below 3.3e24
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        make_modulus(2**89 - 1)
    # small primes are removed first, so a large smooth d still factors
    assert make_modulus(2**100 * 3).factors == ((2, 100), (3, 1))


def test_idempotent_identities_exhaustive():
    # orthogonality, idempotency and sum-to-one, exactly, for square-free d <= 210
    for m in square_free_moduli(210):
        es = m.idempotents
        assert es is not None and len(es) == len(m.primes)
        assert sum(es) % m.d == 1
        for i, (p, _) in enumerate(m.factors):
            assert es[i] % p == 1 % p
            assert (es[i] * es[i]) % m.d == es[i]
            for j in range(len(m.primes)):
                if j != i:
                    assert (es[i] * es[j]) % m.d == 0
                    assert es[i] % m.factors[j][0] == 0


def test_is_unit_examples():
    m6 = make_modulus(6)
    assert is_unit(5, m6)
    assert not is_unit(2, m6)
    for d in (2, 6, 7, 30):
        assert is_unit(1, make_modulus(d))


def test_is_unit_matches_gcd_everywhere():
    for d in range(2, 61):
        m = make_modulus(d)
        for x in range(d):
            assert is_unit(x, m) == (math.gcd(x, d) == 1)


def test_unit_count_examples():
    assert unit_count(make_modulus(6)) == 2  # (2-1)(3-1)
    assert unit_count(make_modulus(7)) == 6
    # derived by exhaustive loop
    assert sum(1 for x in range(30) if math.gcd(x, 30) == 1) == 8
    assert unit_count(make_modulus(30)) == 8


def test_unit_count_matches_exhaustive():
    for d in range(2, 61):
        m = make_modulus(d)
        assert unit_count(m) == sum(1 for x in range(d) if math.gcd(x, d) == 1)


def test_unit_iff_all_components_nonzero():
    # the CRT component of x at p_k is x mod p_k
    for m in square_free_moduli(30):
        for x in range(m.d):
            nonzero = all(x % p != 0 for p in m.primes)
            assert is_unit(x, m) == nonzero


def test_modulus_json_shape():
    assert make_modulus(6).to_json_dict() == {
        "d": 6,
        "factors": [[2, 1], [3, 1]],
        "square_free": True,
        "idempotents": [3, 4],
    }
    assert make_modulus(12).to_json_dict() == {
        "d": 12,
        "factors": [[2, 2], [3, 1]],
        "square_free": False,
        "idempotents": None,
    }


def test_modulus_is_hashable_and_value_equal():
    assert make_modulus(6) == make_modulus(6)
    assert hash(make_modulus(6)) == hash(make_modulus(6))
    assert make_modulus(6) != make_modulus(10)
    assert isinstance(make_modulus(6), Modulus)
