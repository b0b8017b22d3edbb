"""Tests for the integer primitives."""

from math import gcd

import pytest

from coinfloor.core import CoprimePair, factorize, is_prime


def test_mod_inverse_examples():
    assert CoprimePair(1, 5).inv_a_mod_b == 1
    assert CoprimePair(23, 29).inv_a_mod_b == 24  # 23*24 = 552 = 19*29 + 1
    assert CoprimePair(29, 23).inv_a_mod_b == 4  # canonical representative of 27: 29*27 = 783 = 34*23 + 1
    assert 29 * CoprimePair(29, 23).inv_a_mod_b % 23 == 1
    assert CoprimePair(7, 1).inv_a_mod_b == 0


def test_mod_inverse_property():
    # brute force: the inverse is the only x in [0, m) with a*x == 1 (mod m)
    for m in range(1, 60):
        for a in range(1, 120):
            if gcd(a, m) != 1:
                with pytest.raises(ValueError):
                    CoprimePair(a, m)
                continue
            expected = [x for x in range(m) if a * x % m == 1 % m]
            assert [CoprimePair(a, m).inv_a_mod_b] == expected


def _trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(29)
    assert not is_prime(561)  # 3 * 11 * 17, Carmichael


def test_is_prime_sweep_and_hard_cases():
    for n in range(0, 2000):
        assert is_prime(n) == _trial_division_prime(n)
    assert is_prime(2**31 - 1)
    assert is_prime(10**9 + 7)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(667) == [(23, 1), (29, 1)]
    assert factorize(675) == [(3, 3), (5, 2)]


def test_factorize_roundtrip():
    for n in range(1, 2000):
        factors = factorize(n)
        assert factors == sorted(factors)
        product = 1
        for p, r in factors:
            assert is_prime(p)
            assert r >= 1
            product *= p**r
        assert product == n
    with pytest.raises(ValueError):
        factorize(0)


def test_coprime_pair_validation():
    p = CoprimePair(29, 23)
    assert (p.a, p.b) == (29, 23)
    assert p.inv_a_mod_b == 4  # 29 * 4 = 116 = 5 * 23 + 1
    assert CoprimePair(1, 1).inv_a_mod_b == 0
    for bad in ((0, 5), (5, 0), (-3, 2), (6, 9), (2, 2)):
        with pytest.raises(ValueError):
            CoprimePair(*bad)


def test_coprime_pair_is_immutable():
    p = CoprimePair(3, 5)
    with pytest.raises(Exception):
        p.a = 7  # frozen dataclass

