"""Tests for the integer primitives."""

import random
import time
from math import gcd

import pytest

from coinfloor import core
from coinfloor.coinproblem import (
    best2_count,
    best_family_point,
    count_representable_upto,
    frobenius_number,
    is_representable,
)
from coinfloor.core import CoprimePair, factorize, is_prime
from coinfloor.jacobi import jacobi_by_definition, jacobi_eisenstein
from oracle import factorize_by_trial_division


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


# The least strong pseudoprime to the witnesses 2..37, where is_prime
# stops: below it the test is exact.
PSI12 = 318665857834031151167461


def test_is_prime_refuses_n_from_the_least_strong_pseudoprime_to_its_witnesses():
    assert PSI12 == 399165290221 * 798330580441
    # psi_12, and psi_13, the least strong pseudoprime to the witnesses 2..41
    for n in (PSI12, 3317044064679887385961981):
        with pytest.raises(ValueError, match=str(PSI12)):
            is_prime(n)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(2**61 - 1)


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


def _assert_factorization(n, factors, prime_cache):
    assert factors == sorted(factors)
    product = 1
    for p, r in factors:
        if p not in prime_cache:
            prime_cache[p] = is_prime(p)
        assert prime_cache[p], (n, p)
        assert r >= 1
        product *= p**r
    assert product == n


def test_factorize_roundtrip_to_1e5():
    # the primes below 2**15 come from a table; every n here factors within it
    primes = {}
    for n in range(1, 10**5 + 1):
        _assert_factorization(n, factorize(n), primes)


# Past the table's last prime (32749) trial division goes on with odd
# numbers, from 2**15 + 1: primes and prime products just above that edge,
# and the slowest inputs under the budget.
_SLOWEST = (9999973 * 9999991, 99999999999973)  # half a second each
_EDGE_CASES = (
    32771, 32779, 32749 * 32771, 32771**2, 32771 * 65537, 32771**2 * 32779,
    2**15 + 1, 2**15 - 1, 32749**2, 32749 * 2**20, 65537**2, 3 * 5 * 32771 * 32779,
    10**14, 10**14 - 1, *_SLOWEST,
)


def _seeded_cases():
    rng = random.Random(20211)
    cases = list(_EDGE_CASES)
    for digits in range(6, 13):
        cases += [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(3)]
    # a prime just above the table times a random cofactor
    cases += [p * rng.randrange(1, 10**8) for p in (32771, 32779, 32783) for _ in range(3)]
    return cases


def test_factorize_past_the_prime_table():
    primes = {}
    cases = _seeded_cases()
    factorizations = {n: factorize(n) for n in cases}
    for n, factors in factorizations.items():
        _assert_factorization(n, factors, primes)
    assert factorizations[32771**2] == [(32771, 2)]
    assert factorizations[32771 * 65537] == [(32771, 1), (65537, 1)]
    assert factorizations[32749 * 32771] == [(32749, 1), (32771, 1)]
    # the definition oracle factorizes b again for each numerator
    rng = random.Random(7)
    for b in cases:
        if b % 2 == 0 or b in _SLOWEST:
            continue
        numerators = [1, 3, b - 2, b + 2, 32771, 65537] + [rng.randrange(1, b) | 1 for _ in range(2)]
        for a in numerators:
            if gcd(a, b) == 1:
                assert jacobi_by_definition(a, b) == jacobi_eisenstein(a, b), (a, b)


def test_factorize_matches_the_trial_division_oracle():
    # the table's primes are tried first, then the odd numbers; cover every
    # n up to 1e5, both sides of the table's end (32749 is its last prime,
    # 32771 the first prime past it), products and squares of table
    # primes, and random n up to 1e12
    primes = core._small_primes()
    assert len(primes) == 3512 and primes[-1] == 32749
    rng = random.Random(191)
    table = [rng.choice(primes) for _ in range(40)]
    cases = [
        *range(1, 10**5 + 1),
        *range(2**15 - 40, 2**15 + 41),
        *(p * p for p in table[:10]),
        *(p * q for p, q in zip(table[10:20], table[20:30])),
        *(p * p * q for p, q in zip(table[30:35], table[35:40])),
        32749**2, 32719 * 32749, 2**40, 3**25, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37,
        32771, 32779, 32783, 32771 * 32779, 32749 * 32771, 32771**2 * 3,
        *(rng.randrange(1, 10**12) for _ in range(30)),
    ]
    for n in cases:
        assert factorize(n) == factorize_by_trial_division(n), n


def test_factorize_refuses_past_its_budget():
    assert factorize(10**14) == [(2, 14), (5, 14)]
    for n in (10**14 + 1, 10**20 + 39):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"n = {n} is over the budget of 100000000000000"):
            factorize(n)
        assert time.perf_counter() - t0 < 1.0


def test_coprime_pair_validation():
    p = CoprimePair(29, 23)
    assert (p.a, p.b) == (29, 23)
    assert p.inv_a_mod_b == 4  # 29 * 4 = 116 = 5 * 23 + 1
    assert CoprimePair(1, 1).inv_a_mod_b == 0
    for bad in ((0, 5), (5, 0), (-3, 2), (6, 9), (2, 2)):
        with pytest.raises(ValueError):
            CoprimePair(*bad)
    # up to 60 digits an operand is written out, past that named by its size
    cases = (
        ((6, 9), "(6, 9) are not coprime"),
        ((-3, 2), "pair members must be positive, got (-3, 2)"),
        ((10**60 - 1, 3), f"({10**60 - 1}, 3) are not coprime"),
        ((2 * 10**60, 2), "(<201-bit integer>, 2) are not coprime"),
        ((-(10**60), 1), "pair members must be positive, got (-<200-bit integer>, 1)"),
    )
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            CoprimePair(*args)
        assert str(info.value) == message


def test_coprime_pair_is_immutable():
    p = CoprimePair(3, 5)
    with pytest.raises(Exception):
        p.a = 7  # frozen dataclass



def test_coprime_pair_computes_its_inverse_on_first_read():
    rng = random.Random(300)
    while True:
        b = rng.randrange(10**299, 10**300)
        a = rng.randrange(b + 1, 10**300)
        if gcd(a, b) == 1:
            break
    pair = CoprimePair(a, b)
    best_family_point(pair, 5)
    best2_count(pair, a // 2 + 1)
    frobenius_number(pair)
    assert "inv_a_mod_b" not in vars(pair)
    assert pair == CoprimePair(a, b) and hash(pair) == hash((a, b))
    assert repr(pair) == f"CoprimePair(a={a}, b={b})"
    is_representable(pair, a * b + 5)
    assert vars(pair)["inv_a_mod_b"] == pow(a, -1, b) == pair.inv_a_mod_b
    assert list(vars(pair)) == ["a", "b", "inv_a_mod_b"]
    # still one pair value, and still read-only
    assert pair == CoprimePair(a, b) and hash(pair) == hash(CoprimePair(a, b))
    with pytest.raises(AttributeError):
        pair.inv_a_mod_b = 1


def test_coprime_pair_refuses_the_inverse_past_its_budget():
    # pow(1, -1, b) is one step, so the limit itself is cheap to read
    limit = core._INVERSE_MAX_BITS
    assert CoprimePair(1, (1 << limit) - 1).inv_a_mod_b == 1
    b = (1 << limit) + 1
    pair = CoprimePair(b + 2, b)
    with pytest.raises(ValueError, match=f"limit of {limit} bits"):
        is_representable(pair, 1)
    assert "inv_a_mod_b" not in vars(pair)
    # the routes that never read the inverse still answer at this size
    a = b + 2
    assert frobenius_number(pair) == a * b - a - b
    assert count_representable_upto(pair, a * b) == a * b + 1 - (a - 1) * (b - 1) // 2
    assert best_family_point(pair, 1).n0 == (b * (1 + a) // (2 * a)) * 2 - b + 1
    assert "inv_a_mod_b" not in vars(pair)
