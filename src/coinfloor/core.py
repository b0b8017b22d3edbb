"""Exact integer primitives shared by the rest of the package.

Deterministic primality, factorization by one trial-division loop, and
the validated coprime-pair value object used as a parameter everywhere.
gcd, modular inverses and modular powers come from the stdlib (math.gcd and
pow).  All functions are pure; all values are immutable after construction.

The package's records derive from _Record here, the one immutable
base: plain classes whose __init__ fills __dict__ in field order, with a
repr, value equality and a value hash over _fields; a record that holds
a list is unhashable.  They stand in for dataclasses, whose import
(inspect with it) costs each CLI process several milliseconds.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from itertools import chain, count

from .floorsum import _shown

__all__ = [
    "is_prime",
    "factorize",
    "CoprimePair",
]


# Strong-pseudoprime witnesses: the primes 2..37 make the test deterministic
# below _PRIME_MAX, the least strong pseudoprime to all twelve (3.2e23); it is
# 399165290221 * 798330580441.  Reaching 3.3e24 would take 41 as well.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_MAX = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test (fixed-witness strong pseudoprime test).

    Exact for n < _PRIME_MAX (318665857834031151167461, about 3.2e23); n
    from there on raises ValueError before any work.
    """
    if n >= _PRIME_MAX:
        raise ValueError(f"n = {_shown(n)} is not below {_PRIME_MAX}, the least strong pseudoprime "
                         "to the witnesses 2..37, up to which is_prime is exact")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# factorize divides by the primes below this first, then by odd numbers.
_PRIME_TABLE_END = 1 << 15

# Largest n factorize takes: trial division up to sqrt(n) = 10**7 stays
# under a second.
_FACTOR_MAX_N = 10**14


@cache
def _small_primes() -> memoryview:
    """The primes below _PRIME_TABLE_END as unsigned shorts (3512 of them,
    7 KB), sieved on the first call.  A memoryview over packed bytes, not
    an array: importing array adds about 70 KB to the process's RSS.

    The sieve runs on the numbers' low bytes and sets those it strikes
    out to 0; a low byte that is 0 anyway is a multiple of 256, never a
    prime.  Deleting the zeros leaves the primes' low bytes, and their
    high bytes follow from the count of primes in each block of 256, so
    no Python-level step is taken per number or per prime.  Every
    GridSpec reads the table, so this is part of each verify set-up: it
    takes 0.4 ms, against 1.9 ms for a compress over one int per number
    (2-core VM, Python 3.11.7).
    """
    n = _PRIME_TABLE_END
    low = bytearray(range(256)) * (n >> 8)
    low[1] = 0
    for p in range(2, math.isqrt(n - 1) + 1):
        if low[p]:
            low[p * p::p] = bytes(len(range(p * p, n, p)))
    high = b"".join(bytes([h]) * (256 - low.count(0, h << 8, h + 1 << 8)) for h in range(n >> 8))
    packed = bytearray(2 * len(high))
    packed[sys.byteorder == "big"::2], packed[sys.byteorder == "little"::2] = low.translate(None, b"\0"), high
    return memoryview(packed).cast("H")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, multiplicity) pairs, primes ascending.

    factorize(1) = [].  Trial division in one loop: by the primes below
    2**15, then by the odd numbers past them, up to the square root of
    what is left, which is taken again after each prime that divides.
    It is O(sqrt(n)), so n over _FACTOR_MAX_N (10**14) raises ValueError
    before any work.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {_shown(n)}")
    if n > _FACTOR_MAX_N:
        raise ValueError(f"n = {_shown(n)} is over the budget of {_FACTOR_MAX_N} "
                         "for factorizing by trial division")
    out: list[tuple[int, int]] = []
    limit = math.isqrt(n)
    for p in chain(_small_primes(), count(_PRIME_TABLE_END + 1, 2)):
        if p > limit:
            break
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
            limit = math.isqrt(n)
    if n > 1:
        out.append((n, 1))
    return out


class _Record:
    """Immutable value record: repr, equality and hash over the fields
    named in _fields.

    Equal records have the same class and equal fields.  The hash is that
    of the field values, so a record that holds a list is unhashable, as
    the list is.  Assignment and deletion after __init__ are refused;
    __init__ writes its fields through vars(self), which bypasses
    __setattr__.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


# Largest pair.b, in bits, whose inverse _Inverse computes: pow(a, -1, b)
# is quadratic in it and takes about 2 s there.
_INVERSE_MAX_BITS = 180_000


class _Inverse:
    """CoprimePair.inv_a_mod_b: computed on the first read of a pair and
    stored in its vars(), where every later read finds it first, as this
    descriptor defines no __set__.  Cheaper on that first read than a
    __getattr__, which is reached only after a failed lookup has built an
    AttributeError, and than functools.cached_property, which takes a lock
    through 3.11: a pair's construction plus first read costs 1.0 us
    against 1.4 us with it (2-core VM, Python 3.11.7).  A b of over _INVERSE_MAX_BITS
    bits raises ValueError on that read, before any work."""

    def __get__(self, pair: CoprimePair | None, owner: type) -> int | _Inverse:
        if pair is None:  # read on the class
            return self
        if pair.b.bit_length() > _INVERSE_MAX_BITS:
            raise ValueError(f"b has {pair.b.bit_length()} bits, over the limit of "
                             f"{_INVERSE_MAX_BITS} bits for the inverse of a mod b")
        inv = vars(pair)["inv_a_mod_b"] = pow(pair.a, -1, pair.b)
        return inv


class CoprimePair(_Record):
    """A validated pair (a, b) of positive coprime integers.

    The inverse of a modulo b, inv_a_mod_b, backs the O(1)
    representability and solution-count formulas.  It is computed on its
    first read and kept: at 300 digits pow(a, -1, b) costs about 20 gcds,
    and the family-point, Frobenius and past-Frobenius N0 routes never read
    it, so they answer at any size.  It takes no part in the repr or in
    equality.
    """

    _fields = ("a", "b")
    inv_a_mod_b = _Inverse()

    def __init__(self, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"pair members must be positive, got ({_shown(a)}, {_shown(b)})")
        if math.gcd(a, b) != 1:
            raise ValueError(f"({_shown(a)}, {_shown(b)}) are not coprime")
        vars(self).update(a=a, b=b)
