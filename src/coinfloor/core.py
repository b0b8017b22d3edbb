"""Exact integer primitives shared by the rest of the package.

Deterministic primality, trial-division factorization, and the validated
coprime-pair value object used as a parameter everywhere.  gcd, modular
inverses and modular powers come from the stdlib (math.gcd and pow).
All functions are pure; all values are immutable after construction.

The package's records derive from _Record here, the one immutable
base: plain classes whose __init__ fills __dict__ in field order, with a
repr, value equality and a value hash over _fields; a record that holds
a list is unhashable.  They stand in for dataclasses, whose import
(inspect with it) costs each CLI process several milliseconds.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, compress, count

__all__ = [
    "is_prime",
    "factorize",
    "CoprimePair",
]


# Strong-pseudoprime witnesses making the test deterministic for n < 3.3e24,
# far beyond the supported input range.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (fixed-witness strong pseudoprime test)."""
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

_prime_table = None


def _small_primes() -> memoryview:
    """The primes below _PRIME_TABLE_END as unsigned shorts (3512 of them,
    7 KB), sieved on the first call.  A memoryview over packed bytes, not
    an array: importing array adds about 70 KB to the process's RSS."""
    global _prime_table
    if _prime_table is None:
        n = _PRIME_TABLE_END
        flags = bytearray([1]) * n
        flags[:2] = b"\0\0"
        for p in range(2, math.isqrt(n - 1) + 1):
            if flags[p]:
                flags[p * p::p] = bytes(len(range(p * p, n, p)))
        packed = b"".join(p.to_bytes(2, sys.byteorder) for p in compress(range(n), flags))
        _prime_table = memoryview(packed).cast("H")
    return _prime_table


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, multiplicity) pairs, primes ascending.

    factorize(1) = [].  Trial division: by the primes below 2**15, then by
    the odd numbers past them, up to the square root of what is left.  It
    is O(sqrt(n)), so n over _FACTOR_MAX_N (10**14) raises ValueError
    before any work.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > _FACTOR_MAX_N:
        raise ValueError(f"n = {n} is over the budget of {_FACTOR_MAX_N} "
                         "for factorizing by trial division")
    out: list[tuple[int, int]] = []
    m = n
    limit = math.isqrt(m)
    for p in chain(_small_primes(), count(_PRIME_TABLE_END + 1, 2)):
        if p > limit:
            break
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            out.append((p, r))
            limit = math.isqrt(m)
    if m > 1:
        out.append((m, 1))
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


class CoprimePair(_Record):
    """A validated pair (a, b) of positive coprime integers.

    The inverse of a modulo b is computed once at construction; it backs
    the O(1) representability and solution-count formulas.  It takes no
    part in the repr or in equality.
    """

    _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"pair members must be positive, got ({a}, {b})")
        if math.gcd(a, b) != 1:
            raise ValueError(f"({a}, {b}) are not coprime")
        vars(self).update(a=a, b=b, inv_a_mod_b=pow(a, -1, b))

