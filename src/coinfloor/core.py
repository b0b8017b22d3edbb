"""Exact integer primitives shared by the rest of the package.

Deterministic primality, trial-division factorization, and the validated
coprime-pair value object used as a parameter everywhere.  gcd, modular
inverses and modular powers come from the stdlib (math.gcd and pow).
All functions are pure; all values are immutable after construction.

The package's records derive from _Record here: plain classes whose
__init__ fills __dict__ in field order, with a repr and value equality
over _fields.  They stand in for dataclasses, whose import (inspect
with it) costs each CLI process several milliseconds.
"""

from __future__ import annotations

import math

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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, multiplicity) pairs, primes ascending.

    factorize(1) = [].
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            out.append((p, r))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


class _Record:
    """Value record: repr and equality over the fields named in _fields.

    Equal records have the same class and equal fields; a mutable record
    is unhashable, as a list is.
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

    __hash__ = None  # type: ignore[assignment]


class _FrozenRecord(_Record):
    """A _Record that refuses assignment after __init__ and hashes by value.

    __init__ writes its fields through vars(self), which bypasses
    __setattr__.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class CoprimePair(_FrozenRecord):
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

