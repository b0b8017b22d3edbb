"""Exact integer primitives shared by the rest of the package.

Deterministic primality, trial-division factorization, and the validated
coprime-pair value object used as a parameter everywhere.  gcd, modular
inverses and modular powers come from the stdlib (math.gcd and pow).
All functions are pure; all values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CoprimePair:
    """A validated pair (a, b) of positive coprime integers.

    The inverse of a modulo b is computed once at construction; it backs
    the O(1) representability and solution-count formulas.
    """

    a: int
    b: int
    inv_a_mod_b: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError(f"pair members must be positive, got ({self.a}, {self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"({self.a}, {self.b}) are not coprime")
        object.__setattr__(self, "inv_a_mod_b", pow(self.a, -1, self.b))

