"""Legendre and Jacobi symbols via floor-sum parity, with layered oracles.

The production path maps the parity of S(b, a, (b-1)/2) to a sign:

    (a/b) = (-1)**sum_{i=1}^{(b-1)/2} floor(i*a/b)

for odd positive coprime a and b.  Oracle paths: prime factorization of the
denominator (up to 10**14) combined with Euler's criterion, and the
half-range residue count (p up to 10**7) whose parity gives the Legendre
symbol.  Two parity congruences (ge1, ge2) are exposed as residuals; they
are what lets the denominator and numerator of the symbol split
multiplicatively, and they vanish on their whole domain.

All symbol values are plain ints constrained to {-1, 0, +1}.
"""

from __future__ import annotations

from math import gcd

from .core import _FACTOR_MAX_N, factorize, is_prime
from .floorsum import _shown, fast_floor_sum

__all__ = [
    "legendre_euler",
    "jacobi_by_definition",
    "jacobi_eisenstein",
    "gauss_lemma_count",
    "ge1_residual",
    "ge2_residual",
    "jacobi_reciprocity_check",
]


# Largest modulus gauss_lemma_count runs its O(p) count for (about a second).
_GAUSS_MAX_P = 10**7


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {_shown(p)}")


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion a**((p-1)/2) mod p.

    0 if p divides a, +1 for quadratic residues, -1 for nonresidues.
    """
    _check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi_by_definition(a: int, b: int) -> int:
    """Jacobi symbol (a/b) as the product of Legendre symbols, each by
    Euler's criterion, over the prime factorization of the odd denominator
    b; (a/1) = +1.  The primes factorize returns are not tested again.

    Factorizing is trial division, O(sqrt(b)), so b over factorize's
    budget _FACTOR_MAX_N (10**14, under a second) raises ValueError
    before any work.
    """
    if b < 1 or b % 2 == 0:
        raise ValueError(f"denominator must be a positive odd integer, got {_shown(b)}")
    if b > _FACTOR_MAX_N:
        raise ValueError(f"denominator b = {_shown(b)} is over the budget of {_FACTOR_MAX_N} "
                         "for factorizing by trial division")
    result = 1
    for p, mult in factorize(b):
        s = pow(a, p // 2, p)  # 1, p - 1 or 0
        if s == 0:
            return 0
        if s != 1 and mult % 2 == 1:
            result = -result
    return result


def _eisenstein_parity(m: int, x: int) -> int:
    """S(m, x, (m-1)/2) mod 2, the exponent of (-1) in the symbol (x/m)."""
    return fast_floor_sum(m, x, (m - 1) // 2) & 1


def jacobi_eisenstein(a: int, b: int) -> int:
    """Jacobi symbol (a/b) from the parity of the floor sum S(b, a, (b-1)/2).

    Requires a and b odd, positive, and coprime; even or negative
    numerators must go through jacobi_by_definition instead.
    """
    if a < 1 or b < 1 or a % 2 == 0 or b % 2 == 0:
        raise ValueError(f"need odd positive integers, got ({_shown(a)}, {_shown(b)})")
    if gcd(a, b) != 1:
        raise ValueError(f"({_shown(a)}, {_shown(b)}) are not coprime")
    return -1 if _eisenstein_parity(b, a) else 1


def gauss_lemma_count(a: int, p: int) -> int:
    """Count the residues of a, 2a, ..., ((p-1)/2)*a mod p exceeding p/2.

    (-1) to this count equals the Legendre symbol (a/p).  The count visits
    each residue, O(p), so p over _GAUSS_MAX_P (10**7) raises ValueError
    before any work.
    """
    if p > _GAUSS_MAX_P:
        raise ValueError(f"modulus p = {_shown(p)} is over the budget of {_GAUSS_MAX_P} "
                         "for counting residues one by one")
    _check_odd_prime(p)
    if gcd(a, p) != 1:
        raise ValueError(f"({_shown(a)}, {p}) are not coprime")
    half = (p - 1) // 2
    return sum(1 for i in range(1, half + 1) if i * a % p > half)


def _check_odd_triple(a: int, b: int, c: int) -> None:
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 1 or v % 2 == 0:
            raise ValueError(f"{name} must be a positive odd integer, got {_shown(v)}")
    if gcd(a, b * c) != 1:  # iff gcd(a, b) or gcd(a, c) is not 1
        raise ValueError(f"b = {_shown(b)} and c = {_shown(c)} must both be coprime to a = {_shown(a)}")


def ge1_residual(a: int, b: int, c: int) -> int:
    """Parity defect of splitting the denominator:

        S(b*c, a, (bc-1)/2) - S(b, a, (b-1)/2) - S(c, a, (c-1)/2)  mod 2.

    Zero for odd positive a, b, c with b and c coprime to a.
    """
    _check_odd_triple(a, b, c)
    return _eisenstein_parity(b * c, a) ^ _eisenstein_parity(b, a) ^ _eisenstein_parity(c, a)


def ge2_residual(a: int, b: int, c: int) -> int:
    """Parity defect of splitting the numerator:

        S(a, b*c, (a-1)/2) - S(a, b, (a-1)/2) - S(a, c, (a-1)/2)  mod 2.

    Zero for odd positive a, b, c with b and c coprime to a.
    """
    _check_odd_triple(a, b, c)
    return _eisenstein_parity(a, b * c) ^ _eisenstein_parity(a, b) ^ _eisenstein_parity(a, c)


def jacobi_reciprocity_check(a: int, b: int) -> bool:
    """Does (a/b)*(b/a) = (-1)**((a-1)(b-1)/4) hold?  (It always does.)

    Both sides are evaluated for odd positive coprime a and b, the left
    through the floor-sum engine.
    """
    lhs = jacobi_eisenstein(a, b) * jacobi_eisenstein(b, a)
    rhs = -1 if ((a - 1) * (b - 1) // 4) % 2 else 1
    return lhs == rhs
