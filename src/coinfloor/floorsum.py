"""Exact evaluation of the floor sum S(a, b, d) = sum_{i=1}^{d} floor(i*b/a).

Two evaluators are provided: a literal O(d) summation, and a logarithmic
reducer built on the reciprocity identity

    S(a, b, d) + S(b, a, K) = d*K,   K = floor(b*d/a),

valid for positive integers with b < a, d < a, gcd(a, b) = 1.  The reducer
normalizes the multiplier, strips whole periods of the index, then swaps
numerator and denominator roles; each round shrinks the modulus like one
Euclid division, so the number of rounds is logarithmic.

The same sign-alternating reduction, applied to the affine sum
F(n, m, a, c) = sum_{i=0}^{n-1} floor((a*i + c)/m), gives the lattice
counts of the coin problem (see coinproblem.count_representable_upto).

The identities themselves are exposed as residual functions returning a
signed integer so that a violation reports its magnitude, not a bare bool.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "naive_floor_sum",
    "fast_floor_sum",
    "fast_floor_sum_steps",
    "floor_sum_affine_steps",
    "reciprocity_residual",
    "strong_residual",
    "gauss_residual",
]


def _check_args(a: int, b: int, d: int) -> None:
    if a < 1:
        raise ValueError(f"modulus a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"multiplier b must be >= 0, got {b}")
    if d < 0:
        raise ValueError(f"upper index d must be >= 0, got {d}")


def naive_floor_sum(a: int, b: int, d: int) -> int:
    """Term-by-term S(a, b, d): the O(d) oracle for the fast path."""
    _check_args(a, b, d)
    return sum(i * b // a for i in range(1, d + 1))


def fast_floor_sum_steps(a: int, b: int, d: int) -> tuple[int, int]:
    """(S(a, b, d), rounds used), in O(log(a + b)) reduction rounds.

    Before the first round, and only there:

      R2  d >= a: strip whole index periods of length a.  One period
          contributes b + (a-1)(b-1)/2 since gcd(a, b) = 1 here; any common
          factor g was divided out up front (floor(i*b/a) is invariant
          under it).

    After a swap the new index K is below the new modulus b, so R2 cannot
    fire again.  Each round then applies, in order:

      R1  b >= a: write b = q*a + r and pull q*d(d+1)/2 out of the sum.
      R3  swap roles: S(a, b, d) = d*K - S(b, a, K) with K = floor(b*d/a).
      R4  stop when b, d, or K reaches zero; every remaining term is zero.

    The modulus follows the Euclid remainder chain of (a, b), which bounds
    the round count.
    """
    _check_args(a, b, d)
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    total = 0
    if d >= a:  # R2
        t, d = divmod(d, a)
        period = b + (a - 1) * (b - 1) // 2
        total = t * period + a * b * (t * (t - 1) // 2) + t * b * d
    sign = 1
    steps = 0
    while b > 0 and d > 0:
        steps += 1
        if b >= a:  # R1
            q, b = divmod(b, a)
            total += sign * (q * (d * (d + 1) // 2))
            if b == 0:
                break
        K = b * d // a
        if K == 0:  # R4: b*d < a, so floor(i*b/a) = 0 for every i <= d
            break
        total += sign * d * K  # R3
        sign = -sign
        a, b, d = b, a, K
    return total, steps


def floor_sum_affine_steps(n: int, m: int, a: int, c: int) -> tuple[int, int]:
    """(sum_{i=0}^{n-1} floor((a*i + c)/m), rounds used), for any integers
    a and c, modulus m >= 1 and count n >= 0, in O(log m) rounds.

    Each round normalizes a and c into [0, m), pulling their quotients out
    of the sum, then counts the lattice points under the line from the
    other axis.  With y = floor((a*(n-1) + c)/m) the top value,

        F(n, m, a, c) = (n-1)*y - F(y, a, m, m - c - 1),

    so the sign flips and (m, a) steps down the Euclid remainder chain.
    The reduction stops when the top value y is zero.
    """
    if m < 1:
        raise ValueError(f"modulus m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"count n must be >= 0, got {n}")
    total = 0
    sign = 1
    rounds = 0
    while n > 0:
        rounds += 1
        qa, a = divmod(a, m)
        qc, c = divmod(c, m)
        total += sign * (qa * (n * (n - 1) // 2) + qc * n)
        y = (a * (n - 1) + c) // m
        if y == 0:  # every remaining term is zero
            break
        total += sign * (n - 1) * y
        sign = -sign
        n, m, a, c = y, a, m, m - c - 1
    return total, rounds


def fast_floor_sum(a: int, b: int, d: int) -> int:
    """S(a, b, d) by the logarithmic reducer."""
    return fast_floor_sum_steps(a, b, d)[0]


def reciprocity_residual(a: int, b: int, d: int) -> int:
    """S(a, b, d) + S(b, a, K) - d*K where K = floor(b*d/a); identically zero.

    Requires 1 <= b < a, 1 <= d < a, gcd(a, b) = 1.  When K = 0 both sums
    are empty or all-zero, so the residual is 0 without invoking the swap.
    """
    if not 1 <= b < a:
        raise ValueError(f"need 1 <= b < a, got a={a}, b={b}")
    if not 1 <= d < a:
        raise ValueError(f"need 1 <= d < a, got a={a}, d={d}")
    if gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")
    K = b * d // a
    return fast_floor_sum(a, b, d) + fast_floor_sum(b, a, K) - d * K


def strong_residual(a: int, b: int) -> int:
    """S(a, b, floor(a/2)) + S(b, a, floor(b/2)) - floor(a/2)*floor(b/2); zero for coprime a, b >= 1."""
    if a < 1 or b < 1:
        raise ValueError(f"need positive integers, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) are not coprime")
    return fast_floor_sum(a, b, a // 2) + fast_floor_sum(b, a, b // 2) - (a // 2) * (b // 2)


def gauss_residual(p: int, q: int) -> int:
    """Half-range reciprocity defect for distinct odd coprime p, q.

    Returns S(p, q, (p-1)/2) + S(q, p, (q-1)/2) - (p-1)(q-1)/4, which is
    zero for any odd coprime pair, prime or not.
    """
    if p < 1 or q < 1 or p % 2 == 0 or q % 2 == 0:
        raise ValueError(f"need positive odd integers, got ({p}, {q})")
    if p == q:
        raise ValueError("p and q must be distinct")
    if gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) are not coprime")
    return (
        fast_floor_sum(p, q, (p - 1) // 2)
        + fast_floor_sum(q, p, (q - 1) // 2)
        - (p - 1) * (q - 1) // 4
    )
