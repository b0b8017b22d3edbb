"""Exact evaluation of the floor sum S(a, b, d) = sum_{i=1}^{d} floor(i*b/a).

The evaluator is a logarithmic reducer built on the reciprocity identity

    S(a, b, d) + S(b, a, K) = d*K,   K = floor(b*d/a),

valid for positive integers with b < a, d < a, gcd(a, b) = 1.  The reducer
normalizes the multiplier, strips whole periods of the index, then swaps
numerator and denominator roles; each round shrinks the modulus like one
Euclid division, so the number of rounds is O(log a).

While the operands are large, a round of the reducer does no full-size
product.  Its index K comes from the previous round's remainder by a
small-quotient division (the remainder chain), its two terms are added as
one (the fused accumulation), and that term telescopes along the chain to
K times a small number (the telescoped sum); fast_floor_sum_steps says
how.  For n-bit operands a round above the cut-over then costs O(n), and a
call O(n^2) bit operations plus O(1) full-size products.  Below the
cut-over a round does one product of the by then small operands.

This is the package's one reducer: the coin problem's counts call it too.

The identities themselves are exposed as residual functions returning a
signed integer so that a violation reports its magnitude, not a bare bool.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "fast_floor_sum",
    "fast_floor_sum_steps",
    "reciprocity_residual",
    "strong_residual",
    "gauss_residual",
]


# fast_floor_sum_steps takes K from the last remainder while b is above
# this, and divides b*d by a below it (see its docstring for why here).
_CHAIN_MIN = 1 << 128


def _check_args(a: int, b: int, d: int) -> None:
    if a < 1:
        raise ValueError(f"modulus a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"multiplier b must be >= 0, got {b}")
    if d < 0:
        raise ValueError(f"upper index d must be >= 0, got {d}")


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

    Fused accumulation.  After the first round b < a, so each swap leaves
    b > a and the next round opens with R1, q = floor(a/b).  The R3 term of
    one round and the R1 term of the next are added as one:
    d*K - q*K(K+1)/2 = K(2d - q(K+1))/2.  The doubled value is even; the
    loop keeps acc = x - acc, which alternates the signs without a sign
    multiply, and halves acc once at the end, with the sign given by the
    parity of the round count.

    Remainder chain.  With e = b*d - a*K the remainder of one round's K,
    the next round, on (b, r, K) where a = q*b + r, has
    K' = floor(r*K/b) = d - q*K - ceil(e/b) and remainder
    e' = b*ceil(e/b) - e; the code takes c, e = divmod(-e, b) and
    K' = d - q*K + c.  ceil(e/b) is at most q + 1, so this division has a
    small quotient and costs O(n) where floor(r*K/b) costs an n-bit product
    and a 2n/n-bit division.  Only the first round divides b*d by a.

    Telescoped sum.  On the chain 2d - q*K = d + K' - c, so a round's fused
    term is K(2d - q(K+1)) = d*K + K*K' - K(c + q).  The next round's d is
    this round's K, so d*K + K*K' is P + P' with P = d*K, and in the
    alternating sum every P but the first and the last cancels.  The loop
    therefore starts acc at -d*K, which after J rounds of acc = x - acc
    carries the first round's sign (-1)**(J-1); it adds only -K(c + q) per
    round, where c + q lies in [-1, q] so the product is O(n); and it adds
    the last P = d*K once where the chain stops, which is 0 when the chain
    stopped on K = 0.

    Cut-over.  The chain costs a few more interpreter steps per round, which
    is a loss on small operands, where those steps dominate: chaining every
    round made 3-digit calls about a third slower.  By measurement a
    cut-over anywhere from 2**96 to 2**160 gives the same times within
    noise, 2**64 is slower on 12-40 digits, and 2**256 is about 12% slower
    on 70-110 digits.  So the chain runs only while b > _CHAIN_MIN (2**128)
    and the loop then continues with K = b*d // a.  The operands only
    shrink, so a call crosses the cut-over at most once.
    """
    if a < 1 or b < 0 or d < 0:  # _check_args names the first bad argument
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
    if d == 0:  # also when b = 0, since then a = 1 and R2 left d < 1
        return total, 0
    if b >= a:  # R1 of the first round; b stays > 0 since gcd(a, b) = 1 < a
        q, b = divmod(b, a)
        total += q * (d * (d + 1) // 2)
    steps = 1
    acc = 0
    if b > _CHAIN_MIN:
        K, e = divmod(b * d, a)
        acc = -d * K  # enters with sign (-1)**(J-1) after J chain rounds
        while K and b > _CHAIN_MIN:
            q, r = divmod(a, b)
            c, e = divmod(-e, b)
            acc = -K * (c + q) - acc  # c + q lies in [-1, q]
            steps += 1
            a, b, d, K = b, r, K, d - q * K + c
        acc += d * K  # boundary term; 0 when the chain ended on K = 0
    else:
        K = b * d // a
    while K:  # on these small operands // and a - q*b beat divmod's call
        q = a // b
        acc = K * (2 * d - q * (K + 1)) - acc
        steps += 1
        a, b, d = b, a - q * b, K
        K = b * d // a
    half = acc >> 1
    return (total - half if steps & 1 else total + half), steps


def fast_floor_sum(a: int, b: int, d: int) -> int:
    """S(a, b, d) by the logarithmic reducer."""
    return fast_floor_sum_steps(a, b, d)[0]


def reciprocity_residual(a: int, b: int, d: int) -> int:
    """S(a, b, d) + S(b, a, K) - d*K where K = floor(b*d/a); identically zero.

    Requires 1 <= b < a, 1 <= d < a, gcd(a, b) = 1.  When K = 0 the swapped
    sum S(b, a, 0) is empty, so the residual is S(a, b, d), whose terms are
    all 0 as b*d < a.
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
    zero for any odd coprime pair, prime or not.  This is strong_residual's
    odd case: for odd p, floor(p/2) = (p-1)/2, and so (p-1)(q-1)/4 =
    floor(p/2)*floor(q/2); strong_residual also refuses a pair that is not
    coprime.
    """
    if p < 1 or q < 1 or p % 2 == 0 or q % 2 == 0:
        raise ValueError(f"need positive odd integers, got ({p}, {q})")
    if p == q:
        raise ValueError("p and q must be distinct")
    return strong_residual(p, q)
