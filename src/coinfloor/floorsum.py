"""Exact evaluation of the floor sum S(a, b, d) = sum_{i=1}^{d} floor(i*b/a).

The evaluator is a logarithmic reducer built on the reciprocity identity

    S(a, b, d) + S(b, a, K) = d*K,   K = floor(b*d/a),

valid for positive integers with b < a, d < a, gcd(a, b) = 1.  The reducer
normalizes the multiplier, strips whole periods of the index, then swaps
numerator and denominator roles.  Each round takes the least absolute
remainder: when the ordinary remainder r exceeds half the modulus b, the
round is reflected onto b - r (fast_floor_sum_steps says how).  So the
modulus halves every round after the first, and a call takes at most
max(a, b).bit_length() + 1 rounds, about 0.70 of the ordinary Euclid
chain's on random operands.

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
_CHAIN_MIN = 1 << 64


def _check_args(a: int, b: int, d: int) -> None:
    if a < 1:
        raise ValueError(f"modulus a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"multiplier b must be >= 0, got {b}")
    if d < 0:
        raise ValueError(f"upper index d must be >= 0, got {d}")


def fast_floor_sum_steps(a: int, b: int, d: int) -> tuple[int, int]:
    """(S(a, b, d), rounds used), in at most max(a, b).bit_length() + 1 rounds.

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

    Reflected round.  After the first round b < a, so each swap leaves b > a
    and the next round opens with R1: a = q*b + r.  When 2r > b the round
    writes a = (q+1)*b - (b - r) instead.  For 0 < K < b and
    gcd(b, r) = 1 no i*(b - r)/b with 0 < i <= K is an integer, so
    floor(-x) = -floor(x) - 1 on every term and

        S(b, a, K) = (q+1)*K(K+1)/2 - K - S(b, b - r, K):

    the round continues on (b, b - r, K), and the rest of the sum enters
    with a plus sign where an ordinary round gives it a minus.  The
    multiplier so becomes the least absolute remainder, at most half the
    modulus, and the modulus halves every round after the first.  That
    bounds the rounds by max(a, b).bit_length() + 1.  On random operands
    this takes about 0.70 of the rounds of the ordinary remainder, and in
    no case the tests run more.

    Fused accumulation.  The R3 term of one round and the R1 term of the
    next are added as one: d*K - q*K(K+1)/2 = K(2d - q(K+1))/2, or
    K(2d - q(K+1) + 1 - K)/2 for a reflected round.  The doubled value is
    even.  The loop keeps acc = x - acc after an ordinary round and
    acc = acc - x after a reflected one, so it needs no sign multiply, and
    halves acc once at the end.  The final sign follows the parity of the
    ordinary rounds, not the round count: a reflected round keeps the sign.

    Remainder chain.  With e = b*d - a*K the remainder of one round's K,
    write e = c*b + f.  The next round, on (b, r, K) where a = q*b + r, has
    r*K = b*(d - q*K) - e.  As b cannot divide r*K, f > 0, so
    K' = floor(r*K/b) = d - q*K - c - 1 with remainder e' = b - f.  A
    reflected round, on (b, b - r, K), takes K - 1 - K' and b - e' = f in
    their place.  c is at most q, so the division of e by b has a small
    quotient and costs O(n) where floor(r*K/b) costs an n-bit product and
    a 2n/n-bit division.  Only the first round divides b*d by a.

    Telescoped sum.  With m = c + 1 - q, in [1 - q, 1], a round's fused
    term is d*K + K*K' + K*m, and a reflected round's is d*K - K*K'' + K*m
    with K'' its next index.  The next round's d is this round's K, so with
    P = d*K the sum of the signed terms keeps only the first P, the last P
    and the products K*m, each O(n) for n-bit operands.  The loop starts
    acc at -d*K, adds K*m per round (with the sign rule above), and adds
    the last P = d*K once where the chain stops, which is 0 when the chain
    stopped on K = 0.

    Both loops run two rounds per pass, the second with the roles of a and
    b, and of d and K, swapped, so no tuple is rotated.  This measured
    about 4% faster on the chain at 70-1000 digits, and about 4% on
    2-3 digit calls, where the plain loop's tuple rotation was a real part
    of a round.

    Cut-over.  The chain costs a few more interpreter steps per round, which
    is a loss on small operands, where those steps dominate.  Measured over
    2**32, 2**64, 2**96, 2**128, 2**192 and 2**256: 2**32 is slower on
    10-16 digits, 2**64 matches 2**128 on 12-25 digits and is 3-5% faster
    on 40-300 digits, and 2**192 and 2**256 are about a tenth slower on
    70-100 digits.  So the chain runs only while b > _CHAIN_MIN (2**64) and
    the loop then continues with K = b*d // a.  The operands only shrink,
    so a call crosses the cut-over at most once.
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
    # rounds counts the first round and the reflected ones, plain the
    # ordinary ones after it; the sign at the end follows plain's parity
    rounds, plain = 1, 0
    acc = 0
    if b > _CHAIN_MIN:
        K, e = divmod(b * d, a)
        acc = -d * K  # the first P
        while K:
            # modulus a, multiplier b, index d, next index K
            q, a = divmod(a, b)
            c, e = divmod(e, b)
            m = c + 1 - q
            if a + a > b:
                a = b - a
                d = (q + 1) * K + c - d
                acc -= K * m
                rounds += 1
            else:
                d -= q * K + c + 1
                e = b - e
                acc = K * m - acc
                plain += 1
            # modulus b, multiplier a, index K, next index d
            if not d or a <= _CHAIN_MIN:
                a, b, d, K = b, a, K, d
                break
            q, b = divmod(b, a)
            c, e = divmod(e, a)
            m = c + 1 - q
            if b + b > a:
                b = a - b
                K = (q + 1) * d + c - K
                acc -= d * m
                rounds += 1
            else:
                K -= q * d + c + 1
                e = a - e
                acc = d * m - acc
                plain += 1
            if b <= _CHAIN_MIN:
                break
        acc += d * K
    else:
        K = b * d // a
        if not K:  # one round, and nothing past total
            return total, 1
    while K:
        # modulus a, multiplier b, index d, next index K
        q = a // b
        a -= q * b
        if a + a > b:
            a = b - a
            acc -= K * (2 * d + 1 - K - q * (K + 1))
            rounds += 1
        else:
            acc = K * (2 * d - q * (K + 1)) - acc
            plain += 1
        # modulus b, multiplier a, index K, next index d
        d = a * K // b
        if not d:
            break
        q = b // a
        b -= q * a
        if b + b > a:
            b = a - b
            acc -= d * (2 * K + 1 - d - q * (d + 1))
            rounds += 1
        else:
            acc = d * (2 * K - q * (d + 1)) - acc
            plain += 1
        K = b * d // a
    half = acc >> 1
    return (total + half if plain & 1 else total - half), rounds + plain


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
