"""Independent oracles for the test suite.

Everything here recomputes package results by a different route: literal
enumeration, a structurally different sublinear floor-sum evaluator, and
double-loop searches.  Nothing imports from the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

import numpy as np


def floor_sum_iterative(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b)/m), by the classic iterative
    lattice-counting reduction (normalize a and b mod m, then trade the
    count of points under the line for the count left of it).

    Structurally different from the package's sign-alternating reducer;
    used as the independent cross-check at parameters where literal
    summation is unaffordable.
    """
    ans = 0
    while True:
        if a >= m:
            ans += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b, m, a = y_max // m, y_max % m, a, m


def euclid_rounds(a: int, b: int, d: int) -> int:
    """Rounds a reciprocity reducer on S(a, b, d) takes with the ordinary
    remainder: each round swaps (a, b, d) to (b, a mod b, K) with
    K = b*d // a, and the count stops where K is 0.  No sums, and no
    reflection onto the least absolute remainder; this is the count the
    package's reducer must never exceed."""
    g = gcd(a, b)
    a, b = a // g, b // g
    d %= a
    if d == 0:
        return 0
    b %= a
    rounds = 1
    K = b * d // a
    while K:
        a, b, d = b, a % b, K
        K = b * d // a
        rounds += 1
    return rounds


def floor_sum_terms(a: int, b: int, d: int) -> int:
    """Literal sum of floor(i*b/a), i = 1..d, vectorized but still O(d).

    Exact while d*b < 2**63; chunking keeps memory flat for huge d.
    """
    assert d * b < 2**63
    total = 0
    start = 1
    while start <= d:
        stop = min(start + (1 << 22), d + 1)
        i = np.arange(start, stop, dtype=np.int64)
        total += int((i * b // a).sum())
        start = stop
    return total


def naive_prefix(a: int, b: int, d_max: int) -> list[int]:
    """[S(a, b, 0), S(a, b, 1), ..., S(a, b, d_max)] by cumulative summation."""
    i = np.arange(1, d_max + 1, dtype=np.int64)
    out = [0]
    out.extend(np.cumsum(i * b // a).tolist())
    return out


def factorize_by_trial_division(n: int) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs of n >= 1, by dividing by 2, 3, 4, 5, ...
    while the divisor's square is at most what is left.  O(sqrt(n)), with
    no prime table and no blocks."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            r = 0
            while n % f == 0:
                n //= f
                r += 1
            out.append((f, r))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def jacobi_binary(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1 by the binary algorithm (Cohen,
    A Course in Computational Algebraic Number Theory, Algorithm 1.4.10):
    strip factors of 2 from a with the (2/n) rule, swap by reciprocity and
    reduce.  No floor sums and no factorization."""
    assert n >= 1 and n % 2 == 1
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def legendre_by_search(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by scanning for an x with
    x*x == a (mod p).  O(p): the definitional oracle for small p."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def rep_count_shift_check(count, ab: int, n: int) -> bool:
    """Denumerant shift: does count(n + ab) = count(n) + 1 hold?

    count is the solution-count function under test for coins whose
    product is ab.
    """
    return count(n + ab) == count(n) + 1


def brute_rep_count(a: int, b: int, n: int) -> int:
    """Number of (x, y) >= 0 with a*x + b*y = n, by scanning x."""
    return sum(1 for x in range(n // a + 1) if (n - a * x) % b == 0)


def brute_representables(a: int, b: int, limit: int) -> set[int]:
    """All representable values <= limit, by double loop."""
    out = set()
    for x in range(limit // a + 1):
        base = a * x
        for y in range((limit - base) // b + 1):
            out.add(base + b * y)
    return out


def gaps_by_set_formula(a: int, b: int) -> list[int]:
    """The gaps of coprime a, b, ascending, as the set {ab - ia - jb > 0 :
    i, j >= 1} (Sylvester): for each i < b the run ab - ia - b, ... down
    by b while positive, then one sort.  No residue classes, no mask."""
    ab = a * b
    out = []
    for i in range(1, b):
        out.extend(range(ab - i * a - b, 0, -b))
    out.sort()
    return out


def brute_lattice3(a: int, b: int, target: int) -> int:
    """Number of (x, y, z) >= 0 with a*x + b*y + z = target, by double loop."""
    count = 0
    for x in range(target // a + 1):
        rest = target - a * x
        count += rest // b + 1  # y choices; z absorbs the remainder
    # recount by explicit y loop as a self-check of the shortcut
    check = sum(
        1
        for x in range(target // a + 1)
        for y in range((target - a * x) // b + 1)
    )
    assert count == check
    return count


def bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2, from sum_{k<=j} C(j+1, k) B_k = 0 (j >= 1)."""
    out = [Fraction(1)]
    for j in range(1, n + 1):
        out.append(-sum(comb(j + 1, k) * out[k] for k in range(j)) / (j + 1))
    return out


def gap_power_sum_bernoulli(a: int, b: int, m: int) -> int:
    """Sum of n**m over the gaps of coprime a, b >= 2, in the Bernoulli form
    of the power sums (Tuenter, J. Number Theory 117, 2006):

        m! * ( -B_{m+1}/(m+1)! + sum_{i+j+l = m+2, l >= 1}
               (ab)**(l-1) a**i b**j B_i B_j / (i! j! l!) ),

    read off G(e^t) with 1/(1 - e^(st)) = -(1/(st)) sum_k B_k (st)**k / k!.
    An explicit double sum over Bernoulli numbers: no series division and
    no gap listing.
    """
    B = bernoulli(m + 2)
    ab = a * b
    total = -B[m + 1] / factorial(m + 1)
    for i in range(m + 2):
        for j in range(m + 2 - i):
            l = m + 2 - i - j
            total += Fraction(ab ** (l - 1) * a**i * b**j, factorial(i) * factorial(j) * factorial(l)) * B[i] * B[j]
    value = total * factorial(m)
    assert value.denominator == 1
    return value.numerator
