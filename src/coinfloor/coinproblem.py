"""Representability machinery for two coprime coin denominations a and b.

Exact solution counts of a*x + b*y = n, threshold counts of representable
integers, a closed-form family of those threshold counts, enumeration of
the nonrepresentable numbers (the gaps), and exact power and weighted sums
over the gaps.  All arithmetic is exact: integers are unbounded and the
weighted sums use rationals.

The O(1) membership and count formulas all rest on the canonical solution:
for gcd(a, b) = 1 the congruence a*x == n (mod b) has the unique solution
x0 = n * a^(-1) mod b in [0, b), and n is representable iff a*x0 <= n.

Threshold and lattice counts are floor sums: summing floor((t - a*x)/b) + 1
over a range of x is X + 1 plus the affine sum F(X+1, b, a, t - a*X), which
an index shift by the pair's cached inverse splits into two S(b, a, .).

Gap sums come from the Hilbert series of the semigroup <a, b>: the gaps
have the generating function G(x) = 1/(1-x) - (1-x^ab)/((1-x^a)(1-x^b)),
so sum lam**(n-1) * n**m over the gaps is (m!/lam) [t^m] G(lam e^t), one
power-series coefficient in O(m^2) integer products whatever the size of
a and b.  Listing the gaps scans an O(ab)-bit mask, and summing over the
listing costs O(ab) terms; the sums take that route only when the gap
count is small against m^2.
"""

from __future__ import annotations

from itertools import compress
from math import comb, factorial, lcm

from .core import CoprimePair, _Record
from .floorsum import _shifted_sum

__all__ = [
    "RepCount",
    "BestFamilyPoint",
    "NonRepSet",
    "frobenius_number",
    "is_representable",
    "representation_count",
    "count_representable_upto",
    "count_lattice_3var",
    "best_family_point",
    "best2_count",
    "nonrepresentable_set",
    "sylvester_sum",
    "sylvester_sum_power",
    "weighted_sylvester_sum",
]

class RepCount(_Record):
    """Number of nonnegative solutions (x, y) of a*x + b*y = n."""

    _fields = ("n", "count")

    def __init__(self, n: int, count: int) -> None:
        vars(self).update(n=n, count=count)


class BestFamilyPoint(_Record):
    """One member of the closed-form threshold-count family.

    For b < a and 0 < alpha < a with alpha == a (mod 2):

        beta = 2*floor(b*(alpha + a) / (2a)) - b        (always >= -1)
        k    = (b*alpha + a*beta) / 2
        n0   = (alpha + 1)*(beta + 1) / 2

    and n0 equals the number of representable integers in [0, k].
    """

    _fields = ("alpha", "beta", "k", "n0")

    def __init__(self, alpha: int, beta: int, k: int, n0: int) -> None:
        vars(self).update(alpha=alpha, beta=beta, k=k, n0=n0)


class NonRepSet(_Record):
    """All nonrepresentable naturals (gaps) of a pair, sorted ascending."""

    _fields = ("pair", "gaps")

    def __init__(self, pair: CoprimePair, gaps: tuple[int, ...]) -> None:
        vars(self).update(pair=pair, gaps=gaps)

    @property
    def count(self) -> int:
        return len(self.gaps)

    @property
    def largest(self) -> int | None:
        """The Frobenius number a*b - a - b, or None when nothing is missing."""
        return self.gaps[-1] if self.gaps else None


def _check_nat(n: int, name: str) -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def frobenius_number(p: CoprimePair) -> int:
    """a*b - a - b: the largest nonrepresentable integer (negative when a coin is 1)."""
    return p.a * p.b - p.a - p.b


def is_representable(p: CoprimePair, n: int) -> bool:
    """True iff n = a*x + b*y for some x, y >= 0.  O(1) via the canonical solution."""
    _check_nat(n, "n")
    a, b = p.a, p.b
    x0 = n % b * p.inv_a_mod_b % b
    return a * x0 <= n


def representation_count(p: CoprimePair, n: int) -> RepCount:
    """Exact number of nonnegative solutions of a*x + b*y = n.

    The solutions are x0, x0 + b, x0 + 2b, ... while a*x stays <= n, so the
    count is floor((n - a*x0)/(a*b)) + 1 when a*x0 <= n and 0 otherwise.
    """
    _check_nat(n, "n")
    a, b = p.a, p.b
    x0 = n % b * p.inv_a_mod_b % b
    if a * x0 > n:
        return RepCount(n=n, count=0)
    return RepCount(n=n, count=(n - a * x0) // (a * b) + 1)


def count_representable_upto(p: CoprimePair, k: int) -> int:
    """N0(a, b; k): how many n in [0, k] are representable (0 counts; k < 0 gives 0).

    O(log b) rounds, by floor sums.  Each representable n has exactly one
    representation with 0 <= x < b (the canonical solution), so with
    X = min(b - 1, floor(k/a))

        N0 = sum_{x=0}^{X} (floor((k - a*x)/b) + 1) = X + 1 + F(X+1, b, a, k - a*X).

    verify checks this against the gap listing and the literal membership loop.
    """
    if k < 0:
        return 0
    a, b = p.a, p.b
    x_top = min(b - 1, k // a)
    return x_top + 1 + _shifted_sum(x_top + 1, b, a, k - a * x_top, p.inv_a_mod_b)[0]


def count_lattice_3var(p: CoprimePair, target: int) -> int:
    """Number of nonnegative solutions (x, y, z) of a*x + b*y + z = target.

    O(log b) rounds, by floor sums: for each x <= X = floor(target/a) the
    slack z absorbs whatever y leaves behind, giving floor((target - a*x)/b) + 1
    choices, and those X + 1 terms sum to X + 1 + F(X+1, b, a, target - a*X).
    """
    _check_nat(target, "target")
    a, b = p.a, p.b
    x_top = target // a
    return x_top + 1 + _shifted_sum(x_top + 1, b, a, target - a * x_top, p.inv_a_mod_b)[0]


def best_family_point(p: CoprimePair, alpha: int) -> BestFamilyPoint:
    """Closed-form threshold count for one alpha; requires b < a, 0 < alpha < a,
    and alpha of the same parity as a.  All divisions are exact."""
    a, b = p.a, p.b
    if b >= a:
        raise ValueError(f"need b < a, got ({a}, {b})")
    if not 0 < alpha < a:
        raise ValueError(f"need 0 < alpha < a = {a}, got {alpha}")
    if alpha % 2 != a % 2:
        raise ValueError(f"alpha must have the parity of a = {a}, got {alpha}")
    beta = 2 * (b * (alpha + a) // (2 * a)) - b
    k = (b * alpha + a * beta) // 2
    n0 = (alpha + 1) * (beta + 1) // 2
    return BestFamilyPoint(alpha=alpha, beta=beta, k=k, n0=n0)


def best2_count(p: CoprimePair, d: int) -> tuple[int, int]:
    """(k, n0) with k = b*d + a*K - a*b, K = floor(b*d/a), and
    n0 = (2d - a + 1)(2K - b + 1)/2 representable integers in [0, k].

    Requires b < a and a/2 < d < a.  Equivalent to best_family_point at
    alpha = 2d - a, beta = 2K - b.
    """
    a, b = p.a, p.b
    if b >= a:
        raise ValueError(f"need b < a, got ({a}, {b})")
    if not (2 * d > a and d < a):
        raise ValueError(f"need a/2 < d < a = {a}, got d={d}")
    K = b * d // a
    k = b * d + a * K - a * b
    n0 = (2 * d - a + 1) * (2 * K - b + 1) // 2
    return k, n0


def _representable_mask(a: int, b: int, limit: int) -> int:
    # Bit n of the result is set iff n <= limit is representable.  Doubling
    # the shift folds in all multiples of a, then all multiples of b, in
    # O(log limit) big-integer operations.
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for step in (a, b):
        shift = step
        while shift <= limit:
            bits |= bits << shift
            shift <<= 1
        bits &= mask
    return bits


def _gap_bits(a: int, b: int) -> int:
    """Bit n is set iff n is a gap of (a, b); 0 when a coin is 1."""
    top = a * b - a - b
    return ((1 << (top + 1)) - 1) ^ _representable_mask(a, b, top)


# maps the digits of bin() to the bytes 0 and 1, which compress() reads as flags
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class _Sized:
    # tuple() sizes its result from __length_hint__ and so allocates once;
    # the items still come from the iterator alone
    def __init__(self, items, hint: int) -> None:
        self._items, self._hint = items, hint

    def __iter__(self):
        return self._items

    def __length_hint__(self) -> int:
        return self._hint


# Most gaps nonrepresentable_set lists: at the limit the listing takes about
# 0.1 s and 45 MB (see the README).
_GAPS_MAX = 10**6


def nonrepresentable_set(p: CoprimePair) -> NonRepSet:
    """Enumerate every gap of (a, b).

    There are (a-1)(b-1)/2 of them and the largest is a*b - a - b; pairs
    containing a 1 have no gaps at all.  A pair with more than _GAPS_MAX
    (10**6) gaps raises ValueError before any work.
    """
    a, b = p.a, p.b
    count = (a - 1) * (b - 1) // 2
    if count > _GAPS_MAX:
        raise ValueError(f"({a}, {b}) has {count} gaps, over the listing limit of "
                         f"{_GAPS_MAX}; sylvester_sum_power gives their count and power sums")
    top = a * b - a - b
    flags = bin(_gap_bits(a, b))[:1:-1].encode().translate(_BIT_FLAGS)
    gaps = tuple(_Sized(compress(range(top + 1), flags), count))
    return NonRepSet(pair=p, gaps=gaps)


def _reciprocal(P: int, Q: int, n: int) -> tuple[list[int], int]:
    """EGF coefficients x_0..x_n of u**v / (Q - P e^u), as (numerators, one
    common denominator); v = 1 when P = Q, else 0.

    Power-series division in exponential form, sum_k C(j, k) h_k x_{j-k}
    = [j == 0] with h = (Q - P e^u) / u**v.  When P != Q, h has EGF
    coefficients Q - P, -P, -P, ... and x_j = rho_j / (Q - P)**(j+1) with
    integer rho_j.  When P = Q (= 1: lam**s = 1), the zero at u = 0 is
    divided out and x_j = -B_j, the Bernoulli numbers, whose denominators
    all divide lcm(1..n+1).
    """
    if P != Q:
        c = Q - P
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * c)
        rho = [1]
        for j in range(1, n + 1):
            rho.append(P * sum(comb(j, k) * powers[k - 1] * rho[j - k] for k in range(1, j + 1)))
        return [r * powers[n - j] for j, r in enumerate(rho)], powers[n] * c
    d = lcm(*range(1, n + 2))
    beta = [d]  # d * B_j: sum_{k<=j} C(j+1, k) B_k = [j == 0]
    for j in range(1, n + 1):
        beta.append(-sum(comb(j + 1, k) * beta[k] for k in range(j)) // (j + 1))
    return [-x for x in beta], d


def _egf_product(x: list[int], y: list[int], n: int) -> int:
    # n! [t^n] of the product of the EGFs with coefficients x and y
    return sum(comb(n, i) * x[i] * y[n - i] for i in range(n + 1))


def _series_moment(a: int, b: int, p: int, q: int, m: int) -> tuple[int, int]:
    """(m!/lam) [t^m] G(lam e^t) for lam = p/q, with a, b >= 2 coprime, as
    (numerator, denominator), not reduced.

    G(lam e^t) = R_1(t) - (1 - lam**ab e^(abt)) R_a(at) R_b(bt), where
    R_s(u) = 1/(1 - lam**s e^u) = q**s u**-v [u**v / (q**s - p**s e^u)] is
    expanded in u = st, so that s enters only as s**k; expanding in t over
    a common k! denominator would grow every coefficient by about
    log(k! ab) bits that cancel only at the end.  A factor vanishes at t = 0 only when lam**s = 1 (lam = 1, or lam = -1
    and s even), and then to first order; _reciprocal divides that zero out.
    """
    pa, qa, pb, qb = p**a, q**a, p**b, q**b
    v1, va, vb = int(p == q), int(pa == qa), int(pb == qb)
    n1, n = m + v1, m + va + vb
    x1, d1 = _reciprocal(p, q, n1)
    xa, da = _reciprocal(pa, qa, n)
    xb, db = _reciprocal(pb, qb, n)
    ab = a * b
    ya = [x * a**i for i, x in enumerate(xa)]
    yb = [x * b**j for j, x in enumerate(xb)]
    # EGF products at t^n: w1 of R_a(at) R_b(bt), w2 of R_a(at) R_b(bt) e^(abt)
    e_ab = [ab**k for k in range(n + 1)]
    zb = [_egf_product(yb, e_ab, r) for r in range(n + 1)]
    w1, w2 = _egf_product(ya, yb, n), _egf_product(ya, zb, n)
    # [t^m] R = q x1[n1] / k1 and [t^m] of the second term
    # = (q**ab w1 - p**ab w2) / (q**top k2)
    k1 = d1 * factorial(n1)
    k2 = a**va * b**vb * factorial(n) * da * db
    top = ab - a - b
    return (factorial(m) * (q ** (top + 1) * x1[n1] * k2 - (q**ab * w1 - p**ab * w2) * k1),
            p * q ** (top - 1) * k1 * k2)


# Largest weighted gap sum, in estimated bits, that weighted_sylvester_sum
# computes for lam != +-1; printing one this size takes a fraction of a second.
_WEIGHTED_BITS_BUDGET = 2**18


def sylvester_sum(p: CoprimePair) -> int:
    """Sum of all gaps in closed form: (a-1)(b-1)(2ab - a - b - 1) / 12, exactly."""
    a, b = p.a, p.b
    return (a - 1) * (b - 1) * (2 * a * b - a - b - 1) // 12


def sylvester_sum_power(p: CoprimePair, m: int) -> int:
    """Sum of n**m over the gaps: weighted_sylvester_sum at lam = 1.

    m = 0 recovers the gap count (a-1)(b-1)/2, m = 1 the gap sum, and m = 2
    matches the closed form (a-1)(b-1)*a*b*(ab - a - b) / 12.
    """
    return int(weighted_sylvester_sum(p, 1, m))


def weighted_sylvester_sum(p: CoprimePair, lam: Fraction | int, m: int) -> Fraction:
    """Sum of lam**(n-1) * n**m over the gaps, as an exact rational.

    lam = 1 reduces to sylvester_sum_power.  lam must be nonzero; since 0
    is always representable, no gap raises lam to a negative power.  The
    series takes O(m^2) products and the listing O(ab) terms; the listing
    runs only when the (a-1)(b-1)/2 gaps are no more than m^2 and the
    listing limit.  For lam = p/q != +-1 the result itself has about
    (ab - a - b) * max(bits(p), bits(q)) bits; past _WEIGHTED_BITS_BUDGET
    (2**18) the call raises ValueError before any work.
    """
    import fractions  # here, not at module level: it loads decimal

    lam = fractions.Fraction(lam)
    if lam == 0:
        raise ValueError("weight base must be nonzero")
    if m < 0:
        raise ValueError(f"power must be >= 0, got {m}")
    a, b = p.a, p.b
    if a == 1 or b == 1:
        return fractions.Fraction(0)
    num, den = lam.numerator, lam.denominator
    if abs(num) != den:  # lam != +-1
        size = (a * b - a - b) * max(abs(num).bit_length(), den.bit_length())
        if size > _WEIGHTED_BITS_BUDGET:
            raise ValueError(f"weighted gap sum would have about {size} bits, "
                             f"over the budget of {_WEIGHTED_BITS_BUDGET} bits")
    if (a - 1) * (b - 1) // 2 > min(m * m, _GAPS_MAX):
        return fractions.Fraction(*_series_moment(a, b, num, den, m))
    top = a * b - a - b
    gaps = nonrepresentable_set(p).gaps
    return fractions.Fraction(sum(num ** (n - 1) * den ** (top - n) * n**m for n in gaps),
                              den ** (top - 1))
