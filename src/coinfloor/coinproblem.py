"""Representability machinery for two coprime coin denominations a and b.

Exact solution counts of a*x + b*y = n, threshold counts of representable
integers, a closed-form family of those threshold counts, enumeration of
the nonrepresentable numbers (the gaps), and exact power and weighted sums
over the gaps.  All arithmetic is exact: integers are unbounded and the
weighted sums use rationals.

The O(1) membership and count formulas all rest on the canonical solution:
for gcd(a, b) = 1 the congruence a*x == n (mod b) has the unique solution
x0 = n * a^(-1) mod b in [0, b), and n is representable iff a*x0 <= n.

The lattice count of a*x + b*y + z = t is a floor sum: summing
floor((t - a*x)/b) + 1 over x <= X = floor(t/a) is an affine sum, which an
index shift by the pair's cached inverse splits into two S(b, a mod b, .).
The threshold count N0 is that lattice count up to the Frobenius number
a*b - a - b, and Sylvester's closed form past it.

Gap sums come from the Hilbert series of the semigroup <a, b>: the gaps
have the generating function G(x) = 1/(1-x) - (1-x^ab)/((1-x^a)(1-x^b)),
so sum lam**(n-1) * n**m over the gaps is (m!/lam) [t^m] G(lam e^t), one
power-series coefficient in O(m^2) integer products whatever the size of
a and b.  The listing writes each residue class's run of gaps, mod the
smaller coin, as packed rows, with no int made for a representable number;
summing over it costs one term per gap, and the sums take that route only
when the gap count is small against m^2.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from math import comb, factorial, lcm, log2

from .core import CoprimePair, _Record
from .floorsum import _chain_refusal, _shown, fast_floor_sum

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
        raise ValueError(f"{name} must be >= 0, got {_shown(n)}")


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

    Each representable n has exactly one representation with 0 <= x < b
    (the canonical solution), so N0 counts the (x, y) with a*x + b*y <= k
    and x < b.  Up to the Frobenius number a*b - a - b, floor(k/a) <= b - 1,
    so that is count_lattice_3var(p, k), O(log b) rounds.  Past it every n
    is representable, and N0 = k + 1 - (a-1)(b-1)/2 with no floor sum.

    verify checks this against the gap mask and the literal membership loop.
    """
    if k < 0:
        return 0
    a, b = p.a, p.b
    if k > a * b - a - b:
        return k + 1 - (a - 1) * (b - 1) // 2
    return count_lattice_3var(p, k)


def count_lattice_3var(p: CoprimePair, target: int) -> int:
    """Number of nonnegative solutions (x, y, z) of a*x + b*y + z = target.

    O(log b) rounds, by two floor sums.  For each x <= X = floor(target/a)
    the slack z absorbs whatever y leaves behind, giving floor((target - a*x)/b) + 1
    choices.  With n = X + 1, c = target - a*X and a = q*b + r, the x = X - i
    term is q*i + floor((r*i + c)/b) + 1.  The shift j0 = c * a^(-1) mod b
    (the pair's cached inverse) makes r*j0 - c = t*b, so
    floor((r*i + c)/b) = floor(r*(i + j0)/b) - t, and over i < n

        count = n + q*n(n-1)/2 + S(b, r, X + j0) - S(b, r, j0 - 1) - n*t.

    When the reducer refuses r (floorsum._chain_refusal), it still sums
    whole periods: such a count answers exactly when j0 is 0 with b | X,
    or 1 with b | X + 1, whatever the size of b, and any other is refused
    with the reducer's message before the inverse is paid for.
    """
    _check_nat(target, "target")
    a, b = p.a, p.b
    x_top, c = divmod(target, a)
    n = x_top + 1
    q, r = divmod(a, b)
    refusal = _chain_refusal(r, "a mod b")
    if refusal is None:
        j0 = c * p.inv_a_mod_b % b
    else:  # the reducer's whole periods: c = 0 or r mod b, so j0 = 0 or 1, and b | X + j0
        j0 = int(c % b != 0)
        if (c - j0 * r) % b or (x_top + j0) % b:
            raise refusal
    t = (r * j0 - c) // b
    low = fast_floor_sum(b, r, j0 - 1) if j0 else 0
    return n + q * (n * x_top // 2) + fast_floor_sum(b, r, x_top + j0) - low - n * t


def _family_point(a: int, b: int, alpha: int) -> tuple[int, int, int]:
    """(beta, k, n0) of the family at alpha, as BestFamilyPoint states them."""
    beta = 2 * (b * (alpha + a) // (2 * a)) - b
    return beta, (b * alpha + a * beta) // 2, (alpha + 1) * (beta + 1) // 2


def best_family_point(p: CoprimePair, alpha: int) -> BestFamilyPoint:
    """Closed-form threshold count for one alpha; requires b < a, 0 < alpha < a,
    and alpha of the same parity as a.  All divisions are exact."""
    a, b = p.a, p.b
    if b >= a:
        raise ValueError(f"need b < a, got ({_shown(a)}, {_shown(b)})")
    if not 0 < alpha < a:
        raise ValueError(f"need 0 < alpha < a = {_shown(a)}, got {_shown(alpha)}")
    if alpha % 2 != a % 2:
        raise ValueError(f"alpha must have the parity of a = {_shown(a)}, got {_shown(alpha)}")
    return BestFamilyPoint(alpha, *_family_point(a, b, alpha))


def best2_count(p: CoprimePair, d: int) -> tuple[int, int]:
    """(k, n0) of best_family_point at alpha = 2d - a, where beta = 2K - b
    with K = floor(b*d/a): k = b*d + a*K - a*b, and n0 representable
    integers in [0, k].  Requires b < a and a/2 < d < a.
    """
    a, b = p.a, p.b
    if b >= a:
        raise ValueError(f"need b < a, got ({_shown(a)}, {_shown(b)})")
    if not (2 * d > a and d < a):
        raise ValueError(f"need a/2 < d < a = {_shown(a)}, got d={_shown(d)}")
    return _family_point(a, b, 2 * d - a)[1:]


# The listing packs each gap into a 32-bit little-endian field.  The largest
# gap, a*b - a - b = 2G - 1, is below 2**21 for G <= _GAPS_MAX gaps, so
# adding to every field of packed rows never carries into the next field.
# Bands of fewer than _DOUBLED_ROWS rows are written a row at a time, longer
# ones doubled into blocks of under _BLOCK_BITS bits.  Doubling the short
# bands too gives the same gaps but costs 1.07x per listing on pairs with
# ab from 5*10**4 to 10**5 and 1.21x at (211, 331) (2-core VM, Python 3.11.7).
_DOUBLED_ROWS = 8
_BLOCK_BITS = 2**20
# Most gaps nonrepresentable_set lists (its time and memory: see the README).
_GAPS_MAX = 10**6


def nonrepresentable_set(p: CoprimePair) -> NonRepSet:
    """Every gap of (a, b), ascending: (a-1)(b-1)/2 of them, the largest
    a*b - a - b, none when a coin is 1.  More than _GAPS_MAX (10**6) gaps
    raise ValueError before any work.

    With B = min(a, b) and A = max(a, b), the class of A*x mod B
    (0 <= x < B) first reaches a representable number at A*x (the
    canonical solution), so it holds floor(A*x/B) gaps, B apart.  These
    heights rise with x: row k, the n in [k*B, (k+1)*B), holds
    k*B + (A*x mod B) for each x with floor(A*x/B) > k, and the rows between
    two heights form a band with one set of residues.  A row is the one
    below plus B in every field, and a long band doubles: rows m .. 2m-1
    are rows 0 .. m-1 plus m*B.  No representable number is visited, the
    Python-level steps are O(B log(A/B)), and struct.unpack makes one int
    per gap, into a tuple allocated once.
    """
    a, b = p.a, p.b
    count = (a - 1) * (b - 1) // 2
    if count > _GAPS_MAX:
        raise ValueError(f"({_shown(a)}, {_shown(b)}) has {_shown(count)} gaps, over the listing limit of "
                         f"{_GAPS_MAX}; sylvester_sum_power gives their count and power sums")
    big, small = max(a, b), min(a, b)
    live = list(range(1, small))  # the residues with a gap in the current row, ascending
    row = int.from_bytes(struct.pack(f"<{small - 1}I", *live), "little")  # row 0
    step = int.from_bytes(struct.pack("<I", small) * (small - 1), "little")  # B in every field
    data, at, bottom, width = bytearray(4 * count), 0, 0, 4 * (small - 1)
    for x in range(1, small):
        top = big * x // small  # this band is rows bottom .. top - 1, each `width` bytes
        n = top - bottom
        if n < _DOUBLED_ROWS:
            for _ in range(n):
                data[at:at + width] = row.to_bytes(width, "little")
                at += width
                row += step
        else:
            bits, block, m, rise = 8 * width, row, 1, step  # m rows, and m*B in every field of them
            while 2 * m <= n and bits * m < _BLOCK_BITS:
                block |= (block + rise) << bits * m
                rise = (rise | rise << bits * m) << 1
                m *= 2
            for _ in range(n // m):
                data[at:at + width * m] = block.to_bytes(width * m, "little")
                at += width * m
                block += rise
            if n % m:  # the first n % m rows of the next block
                size = width * (n % m)
                data[at:at + size] = (block & ((1 << 8 * size) - 1)).to_bytes(size, "little")
                at += size
            row += n * step
        bottom = top
        # the class of A*x has no gap from row `top` on: drop its field
        i = bisect_left(live, big * x % small)
        del live[i]
        row = row & ((1 << 32 * i) - 1) | row >> 32 * (i + 1) << 32 * i
        step >>= 32
        width -= 4
    return NonRepSet(pair=p, gaps=struct.unpack(f"<{count}I", data))


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

# Most work (2**_gap_sum_work) a gap sum takes on: about 2 s at the 0.02 ns
# a unit took on a 2-core VM with Python 3.11.7.
_GAP_SUM_WORK_BUDGET = 10**11


def _gap_sum_work(a: int, b: int, lam_bits: int, m: int, listing: bool) -> float:
    """log2 of the estimated work of a weighted gap sum by its route, in
    units where a product of two s-bit numbers costs s**1.35 (fitted from
    3e3 to 4e5 bits); lam_bits is max(bits(p), bits(q)) for lam = p/q, 0
    for lam = +-1.  The series makes (m+2)**2 products of
    (m+2) * (bits(ab) + bits(m) + 2*max(a, b)*lam_bits) bits, the listing
    a term per gap of m*bits(top) + top*lam_bits bits, weighing four
    products.  Within about 2x of times from 3 ms to 32 s.
    """
    top = a * b - a - b
    if listing:
        term = m * top.bit_length() + top * lam_bits + 1
        return 2 + log2((a - 1) * (b - 1) // 2) + 1.35 * log2(term)
    size = (m + 2) * ((a * b).bit_length() + m.bit_length() + 2 * max(a, b) * lam_bits)
    return 2 * log2(m + 2) + 1.35 * log2(size)


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
    runs only when the (a-1)(b-1)/2 gaps are no more than m^2 (past 10**6
    gaps both routes are over the work budget).  For lam = p/q != +-1 the
    result itself has about (ab - a - b) * max(bits(p), bits(q)) bits;
    past _WEIGHTED_BITS_BUDGET (2**18) the call raises ValueError before
    any work, and so it does past _GAP_SUM_WORK_BUDGET (10**11) units of
    _gap_sum_work, about 2 s.
    """
    import fractions  # here, not at module level: it loads decimal

    lam = fractions.Fraction(lam)
    if lam == 0:
        raise ValueError("weight base must be nonzero")
    if m < 0:
        raise ValueError(f"power must be >= 0, got {_shown(m)}")
    a, b = p.a, p.b
    if a == 1 or b == 1:
        return fractions.Fraction(0)
    num, den = lam.numerator, lam.denominator
    top = a * b - a - b
    lam_bits = 0 if abs(num) == den else max(abs(num).bit_length(), den.bit_length())
    if top * lam_bits > _WEIGHTED_BITS_BUDGET:
        raise ValueError(f"weighted gap sum would have about {_shown(top * lam_bits)} bits, "
                         f"over the budget of {_WEIGHTED_BITS_BUDGET} bits")
    listing = (a - 1) * (b - 1) // 2 <= m * m
    work = _gap_sum_work(a, b, lam_bits, m, listing)
    if work > log2(_GAP_SUM_WORK_BUDGET):
        raise ValueError(f"gap sum at power {_shown(m)} would take about 2**{work:.0f} units of work, "
                         f"over the work budget of {_GAP_SUM_WORK_BUDGET}")
    if not listing:
        return fractions.Fraction(*_series_moment(a, b, num, den, m))
    gaps = nonrepresentable_set(p).gaps
    return fractions.Fraction(sum(num ** (n - 1) * den ** (top - n) * n**m for n in gaps),
                              den ** (top - 1))
