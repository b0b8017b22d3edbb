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
over a range of x is the affine sum F(X+1, b, a, t - a*X) plus X + 1, which
floorsum.floor_sum_affine_steps evaluates in O(log b) reciprocity rounds.
Gap listing and the gap power sums still enumerate an O(ab)-bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import CoprimePair
from .floorsum import floor_sum_affine_steps

__all__ = [
    "RepCount",
    "BestFamilyPoint",
    "NonRepSet",
    "frobenius_number",
    "is_representable",
    "representation_count",
    "rep_count_shift_check",
    "count_representable_upto",
    "count_lattice_3var",
    "best_family_point",
    "best2_count",
    "nonrepresentable_set",
    "sylvester_sum",
    "sylvester_sum_power",
    "weighted_sylvester_sum",
]

@dataclass(frozen=True)
class RepCount:
    """Number of nonnegative solutions (x, y) of a*x + b*y = n."""

    n: int
    count: int


@dataclass(frozen=True)
class BestFamilyPoint:
    """One member of the closed-form threshold-count family.

    For b < a and 0 < alpha < a with alpha == a (mod 2):

        beta = 2*floor(b*(alpha + a) / (2a)) - b        (always >= -1)
        k    = (b*alpha + a*beta) / 2
        n0   = (alpha + 1)*(beta + 1) / 2

    and n0 equals the number of representable integers in [0, k].
    """

    alpha: int
    beta: int
    k: int
    n0: int


@dataclass(frozen=True)
class NonRepSet:
    """All nonrepresentable naturals (gaps) of a pair, sorted ascending."""

    pair: CoprimePair
    gaps: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.gaps)

    @property
    def largest(self) -> int | None:
        """The Frobenius number a*b - a - b, or None when nothing is missing."""
        return self.gaps[-1] if self.gaps else None

    def power_sum(self, m: int) -> int:
        """Sum of n**m over the gaps."""
        if m < 0:
            raise ValueError(f"power must be >= 0, got {m}")
        return sum(n**m for n in self.gaps)

    def weighted_power_sum(self, lam: Fraction | int, m: int) -> Fraction:
        """Sum of lam**(n-1) * n**m over the gaps, exactly."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("weight base must be nonzero")
        if m < 0:
            raise ValueError(f"power must be >= 0, got {m}")
        return sum((lam ** (n - 1) * n**m for n in self.gaps), Fraction(0))


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
    if a == 1 or b == 1:
        return True
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


def rep_count_shift_check(p: CoprimePair, n: int) -> bool:
    """Denumerant shift: does N(n + a*b) = N(n) + 1 hold?"""
    ab = p.a * p.b
    return representation_count(p, n + ab).count == representation_count(p, n).count + 1


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
    return x_top + 1 + floor_sum_affine_steps(x_top + 1, b, a, k - a * x_top)[0]


def count_lattice_3var(p: CoprimePair, target: int) -> int:
    """Number of nonnegative solutions (x, y, z) of a*x + b*y + z = target.

    O(log b) rounds, by floor sums: for each x <= X = floor(target/a) the
    slack z absorbs whatever y leaves behind, giving floor((target - a*x)/b) + 1
    choices, and those X + 1 terms sum to X + 1 + F(X+1, b, a, target - a*X).
    """
    _check_nat(target, "target")
    a, b = p.a, p.b
    x_top = target // a
    return x_top + 1 + floor_sum_affine_steps(x_top + 1, b, a, target - a * x_top)[0]


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


def nonrepresentable_set(p: CoprimePair) -> NonRepSet:
    """Enumerate every gap of (a, b).

    There are (a-1)(b-1)/2 of them and the largest is a*b - a - b; pairs
    containing a 1 have no gaps at all.
    """
    a, b = p.a, p.b
    if a == 1 or b == 1:
        return NonRepSet(pair=p, gaps=())
    top = a * b - a - b
    rev = bin(_representable_mask(a, b, top))[2:][::-1].ljust(top + 1, "0")
    gaps = tuple(n for n in range(top + 1) if rev[n] == "0")
    return NonRepSet(pair=p, gaps=gaps)


def sylvester_sum(p: CoprimePair) -> int:
    """Sum of all gaps in closed form: (a-1)(b-1)(2ab - a - b - 1) / 12, exactly."""
    a, b = p.a, p.b
    return (a - 1) * (b - 1) * (2 * a * b - a - b - 1) // 12


def sylvester_sum_power(p: CoprimePair, m: int) -> int:
    """Sum of n**m over the gaps, by exact enumeration.

    m = 0 recovers the gap count (a-1)(b-1)/2, m = 1 the gap sum, and m = 2
    matches the closed form (a-1)(b-1)*a*b*(ab - a - b) / 12.
    """
    return nonrepresentable_set(p).power_sum(m)


def weighted_sylvester_sum(p: CoprimePair, lam: Fraction | int, m: int) -> Fraction:
    """Sum of lam**(n-1) * n**m over the gaps, as an exact rational.

    lam = 1 reduces to sylvester_sum_power.  lam must be nonzero; since 0
    is always representable, no gap raises lam to a negative power.
    """
    return nonrepresentable_set(p).weighted_power_sum(lam, m)
