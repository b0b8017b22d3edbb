"""Independent references for checking coinfloor's outputs.

Nothing here imports coinfloor or its tests, and no reference shares an
algorithm with the package: floor sums use the AtCoder-style affine
reduction (the package uses a sign-alternating reciprocity reducer),
symbols use the binary Jacobi algorithm (the package uses floor-sum
parity), solution counts use Popoviciu's formula with the stdlib modular
inverse (the package uses its own extended Euclid), and gaps come from
the characterisation {ab - ia - jb > 0 : i, j >= 1} (the package sieves a
bit mask).  `self_test` checks every reference against literal sums on
small inputs.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b)/m) for n >= 0, m >= 1, any integers a, b."""
    ans = 0
    if a < 0 or a >= m:
        q, a = divmod(a, m)
        ans += n * (n - 1) // 2 * q
    if b < 0 or b >= m:
        q, b = divmod(b, m)
        ans += n * q
    while True:
        if a >= m:
            q, a = divmod(a, m)
            ans += n * (n - 1) // 2 * q
        if b >= m:
            q, b = divmod(b, m)
            ans += n * q
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b = divmod(y_max, m)
        m, a = a, m


def paper_floor_sum(a: int, b: int, d: int) -> int:
    """S(a, b, d) = sum_{i=1}^{d} floor(i*b/a)."""
    return floor_sum(d + 1, a, b, 0)


def _bounded_points(a: int, b: int, k: int, x_max: int) -> int:
    # #{(x, y) : 0 <= x <= x_max, y >= 0, a*x + b*y <= k} for 0 <= x_max <= k // a
    return floor_sum(x_max + 1, b, a, k - a * x_max) + x_max + 1


def threshold_count(a: int, b: int, k: int) -> int:
    """N0(a, b; k): representable integers in [0, k].

    Each representable n has exactly one representation with 0 <= x < b,
    so N0 = sum_{x <= min(b-1, k//a)} (floor((k - a*x)/b) + 1).
    """
    if k < 0:
        return 0
    return _bounded_points(a, b, k, min(b - 1, k // a))


def lattice_count(a: int, b: int, t: int) -> int:
    """Nonnegative solutions (x, y, z) of a*x + b*y + z = t."""
    return _bounded_points(a, b, t, t // a)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by the binary algorithm."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need an odd positive modulus, got {n}")
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


def solution_count(a: int, b: int, n: int) -> int:
    """Nonnegative solutions of a*x + b*y = n, by Popoviciu's formula

        N(n) = n/(ab) - {b'n/a} - {a'n/b} + 1,  b*b' = 1 (mod a), a*a' = 1 (mod b).
    """
    inv_b = pow(b, -1, a) if a > 1 else 0
    inv_a = pow(a, -1, b) if b > 1 else 0
    scaled = n - b * (inv_b * n % a) - a * (inv_a * n % b) + a * b
    return scaled // (a * b)


def gaps(a: int, b: int) -> list[int]:
    """The nonrepresentable naturals of (a, b), ascending: {ab - ia - jb > 0 : i, j >= 1}."""
    ab = a * b
    out = []
    for i in range(1, b):
        start = ab - i * a - b
        if start > 0:
            out.extend(range(start, 0, -b))
    out.sort()
    return out


def digest(values) -> str:
    """A fingerprint of a sequence of integers, for comparing long listings."""
    return hashlib.blake2b(repr(tuple(values)).encode(), digest_size=16).hexdigest()


def gap_count(a: int, b: int) -> int:
    return (a - 1) * (b - 1) // 2


def gap_sum(a: int, b: int) -> int:
    return (a - 1) * (b - 1) * (2 * a * b - a - b - 1) // 12


def weighted_gap_sum(gap_list: list[int], lam: Fraction, m: int) -> Fraction:
    """sum of lam**(n-1) * n**m over the gaps, in integers over one common
    denominator q**(T-1), T the largest gap."""
    if not gap_list:
        return Fraction(0)
    p, q = lam.numerator, lam.denominator
    present = set(gap_list)
    top = gap_list[-1]
    acc = 0
    p_pow = 1  # p**(n-1)
    for n in range(1, top + 1):
        acc *= q
        if n in present:
            acc += n**m * p_pow
        p_pow *= p
    return Fraction(acc, q ** (top - 1))


def _odd_primes_upto(n: int) -> list[int]:
    return [p for p in range(3, n + 1, 2) if all(p % f for f in range(3, int(p**0.5) + 1, 2))]


def verify_case_counts(a_max: int, b_max: int, samples: int) -> dict[str, int]:
    """Cases each identity check of `run_suites("all", GridSpec(a_max, b_max))`
    must run, derived from the grid alone (coprime pairs, no odd filter)."""
    pairs = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1) if gcd(a, b) == 1]
    below = [(a, b) for a, b in pairs if b < a]
    odd_pairs = sum(1 for a, b in pairs if a % 2 and b % 2)
    swap_ds = [(a, b, d) for a, b in below for d in range(1, a) if b * d >= a]
    deficit = sum(1 for a, b, d in swap_ds if 2 * d > a)
    odd_a = range(1, a_max + 1, 2)
    odd_b = range(1, b_max + 1, 2)
    split = sum(sum(1 for b in odd_b if gcd(a, b) == 1) ** 2 for a in odd_a)
    n = len(pairs)
    return {
        "gauss_reciprocity_sum": sum(1 for a, b in pairs if a % 2 and b % 2 and a != b) + samples,
        "half_index_reciprocity": n + samples,
        "swap_identity_all_d": sum(a - 1 for a, _ in below) + samples,
        "gap_count_floor_sum_bridge": n,
        "half_product_parity_identity": n,
        "gap_cardinality": n,
        "lattice_halfline_count": n,
        "lattice_reciprocity_count": len(swap_ds),
        "lattice_gap_deficit_count": deficit,
        "threshold_swap_form": deficit,
        "threshold_closed_form": deficit,
        "table1_reproduction": 14,
        "worked_example_29_23": 6,
        "eisenstein_vs_definition": odd_pairs + samples,
        "jacobi_reciprocity": odd_pairs + samples,
        "denominator_split_parity": split,
        "numerator_split_parity": split,
        "gauss_lemma_sign": sum(p - 1 for p in _odd_primes_upto(max(a_max, b_max))),
    }


def _literal_jacobi(a: int, n: int) -> int:
    # product of Euler-criterion Legendre symbols over the prime factors of n
    sign, m, p = 1, n, 3
    while m > 1:
        while m % p == 0:
            m //= p
            r = pow(a, (p - 1) // 2, p)
            sign *= 0 if r == 0 else (1 if r == 1 else -1)
        p += 2
    return sign


def self_test() -> None:
    """Check every reference against literal sums on small inputs; raise on a mismatch."""

    def expect(got, want, what):
        if got != want:
            raise AssertionError(f"reference {what}: got {got!r}, want {want!r}")

    for n in range(0, 9):
        for m in range(1, 8):
            for a in range(-9, 10):
                for b in range(-9, 10):
                    want = sum((a * i + b) // m for i in range(n))
                    expect(floor_sum(n, m, a, b), want, f"floor_sum{(n, m, a, b)}")
    for a in range(1, 14):
        for b in range(1, 14):
            if gcd(a, b) != 1:
                continue
            reps = [0] * (3 * a * b + 3)
            for x in range(len(reps) // a + 1):
                for y in range(len(reps) // b + 1):
                    if a * x + b * y < len(reps):
                        reps[a * x + b * y] += 1
            represented = solutions = 0
            for n, r in enumerate(reps):
                represented += r > 0
                solutions += r
                expect(solution_count(a, b, n), r, f"solution_count{(a, b, n)}")
                expect(threshold_count(a, b, n), represented, f"N0{(a, b, n)}")
                expect(lattice_count(a, b, n), solutions, f"lattice{(a, b, n)}")
            literal = [n for n in range(a * b) if reps[n] == 0]
            expect(gaps(a, b), literal, f"gaps{(a, b)}")
            expect(gap_count(a, b), len(literal), f"gap_count{(a, b)}")
            expect(gap_sum(a, b), sum(literal), f"gap_sum{(a, b)}")
            if a > 8 or b > 8:
                continue
            for lam in (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 2), Fraction(-1)):
                for m in range(3):
                    want = sum((lam ** (n - 1) * n**m for n in literal), Fraction(0))
                    expect(weighted_gap_sum(literal, lam, m), want, f"weighted{(a, b, lam, m)}")
    for n in range(1, 80, 2):
        for a in range(-10, 90):
            expect(jacobi(a, n), _literal_jacobi(a, n), f"jacobi{(a, n)}")
    expect(paper_floor_sum(29, 23, 8), 24, "S(29, 23, 8)")
    expect(threshold_count(29, 23, 257), 60, "N0(29, 23; 257)")
