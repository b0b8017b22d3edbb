"""Seeded inputs for the four workloads.

Every workload is a sequence of rounds; round r of a workload is drawn
from its own generator seeded by (workload, seed, r), so any process can
rebuild it and every round has the same make-up of operations.  An
operation is a JSON-ready list `[kind, *arguments]`; the program sees
only these arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# Operand bands of the kernel workload as (name, fewest digits, most digits);
# cost grows with bit length.  A round draws one call of each kind per band,
# each call with its own digit count.  The 1e9 band is drawn twice, so that
# the median falls inside the calls with small operands; the large band runs
# without a gap from 1e70 to 1e300, so that the p90 falls where latencies
# are dense rather than between two clusters.
KERNEL_BANDS = (("1e3", 2, 4), ("1e9", 7, 11), ("1e9", 7, 11), ("1e100-1e300", 70, 300))
VERIFY_GRID = (60, 60)
VERIFY_SAMPLES = 200  # GridSpec's default sample_count
CLI_FORMATS = ("plain", "json", "csv")


def rng_for(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _coprime(rng: random.Random, lo: int, hi: int, odd: bool = False, below: bool = False) -> tuple[int, int]:
    # a coprime pair in [lo, hi]; distinct odd members when odd, b < a when below
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if odd:
            a, b = a | 1, b | 1
        if below and b > a:
            a, b = b, a
        if a != b and gcd(a, b) == 1:
            return a, b


def _family_threshold(a: int, b: int, alpha: int) -> int:
    # the paper's threshold k = (b*alpha + a*beta)/2 for b < a, alpha = a (mod 2)
    beta = 2 * (b * (alpha + a) // (2 * a)) - b
    return (b * alpha + a * beta) // 2


def _pair_with_product(rng: random.Random, lo: int, hi: int, below: bool = False) -> tuple[int, int]:
    # a coprime pair with lo <= a*b <= hi; b < a when below
    while True:
        ab = rng.randint(lo, hi)
        x = rng.randint(2, int(ab**0.5))
        y = ab // x
        a, b = (y, x) if below else rng.choice(((x, y), (y, x)))
        if gcd(a, b) == 1:
            return a, b


def kernel_round(seed: int, r: int) -> list[list]:
    """One call of each kind per operand band: 40 operations."""
    rng = rng_for("kernel", seed, r)
    ops = []
    for _, fewest, most in KERNEL_BANDS:
        def bounds() -> tuple[int, int]:  # operands of a random digit count in the band
            size = 10 ** rng.randint(fewest, most)
            return size // 10, size

        a, b, d = (rng.randint(*bounds()) for _ in range(3))
        ops.append(["floorsum", a, b, d])
        a = rng.randint(*bounds())
        while True:
            b = rng.randint(1, a - 1)
            if gcd(a, b) == 1:
                break
        ops.append(["reciprocity", a, b, rng.randint(1, a - 1)])
        ops.append(["strong", *_coprime(rng, *bounds())])
        ops.append(["gauss", *_coprime(rng, *bounds(), odd=True)])
        ops.append(["eisenstein", *_coprime(rng, *bounds(), odd=True)])
        ops.append(["jacobi_reciprocity", *_coprime(rng, *bounds(), odd=True)])
        a, b = _coprime(rng, *bounds())
        ops.append(["member", a, b, rng.randint(0, 2 * a * b)])
        a, b = _coprime(rng, *bounds())
        ops.append(["solutions", a, b, rng.randint(0, 4 * a * b)])
        a, b = _coprime(rng, *bounds(), below=True)
        ops.append(["family", a, b, rng.randrange(2 - a % 2, a, 2)])
        a, b = _coprime(rng, *bounds(), below=True)
        ops.append(["best2", a, b, rng.randint(a // 2 + 1, a - 1)])
    return ops


def _rational(rng: random.Random, negative: bool) -> str:
    # small numerators and denominators: the cost of a weighted sum grows
    # with their digits times the largest gap
    while True:
        lam = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if lam != 1:
            return str(-lam if negative else lam)


def counts_round(seed: int, r: int) -> list[list]:
    """The routes that are linear in k or ab today: 8 operations."""
    rng = rng_for("counts", seed, r)
    ops = []
    for _ in range(2):  # thresholds from the paper's family, inside [0, (a-1)(b-1))
        a, b = _pair_with_product(rng, 50_000, 100_000, below=True)
        ops.append(["upto", a, b, _family_threshold(a, b, rng.randrange(2 - a % 2, a, 2))])
    a, b = _pair_with_product(rng, 20_000, 50_000)
    ops.append(["upto", a, b, rng.randint((a - 1) * (b - 1), 100_000)])
    ops.append(["lattice", *_coprime(rng, 2, 9, below=True)[::-1], rng.randint(50_000, 100_000)])
    ops.append(["gaps", *_pair_with_product(rng, 50_000, 100_000)])
    ops.append(["power", *_pair_with_product(rng, 30_000, 60_000), rng.randint(0, 3)])
    for negative in (False, True):
        a, b = _coprime(rng, 30, 55)
        ops.append(["weighted", a, b, _rational(rng, negative), rng.randint(0, 3)])
    return ops


def verify_round(seed: int, r: int) -> list[list]:
    """One identity-suite pass at grid 60 with a fresh seed."""
    return [["verify", *VERIFY_GRID, rng_for("verify", seed, r).randrange(2**31)]]


def cli_round(seed: int, r: int) -> list[list]:
    """Eight commands, each in the three output formats: 24 argument lists."""
    rng = rng_for("cli", seed, r)
    ops = []
    for fmt in CLI_FORMATS:
        a, b = _coprime(rng, 2, 10**9)
        ops.append(["floorsum", str(a), str(b), str(rng.randint(1, 10**9))])
        ops.append(["frobenius", *map(str, _coprime(rng, 2, 10**6))])
        a, b = _coprime(rng, 2, 10**6)
        ops.append(["count", str(a), str(b), str(rng.randint(0, 3 * a * b))])
        a, b = _coprime(rng, 2, 60)
        ops.append(["upto", str(a), str(b), str(rng.randint(0, 2000))])
        a, b = _coprime(rng, 3, 1000, below=True)
        ops.append(["best", str(a), str(b), "--alpha", str(rng.randrange(2 - a % 2, a, 2))])
        a, b = _coprime(rng, 2, 30)
        # positive weights only: the parser takes a leading "-" for an option
        extra = rng.choice(([], ["--sum"], ["--power", str(rng.randint(0, 3))],
                            ["--weighted", _rational(rng, False), str(rng.randint(0, 2))]))
        ops.append(["gaps", str(a), str(b), *extra])
        ops.append(["jacobi", *map(str, _coprime(rng, 1, 10**9, odd=True))])
        ops.append(["table1"])
        for op in ops[-8:]:
            op += ["--format", fmt]
    return ops


ROUNDS = {"kernel": kernel_round, "counts": counts_round, "verify": verify_round, "cli": cli_round}
