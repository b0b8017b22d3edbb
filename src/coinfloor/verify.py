"""Identity suite: replays every floor-sum, coin-count, and symbol identity
against independent routes and reports mismatches as data.

Each identity is one function over an explicit iterable of cases that
returns its CheckResult; identities that share per-case work share one
function with a result each.  The chains (check_equivalence_chain,
check_lemma_chain, check_jacobi_suite) only build the cases from a
GridSpec and compose these functions: the grid's pairs plus, for checks
whose evaluators are sublinear, _SAMPLE_COUNT (200) cases up to ~1e9 from
a seeded RNG, so identical GridSpecs always produce identical outcomes.

The chains follow the paper.  The equivalence chain checks Gauss's
half-index reciprocity and its equivalence with Sylvester's gap count.
The lemma chain checks the generalization: the all-d reciprocity
S(a, b, d) + S(b, a, K) = d*K with K = floor(b*d/a), then the lattice and
threshold counts built on it, which read S(a, b, d) + S(b, a, K) off the
same residual; each S(b, a, K) serves every d of its K.  The Jacobi
suite checks the symbol engine against its oracles; its two split-parity
checks share their floor sums per a, one pair of reducer calls per
distinct b, c or product bc.

Failures are collected, never raised: a CheckResult's ``failures`` list
holds each offending case's inputs with the expected and actual values,
sorted by inputs so reports are order-independent.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, groupby, takewhile
from math import gcd
from operator import itemgetter
from time import perf_counter

from .coinproblem import (
    best2_count,
    best_family_point,
    count_lattice_3var,
    count_representable_upto,
    is_representable,
)
from .core import CoprimePair, _Record, _small_primes
from . import floorsum
from .floorsum import (
    fast_floor_sum,
    gauss_residual,
    reciprocity_residual,
    strong_residual,
)
from .jacobi import (
    _check_odd_triple,
    _eisenstein_parity,
    gauss_lemma_count,
    jacobi_by_definition,
    jacobi_eisenstein,
    jacobi_reciprocity_check,
    legendre_euler,
)

__all__ = [
    "GridSpec",
    "Failure",
    "CheckResult",
    "check_equivalence_chain",
    "check_lemma_chain",
    "check_jacobi_suite",
    "reproduce_table1",
    "reproduce_section5_example",
    "run_suites",
    "TABLE1_PAIR",
    "TABLE1_ROWS",
]

# Upper bound for the seeded random large-parameter cases, and how many
# of them each sampled check takes.
_SAMPLE_MAX = 10**9
_SAMPLE_COUNT = 200

# A pass's time grows as max(A, B)**2 * min(A, B) (1.95-2.03 us a unit at
# grids 60 and 150) plus sum(p**2) over the odd primes p <= max(A, B), from
# gauss_lemma_sign (82-96 ns a unit to 600 and 1299): weighted 1/22.
_GAUSS_LEMMA_DIV = 22

# Largest _grid_cost of a grid, that of grid 150: 150**3 + 216282 // 22.
_GRID_COST_MAX = 3384831


def _odd_primes(n: int) -> list[int]:
    """The odd primes up to n, from core's table: those below 2**15 only,
    more than any grid under _GRID_COST_MAX reaches."""
    return list(takewhile(n.__ge__, _small_primes()[1:]))


def _grid_cost(a_max: int, b_max: int) -> int:
    top = max(a_max, b_max)
    return top**2 * min(a_max, b_max) + sum(p * p for p in _odd_primes(top)) // _GAUSS_LEMMA_DIV


TABLE1_PAIR = (29, 23)

# Reference threshold-count table for the pair (29, 23): (alpha, k, n0) rows,
# embedded verbatim rather than recomputed so that regressions in either
# computation route are caught.  Row alpha=1 lists the threshold as -1 while
# the closed form yields -3; every negative threshold has an empty count, so
# negative thresholds are compared by sign.
TABLE1_ROWS: tuple[tuple[int, int, int], ...] = (
    (1, -1, 0),
    (3, 49, 4),
    (5, 101, 12),
    (7, 153, 24),
    (9, 205, 40),
    (11, 228, 48),
    (13, 280, 70),
    (15, 332, 96),
    (17, 384, 126),
    (19, 436, 160),
    (21, 459, 176),
    (23, 511, 216),
    (25, 563, 260),
    (27, 615, 308),
)


class GridSpec(_Record):
    """Parameter grid for the identity checks.

    Exhaustive pairs run over the coprime pairs in 1..a_max x 1..b_max
    (the Jacobi suite takes the odd ones); _SAMPLE_COUNT seeded random
    large cases are added to the checks that can afford them.  A grid whose
    _grid_cost is over that of grid 150 is refused.
    """

    _fields = ("a_max", "b_max", "seed")

    def __init__(self, a_max: int = 60, b_max: int = 60, seed: int = 0) -> None:
        if a_max < 2 or b_max < 2:
            raise ValueError(f"a_max and b_max must be >= 2, got ({floorsum._shown(a_max)}, {floorsum._shown(b_max)})")
        if _grid_cost(a_max, b_max) > _GRID_COST_MAX:
            raise ValueError(f"grid ({floorsum._shown(a_max)}, {floorsum._shown(b_max)}): max(A, B)**2 * min(A, B) "
                             f"+ sum(p**2 for odd primes p <= max(A, B)) // {_GAUSS_LEMMA_DIV} is over the limit of "
                             f"{_GRID_COST_MAX}, grid 150's")
        vars(self).update(a_max=a_max, b_max=b_max, seed=seed)


class Failure(_Record):
    """One mismatching grid point: named inputs plus both sides of the check."""

    _fields = ("inputs", "expected", "actual")

    def __init__(self, inputs: tuple[tuple[str, int], ...], expected: object, actual: object) -> None:
        vars(self).update(inputs=inputs, expected=expected, actual=actual)


class CheckResult(_Record):
    """Outcome of one named check over its grid."""

    _fields = ("check_id", "cases_run", "failures", "elapsed")

    def __init__(self, check_id: str, cases_run: int, failures: list[Failure], elapsed: float) -> None:
        vars(self).update(check_id=check_id, cases_run=cases_run, failures=failures, elapsed=elapsed)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_row(self) -> dict:
        """Flat serializable summary (shared with the CLI report)."""
        return {
            "check_id": self.check_id,
            "cases_run": self.cases_run,
            "failures": [
                {"inputs": dict(f.inputs), "expected": str(f.expected), "actual": str(f.actual)}
                for f in self.failures
            ],
            "elapsed": round(self.elapsed, 6),
            "passed": self.passed,
        }


class _Recorder:
    """Accumulates cases, mismatches, and time for one named check.

    ``names`` names the values of each case, in order.  They are bound
    once, here, and read only when a case mismatches, which pairs them
    with that case's values as its Failure's inputs.

    Cases are recorded in batches, right after the loop that computes
    them: all of a check's cases, or one pair's, or one run of equal a's.
    cases(expected, actual, inputs) compares the two lists with one ``!=``
    and asks inputs(i) for a case's values only where position i
    mismatches, so a passing case builds nothing.  ``clock`` is a
    one-item list: when the previous batch of any recorder sharing it was
    recorded, or when it was made.  A batch is charged the time since
    then, so the charges are disjoint and add up to the wall time of the
    loop that feeds the recorders, and work shared by several checks is
    charged once, to the check whose batch follows it.
    """

    __slots__ = ("check_id", "names", "cases_run", "failures", "elapsed", "_clock")

    def __init__(self, check_id: str, names: tuple[str, ...], clock: list[float] | None = None) -> None:
        self.check_id = check_id
        self.names = names
        self.cases_run = 0
        self.failures: list[Failure] = []
        self.elapsed = 0.0
        self._clock = clock or [perf_counter()]

    def cases(self, expected: list, actual: list, inputs: Callable[[int], tuple[int, ...]]) -> None:
        now = perf_counter()
        clock = self._clock
        self.elapsed += now - clock[0]
        clock[0] = now
        self.cases_run += len(actual)
        if expected != actual:
            self.failures += [Failure(tuple(sorted(zip(self.names, inputs(i)))), want, got)
                              for i, (want, got) in enumerate(zip(expected, actual)) if want != got]

    def result(self) -> CheckResult:
        return CheckResult(
            check_id=self.check_id,
            cases_run=self.cases_run,
            failures=sorted(self.failures, key=lambda f: f.inputs),
            elapsed=self.elapsed,
        )


def _zero(*case: int) -> int:
    return 0


def _check(check_id: str, names: tuple[str, ...], cases: Iterable[tuple[int, ...]],
           actual: Callable[..., object], expected: Callable[..., object] = _zero) -> CheckResult:
    """One identity over its cases, recorded as one batch: actual(*case) == expected(*case) for each."""
    rec = _Recorder(check_id, names)
    cases = list(cases)
    rec.cases([expected(*case) for case in cases], [actual(*case) for case in cases], cases.__getitem__)
    return rec.result()


def _naive_floor_sum(a: int, b: int, d: int) -> int:
    return sum(i * b // a for i in range(1, d + 1))


def _count_by_membership(pair: CoprimePair, k: int) -> int:
    """N0(a, b; k) by the literal O(k) loop over is_representable,
    independent of the floor-sum route of count_representable_upto."""
    return sum(is_representable(pair, n) for n in range(k + 1))


def _gap_bits(a: int, b: int) -> int:
    """Bit n is set iff n is a gap of (a, b); 0 when a coin is 1.  An O(ab)
    oracle, sharing nothing with nonrepresentable_set: doubled shifts fold
    all multiples of a, then of b, into the bits up to a*b - a - b."""
    top = a * b - a - b
    mask = (1 << (top + 1)) - 1
    bits = 1
    for step in (a, b):
        shift = step
        while shift <= top:
            bits |= bits << shift
            shift <<= 1
        bits &= mask
    return mask ^ bits


def _grid_pairs(g: GridSpec, step: int = 1) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, g.a_max + 1, step)
            for b in range(1, g.b_max + 1, step) if gcd(a, b) == 1]


def _sample_coprime(rng: random.Random, odd: bool = False) -> tuple[int, int]:
    while True:
        a = rng.randrange(1, _SAMPLE_MAX)
        b = rng.randrange(1, _SAMPLE_MAX)
        if odd:
            a |= 1
            b |= 1
        if a != b and gcd(a, b) == 1:
            return a, b


def _sample_swap(rng: random.Random) -> tuple[int, int, int]:
    while True:
        a = rng.randrange(3, _SAMPLE_MAX)
        b = rng.randrange(1, a)
        if gcd(a, b) == 1:
            return a, b, rng.randrange(1, a)


def _split_triples(odd_a: range, odd_b: range) -> Iterator[tuple[int, int, int]]:
    """(a, b, c) for a in odd_a and b, c in odd_b, with b and c coprime to a."""
    for a in odd_a:
        coprime = [b for b in odd_b if gcd(a, b) == 1]
        for b in coprime:
            for c in coprime:
                yield a, b, c


def gauss_reciprocity_sum(pairs: Iterable[tuple[int, int]]) -> CheckResult:
    """gauss_residual(p, q) == 0 for distinct odd coprime p, q."""
    return _check("gauss_reciprocity_sum", ("a", "b"), pairs, gauss_residual)


def half_index_reciprocity(pairs: Iterable[tuple[int, int]]) -> CheckResult:
    """strong_residual(a, b) == 0 for coprime a, b."""
    return _check("half_index_reciprocity", ("a", "b"), pairs, strong_residual)


def gap_count_checks(pairs: Iterable[tuple[int, int]]) -> list[CheckResult]:
    """For coprime a, b: the bridge between the gap count and the two
    half-index floor sums, its pure parity reformulation, and the gap
    cardinality (a-1)(b-1)/2, all three off one gap mask per pair."""
    clock = [perf_counter()]
    rec_bridge = _Recorder("gap_count_floor_sum_bridge", ("a", "b"), clock)
    rec_parity = _Recorder("half_product_parity_identity", ("a", "b"), clock)
    rec_card = _Recorder("gap_cardinality", ("a", "b"), clock)
    pairs = list(pairs)
    # the gaps counted off the bit mask, independently of the closed form
    n_gaps = [_gap_bits(a, b).bit_count() for a, b in pairs]
    rhs = [(a - 1) * (b // 2) + (b - 1) * (a // 2) for a, b in pairs]
    rec_bridge.cases(rhs, [n + 2 * (fast_floor_sum(a, b, a // 2) + fast_floor_sum(b, a, b // 2))
                           for n, (a, b) in zip(n_gaps, pairs)], pairs.__getitem__)
    # doubled to stay integral; (a-1)(b-1) is even for coprime a, b
    rec_parity.cases([2 * r for r in rhs], [(a - 1) * (b - 1) + 4 * (a // 2) * (b // 2) for a, b in pairs],
                     pairs.__getitem__)
    rec_card.cases([(a - 1) * (b - 1) // 2 for a, b in pairs], n_gaps, pairs.__getitem__)
    return [rec_bridge.result(), rec_parity.result(), rec_card.result()]


def lattice_halfline_count(pairs: Iterable[tuple[int, int]]) -> CheckResult:
    """The lattice count at b*floor(a/2) for coprime a, b, in floor-sum form."""
    return _check(
        "lattice_halfline_count", ("a", "b"), pairs,
        lambda a, b: count_lattice_3var(CoprimePair(a, b), b * (a // 2)),
        lambda a, b: a // 2 + 1 + fast_floor_sum(a, b, a // 2),
    )


def lattice_threshold_checks(pairs: Iterable[tuple[int, int]],
                             samples: Iterable[tuple[int, int, int]] = ()) -> list[CheckResult]:
    """The paper's all-d reciprocity and the counts built on it.  For
    coprime b < a and each 1 <= d < a: reciprocity_residual(a, b, d) == 0;
    then, where K = floor(b*d/a) >= 1, the lattice count at b*d + a*K in
    reciprocity form and, when 2d > a, through the gap deficit; N0 in swap
    form, twice the residual plus best2_count's n0; and best2_count's
    (k, n0), one call per d for both, against both threshold routes.

    A pair is validated once, as reciprocity_residual would; S(a, b, d) is
    taken once per d and S(b, a, K) once per distinct K >= 1, and the
    counts read S(a, b, d) + S(b, a, K) off the residual as d*K + residual,
    so a reducer fault shows in the reciprocity and in both counts that use
    the sum.  ``samples`` are further triples for reciprocity_residual
    alone.  N0(k) comes from the gap mask (k + 1 minus the set bits up to
    k), built once per pair in O(ab) bits, so no side runs an O(k) loop.
    """
    floor_sum = floorsum.fast_floor_sum  # looked up as reciprocity_residual does
    clock = [perf_counter()]
    names = ("a", "b", "d")
    rec_swap = _Recorder("swap_identity_all_d", names, clock)
    rec_rect = _Recorder("lattice_reciprocity_count", names, clock)
    rec_deficit = _Recorder("lattice_gap_deficit_count", names, clock)
    rec_swapform = _Recorder("threshold_swap_form", names, clock)
    rec_family = _Recorder("threshold_closed_form", names, clock)
    for a, b in pairs:
        if not 1 <= b < a or gcd(a, b) != 1:
            reciprocity_residual(a, b, 1)  # refuses the pair with its message
        pair = CoprimePair(a, b)
        ds = range(1, a)
        Ks = [b * d // a for d in ds]  # K grows by at most 1 per d, as b < a
        swapped = [0, *(floor_sum(b, a, K) for K in range(1, Ks[-1] + 1))]  # S(b, a, 0) = 0
        residuals = [floor_sum(a, b, d) + swapped[K] - d * K for d, K in zip(ds, Ks)]
        rec_swap.cases([0] * len(ds), residuals, lambda i: (a, b, 1 + i))
        lo = -(-a // b)  # from here on d starts at the first d with K >= 1
        ds, Ks, residuals = ds[lo - 1:], Ks[lo - 1:], residuals[lo - 1:]
        targets = [b * d + a * K for d, K in zip(ds, Ks)]
        lattice = [count_lattice_3var(pair, t) for t in targets]
        rec_rect.cases([2 * (d * K + r) + d + K + 1 for d, K, r in zip(ds, Ks, residuals)], lattice,
                       lambda i: (a, b, lo + i))
        hi = max(lo, a // 2 + 1)  # and from here on at the first d with 2d > a too
        ds, Ks, residuals, targets, lattice = (x[hi - lo:] for x in (ds, Ks, residuals, targets, lattice))
        gap_bits = _gap_bits(a, b)
        ks = [t - a * b for t in targets]
        # every n in [0, k] but the gaps up to k; none when k < 0
        n0 = [k + 1 - (gap_bits & ((1 << (k + 1)) - 1)).bit_count() if k >= 0 else 0 for k in ks]
        gaps = (a - 1) * (b - 1) // 2
        rec_deficit.cases([t + 1 - gaps + n for t, n in zip(targets, n0)], lattice, lambda i: (a, b, hi + i))
        family = [best2_count(pair, d) for d in ds]
        rec_swapform.cases(n0, [2 * r + n for r, (_, n) in zip(residuals, family)], lambda i: (a, b, hi + i))
        rec_family.cases([(k, n, n) for k, n in zip(ks, n0)],
                         [(*point, count_representable_upto(pair, k)) for point, k in zip(family, ks)],
                         lambda i: (a, b, hi + i))
    samples = list(samples)
    rec_swap.cases([0] * len(samples), [reciprocity_residual(*t) for t in samples], samples.__getitem__)
    return [rec.result() for rec in (rec_swap, rec_rect, rec_deficit, rec_swapform, rec_family)]


def eisenstein_vs_definition(pairs: Iterable[tuple[int, int]]) -> CheckResult:
    """The floor-sum symbol against the factorization/Euler oracle, odd coprime pairs."""
    return _check("eisenstein_vs_definition", ("a", "b"), pairs, jacobi_eisenstein, jacobi_by_definition)


def jacobi_reciprocity(pairs: Iterable[tuple[int, int]]) -> CheckResult:
    """Quadratic reciprocity of the floor-sum symbol, odd coprime pairs."""
    return _check("jacobi_reciprocity", ("a", "b"), pairs, jacobi_reciprocity_check, lambda a, b: True)


def split_parity_checks(triples: Iterable[tuple[int, int, int]]) -> list[CheckResult]:
    """ge1_residual(a, b, c) == 0 and ge2_residual(a, b, c) == 0 for odd
    a, b, c with b and c coprime to a: the parity defects that let the
    symbol's denominator and numerator split.

    Both defects read T(n) = (S(n, a, (n-1)/2), S(a, n, (a-1)/2)) mod 2,
    two values of jacobi's _eisenstein_parity, at n = b, c and bc, as
    T(bc) - T(b) - T(c) mod 2.  T depends on a and n only, so while a
    stays the same each T(n) is evaluated once, and it serves every
    triple whose b, c or product is n: triples grouped by a cost
    O(#distinct b + #distinct bc) reducer calls per a.  The table
    keeps T(n)'s two parities as one small int, so a triple's defects are
    the two bits of par[bc] ^ par[b] ^ par[c].  It starts over whenever a
    changes, so any order gives the same results, and each run of equal a
    is recorded as one batch per check.  A triple is validated, with
    ge1_residual's messages, whenever it needs a new entry.
    """
    clock = [perf_counter()]
    names = ("a", "b", "c")
    rec_den = _Recorder("denominator_split_parity", names, clock)
    rec_num = _Recorder("numerator_split_parity", names, clock)
    for a, run in groupby(triples, itemgetter(0)):
        run = list(run)
        par = {}  # n -> the parities of T(n), the denominator's in bit 0
        defects = []
        for _, b, c in run:
            bc = b * c
            if b not in par or c not in par or bc not in par:
                # b and c are valid once in the table, and then so is bc
                _check_odd_triple(a, b, c)
                for n in (b, c, bc):
                    if n not in par:
                        par[n] = _eisenstein_parity(n, a) | _eisenstein_parity(a, n) << 1
            defects.append(par[bc] ^ par[b] ^ par[c])
        zeros = [0] * len(run)
        rec_den.cases(zeros, [x & 1 for x in defects], run.__getitem__)
        rec_num.cases(zeros, [x >> 1 for x in defects], run.__getitem__)
    return [rec_den.result(), rec_num.result()]


def gauss_lemma_sign(cases: Iterable[tuple[int, int]]) -> CheckResult:
    """Gauss's lemma against Euler's criterion, odd prime p and 1 <= a < p."""
    return _check("gauss_lemma_sign", ("a", "p"), cases,
                  lambda a, p: -1 if gauss_lemma_count(a, p) % 2 else 1, legendre_euler)


def _samples(g: GridSpec) -> Iterator[list[tuple[int, ...]]]:
    """The seeded large cases of gauss_reciprocity_sum, half_index_reciprocity
    and swap_identity_all_d, _SAMPLE_COUNT each, drawn in that order from one
    RNG that all three chains share, so each gets the same cases when it runs
    alone.  Each list is drawn when read; a chain reads only what it takes."""
    rng = random.Random(g.seed)
    samples = range(_SAMPLE_COUNT)
    yield [_sample_coprime(rng, odd=True) for _ in samples]
    yield [_sample_coprime(rng) for _ in samples]
    yield [_sample_swap(rng) for _ in samples]


def check_equivalence_chain(g: GridSpec) -> list[CheckResult]:
    """Gauss's half-index reciprocity and its equivalence with Sylvester's
    gap count over the grid; the first two also take _SAMPLE_COUNT seeded
    large cases each."""
    pairs = _grid_pairs(g)
    samples = _samples(g)
    gauss, half = next(samples), next(samples)
    return [
        gauss_reciprocity_sum(chain(((a, b) for a, b in pairs if a % 2 and b % 2 and a != b), gauss)),
        half_index_reciprocity(chain(pairs, half)),
        *gap_count_checks(pairs),
    ]


def check_lemma_chain(g: GridSpec) -> list[CheckResult]:
    """The lattice count at the half line, then the paper's generalization
    end to end: the all-d reciprocity over the grid's (a, b, d) with b < a
    plus _SAMPLE_COUNT seeded large triples, and the lattice and threshold
    counts built on it."""
    pairs = _grid_pairs(g)
    _, _, swaps = _samples(g)
    return [
        lattice_halfline_count(pairs),
        *lattice_threshold_checks(((a, b) for a, b in pairs if b < a), swaps),
    ]


def check_jacobi_suite(g: GridSpec) -> list[CheckResult]:
    """Symbol engine versus its oracles over the odd coprime grid; the first
    two share the grid's pairs plus _SAMPLE_COUNT seeded large pairs."""
    pairs = _grid_pairs(g, step=2) + next(_samples(g))
    primes = _odd_primes(max(g.a_max, g.b_max))
    return [
        eisenstein_vs_definition(pairs),
        jacobi_reciprocity(pairs),
        *split_parity_checks(_split_triples(range(1, g.a_max + 1, 2), range(1, g.b_max + 1, 2))),
        gauss_lemma_sign((a, p) for p in primes for a in range(1, p)),
    ]


def reproduce_table1() -> CheckResult:
    """Replay the 14-row reference table for the pair (29, 23).

    Each row is recomputed through three routes: the closed-form family
    point, the literal O(k) membership count, and the floor-sum count.
    Negative thresholds carry no countable range and are compared by sign
    (see TABLE1_ROWS).
    """
    rec = _Recorder("table1_reproduction", ("alpha",))
    pair = CoprimePair(*TABLE1_PAIR)

    def norm(k: int) -> object:
        return k if k >= 0 else "<0"

    points = [best_family_point(pair, alpha) for alpha, _, _ in TABLE1_ROWS]
    rec.cases(
        [(norm(k_ref), n0_ref, n0_ref, n0_ref) for _, k_ref, n0_ref in TABLE1_ROWS],
        [
            (norm(point.k), point.n0, _count_by_membership(pair, point.k), count_representable_upto(pair, point.k))
            for point in points
        ],
        lambda i: TABLE1_ROWS[i][:1],
    )
    return rec.result()


def reproduce_section5_example() -> CheckResult:
    """The worked example at (29, 23): two floor sums evaluated both ways,
    the threshold count at 257 by the literal membership loop, and the
    floor-sum threshold count against the composition 15 + 24 + 21 = 60."""
    rec = _Recorder("worked_example_29_23", ("a", "b", "d"))
    pair = CoprimePair(29, 23)
    sums = [(29, 23, 8), (29, 23, 8), (23, 4, 18), (23, 4, 18)]
    rec.cases([24, 24, 21, 21], [_naive_floor_sum(29, 23, 8), fast_floor_sum(29, 23, 8),
                                 _naive_floor_sum(23, 4, 18), fast_floor_sum(23, 4, 18)], sums.__getitem__)
    rec.names = ("k",)
    rec.cases(
        [60, count_representable_upto(pair, 257)],
        [_count_by_membership(pair, 257), 15 + fast_floor_sum(29, 23, 8) + fast_floor_sum(23, 4, 18)],
        lambda i: (257,),
    )
    return rec.result()


def run_suites(suite: str, g: GridSpec) -> list[CheckResult]:
    """Run a named suite ("all", "frobenius", or "jacobi") over the grid."""
    if suite not in ("all", "frobenius", "jacobi"):
        raise ValueError(f"unknown suite {suite!r}; expected all, frobenius, or jacobi")
    results: list[CheckResult] = []
    if suite in ("all", "frobenius"):
        results.extend(check_equivalence_chain(g))
        results.extend(check_lemma_chain(g))
        results.append(reproduce_table1())
        results.append(reproduce_section5_example())
    if suite in ("all", "jacobi"):
        results.extend(check_jacobi_suite(g))
    return results
