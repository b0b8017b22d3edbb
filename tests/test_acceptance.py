"""Acceptance suite: one test per acceptance criterion, each exact and timed
where a budget applies.  Every test prints a pass line (visible with -s or
in captured output); a failing assert is the fail line.

Criteria, all zero-tolerance:
  1. reference table reproduction through both routes, < 1 s
  2. worked example (two floor sums + threshold count), < 0.1 s
  3. reciprocity residuals, exhaustive grids, < 30 s
  4. gap cardinality / gap sum / square-sum closed forms to 100, < 60 s
  5. symbol engine vs oracle, parity splits, reciprocity, < 60 s
  6. fast vs literal floor sums to 300 cubed + 10^4 seeded large cases
  7. lattice-count identity chain to 40, all valid d
  8. at most one representation below a*b, pairs to 60
"""

import random
from math import gcd
from time import perf_counter

from coinfloor import cli
from coinfloor.coinproblem import (
    nonrepresentable_set,
    representation_count,
    sylvester_sum,
    sylvester_sum_power,
)
from coinfloor.core import CoprimePair
from coinfloor.floorsum import fast_floor_sum, fast_floor_sum_steps
from coinfloor.verify import (
    GridSpec,
    TABLE1_ROWS,
    check_lemma_chain,
    eisenstein_vs_definition,
    gauss_reciprocity_sum,
    half_index_reciprocity,
    jacobi_reciprocity,
    lattice_threshold_checks,
    reproduce_section5_example,
    reproduce_table1,
    split_parity_checks,
)
from oracle import floor_sum_iterative, floor_sum_terms, naive_prefix


def _report(number: int, label: str, elapsed: float) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.3f}s")


def test_criterion_1_table1_reproduction(capsys):
    t0 = perf_counter()
    result = reproduce_table1()
    assert result.passed, result.failures
    assert result.cases_run == 14

    code = cli.main(["table1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,k,n0"
    assert lines[1:] == [f"{a},{k},{n}" for a, k, n in TABLE1_ROWS]
    assert ("3,49,4" in lines) and ("11,228,48" in lines) and ("27,615,308" in lines)

    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "table1 via closed form and membership count", elapsed)


def test_criterion_2_worked_example(capsys):
    t0 = perf_counter()
    result = reproduce_section5_example()
    assert result.passed, result.failures
    assert result.cases_run == 6
    elapsed = perf_counter() - t0
    assert elapsed < 0.1
    with capsys.disabled():
        _report(2, "worked example at (29, 23)", elapsed)


def test_criterion_3_reciprocity_identities(capsys):
    t0 = perf_counter()
    odd = range(1, 200, 2)  # includes composite odd values
    results = [
        gauss_reciprocity_sum((p, q) for p in odd for q in odd if p != q and gcd(p, q) == 1),
        half_index_reciprocity(
            (a, b) for a in range(1, 201) for b in range(1, 201) if gcd(a, b) == 1
        ),
        # swap_identity_all_d alone: one reciprocity_residual per triple
        lattice_threshold_checks((), (
            (a, b, d)
            for a in range(2, 101) for b in range(1, a) if gcd(a, b) == 1
            for d in range(1, a)
        ))[0],
    ]
    for r in results:
        assert r.passed, (r.check_id, r.failures[:3])
    assert [r.cases_run for r in results] == [8150, 24463, 200041]
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report(3, "reciprocity residuals, exhaustive", elapsed)


def test_criterion_4_sylvester_counts_and_sums(capsys):
    t0 = perf_counter()
    for a in range(2, 101):
        for b in range(2, 101):
            if gcd(a, b) != 1:
                continue
            pair = CoprimePair(a, b)
            gaps = nonrepresentable_set(pair).gaps
            assert len(gaps) == (a - 1) * (b - 1) // 2, (a, b)
            first = (a - 1) * (b - 1) * (2 * a * b - a - b - 1)
            assert first % 12 == 0
            assert sylvester_sum(pair) == first // 12 == sum(gaps), (a, b)
            second = (a - 1) * (b - 1) * a * b * (a * b - a - b)
            assert second % 12 == 0
            assert sylvester_sum_power(pair, 2) == second // 12, (a, b)
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        _report(4, "gap counts and Sylvester sums to 100", elapsed)


def test_criterion_5_jacobi_engine(capsys):
    t0 = perf_counter()
    split = [
        (a, b, c)
        for a in range(1, 100, 2) for b in range(1, 50, 2) for c in range(1, 50, 2)
        if gcd(a, b) == 1 and gcd(a, c) == 1
    ]
    odd = range(1, 302, 2)
    results = [
        eisenstein_vs_definition(
            (a, b) for b in range(1, 502, 2) for a in range(1, 2 * b, 2) if gcd(a, b) == 1
        ),
        *split_parity_checks(split),
        jacobi_reciprocity((a, b) for a in odd for b in odd if gcd(a, b) == 1),
    ]
    for r in results:
        assert r.passed, (r.check_id, r.failures[:3])
    assert [r.cases_run for r in results] == [51033, 21364, 21364, 18485]
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        _report(5, "symbol engine vs oracles, parity splits, reciprocity", elapsed)


def test_criterion_6_fast_vs_naive_floor_sums(capsys):
    t0 = perf_counter()
    # exhaustive cube: literal prefix sums per (a, b), every d up to 300
    for a in range(1, 301):
        for b in range(0, 301):
            prefix = naive_prefix(a, b, 300)
            bound = 3 * max(a, b).bit_length()
            for d in range(0, 301):
                value, steps = fast_floor_sum_steps(a, b, d)
                assert value == prefix[d], (a, b, d)
                assert steps <= bound, (a, b, d, steps)

    # 10^4 seeded random cases with parameters up to 1e9, against the
    # independent iterative evaluator (literal summation is unaffordable
    # at this size; see the frozen goldens below for the literal anchor)
    rng = random.Random(424242)
    for _ in range(10_000):
        a = rng.randrange(1, 10**9 + 1)
        b = rng.randrange(0, 10**9 + 1)
        d = rng.randrange(0, 10**9 + 1)
        value, steps = fast_floor_sum_steps(a, b, d)
        assert value == floor_sum_iterative(d + 1, a, b, 0), (a, b, d)
        assert steps <= 3 * max(a, b).bit_length(), (a, b, d, steps)

    # seeded slice where literal summation is affordable
    for _ in range(200):
        a = rng.randrange(1, 10**9 + 1)
        b = rng.randrange(0, 10**9 + 1)
        d = rng.randrange(0, 20_001)
        assert fast_floor_sum(a, b, d) == floor_sum_terms(a, b, d), (a, b, d)

    # billion-term goldens frozen from offline literal summation
    assert fast_floor_sum(10**9 + 7, 10**9 + 6, 10**9 + 6) == 500000005500000015
    assert fast_floor_sum(999999937, 616318177, 499999999) == 77039776574426397
    assert fast_floor_sum(2**31 - 1, 998244353, 10**8) == 2324218726655574

    elapsed = perf_counter() - t0
    with capsys.disabled():
        _report(6, "fast vs literal floor sums with depth bound", elapsed)


def test_criterion_7_lemma_chain(capsys):
    t0 = perf_counter()
    results = check_lemma_chain(GridSpec(a_max=40, b_max=40))
    assert {r.check_id for r in results} == {
        "lattice_halfline_count",
        "swap_identity_all_d",
        "lattice_reciprocity_count",
        "lattice_gap_deficit_count",
        "threshold_swap_form",
        "threshold_closed_form",
    }
    for r in results:
        assert r.passed, (r.check_id, r.failures[:3])
        assert r.cases_run > 0
    elapsed = perf_counter() - t0
    with capsys.disabled():
        _report(7, "lattice-count identity chain to 40", elapsed)


def test_criterion_8_uniqueness_below_ab(capsys):
    t0 = perf_counter()
    for a in range(1, 61):
        for b in range(1, 61):
            if gcd(a, b) != 1:
                continue
            pair = CoprimePair(a, b)
            for n in range(a * b):
                assert representation_count(pair, n).count <= 1, (a, b, n)
    elapsed = perf_counter() - t0
    with capsys.disabled():
        _report(8, "at most one representation below a*b", elapsed)
