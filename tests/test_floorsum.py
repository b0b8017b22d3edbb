"""Tests for the floor-sum evaluators and the reciprocity residuals."""

import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coinfloor.floorsum import (
    _CHAIN_MIN,
    fast_floor_sum,
    fast_floor_sum_steps,
    gauss_residual,
    reciprocity_residual,
    strong_residual,
)
from oracle import euclid_rounds, floor_sum_iterative, floor_sum_terms, naive_prefix


def _steps_bound(a, b):
    # after the first round each multiplier is at most half its modulus, so
    # the modulus halves every round: at most bit_length + 1 rounds
    return max(a, b, 1).bit_length() + 1


def test_query_validation():
    with pytest.raises(ValueError):
        fast_floor_sum(0, 3, 5)
    for bad in ((3, -1, 5), (3, 1, -5)):
        with pytest.raises(ValueError):
            fast_floor_sum_steps(*bad)


def test_fast_argument_messages():
    # the reducer's one-comparison check falls back to _check_args, which
    # names the first bad argument
    cases = (
        ((0, 3, 5), "modulus a must be >= 1, got 0"),
        ((-2, -1, -5), "modulus a must be >= 1, got -2"),
        ((3, -1, 5), "multiplier b must be >= 0, got -1"),
        ((3, -1, -5), "multiplier b must be >= 0, got -1"),
        ((3, 1, -5), "upper index d must be >= 0, got -5"),
    )
    for args, message in cases:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            fast_floor_sum_steps(*args)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            fast_floor_sum(*args)


def test_fast_examples():
    assert fast_floor_sum(29, 23, 8) == 24
    assert fast_floor_sum(23, 4, 18) == 21
    assert fast_floor_sum(5, 0, 10) == 0
    assert fast_floor_sum(7, 3, 0) == 0
    assert fast_floor_sum(3, 5, 1) == 1


def test_fast_billion_scale_frozen_goldens():
    # Expected values computed once offline by literal chunked term-by-term
    # summation (see oracle.floor_sum_terms); too slow to rerun in-suite.
    assert fast_floor_sum(10**9 + 7, 10**9 + 6, 10**9 + 6) == 500000005500000015
    assert fast_floor_sum(999999937, 616318177, 499999999) == 77039776574426397
    assert fast_floor_sum(2**31 - 1, 998244353, 10**8) == 2324218726655574


def test_fast_equals_naive_exhaustive_to_60():
    for a in range(1, 61):
        for b in range(0, 61):
            prefix = naive_prefix(a, b, 60)
            bound = _steps_bound(a, b)
            for d in range(0, 61):
                value, steps = fast_floor_sum_steps(a, b, d)
                assert value == prefix[d], (a, b, d)
                assert steps <= bound, (a, b, d, steps)


def test_fast_equals_naive_random_medium():
    rng = random.Random(99)
    for _ in range(400):
        a = rng.randrange(1, 10**9)
        b = rng.randrange(0, 10**9)
        d = rng.randrange(0, 3000)
        assert fast_floor_sum(a, b, d) == floor_sum_terms(a, b, d)


def test_fast_matches_independent_evaluator_random_large():
    rng = random.Random(2024)
    for _ in range(2000):
        a = rng.randrange(1, 10**9 + 1)
        b = rng.randrange(0, 10**9 + 1)
        d = rng.randrange(0, 10**9 + 1)
        value, steps = fast_floor_sum_steps(a, b, d)
        assert value == floor_sum_iterative(d + 1, a, b, 0)
        assert steps <= _steps_bound(a, b)


def test_fast_handles_common_factors():
    # floor(i*b/a) is invariant under dividing out gcd(a, b)
    assert fast_floor_sum(6, 4, 10) == floor_sum_terms(6, 4, 10) == floor_sum_terms(3, 2, 10)
    rng = random.Random(5)
    for _ in range(200):
        g = rng.randrange(2, 50)
        a = g * rng.randrange(1, 500)
        b = g * rng.randrange(0, 500)
        d = rng.randrange(0, 500)
        assert fast_floor_sum(a, b, d) == floor_sum_terms(a, b, d)


def test_wrapper_objects():
    value, steps = fast_floor_sum_steps(29, 23, 8)
    assert floor_sum_terms(29, 23, 8) == value == 24
    assert 1 <= steps <= _steps_bound(29, 23)


def test_reciprocity_residual_examples():
    assert reciprocity_residual(29, 23, 8) == 0  # K = floor(184/29) = 6
    assert reciprocity_residual(3, 2, 1) == 0  # K = 0 branch
    for bad in ((3, 3, 1), (3, 4, 1), (3, 2, 3), (3, 2, 0), (6, 4, 2)):
        with pytest.raises(ValueError):
            reciprocity_residual(*bad)


def test_reciprocity_residual_exhaustive_to_60():
    for a in range(2, 61):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for d in range(1, a):
                assert reciprocity_residual(a, b, d) == 0


def test_strong_residual_examples_and_sweep():
    assert strong_residual(29, 23) == 0
    assert strong_residual(1, 1) == 0
    with pytest.raises(ValueError):
        strong_residual(6, 4)
    with pytest.raises(ValueError):
        strong_residual(0, 3)
    for a in range(1, 121):
        for b in range(1, 121):
            if gcd(a, b) == 1:
                assert strong_residual(a, b) == 0


def test_gauss_residual_examples_and_sweep():
    assert gauss_residual(3, 5) == 0
    assert gauss_residual(29, 23) == 0
    assert gauss_residual(9, 25) == 0  # composite odd coprime pair
    for bad in ((4, 5), (5, 4), (5, 5), (9, 15)):
        with pytest.raises(ValueError):
            gauss_residual(*bad)
    for p in range(1, 100, 2):
        for q in range(1, 100, 2):
            if p != q and gcd(p, q) == 1:
                assert gauss_residual(p, q) == 0


def test_residuals_also_hold_with_naive_sums():
    # same identities recomputed through literal prefix sums, so the check
    # does not lean on the fast path it is meant to guard
    for a in range(2, 30):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            s_ab, s_ba = naive_prefix(a, b, a), naive_prefix(b, a, b)
            assert s_ab[a // 2] + s_ba[b // 2] - (a // 2) * (b // 2) == 0
            for d in range(1, a):
                K = b * d // a
                assert s_ab[d] + s_ba[K] == d * K


# Operands up to 1e300; a and c range past m so normalization is exercised.
_BIG = st.integers(min_value=0, max_value=10**300)
_MOD = st.integers(min_value=1, max_value=10**300)


def _fibonacci_pair_below(limit):
    # consecutive Fibonacci numbers: the longest Euclid chain for their size
    f, g = 1, 2
    while f + g < limit:
        f, g = g, f + g
    return g, f


_FIB_M, _FIB_A = _fibonacci_pair_below(10**300)


def _pell_pair_below(bits):
    # consecutive Pell numbers: every quotient is 2 and no round reflects
    f, g = 1, 2
    while (2 * g + f).bit_length() <= bits:
        f, g = g, 2 * g + f
    return g, f


_PELL_M, _PELL_A = _pell_pair_below(1000)


@settings(max_examples=300, deadline=None)
@given(a=_MOD, b=_BIG, d=_BIG)
@example(a=_FIB_M, b=_FIB_A, d=_FIB_M - 1)  # longest Euclid chain; every round reflects
@example(a=_PELL_M, b=_PELL_A, d=_PELL_M - 1)  # quotients all 2; no round reflects
@example(a=_CHAIN_MIN + 7, b=_CHAIN_MIN - 5, d=_CHAIN_MIN - 1)  # a above the cut-over, b below
@example(a=_CHAIN_MIN + 3, b=_CHAIN_MIN + 1, d=_CHAIN_MIN)  # leaves the chain after one round
@example(a=10**150 + 1, b=10**299 + 7, d=10**300)  # b >= a and d >= a
@example(a=6 * (10**299 + 3), b=4 * (10**299 + 3), d=10**300 - 1)  # gcd(a, b) = 2 * (10**299 + 3)
@example(a=1000 * (10**297 + 1) + 10**100 + 1, b=10**297 + 1, d=1500)  # one chain round, ends on K = 0 above the cut-over
def test_homogeneous_reducer_matches_independent_evaluator(a, b, d):
    value, rounds = fast_floor_sum_steps(a, b, d)
    assert value == floor_sum_iterative(d + 1, a, b, 0)
    assert rounds <= _steps_bound(a, b)


@pytest.mark.parametrize("chain_min", [0, 1, 5, 2**32])
def test_chain_at_every_cut_over_matches_naive(monkeypatch, chain_min):
    # the reducer reads the module constant on each call, so lowering it runs
    # the remainder chain and the telescoped sum on every small input; at 0
    # and 1 the chain always ends on K = 0, at 5 it can stop on K > 0 and
    # add a nonzero boundary term, and 2**32 leaves it to the plain loop
    default = {(a, b, d): fast_floor_sum_steps(a, b, d)[1]
               for a in range(1, 40) for b in range(60) for d in range(60)}
    monkeypatch.setattr("coinfloor.floorsum._CHAIN_MIN", chain_min)
    for a in range(1, 40):
        for b in range(60):
            prefix = naive_prefix(a, b, 59)
            bound = _steps_bound(a, b)
            for d in range(60):
                value, steps = fast_floor_sum_steps(a, b, d)
                assert value == prefix[d], (a, b, d)
                assert steps <= bound, (a, b, d, steps)
                assert steps == default[a, b, d], (a, b, d)


def _seeded_triples(seed, hi, n=6):
    rng = random.Random(seed)
    return [(rng.randrange(1, hi + 1), rng.randrange(0, hi + 1), rng.randrange(0, hi + 1))
            for _ in range(n)]


def test_round_counts_frozen_goldens():
    # Each case: triples, the least-remainder reducer's round counts, and
    # the counts the ordinary-remainder reducer took (frozen from it, and
    # recounted by the oracle), which bound the first from above.  The
    # values stay pinned to the independent evaluator.
    cases = (
        ([(29, 23, 8)], [3], [3]),
        ([(_FIB_M, _FIB_A, _FIB_M - 1), (_FIB_M, _FIB_A, 10**300), (_FIB_A, _FIB_M, _FIB_M - 1)],
         [718, 716, 717], [1435, 1429, 1433]),
        ([(_PELL_M, _PELL_A, _PELL_M - 1)], [786], [786]),
        (_seeded_triples(9, 10**9), [13, 13, 11, 12, 12, 13], [20, 17, 14, 15, 14, 18]),
        (_seeded_triples(300, 10**300), [403, 411, 401, 380, 391, 390], [581, 592, 584, 530, 569, 567]),
    )
    for triples, rounds, ordinary in cases:
        got = [fast_floor_sum_steps(*t) for t in triples]
        assert [r for _, r in got] == rounds
        assert all(r <= o for r, o in zip(rounds, ordinary))
        assert [euclid_rounds(*t) for t in triples] == ordinary
        assert [v for v, _ in got] == [floor_sum_iterative(d + 1, a, b, 0) for a, b, d in triples]


def test_never_more_rounds_than_the_ordinary_remainder():
    for a in range(1, 64):
        for b in range(64):
            for d in range(64):
                assert fast_floor_sum_steps(a, b, d)[1] <= euclid_rounds(a, b, d), (a, b, d)
    for seed in (300, 301, 302):
        for t in _seeded_triples(seed, 10**300, n=50):
            assert fast_floor_sum_steps(*t)[1] <= euclid_rounds(*t), t


@settings(max_examples=200, deadline=None)
@given(a=_MOD, b=_MOD, d=_MOD)
def test_reciprocity_residual_at_300_digits(a, b, d):
    a, b = max(a, b), min(a, b)
    assume(b < a and gcd(a, b) == 1)
    assert reciprocity_residual(a, b, (d - 1) % (a - 1) + 1) == 0


@settings(max_examples=200, deadline=None)
@given(a=_MOD, b=_MOD)
@example(a=_FIB_M, b=_FIB_A)
def test_strong_residual_at_300_digits(a, b):
    assume(gcd(a, b) == 1)
    assert strong_residual(a, b) == 0


@settings(max_examples=200, deadline=None)
@given(x=st.integers(min_value=0, max_value=10**300 // 2), y=st.integers(min_value=0, max_value=10**300 // 2))
def test_gauss_residual_at_300_digits(x, y):
    p, q = 2 * x + 1, 2 * y + 1
    assume(p != q and gcd(p, q) == 1)
    assert gauss_residual(p, q) == 0
