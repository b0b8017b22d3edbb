"""Tests for representability counts, the threshold-count family, and gap sums."""

import os
import random
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt, log2
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coinfloor import coinproblem, floorsum, verify
from coinfloor.coinproblem import (
    _series_moment,
    BestFamilyPoint,
    NonRepSet,
    best2_count,
    best_family_point,
    count_lattice_3var,
    count_representable_upto,
    frobenius_number,
    is_representable,
    nonrepresentable_set,
    representation_count,
    sylvester_sum,
    sylvester_sum_power,
    weighted_sylvester_sum,
)
from coinfloor.core import CoprimePair
from oracle import (
    brute_lattice3,
    brute_rep_count,
    brute_representables,
    floor_sum_iterative,
    gap_power_sum_bernoulli,
    gaps_by_set_formula,
    rep_count_shift_check,
)
from test_floorsum import _FIB_A, _FIB_M  # consecutive Fibonacci numbers below 1e300


def test_frobenius_number_examples():
    assert frobenius_number(CoprimePair(29, 23)) == 615
    assert frobenius_number(CoprimePair(1, 1)) == -1
    assert frobenius_number(CoprimePair(2, 3)) == 1


def test_is_representable_examples():
    p = CoprimePair(29, 23)
    assert not is_representable(p, 49)
    assert is_representable(p, 0)
    assert is_representable(p, 616)
    # only 0, 23, 29, 46 are representable up to 49
    assert [n for n in range(50) if is_representable(p, n)] == [0, 23, 29, 46]
    with pytest.raises(ValueError):
        is_representable(p, -1)


def test_membership_and_count_match_brute_force():
    for a in range(1, 26):
        for b in range(1, 26):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            reachable = brute_representables(a, b, 2 * a * b + 2)
            for n in range(2 * a * b + 3):
                assert is_representable(p, n) == (n in reachable), (a, b, n)
                assert representation_count(p, n).count == brute_rep_count(a, b, n)


def test_representation_count_examples():
    p = CoprimePair(29, 23)
    assert representation_count(p, 667).count == 2
    assert representation_count(p, 1).count == 0
    assert representation_count(CoprimePair(2, 3), 6).count == 2
    rc = representation_count(p, 667)
    assert rc.n == 667


def _shift_holds(p, n):
    return rep_count_shift_check(lambda m: representation_count(p, m).count, p.a * p.b, n)


def test_rep_count_shift_examples_and_sweep():
    assert _shift_holds(CoprimePair(29, 23), 0)
    assert _shift_holds(CoprimePair(2, 3), 1)
    assert _shift_holds(CoprimePair(5, 7), 23)
    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            for n in range(2 * a * b + 1):
                assert _shift_holds(p, n)


def test_count_representable_upto_examples():
    p = CoprimePair(29, 23)
    assert count_representable_upto(p, 257) == 60
    assert count_representable_upto(p, -1) == 0
    assert count_representable_upto(p, 615) == 308
    assert count_representable_upto(p, 0) == 1  # zero is representable
    assert count_representable_upto(CoprimePair(1, 7), 41) == 42


def test_count_representable_upto_vs_enumeration():
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            reachable = brute_representables(a, b, a * b)
            running = 0
            for k in range(a * b + 1):
                if k in reachable:
                    running += 1
                assert count_representable_upto(p, k) == running


def test_threshold_and_lattice_counts_vs_brute_force_below_25():
    # every coprime pair below 25, pairs with a 1 included, and every k in
    # [-2, ab + 50]: both floor-sum routes against double-loop enumeration
    for a in range(1, 25):
        for b in range(1, 25):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            top = a * b + 50
            reachable = brute_representables(a, b, top)
            assert count_representable_upto(p, -2) == count_representable_upto(p, -1) == 0
            running = 0
            for k in range(top + 1):
                running += k in reachable
                assert count_representable_upto(p, k) == running, (a, b, k)
                assert count_lattice_3var(p, k) == brute_lattice3(a, b, k), (a, b, k)


def test_count_representable_upto_300_digits_matches_oracle_floor_sum():
    a, b, k = 10**150 + 1, 10**149 + 3, 10**299
    x_top = min(b - 1, k // a)
    expected = x_top + 1 + floor_sum_iterative(x_top + 1, b, a, k - a * x_top)
    assert count_representable_upto(CoprimePair(a, b), k) == expected


# Coin values up to 1e300; a raw k is folded into [0, 3ab) by each test, so
# thresholds land below ab, where counts and lattice counts agree, and past it.
_COIN = st.integers(min_value=1, max_value=10**300)
_RAW_K = st.integers(min_value=0, max_value=10**601)



def _oracle_count(a, b, x_top, k):
    # sum_{x=0}^{x_top} (floor((k - a*x)/b) + 1), summed from the top x down
    return x_top + 1 + floor_sum_iterative(x_top + 1, b, a, k - a * x_top)


@settings(max_examples=100, deadline=None)
@given(a=_COIN, b=_COIN, k=_RAW_K)
@example(a=_FIB_M, b=_FIB_A, k=_FIB_M * _FIB_A - 1)
@example(a=_FIB_A, b=_FIB_M, k=2 * _FIB_M * _FIB_A + 5)
@example(a=1, b=10**300, k=10**601)
@example(a=10**300, b=1, k=10**601)
def test_counts_past_1e9_match_the_oracle_floor_sum(a, b, k):
    assume(gcd(a, b) == 1)
    p = CoprimePair(a, b)
    k %= 3 * a * b
    assert count_representable_upto(p, k) == _oracle_count(a, b, min(b - 1, k // a), k)
    assert count_lattice_3var(p, k) == _oracle_count(a, b, k // a, k)


@settings(max_examples=100, deadline=None)
@given(a=_COIN.filter(lambda a: a > 1), b=_COIN.filter(lambda b: b > 1), k=_RAW_K)
@example(a=_FIB_M, b=_FIB_A, k=0)
@example(a=2, b=10**300 - 1, k=10**300 - 3)
def test_threshold_count_sylvester_symmetry_past_1e9(a, b, k):
    # n <= top is representable iff top - n is not, so the counts of the
    # two ends of [0, top] determine each other
    assume(gcd(a, b) == 1)
    top = a * b - a - b
    n_gaps = (a - 1) * (b - 1) // 2
    k %= top
    p = CoprimePair(a, b)
    assert count_representable_upto(p, k) == k + n_gaps - top + count_representable_upto(p, top - 1 - k)


def test_counts_past_the_frobenius_number_call_no_floor_sum(monkeypatch):
    # past top = ab - a - b every n is representable, so N0 = k + 1 - G in
    # closed form; at top itself N0 is the lattice count, which does reach
    # the reducer, and the two routes meet: N0(k) = N0(top) + k - top
    calls = []
    steps = floorsum.fast_floor_sum_steps
    monkeypatch.setattr(floorsum, "fast_floor_sum_steps", lambda *args: calls.append(args) or steps(*args))
    rng = random.Random(300)
    pairs = 0
    while pairs < 10:
        a, b = rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300)
        if gcd(a, b) != 1:
            continue
        pairs += 1
        p = CoprimePair(a, b)
        top, n_gaps = a * b - a - b, (a - 1) * (b - 1) // 2
        at_top = count_representable_upto(p, top)
        assert calls
        calls.clear()
        for k in (top + 1, top + rng.randrange(2, a * b), a * b, 5 * a * b, 10**601):
            assert count_representable_upto(p, k) == k + 1 - n_gaps == at_top + k - top
        assert calls == []


@settings(max_examples=100, deadline=None)
@given(a=_COIN, b=_COIN, n=_RAW_K)
@example(a=_FIB_M, b=_FIB_A, n=_FIB_M * _FIB_A - _FIB_M - _FIB_A)
def test_rep_count_shift_past_1e9(a, b, n):
    assume(gcd(a, b) == 1)
    assert _shift_holds(CoprimePair(a, b), n)


def test_count_lattice_3var_examples():
    assert count_lattice_3var(CoprimePair(29, 23), 0) == 1
    assert count_lattice_3var(CoprimePair(2, 3), 6) == 7
    # frozen from the double-loop oracle; equals the threshold count at 257
    # because below a*b each value has at most one representation
    assert count_lattice_3var(CoprimePair(29, 23), 257) == 60
    with pytest.raises(ValueError):
        count_lattice_3var(CoprimePair(2, 3), -1)


def test_count_lattice_3var_vs_brute_force():
    for a in range(1, 16):
        for b in range(1, 16):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            for target in range(0, 3 * a * b, 7):
                assert count_lattice_3var(p, target) == brute_lattice3(a, b, target)


def test_count_lattice_3var_past_the_reducer_limit_answers_whole_periods_only(monkeypatch):
    # With the chain on every operand and its limit at 4 bits, the reducer
    # refuses S(b, r, d) for r = a mod b >= 16 unless b | d.  The count's
    # sums are S(b, r, X + j0) and S(b, r, j0 - 1), so it answers exactly
    # where j0 is 0 or 1 and b | X + j0, and it refuses the other counts
    # before it reads the pair's inverse.
    monkeypatch.setattr(floorsum, "_CHAIN_MIN", 0)
    monkeypatch.setattr(floorsum, "_CHAIN_MAX_BITS", 4)
    answered = {0: 0, 1: 0}
    for a in range(17, 40):
        for b in range(17, 40):
            if gcd(a, b) != 1 or a % b < 16:
                continue
            p, inv = CoprimePair(a, b), pow(a, -1, b)
            for target in range(2 * a * b):
                x_top, c = divmod(target, a)
                j0 = c * inv % b
                if j0 <= 1 and (x_top + j0) % b == 0:
                    assert count_lattice_3var(p, target) == sum(
                        (target - a * x) // b + 1 for x in range(x_top + 1)), (a, b, target)
                    answered[j0] += 1
                elif target % 7 == 0:
                    with pytest.raises(ValueError, match="reducer's limit of 4 bits"):
                        count_lattice_3var(p, target)
            assert "inv_a_mod_b" not in vars(p)
    assert min(answered.values()) > 20


def test_count_lattice_3var_past_both_limits_answers_whole_periods():
    # a mod b = A is past the reducer's limit and b past the inverse's:
    # k = 0 and t = A*B are whole periods and answer at this size, t = 1
    # is not and is refused with the count's own name for the multiplier
    rng = random.Random(190_000)
    A = rng.getrandbits(190_000) | 1 << 189_999 | 1
    B = A + 2
    p = CoprimePair(A, B)
    assert count_representable_upto(p, 0) == 1
    assert count_lattice_3var(p, A * B) == A + B + 1 + (A - 1) * (B - 1) // 2
    with pytest.raises(ValueError, match="a mod b has 190000 bits, over the reducer's limit of 131072 bits"):
        count_lattice_3var(p, 1)
    assert "inv_a_mod_b" not in vars(p)


def test_uniqueness_bridge_below_ab():
    # below a*b: the 3-variable count equals both the prefix sum of the
    # solution counts and the membership count
    for a in range(2, 26):
        for b in range(2, 26):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            prefix = 0
            members = 0
            for k in range(a * b):
                cnt = representation_count(p, k).count
                assert cnt <= 1
                prefix += cnt
                members += 1 if cnt else 0
                assert count_lattice_3var(p, k) == prefix
                assert count_representable_upto(p, k) == members


def test_best_family_point_examples():
    p = CoprimePair(29, 23)
    assert best_family_point(p, 27) == BestFamilyPoint(alpha=27, beta=21, k=615, n0=308)
    low = best_family_point(p, 1)
    assert (low.beta, low.n0) == (-1, 0)
    assert low.k < 0  # reference table lists -1; the closed form gives -3
    mid = best_family_point(p, 11)
    assert (mid.k, mid.n0) == (228, 48)
    assert mid.beta == 7


def test_best_family_point_validation():
    p = CoprimePair(29, 23)
    with pytest.raises(ValueError):
        best_family_point(p, 2)  # parity of a violated
    with pytest.raises(ValueError):
        best_family_point(p, 0)
    with pytest.raises(ValueError):
        best_family_point(p, 29)
    with pytest.raises(ValueError):
        best_family_point(CoprimePair(23, 29), 3)  # needs b < a


def test_best_family_matches_membership_count_to_80():
    for a in range(2, 81):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            gaps = nonrepresentable_set(p).gaps
            for alpha in range(2 - a % 2, a, 2):
                pt = best_family_point(p, alpha)
                assert pt.beta >= -1
                assert 2 * pt.k == b * pt.alpha + a * pt.beta
                assert 2 * pt.n0 == (pt.alpha + 1) * (pt.beta + 1)
                # membership count from the enumerated gap set
                want = 0 if pt.k < 0 else pt.k + 1 - bisect_right(gaps, pt.k)
                assert pt.n0 == want, (a, b, alpha)


def test_best2_count_examples():
    p = CoprimePair(29, 23)
    assert best2_count(p, 28) == (615, 308)
    assert best2_count(p, 20) == (228, 48)
    k15, n15 = best2_count(p, 15)
    pt1 = best_family_point(p, 1)  # alpha = 2*15 - 29 = 1
    assert (k15, n15) == (pt1.k, pt1.n0)
    for bad_d in (14, 29, 30):
        with pytest.raises(ValueError):
            best2_count(p, bad_d)
    with pytest.raises(ValueError):
        best2_count(CoprimePair(23, 29), 20)


def test_best2_count_matches_counting_to_40():
    for a in range(3, 41):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            for d in range(a // 2 + 1, a):
                k, n0 = best2_count(p, d)
                assert n0 == count_representable_upto(p, k)


def _best2_by_family_point(p, d):
    point = best_family_point(p, 2 * d - p.a)
    return point.k, point.n0


def _best2_in_d_k_form(p, d):
    # the (d, K) statement of the same point: beta = 2K - b
    a, b = p.a, p.b
    K = b * d // a
    return b * d + a * K - a * b, (2 * d - a + 1) * (2 * K - b + 1) // 2


def test_best2_count_is_best_family_point_at_alpha_2d_minus_a():
    # every valid d of every coprime b < a <= 60
    for a in range(3, 61):
        for b in range(1, a):
            if gcd(a, b) == 1:
                p = CoprimePair(a, b)
                for d in range(a // 2 + 1, a):
                    assert best2_count(p, d) == _best2_by_family_point(p, d) == _best2_in_d_k_form(p, d)
    # 200 seeded pairs of 100 to 300 digits, at both ends of the d range and
    # at a random d between them
    rng = random.Random(2029)
    for _ in range(200):
        digits = rng.randrange(100, 301)
        while True:
            a, b = rng.randrange(10 ** (digits - 1), 10**digits), rng.randrange(1, 10**digits)
            if b < a and gcd(a, b) == 1:
                break
        p = CoprimePair(a, b)
        for d in (a // 2 + 1, rng.randrange(a // 2 + 1, a), a - 1):
            assert best2_count(p, d) == _best2_by_family_point(p, d) == _best2_in_d_k_form(p, d)


def test_nonrepresentable_set_examples():
    assert nonrepresentable_set(CoprimePair(2, 3)).gaps == (1,)
    assert nonrepresentable_set(CoprimePair(3, 5)).gaps == (1, 2, 4, 7)
    big = nonrepresentable_set(CoprimePair(29, 23))
    assert big.count == 308
    assert big.largest == 615
    assert isinstance(big, NonRepSet)


def test_nonrepresentable_set_degenerate_pairs():
    for pair in (CoprimePair(1, 1), CoprimePair(1, 9), CoprimePair(9, 1)):
        nr = nonrepresentable_set(pair)
        assert nr.gaps == ()
        assert nr.count == 0
        assert nr.largest is None
        assert sylvester_sum(pair) == 0
        assert sylvester_sum_power(pair, 2) == 0
        assert weighted_sylvester_sum(pair, Fraction(1, 2), 1) == 0


def test_gap_listing_limit(monkeypatch):
    # the gaps of (2, 2k+1) are the odd n < 2k: 10**6 of them is the most
    # the listing allows; one more is refused before the mask is built
    gaps = nonrepresentable_set(CoprimePair(2, 2 * 10**6 + 1)).gaps
    assert len(gaps) == 10**6 and gaps[-1] == 2 * 10**6 - 1
    for pair in ((2, 2 * 10**6 + 3), (1415, 1417), (30011, 30013), (10**100 + 1, 10**100 + 2)):
        with pytest.raises(ValueError, match="over the listing limit of 1000000"):
            nonrepresentable_set(CoprimePair(*pair))
    monkeypatch.setattr(coinproblem, "_GAPS_MAX", 3)
    pair = CoprimePair(3, 5)  # gaps 1, 2, 4, 7
    with pytest.raises(ValueError, match="over the listing limit of 3"):
        nonrepresentable_set(pair)


def test_gap_sums_list_exactly_when_the_gaps_are_at_most_m_squared(monkeypatch):
    listed = []
    monkeypatch.setattr(coinproblem, "nonrepresentable_set",
                        lambda p: listed.append(p) or nonrepresentable_set(p))
    pair = CoprimePair(3, 5)  # gaps 1, 2, 4, 7
    for m in (1, 2):
        assert weighted_sylvester_sum(pair, Fraction(1, 2), m) == sum(
            Fraction(1, 2) ** (n - 1) * n**m for n in (1, 2, 4, 7))
    assert listed == [pair]  # at m = 2 only: 4 gaps <= 2**2
    # past the listing limit of 10**6 gaps both routes are over the work
    # budget wherever the listing would be chosen, so no sum reaches it
    budget = log2(coinproblem._GAP_SUM_WORK_BUDGET)
    for a, b in ((2, 2 * 10**6 + 3), (1415, 1417), (1001, 2003), (10**6 + 1, 10**6 + 3)):
        gaps = (a - 1) * (b - 1) // 2
        for m in (isqrt(gaps - 1) + 1, 3 * isqrt(gaps), 10 * isqrt(gaps)):
            assert gaps <= m * m
            for lam, lam_bits in ((1, 0), (-1, 0), (Fraction(1, 2), 2)):
                assert coinproblem._gap_sum_work(a, b, lam_bits, m, True) > budget
                assert coinproblem._gap_sum_work(a, b, lam_bits, m, False) > budget
            with pytest.raises(ValueError, match="over the work budget"):
                weighted_sylvester_sum(CoprimePair(a, b), 1, m)
    assert listed == [pair]


def test_nonrepresentable_set_vs_brute_force():
    for a in range(2, 21):
        for b in range(2, 21):
            if gcd(a, b) != 1:
                continue
            top = a * b - a - b
            reachable = brute_representables(a, b, top)
            expected = tuple(n for n in range(top + 1) if n not in reachable)
            assert nonrepresentable_set(CoprimePair(a, b)).gaps == expected


def _mask_listing(a, b):
    # verify's O(ab)-bit oracle, read off its binary digits
    return [n for n, bit in enumerate(bin(verify._gap_bits(a, b))[:1:-1]) if bit == "1"]


def _assert_listing(a, b, want):
    for pair in (CoprimePair(a, b), CoprimePair(b, a)):
        gaps = nonrepresentable_set(pair).gaps
        assert type(gaps) is tuple
        assert all(type(n) is int for n in gaps)
        assert list(gaps) == want, (a, b)


def test_listing_matches_the_mask_oracle_below_120():
    for a in range(1, 120):
        for b in range(1, a + 1):
            if gcd(a, b) == 1:
                _assert_listing(a, b, _mask_listing(a, b))


def _listing_shapes(rng):
    # (B, A) with B = min and A = max: the class of A*x mod B has
    # floor(A*x/B) gaps, so A = q*B + 1 makes every band q rows tall
    for small in (2, 3, 7):
        for _ in range(3):
            big = rng.randrange(small + 1, 2 * 10**5 * 2 // (small - 1))
            if gcd(big, small) == 1:
                yield small, big
    for _ in range(4):  # A close to B: bands of one or two rows
        small = rng.randrange(100, 630)
        big = small + rng.choice((1, 2, 3, 5))
        if gcd(big, small) == 1:
            yield small, big
    for rows in (7, 8, 9):  # the cut-over from rows to doubled blocks
        for small in (rng.randrange(2, 60), rng.randrange(60, 200)):
            yield small, rows * small + 1
            yield small, rows * small - 1  # one band of rows - 1, the rest of rows


def test_listing_matches_the_set_formula_on_seeded_shapes():
    rng = random.Random(20)
    shapes = list(_listing_shapes(rng))
    for small, big in shapes:
        assert (small - 1) * (big - 1) // 2 <= 2 * 10**5
        _assert_listing(small, big, gaps_by_set_formula(big, small))


def test_listing_at_the_limit_matches_the_mask():
    # one band of 10**6 rows, and 1412 bands of one or two rows
    for a, b in ((2, 2 * 10**6 + 1), (1413, 1417)):
        gaps = nonrepresentable_set(CoprimePair(a, b)).gaps
        assert type(gaps) is tuple and len(gaps) == (a - 1) * (b - 1) // 2
        assert all(type(n) is int for n in gaps)
        assert list(gaps) == _mask_listing(a, b)


_PEAK_PROBE = """
from coinfloor.coinproblem import nonrepresentable_set
from coinfloor.core import CoprimePair

def hwm():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = hwm()
gaps = nonrepresentable_set(CoprimePair(1413, 1417)).gaps
print(len(gaps), hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_listing_at_the_limit_holds_one_copy_of_the_gaps():
    # the packed bytes (4 MB) are held with the tuple and its ints (36 MB)
    # until the unpack returns, about 42 MiB of growth; a second copy of
    # the gaps, such as a list before the tuple, would pass 48 MiB
    src = str(Path(coinproblem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, grown_kib = map(int, proc.stdout.split())
    assert count == 1412 * 1416 // 2
    assert grown_kib < 48 * 1024, grown_kib


def test_gap_symmetry():
    # n is a gap iff (a*b - a - b) - n is not
    for a in range(2, 41):
        for b in range(2, 41):
            if gcd(a, b) != 1:
                continue
            top = a * b - a - b
            gaps = set(nonrepresentable_set(CoprimePair(a, b)).gaps)
            for n in range(top + 1):
                assert (n in gaps) == (top - n not in gaps)


def test_sylvester_sum_examples():
    assert sylvester_sum(CoprimePair(2, 3)) == 1
    assert sylvester_sum(CoprimePair(3, 5)) == 14
    p = CoprimePair(29, 23)
    assert sylvester_sum(p) == sum(nonrepresentable_set(p).gaps) == 65758


def test_sylvester_sum_power_examples():
    assert sylvester_sum_power(CoprimePair(3, 5), 2) == 70
    assert sylvester_sum_power(CoprimePair(2, 3), 0) == 1
    assert sylvester_sum_power(CoprimePair(29, 23), 2) == 28 * 22 * 667 * 615 // 12
    with pytest.raises(ValueError):
        sylvester_sum_power(CoprimePair(3, 5), -1)


def test_sylvester_closed_forms_vs_enumeration():
    for a in range(2, 61):
        for b in range(2, 61):
            if gcd(a, b) != 1:
                continue
            p = CoprimePair(a, b)
            nr = nonrepresentable_set(p)
            assert nr.count == (a - 1) * (b - 1) // 2
            assert sylvester_sum_power(p, 0) == nr.count
            first = (a - 1) * (b - 1) * (2 * a * b - a - b - 1)
            assert first % 12 == 0
            assert sylvester_sum(p) == first // 12 == sum(nr.gaps)
            second = (a - 1) * (b - 1) * a * b * (a * b - a - b)
            assert second % 12 == 0
            assert sylvester_sum_power(p, 2) == second // 12


def test_weighted_sylvester_sum_examples():
    assert weighted_sylvester_sum(CoprimePair(3, 5), 1, 1) == 14
    assert weighted_sylvester_sum(CoprimePair(2, 3), 2, 0) == 1
    value = weighted_sylvester_sum(CoprimePair(3, 5), Fraction(1, 2), 0)
    assert value == Fraction(105, 64)  # 1 + 1/2 + 1/8 + 1/64 over gaps 1, 2, 4, 7
    assert isinstance(value, Fraction)


def test_weighted_sylvester_sum_reductions_and_validation():
    with pytest.raises(ValueError):
        weighted_sylvester_sum(CoprimePair(3, 5), 0, 1)
    for a, b in ((3, 5), (4, 7), (5, 9)):
        p = CoprimePair(a, b)
        for m in range(4):
            assert weighted_sylvester_sum(p, 1, m) == sylvester_sum_power(p, m)
        # hand evaluation with an arbitrary rational weight
        lam = Fraction(-3, 7)
        want = sum(lam ** (n - 1) * n**2 for n in nonrepresentable_set(p).gaps)
        assert weighted_sylvester_sum(p, lam, 2) == want


def test_weighted_sum_output_budget():
    # lam = p/q != +-1: refused when (ab - a - b) * max(bits(p), bits(q)) > 2**18
    half = Fraction(1, 2)
    for pair, lam in (((2, 131075), half), ((1001, 1003), half), ((3001, 3011), Fraction(-1, 2)),
                      ((301, 311), Fraction(1, 1000))):
        with pytest.raises(ValueError, match="budget of 262144 bits"):
            weighted_sylvester_sum(CoprimePair(*pair), lam, 1)
    # just inside: the gaps of (2, 2k+1) are the odd n < 2k, so the sum at
    # m = 0 is (1 - lam**(2k)) / (1 - lam**2); here the estimate is 262142 bits
    k = 65536
    assert weighted_sylvester_sum(CoprimePair(2, 2 * k + 1), half, 0) == (1 - half ** (2 * k)) / (1 - half**2)
    # lam = +-1 and a coin of 1 are exempt, whatever the size
    pair = CoprimePair(1001, 1003)
    assert weighted_sylvester_sum(pair, 1, 1) == sylvester_sum(pair)
    gaps = nonrepresentable_set(pair).gaps
    assert weighted_sylvester_sum(pair, -1, 1) == sum(n if n % 2 else -n for n in gaps)
    assert weighted_sylvester_sum(CoprimePair(1, 10**6), half, 1) == 0


def test_gap_sum_work_budget():
    # refused before any work: the listing route at (1001, 1003) took 14-16 s
    # at m = 708, the series at (301, 311), lam = -2/3, m = 160 took 12 s
    # and the listing at (301, 311), lam = 1/2, m = 216 took 7.4 s
    for pair, lam, m in (((1001, 1003), 1, 1000), ((1001, 1003), 1, 708), ((1001, 1003), -1, 600),
                         ((301, 311), Fraction(-2, 3), 160), ((301, 311), Fraction(1, 2), 216),
                         ((10**299 + 1, 10**299 + 2), 1, 200), ((3, 5), 1, 10**400)):
        with pytest.raises(ValueError, match="over the work budget of 100000000000"):
            weighted_sylvester_sum(CoprimePair(*pair), lam, m)
    with pytest.raises(ValueError, match="over the work budget"):
        sylvester_sum_power(CoprimePair(1001, 1003), 1000)
    # estimated inside it (each took at most about 1.3 s), by either route
    for (a, b), lam, m, listing in (((1001, 1003), 1, 400, False), ((301, 311), Fraction(-2, 3), 80, False),
                                    ((301, 311), 1, 216, True), ((101, 103), Fraction(1, 2), 72, True),
                                    ((10**100 + 1, 10**100 + 3), 1, 100, False), ((3, 5), 1, 100_000, True)):
        lam = Fraction(lam)
        lam_bits = 0 if abs(lam) == 1 else max(abs(lam.numerator).bit_length(), lam.denominator.bit_length())
        assert ((a - 1) * (b - 1) // 2 <= m * m) == listing
        assert 2 ** coinproblem._gap_sum_work(a, b, lam_bits, m, listing) <= coinproblem._GAP_SUM_WORK_BUDGET
    assert weighted_sylvester_sum(CoprimePair(31, 37), Fraction(1, 2), 40) == sum(
        Fraction(1, 2) ** (n - 1) * n**40 for n in gaps_by_set_formula(31, 37))


_WEIGHTS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
)


@settings(max_examples=400, deadline=None)
@given(a=st.integers(1, 39), b=st.integers(1, 39), lam=_WEIGHTS, m=st.integers(0, 6))
@example(a=1, b=7, lam=Fraction(1, 2), m=2)  # a coin of 1: no gaps
@example(a=8, b=9, lam=Fraction(-1), m=3)  # lam**8 = 1: that factor vanishes at t = 0
@example(a=2, b=9, lam=Fraction(-1), m=0)
@example(a=14, b=3, lam=Fraction(-1), m=6)
def test_gap_series_matches_listing(a, b, lam, m):
    assume(gcd(a, b) == 1)
    gaps = nonrepresentable_set(CoprimePair(a, b)).gaps
    want = sum((lam ** (n - 1) * n**m for n in gaps), Fraction(0))
    assert weighted_sylvester_sum(CoprimePair(a, b), lam, m) == want
    if lam == 1:
        assert sylvester_sum_power(CoprimePair(a, b), m) == want
    if a > 1 and b > 1:  # the series itself, also where the listing is cheaper
        assert Fraction(*_series_moment(a, b, lam.numerator, lam.denominator, m)) == want


def test_gap_power_sums_at_300_digits():
    for a, b in ((10**299 + 1, 10**299 + 2), (3**629, 2**997)):
        p = CoprimePair(a, b)
        assert sylvester_sum_power(p, 0) == (a - 1) * (b - 1) // 2
        assert sylvester_sum_power(p, 1) == (a - 1) * (b - 1) * (2 * a * b - a - b - 1) // 12
        assert sylvester_sum_power(p, 2) == (a - 1) * (b - 1) * a * b * (a * b - a - b) // 12
        for m in (3, 4, 7):
            value = sylvester_sum_power(p, m)
            assert type(value) is int and value == gap_power_sum_bernoulli(a, b, m)
        assert weighted_sylvester_sum(p, 1, 4) == sylvester_sum_power(p, 4)
