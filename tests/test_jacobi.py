"""Tests for the symbol engine and its layered oracles."""

import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinfloor.core import is_prime
from coinfloor.jacobi import (
    gauss_lemma_count,
    ge1_residual,
    ge2_residual,
    jacobi_by_definition,
    jacobi_eisenstein,
    jacobi_reciprocity_check,
    legendre_euler,
)
from oracle import jacobi_binary, legendre_by_search


def test_legendre_euler_examples():
    assert legendre_euler(0, 7) == 0
    assert legendre_euler(2, 7) == 1  # 3*3 = 9 = 2 mod 7
    assert legendre_euler(3, 7) == -1  # squares mod 7 are {1, 2, 4}
    assert legendre_euler(-1, 5) == 1  # 2*2 = 4 = -1 mod 5
    for bad_p in (2, 9, 15, 1, 0):
        with pytest.raises(ValueError):
            legendre_euler(3, bad_p)
    # composite, and a strong pseudoprime to every witness is_prime uses
    with pytest.raises(ValueError, match="318665857834031151167461"):
        legendre_euler(2, 318665857834031151167461)


def test_legendre_layered_oracles_agree():
    # Euler's criterion against the literal residue-table search
    for p in range(3, 101, 2):
        if not is_prime(p):
            continue
        for a in range(0, p):
            assert legendre_euler(a, p) == legendre_by_search(a, p)


def test_jacobi_by_definition_examples():
    assert jacobi_by_definition(5, 1) == 1  # empty factorization
    assert jacobi_by_definition(2, 15) == 1  # (-1) * (-1)
    assert jacobi_by_definition(2, 9) == 1  # (-1)^2
    assert jacobi_by_definition(3, 9) == 0
    with pytest.raises(ValueError):
        jacobi_by_definition(2, 10)
    with pytest.raises(ValueError):
        jacobi_by_definition(2, 0)


def test_jacobi_by_definition_refuses_past_its_budget():
    # trial division to sqrt(b): 10**14 takes under a second, 80 digits would not finish
    b = 10**14 - 1  # the largest odd denominator within the budget
    assert jacobi_by_definition(5, b) == jacobi_eisenstein(5, b)
    for b in (10**14 + 1, 10**79 + 1):
        with pytest.raises(ValueError, match=rf"b = {b} is over the budget of 100000000000000"):
            jacobi_by_definition(3, b)


def test_jacobi_numerator_multiplicativity():
    for b in range(1, 62, 2):
        for a1 in range(1, 30):
            for a2 in range(1, 30):
                lhs = jacobi_by_definition(a1 * a2, b)
                rhs = jacobi_by_definition(a1, b) * jacobi_by_definition(a2, b)
                assert lhs == rhs


def test_jacobi_eisenstein_examples():
    assert jacobi_eisenstein(1, 9) == 1
    assert jacobi_eisenstein(23, 29) == jacobi_by_definition(23, 29)
    assert jacobi_eisenstein(15, 77) == jacobi_by_definition(15, 77)
    for bad in ((2, 9), (9, 2), (3, 9), (-3, 5), (3, -5)):
        with pytest.raises(ValueError):
            jacobi_eisenstein(*bad)


def test_jacobi_eisenstein_equals_definition_to_301():
    for b in range(1, 302, 2):
        for a in range(1, 2 * b, 2):
            if gcd(a, b) != 1:
                continue
            value = jacobi_eisenstein(a, b)
            assert value in (-1, 1)
            assert value == jacobi_by_definition(a, b)


def test_jacobi_eisenstein_periodicity():
    for b in range(1, 152, 2):
        for a in range(1, 2 * b, 2):
            if gcd(a, b) != 1:
                continue
            assert jacobi_eisenstein(a, b) == jacobi_eisenstein(a + 2 * b, b)


def test_gauss_lemma_count_examples():
    assert gauss_lemma_count(1, 7) == 0  # residues 1, 2, 3
    assert gauss_lemma_count(3, 7) == 1  # residues 3, 6, 2
    assert gauss_lemma_count(2, 7) == 2  # residues 2, 4, 6
    with pytest.raises(ValueError):
        gauss_lemma_count(7, 7)
    with pytest.raises(ValueError):
        gauss_lemma_count(2, 9)


def test_gauss_lemma_count_refuses_past_its_budget():
    # the count visits (p-1)/2 residues; 10**12 of them would not finish
    for p in (10**7 + 19, 10**7 + 1, 10**12 + 39):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"p = {p} is over the budget of 10000000"):
            gauss_lemma_count(3, p)
        assert time.perf_counter() - t0 < 1.0


def test_gauss_lemma_sign_matches_legendre_to_199():
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        for a in range(1, p):
            sign = -1 if gauss_lemma_count(a, p) % 2 else 1
            assert sign == legendre_euler(a, p)


def test_split_parity_examples():
    assert ge2_residual(7, 3, 5) == 0
    assert ge1_residual(5, 3, 3) == 0
    for a in range(1, 40, 2):
        assert ge2_residual(a, 1, a + 2) == 0  # b = 1 collapses two sums
        assert ge1_residual(a, 1, 1) == 0
    for bad in ((2, 3, 5), (3, 2, 5), (3, 5, 2), (9, 3, 5), (9, 5, 3)):
        with pytest.raises(ValueError):
            ge1_residual(*bad)
        with pytest.raises(ValueError):
            ge2_residual(*bad)


@pytest.mark.parametrize("residual", [ge1_residual, ge2_residual])
def test_split_parity_messages(residual):
    # each argument is named when even, zero or negative, the first bad one first
    for name, pos in (("a", 0), ("b", 1), ("c", 2)):
        for bad in (4, 0, -3):
            args = [3, 5, 7]
            args[pos] = bad
            with pytest.raises(ValueError, match=rf"^{name} must be a positive odd integer, got {bad}$"):
                residual(*args)
    with pytest.raises(ValueError, match=r"^a must be a positive odd integer, got 2$"):
        residual(2, 0, -1)
    with pytest.raises(ValueError, match=r"^b must be a positive odd integer, got 0$"):
        residual(3, 0, -1)
    for args in ((3, 9, 5), (3, 5, 9), (15, 3, 5)):
        with pytest.raises(ValueError, match=rf"^b = {args[1]} and c = {args[2]} must both be coprime to a = {args[0]}$"):
            residual(*args)


def test_split_parity_sweep():
    for a in range(1, 46, 2):
        for b in range(1, 26, 2):
            if gcd(a, b) != 1:
                continue
            for c in range(1, 26, 2):
                if gcd(a, c) != 1:
                    continue
                assert ge1_residual(a, b, c) == 0
                assert ge2_residual(a, b, c) == 0


def test_reciprocity_examples_and_sweep():
    assert jacobi_reciprocity_check(21, 55)
    for b in range(1, 90, 2):
        assert jacobi_reciprocity_check(1, b)
    for a in range(1, 152, 2):
        for b in range(1, 152, 2):
            if gcd(a, b) == 1:
                assert jacobi_reciprocity_check(a, b)


def test_symbol_values_stay_in_range():
    for b in range(1, 80, 2):
        for a in range(0, 80):
            assert jacobi_by_definition(a, b) in (-1, 0, 1)


# Odd arguments up to 10**300, far past the grids above.
_ODD = st.integers(min_value=0, max_value=10**300 // 2).map(lambda n: 2 * n + 1)
_PROPERTY = settings(max_examples=60, deadline=None)


@_PROPERTY
@given(a=_ODD, b=_ODD)
def test_symbol_past_1e9_matches_the_binary_oracle_and_reciprocity(a, b):
    assume(gcd(a, b) == 1)
    value = jacobi_eisenstein(a, b)
    assert value == jacobi_binary(a, b)
    assert value * jacobi_eisenstein(b, a) == (-1) ** ((a - 1) * (b - 1) // 4 % 2)
    # the numerator shift a -> a + 2b keeps the symbol
    assert jacobi_eisenstein(a + 2 * b, b) == value


@_PROPERTY
@given(a=_ODD, b=_ODD, c=_ODD)
def test_symbol_past_1e9_is_multiplicative(a, b, c):
    # in the numerator for the denominator c, and in the denominator for the numerator a
    assume(gcd(a * b, c) == 1)
    assert jacobi_eisenstein(a * b, c) == jacobi_eisenstein(a, c) * jacobi_eisenstein(b, c)
    assume(gcd(a, b) == 1)
    assert jacobi_eisenstein(a, b * c) == jacobi_eisenstein(a, b) * jacobi_eisenstein(a, c)


def test_binary_oracle_against_the_definition():
    # the oracle itself, against factorization and Euler's criterion, 0 included
    for b in range(1, 200, 2):
        for a in range(0, 2 * b):
            assert jacobi_binary(a, b) == jacobi_by_definition(a, b), (a, b)
