"""Tests for the identity suite: grid handling, determinism, and reporting."""

import hashlib
import re
import time
from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinfloor import floorsum, verify
from coinfloor.core import CoprimePair
from coinfloor.floorsum import reciprocity_residual
from coinfloor.jacobi import ge1_residual, ge2_residual
from coinfloor.verify import (
    CheckResult,
    Failure,
    GridSpec,
    _Recorder,
    _split_triples,
    check_equivalence_chain,
    check_jacobi_suite,
    check_lemma_chain,
    half_index_reciprocity,
    lattice_threshold_checks,
    reproduce_section5_example,
    reproduce_table1,
    run_suites,
    split_parity_checks,
    TABLE1_ROWS,
)


def _outcome(results):
    return [(r.check_id, r.cases_run, r.failures) for r in results]


# (check_id, cases_run) of run_suites("all", GridSpec(60, 60)), the
# benchmark's grid; a faster pass must still run every one of these cases.
GRID60_SHAPE = [
    ("gauss_reciprocity_sum", 928),
    ("half_index_reciprocity", 2403),
    ("gap_count_floor_sum_bridge", 2203),
    ("half_product_parity_identity", 2203),
    ("gap_cardinality", 2203),
    ("lattice_halfline_count", 2203),
    ("swap_identity_all_d", 43329),
    ("lattice_reciprocity_count", 38386),
    ("lattice_gap_deficit_count", 20508),
    ("threshold_swap_form", 20508),
    ("threshold_closed_form", 20508),
    ("table1_reproduction", 14),
    ("worked_example_29_23", 6),
    ("eisenstein_vs_definition", 929),
    ("jacobi_reciprocity", 929),
    ("denominator_split_parity", 18387),
    ("numerator_split_parity", 18387),
    ("gauss_lemma_sign", 422),
]


@pytest.fixture(scope="module")
def grid60_pass():
    t0 = time.perf_counter()
    results = run_suites("all", GridSpec(60, 60))
    return results, time.perf_counter() - t0


def test_grid60_pass_shape(grid60_pass):
    results, _ = grid60_pass
    assert [(r.check_id, r.cases_run) for r in results] == GRID60_SHAPE
    assert all(r.passed for r in results)


def test_grid60_elapsed_adds_up_to_no_more_than_the_wall_time(grid60_pass):
    results, wall = grid60_pass
    assert all(r.elapsed >= 0.0 for r in results)
    assert sum(r.elapsed for r in results) <= wall


def test_gridspec_validation():
    GridSpec(a_max=2, b_max=2)
    with pytest.raises(ValueError):
        GridSpec(a_max=1)
    with pytest.raises(ValueError):
        GridSpec(b_max=0)
    with pytest.raises(ValueError):
        GridSpec(sample_count=-1)
    # max(A, B)**2 * min(A, B) + sum(p**2, odd primes p <= max(A, B)) // 22
    # is at most its value at grid 150, 150**3 + 216282 // 22: grid 150 and
    # thin grids up to it pass, anything past it is refused before any work
    assert verify._GRID_COST_MAX == verify._grid_cost(150, 150) == 150**3 + 216282 // 22
    for a_max, b_max in ((150, 150), (2, 900), (900, 2), (20, 300), (300, 20), (60, 60), (100, 160)):
        GridSpec(a_max, b_max)
    # the old limit's thinnest grids, refused for their gauss_lemma_sign cases
    for a_max, b_max in ((2, 1299), (1299, 2), (20, 410), (2, 920), (151, 150), (150, 151), (2, 1300),
                         (1300, 2), (2, 10**9)):
        with pytest.raises(ValueError, match="over the limit of 3384831"):
            GridSpec(a_max, b_max)


def test_equivalence_chain_passes():
    grid = GridSpec(a_max=30, b_max=30, sample_count=25)
    results = check_equivalence_chain(grid)
    assert [r.check_id for r in results] == [
        "gauss_reciprocity_sum",
        "half_index_reciprocity",
        "gap_count_floor_sum_bridge",
        "half_product_parity_identity",
        "gap_cardinality",
    ]
    for r in results:
        assert r.passed, r.check_id
        assert r.cases_run > 0
        assert r.elapsed >= 0.0


def test_equivalence_chain_single_pair_grid():
    # the (29, 23) running pair appears inside any grid that reaches it
    results = check_equivalence_chain(GridSpec(a_max=29, b_max=23, sample_count=0))
    assert all(r.passed for r in results)


def test_lemma_chain_passes():
    results = check_lemma_chain(GridSpec(a_max=25, b_max=25, sample_count=0))
    assert [r.check_id for r in results] == [
        "lattice_halfline_count",
        "swap_identity_all_d",
        "lattice_reciprocity_count",
        "lattice_gap_deficit_count",
        "threshold_swap_form",
        "threshold_closed_form",
    ]
    for r in results:
        assert r.passed, r.check_id
        assert r.cases_run > 0


def test_chain_elapsed_values_are_disjoint():
    # checks sharing one loop split its time, so their reports add up to
    # the chain's wall time instead of each repeating it
    grid = GridSpec(a_max=25, b_max=25, sample_count=20)
    for chain in (check_equivalence_chain, check_lemma_chain, check_jacobi_suite):
        t0 = time.perf_counter()
        results = chain(grid)
        wall = time.perf_counter() - t0
        reported = sum(r.elapsed for r in results)
        assert 0.5 * wall <= reported <= wall, (chain.__name__, reported, wall)


def test_jacobi_suite_passes():
    results = check_jacobi_suite(GridSpec(a_max=30, b_max=30, sample_count=10))
    assert [r.check_id for r in results] == [
        "eisenstein_vs_definition",
        "jacobi_reciprocity",
        "denominator_split_parity",
        "numerator_split_parity",
        "gauss_lemma_sign",
    ]
    for r in results:
        assert r.passed, r.check_id
        assert r.cases_run > 0


def _cases_by_check(monkeypatch, run):
    """Run run() and return each check's multiset of (values, expected, actual)."""
    seen = {}
    cases = _Recorder.cases

    def record(self, expected, actual, inputs):
        counter = seen.setdefault(self.check_id, Counter())
        for i, case in enumerate(zip(expected, actual)):
            counter[(inputs(i), *case)] += 1
        cases(self, expected, actual, inputs)

    monkeypatch.setattr(_Recorder, "cases", record)
    run()
    return seen


def _digest(seen):
    """sha256 of the sorted multiset of (check id, values, expected, actual)."""
    lines = sorted(repr((check_id, *case)) for check_id, counter in seen.items() for case in counter.elements())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _digest of a grid-60 pass by seed, as the per-case recorder gave them
# before cases were recorded in batches
GRID60_DIGESTS = {
    0: "0f3824bea0e056a0a34dc026c41349932968049c3a06d0b1f8ad45012d289e43",
    7: "48944c1cd6f39a18ebe287296d1928736e1275d0fd4e7d31af1e2e52731faad7",
}


@pytest.mark.parametrize("seed", sorted(GRID60_DIGESTS))
def test_grid60_cases_and_values_are_golden(monkeypatch, seed):
    seen = _cases_by_check(monkeypatch, lambda: run_suites("all", GridSpec(60, 60, seed=seed)))
    assert _digest(seen) == GRID60_DIGESTS[seed]


def test_split_parity_checks_agree_with_the_single_triple_definitions(monkeypatch):
    # b = 1 is in the grid, and products collide (3*15 = 5*9 = 45)
    triples = list(_split_triples(range(1, 32, 2), range(1, 46, 2)))
    want = {
        "denominator_split_parity": Counter((t, 0, ge1_residual(*t)) for t in triples),
        "numerator_split_parity": Counter((t, 0, ge2_residual(*t)) for t in triples),
    }
    # the tables start over on each change of a, so the order does not matter
    for order in (triples, triples[::-1]):
        results = []
        seen = _cases_by_check(monkeypatch, lambda: results.extend(split_parity_checks(order)))
        assert seen == want
        assert [(r.check_id, r.cases_run, r.passed) for r in results] == [
            ("denominator_split_parity", len(triples), True),
            ("numerator_split_parity", len(triples), True),
        ]


def test_a_fault_in_a_shared_split_term_reaches_every_triple_that_reads_it(monkeypatch):
    # S(45, 7, 22) is T(bc) of the denominator for a = 7 and bc = 45; no b
    # of the grid is 45, so only the four triples with that product read it
    fast_floor_sum = verify.fast_floor_sum
    monkeypatch.setattr(verify, "fast_floor_sum",
                        lambda a, b, d: fast_floor_sum(a, b, d) + ((a, b, d) == (45, 7, 22)))
    results = run_suites("all", GridSpec(8, 16, sample_count=0))
    failing = {r.check_id: [dict(f.inputs) for f in r.failures] for r in results if r.failures}
    assert failing == {
        "denominator_split_parity": [{"a": 7, "b": b, "c": c} for b, c in ((3, 15), (5, 9), (9, 5), (15, 3))],
    }


@pytest.mark.parametrize("triples", [
    [(4, 1, 1)], [(3, 2, 5)], [(3, 5, 2)], [(3, 5, 9)], [(15, 3, 7)],
    # b known from an earlier triple with the same a, c new and bad
    [(3, 5, 5), (3, 5, 9)], [(3, 5, 5), (3, 5, -1)],
])
def test_split_parity_checks_refuse_a_bad_triple_with_ge1_residuals_message(triples):
    with pytest.raises(ValueError) as ref:
        ge1_residual(*triples[-1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        split_parity_checks(triples)


_BIG_ODD = st.integers(min_value=0, max_value=10**300 // 2).map(lambda n: 2 * n + 1)


@settings(max_examples=50, deadline=None)
@given(a=_BIG_ODD, b=_BIG_ODD, c=_BIG_ODD, d=_BIG_ODD)
def test_split_parity_past_1e9(a, b, c, d):
    # the split identities hold at up to 300 digits, single and shared
    assume(gcd(a, b * c * d) == 1)
    assert ge1_residual(a, b, c) == 0
    assert ge2_residual(a, b, c) == 0
    results = split_parity_checks((a, x, y) for x in (b, c, d) for y in (b, c, d))
    assert [(r.cases_run, r.passed) for r in results] == [(9, True), (9, True)]


def test_jacobi_suite_reducer_calls(monkeypatch):
    # one call per pair for the symbol, two for its reciprocity, and two per
    # distinct b, c or bc for each a of the split-parity checks; the
    # per-triple route made six per triple
    calls = []
    steps = floorsum.fast_floor_sum_steps
    monkeypatch.setattr(floorsum, "fast_floor_sum_steps", lambda *args: calls.append(args) or steps(*args))
    grid = GridSpec(20, 20)
    results = check_jacobi_suite(grid)
    odd = range(1, 21, 2)
    terms = sum(len({n for b, c in product(odd, odd) if gcd(a, b * c) == 1 for n in (b, c, b * c)})
                for a in odd)
    pairs = results[0].cases_run
    assert pairs == 83 + grid.sample_count
    assert len(calls) == 3 * pairs + 2 * terms == 1597


def test_gridspec_has_no_odd_only_option():
    # the Jacobi suite runs the odd grid; the other checks take every pair
    with pytest.raises(TypeError):
        GridSpec(odd_only=True)


def test_reproduce_table1():
    result = reproduce_table1()
    assert result.check_id == "table1_reproduction"
    assert result.cases_run == len(TABLE1_ROWS) == 14
    assert result.passed


def test_reproduce_section5_example():
    result = reproduce_section5_example()
    assert result.check_id == "worked_example_29_23"
    assert result.cases_run == 6
    assert result.passed


def test_determinism_same_seed_same_outcome():
    grid = GridSpec(a_max=12, b_max=12, seed=77, sample_count=40)
    first = run_suites("all", grid)
    second = run_suites("all", grid)
    assert _outcome(first) == _outcome(second)


def test_suite_selection():
    grid = GridSpec(a_max=8, b_max=8, sample_count=0)
    frob = {r.check_id for r in run_suites("frobenius", grid)}
    jac = {r.check_id for r in run_suites("jacobi", grid)}
    both = {r.check_id for r in run_suites("all", grid)}
    assert "table1_reproduction" in frob and "table1_reproduction" not in jac
    assert "eisenstein_vs_definition" in jac and "eisenstein_vs_definition" not in frob
    assert both == frob | jac
    with pytest.raises(ValueError):
        run_suites("everything", grid)


def test_recorder_failure_reporting():
    rec = _Recorder("demo", ("a", "b"))
    rec.cases([0, 0], [0, 5], [(2, 1), (1, 9)].__getitem__)
    rec.cases([0], [7], lambda i: (1, 3))
    result = rec.result()
    assert isinstance(result, CheckResult)
    assert not result.passed
    assert result.cases_run == 3
    # failures sorted by inputs, mismatching values preserved
    assert [dict(f.inputs) for f in result.failures] == [{"a": 1, "b": 3}, {"a": 1, "b": 9}]
    assert (result.failures[0].expected, result.failures[0].actual) == (0, 7)
    row = result.as_row()
    assert row["passed"] is False
    assert row["cases_run"] == 3
    assert row["failures"][0]["inputs"] == {"a": 1, "b": 3}


def test_failure_inputs_name_each_value(monkeypatch):
    # a one-loop check, a check on a shared clock, and section 5, whose
    # last two cases rename their single value
    monkeypatch.setattr(verify, "strong_residual", lambda a, b: 1)
    (failure,) = half_index_reciprocity([(3, 5)]).failures
    assert failure.inputs == (("a", 3), ("b", 5))
    assert (failure.expected, failure.actual) == (0, 1)

    monkeypatch.setattr(verify, "count_lattice_3var", lambda pair, k: -1)
    results = lattice_threshold_checks([(5, 3)])
    failures = [f for r in results for f in r.failures]
    assert failures and {tuple(name for name, _ in f.inputs) for f in failures} == {("a", "b", "d")}
    by_id = {r.check_id: r for r in results}
    assert not by_id["swap_identity_all_d"].failures
    assert {dict(f.inputs)["d"] for f in by_id["lattice_reciprocity_count"].failures} == {2, 3, 4}

    monkeypatch.setattr(verify, "_count_by_membership", lambda pair, k: -1)
    (failure,) = reproduce_section5_example().failures
    assert failure.inputs == (("k", 257),)
    assert (failure.expected, failure.actual) == (60, -1)


def test_a_reducer_fault_reaches_every_check_that_reads_it(monkeypatch):
    # reciprocity_residual looks fast_floor_sum up in floorsum; the lattice
    # and threshold checks read S(7, 3, 5) + S(3, 7, 2) off that residual
    fast_floor_sum = floorsum.fast_floor_sum
    monkeypatch.setattr(floorsum, "fast_floor_sum",
                        lambda a, b, d: fast_floor_sum(a, b, d) + ((a, b, d) == (7, 3, 5)))
    results = run_suites("all", GridSpec(8, 8, sample_count=5))
    failing = {r.check_id: [f.inputs for f in r.failures] for r in results if r.failures}
    fault = [(("a", 7), ("b", 3), ("d", 5))]
    assert failing == {
        "swap_identity_all_d": fault,
        "lattice_reciprocity_count": fault,
        "threshold_swap_form": fault,  # K = 2 and 2d > a
    }


def test_the_lemma_loop_records_reciprocity_residual_for_every_triple(monkeypatch):
    # S(b, a, K) is evaluated once per distinct K, yet each (a, b, d) still
    # records the residual reciprocity_residual gives it
    pairs = [(a, b) for a, b in verify._grid_pairs(GridSpec(30, 30)) if b < a]
    want = Counter(((a, b, d), 0, reciprocity_residual(a, b, d)) for a, b in pairs for d in range(1, a))
    seen = _cases_by_check(monkeypatch, lambda: lattice_threshold_checks(pairs))
    assert seen["swap_identity_all_d"] == want


def test_a_fault_in_a_shared_swap_term_reaches_every_d_that_reads_it(monkeypatch):
    # S(3, 7, 2) is S(b, a, K) of (7, 3) at K = 2, shared by d = 5 and d = 6
    fast_floor_sum = floorsum.fast_floor_sum
    monkeypatch.setattr(floorsum, "fast_floor_sum",
                        lambda a, b, d: fast_floor_sum(a, b, d) + ((a, b, d) == (3, 7, 2)))
    results = run_suites("all", GridSpec(8, 8, sample_count=0))
    failing = {r.check_id: [dict(f.inputs) for f in r.failures] for r in results if r.failures}
    fault = [{"a": 7, "b": 3, "d": d} for d in (5, 6)]
    assert failing == {
        "swap_identity_all_d": fault,
        "lattice_reciprocity_count": fault,
        "threshold_swap_form": fault,
    }


@pytest.mark.parametrize("pairs", [
    [(3, 3)], [(3, 5)], [(6, 4)], [(1, 1)], [(5, 0)], [(7, 3), (9, 6)],
])
def test_the_lemma_loop_refuses_a_bad_pair_with_reciprocity_residuals_message(pairs):
    with pytest.raises(ValueError) as ref:
        reciprocity_residual(*pairs[-1], 1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        lattice_threshold_checks(pairs)


def test_an_off_by_one_lattice_count_fails_exactly_the_cases_that_read_it(monkeypatch):
    # the lattice count of (7, 3) at 3*6 + 7*2 = 32 is read by d = 6 only,
    # in reciprocity form and through the gap deficit
    count = verify.count_lattice_3var
    monkeypatch.setattr(verify, "count_lattice_3var",
                        lambda pair, t: count(pair, t) + ((pair.a, pair.b, t) == (7, 3, 32)))
    pairs = [(a, b) for a, b in verify._grid_pairs(GridSpec(8, 8)) if b < a]
    results = lattice_threshold_checks(pairs, [(11, 5, 3)])
    failing = {r.check_id: r.failures for r in results if r.failures}
    want = count(CoprimePair(7, 3), 32)
    inputs = (("a", 7), ("b", 3), ("d", 6))
    assert failing == {
        "lattice_reciprocity_count": [Failure(inputs, want, want + 1)],
        "lattice_gap_deficit_count": [Failure(inputs, want, want + 1)],
    }


def test_lemma_loop_elapsed_is_within_its_wall_time():
    pairs = [(a, b) for a, b in verify._grid_pairs(GridSpec(40, 40)) if b < a]
    t0 = time.perf_counter()
    results = lattice_threshold_checks(pairs, [(11, 5, 3)])
    wall = time.perf_counter() - t0
    assert len(results) == 5 and all(r.elapsed >= 0.0 for r in results)
    assert sum(r.elapsed for r in results) <= wall


def test_lemma_loop_reducer_calls(monkeypatch):
    # one S(a, b, d) per d and one S(b, a, K) per distinct K >= 1, not one
    # S(b, a, K) per d
    calls = []
    fast_floor_sum = floorsum.fast_floor_sum
    monkeypatch.setattr(floorsum, "fast_floor_sum", lambda *args: calls.append(args) or fast_floor_sum(*args))
    pairs = [(a, b) for a, b in verify._grid_pairs(GridSpec(20, 20)) if b < a]
    results = lattice_threshold_checks(pairs)
    assert all(r.passed for r in results)
    want = sum(a - 1 + len({b * d // a for d in range(1, a)} - {0}) for a, b in pairs)
    assert len(calls) == want


# The seeded large cases of GridSpec(5, 5, seed=3, sample_count=4), as the
# suite drew them when all three checks ran in the equivalence chain; each
# chain draws them from one RNG in this order, whichever chain runs.
SAMPLES_5_5_SEED3 = {
    "gauss_reciprocity_sum": [
        (255512577, 636343333), (584361683, 140040411), (397236331, 983488255), (671862059, 623685185),
    ],
    "half_index_reciprocity": [
        (70361079, 650257552), (899225579, 503834391), (924515449, 161723154), (994108270, 561761549),
    ],
    "swap_identity_all_d": [
        (16263687, 11264416, 13039835), (68753239, 21394298, 5743047),
        (884302099, 289300052, 507610470), (766790693, 458417847, 424088725),
    ],
}


def test_seeded_samples_are_the_same_cases_in_either_chain(monkeypatch):
    seen = {}
    cases = _Recorder.cases

    def record(self, expected, actual, inputs):
        seen.setdefault(self.check_id, []).extend(inputs(i) for i in range(len(actual)))
        cases(self, expected, actual, inputs)

    monkeypatch.setattr(_Recorder, "cases", record)
    grid = GridSpec(5, 5, seed=3, sample_count=4)
    for chain in (check_lemma_chain, check_equivalence_chain):
        seen.clear()
        assert all(r.passed for r in chain(grid))
        # the samples follow the grid's cases in each check
        got = {check_id: values[-4:] for check_id, values in seen.items() if check_id in SAMPLES_5_5_SEED3}
        want = {check_id: SAMPLES_5_5_SEED3[check_id] for check_id in got}
        assert got == want and got
