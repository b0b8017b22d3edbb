"""Tests for the identity suite: grid handling, determinism, and reporting."""

import time

import pytest

from coinfloor import verify
from coinfloor.verify import (
    CheckResult,
    GridSpec,
    _Recorder,
    check_equivalence_chain,
    check_jacobi_suite,
    check_lemma_chain,
    half_index_reciprocity,
    lattice_threshold_checks,
    reproduce_section5_example,
    reproduce_table1,
    run_suites,
    TABLE1_ROWS,
)


def _outcome(results):
    return [(r.check_id, r.cases_run, r.failures) for r in results]


# (check_id, cases_run) of run_suites("all", GridSpec(60, 60)), the
# benchmark's grid; a faster pass must still run every one of these cases.
GRID60_SHAPE = [
    ("gauss_reciprocity_sum", 928),
    ("half_index_reciprocity", 2403),
    ("swap_identity_all_d", 43329),
    ("gap_count_floor_sum_bridge", 2203),
    ("half_product_parity_identity", 2203),
    ("gap_cardinality", 2203),
    ("lattice_halfline_count", 2203),
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
    # max(A, B)**2 * min(A, B) is at most 150**3: grid 150 and thin grids
    # up to it pass, anything past it is refused before any work
    for a_max, b_max in ((150, 150), (2, 1299), (1299, 2), (20, 410)):
        GridSpec(a_max, b_max)
    for a_max, b_max in ((151, 150), (150, 151), (2, 1300), (1300, 2), (2, 10**9)):
        with pytest.raises(ValueError, match=r"over the limit of 150\*\*3 = 3375000"):
            GridSpec(a_max, b_max)


def test_equivalence_chain_passes():
    grid = GridSpec(a_max=30, b_max=30, sample_count=25)
    results = check_equivalence_chain(grid)
    assert [r.check_id for r in results] == [
        "gauss_reciprocity_sum",
        "half_index_reciprocity",
        "swap_identity_all_d",
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
    rec.case((2, 1), 0, 0)
    rec.case((1, 9), 0, 5)
    rec.case((1, 3), 0, 7)
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
    assert {dict(f.inputs)["d"] for f in results[0].failures} == {2, 3, 4}

    monkeypatch.setattr(verify, "_count_by_membership", lambda pair, k: -1)
    (failure,) = reproduce_section5_example().failures
    assert failure.inputs == (("k", 257),)
    assert (failure.expected, failure.actual) == (60, -1)
