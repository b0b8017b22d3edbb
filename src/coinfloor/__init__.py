"""Exact toolkit for the two-coin representability problem and floor-sum
reciprocity: logarithmic floor-sum evaluation, exact counts of representable
numbers below a threshold, gap enumeration with Sylvester-type sums, and
Jacobi symbols computed from floor-sum parity, with every identity wired up
as a machine-checkable property."""

from .coinproblem import (
    BestFamilyPoint,
    ExactRational,
    NonRepSet,
    RepCount,
    best2_count,
    best_family_point,
    count_lattice_3var,
    count_representable_upto,
    frobenius_number,
    is_representable,
    nonrepresentable_set,
    rep_count_shift_check,
    representation_count,
    sylvester_sum,
    sylvester_sum_power,
    weighted_sylvester_sum,
)
from .core import (
    CoprimePair,
    OddCoprimePair,
    extended_gcd,
    factorize,
    gcd,
    is_prime,
    mod_inverse,
    pow_mod,
)
from .floorsum import (
    FloorSum,
    FloorSumQuery,
    fast_floor_sum,
    fast_floor_sum_steps,
    floor_sum_affine_steps,
    floor_sum_fast,
    floor_sum_naive,
    gauss_residual,
    naive_floor_sum,
    reciprocity_residual,
    strong_residual,
)
from .jacobi import (
    gauss_lemma_count,
    ge1_residual,
    ge2_residual,
    jacobi_by_definition,
    jacobi_eisenstein,
    jacobi_reciprocity_check,
    legendre_by_search,
    legendre_euler,
)
from .verify import (
    CheckResult,
    Failure,
    GridSpec,
    check_equivalence_chain,
    check_jacobi_suite,
    check_lemma_chain,
    reproduce_section5_example,
    reproduce_table1,
    run_suites,
)

__version__ = "0.1.0"
