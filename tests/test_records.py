"""The package's records: field order, construction, equality, hashing,
immutability and repr, as callers and the benchmark read them."""

import pytest

from coinfloor.coinproblem import BestFamilyPoint, NonRepSet, RepCount, best_family_point
from coinfloor.core import CoprimePair
from coinfloor.verify import CheckResult, Failure, GridSpec

FAILURE = Failure(inputs=(("a", 1),), expected=0, actual=1)

# id -> (record built by keyword, the same built positionally, a record
# that differs in one field, vars() in order, repr)
CASES = {
    # the inverse joins vars() on its first read, after the fields (see
    # test_core::test_coprime_pair_computes_its_inverse_on_first_read)
    "CoprimePair": (
        CoprimePair(a=29, b=23), CoprimePair(29, 23), CoprimePair(29, 24),
        {"a": 29, "b": 23}, "CoprimePair(a=29, b=23)",
    ),
    "RepCount": (
        RepCount(n=8, count=1), RepCount(8, 1), RepCount(8, 0),
        {"n": 8, "count": 1}, "RepCount(n=8, count=1)",
    ),
    "BestFamilyPoint": (
        best_family_point(CoprimePair(29, 23), 27), BestFamilyPoint(27, 21, 615, 308),
        best_family_point(CoprimePair(29, 23), 25),
        {"alpha": 27, "beta": 21, "k": 615, "n0": 308}, "BestFamilyPoint(alpha=27, beta=21, k=615, n0=308)",
    ),
    "NonRepSet": (
        NonRepSet(pair=CoprimePair(3, 5), gaps=(1, 2, 4, 7)), NonRepSet(CoprimePair(3, 5), (1, 2, 4, 7)),
        NonRepSet(CoprimePair(5, 3), (1, 2, 4, 7)),
        {"pair": CoprimePair(3, 5), "gaps": (1, 2, 4, 7)},
        "NonRepSet(pair=CoprimePair(a=3, b=5), gaps=(1, 2, 4, 7))",
    ),
    "GridSpec": (
        GridSpec(a_max=10, b_max=12), GridSpec(10, 12, 0), GridSpec(10, 12, seed=1),
        {"a_max": 10, "b_max": 12, "seed": 0},
        "GridSpec(a_max=10, b_max=12, seed=0)",
    ),
    "Failure": (
        FAILURE, Failure((("a", 1),), 0, 1), Failure((("a", 1),), 0, 2),
        {"inputs": (("a", 1),), "expected": 0, "actual": 1},
        "Failure(inputs=(('a', 1),), expected=0, actual=1)",
    ),
    "CheckResult": (
        CheckResult(check_id="c", cases_run=1, failures=[FAILURE], elapsed=0.5),
        CheckResult("c", 1, [FAILURE], 0.5), CheckResult("c", 1, [], 0.5),
        {"check_id": "c", "cases_run": 1, "failures": [FAILURE], "elapsed": 0.5},
        "CheckResult(check_id='c', cases_run=1, failures=[Failure(inputs=(('a', 1),), "
        "expected=0, actual=1)], elapsed=0.5)",
    ),
}
# every record refuses assignment; one holding a list is unhashable
UNHASHABLE = ["CheckResult"]


@pytest.mark.parametrize("name", CASES)
def test_record_vars_in_field_order(name):
    record, positional, _, fields, _ = CASES[name]
    assert list(vars(record).items()) == list(fields.items())
    assert list(vars(positional).items()) == list(fields.items())


@pytest.mark.parametrize("name", CASES)
def test_record_equality_by_value(name):
    record, positional, other, fields, _ = CASES[name]
    assert record == positional and not record != positional
    assert record != other
    assert record != tuple(fields.values())  # another class never compares equal
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(positional)


# CoprimePair's own test is test_core::test_coprime_pair_is_immutable
@pytest.mark.parametrize("name", [n for n in CASES if n != "CoprimePair"])
def test_record_is_immutable(name):
    record, _, _, fields, _ = CASES[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert list(vars(record).items()) == list(fields.items())


@pytest.mark.parametrize("name", CASES)
def test_record_repr(name):
    record, positional, _, _, text = CASES[name]
    assert repr(record) == repr(positional) == text

