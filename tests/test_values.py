"""Value semantics of the library's result and record classes.

They are plain __slots__ classes over ballab.Value rather than dataclasses,
so that importing the CLI loads no dataclasses machinery.  These tests pin
what callers relied on when they were dataclasses: construction by position
and by keyword with the same defaults, the checks of SearchConfig and
SolutionRecord, equality by class and fields (CheckResult ignores ms),
equal hashes for equal instances, and the dataclass repr that error
messages print.
"""

import dataclasses
import re

import pytest

from ballab.diophantine import (
    EquationTag,
    Parity,
    ProductFormRecord,
    SearchConfig,
    SolutionRecord,
    SpecialFormRecord,
    _verified,
)
from ballab.modular import PeriodResult
from ballab.sequences import SequenceKind
from ballab.verify import CheckResult

CFG = SearchConfig(40)

# (class, positional arguments, the same by keyword in field order); CheckResult is last
CASES = [
    (PeriodResult, (10, 12, 24), dict(modulus=10, period=12, prefix_checked=24)),
    (SearchConfig, (40, 3, Parity.SAME, True, False),
     dict(max_index=40, min_exponent=3, parity_filter=Parity.SAME,
          coprimality_required=True, coprime_zero_exempt=False)),
    (SolutionRecord, (EquationTag.SUM_POWER, 4, 1, 205, 1, None, CFG),
     dict(equation=EquationTag.SUM_POWER, n=4, m=1, x=205, exponent=1,
          family_min_exponent=None, bounds=CFG)),
    (SpecialFormRecord, (SequenceKind.BALANCING, 2, 1, 0, 1, None, 2),
     dict(kind=SequenceKind.BALANCING, prime=2, n=1, prime_exponent=0, x=1, exponent=None,
          family_min_exponent=2)),
    (ProductFormRecord, (1, 1, 0, 3, 1), dict(n=1, m=1, two_exponent=0, x=3, exponent=1)),
    (CheckResult, ("demo", "n <= 3", 4, False, ["B_3 != 35"], 1.5),
     dict(name="demo", bound="n <= 3", checked=4, passed=False, failures=["B_3 != 35"],
          ms=1.5)),
]
HASHABLE = CASES[:-1]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in kwargs) == args
    assert not hasattr(by_keyword, "__dict__")  # slotted


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_equality_compares_class_and_every_field(cls, args, kwargs):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != args and value != type("Other", (cls,), {"__slots__": ()})(*args)
    for name in kwargs:
        other = cls(*args)
        object.__setattr__(other, name, object())
        assert (value == other) == (name == "ms"), name


@pytest.mark.parametrize("cls, args, kwargs", HASHABLE, ids=IDS[:-1])
def test_equal_instances_hash_equal(cls, args, kwargs):
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs)}) == 1


def test_check_result_ignores_ms_and_is_unhashable():
    a = CheckResult("demo", "n <= 3", 4, True, ms=1.0)
    b = CheckResult("demo", "n <= 3", 4, True, ms=2.0)
    assert a == b and a.ms != b.ms
    assert a.failures == [] and a.failures is not b.failures
    with pytest.raises(TypeError):
        hash(a)


def test_defaults():
    assert SearchConfig(7) == SearchConfig(7, 2, Parity.ANY, False, True)
    assert (CheckResult("demo", "n <= 3", 4, True)
            == CheckResult("demo", "n <= 3", 4, True, [], 0.0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_index=0), "max_index must be >= 1"),
    (dict(max_index=5, min_exponent=1), "min_exponent must be >= 2"),
])
def test_search_config_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kwargs)


@pytest.mark.parametrize("exponent, family_min_exponent", [(None, None), (2, 2)])
def test_solution_record_needs_exactly_one_exponent(exponent, family_min_exponent):
    with pytest.raises(ValueError, match="exactly one of exponent / family_min_exponent"):
        SolutionRecord(EquationTag.SUM_POWER, 1, 0, 1, exponent, family_min_exponent, CFG)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, args, kwargs):
    reference = dataclasses.make_dataclass(cls.__name__, list(kwargs))
    assert repr(cls(*args)) == repr(reference(*args))


def test_failed_reverification_prints_the_record():
    wrong = SolutionRecord(EquationTag.SUM_POWER, 4, 1, 203, 1, None, CFG)  # B_4 + B_1 = 205
    assert repr(wrong).startswith(
        "SolutionRecord(equation=<EquationTag.SUM_POWER: 'sum-power'>, n=4, m=1, x=203, "
        "exponent=1, family_min_exponent=None, bounds=SearchConfig(max_index=40, ")
    with pytest.raises(ArithmeticError, match=re.escape(repr(wrong))):
        _verified([SolutionRecord(EquationTag.SUM_POWER, 4, 1, 205, 1, None, CFG), wrong])
