"""Construction of the library's result and record classes.

They are plain __slots__ classes rather than dataclasses, so that importing
the CLI loads no dataclasses machinery.  These tests pin what callers rely
on: construction by position and by keyword with the same defaults, and
the checks of SearchConfig.  Records are compared by to_dict(), the form
the CLI prints, and PeriodResult by its attributes; so to_dict() is pinned
to read every field but CheckResult's timing.
"""

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

# (class, positional arguments, the same by keyword in field order)
CASES = [
    (PeriodResult, (10, 12, 24), dict(modulus=10, period=12, prefix_checked=24)),
    (SearchConfig, (40, 3, Parity.SAME, True, False),
     dict(max_index=40, min_exponent=3, parity_filter=Parity.SAME,
          coprimality_required=True, coprime_zero_exempt=False)),
    (SolutionRecord, (EquationTag.SUM_POWER, 4, 1, 205, 1, CFG),
     dict(equation=EquationTag.SUM_POWER, n=4, m=1, x=205, exponent=1, bounds=CFG)),
    (SpecialFormRecord, (SequenceKind.BALANCING, 2, 1, 0, 1, 2),
     dict(kind=SequenceKind.BALANCING, prime=2, n=1, prime_exponent=0, x=1, exponent=2)),
    (ProductFormRecord, (1, 1, 0, 3, 1), dict(n=1, m=1, two_exponent=0, x=3, exponent=1)),
    (CheckResult, ("demo", "n <= 3", 4, False, ["B_3 != 35"], 1.5),
     dict(name="demo", bound="n <= 3", checked=4, passed=False, failures=["B_3 != 35"],
          ms=1.5)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

# another value for each field of each class with a to_dict()
OTHER = {
    SearchConfig: dict(max_index=41, min_exponent=4, parity_filter=Parity.ANY,
                       coprimality_required=False, coprime_zero_exempt=True),
    SolutionRecord: dict(equation=EquationTag.SQUARE_DIFF, n=5, m=2, x=206, exponent=2,
                         bounds=SearchConfig(41)),
    SpecialFormRecord: dict(kind=SequenceKind.PELL, prime=3, n=2, prime_exponent=1, x=2,
                            exponent=3),
    ProductFormRecord: dict(n=2, m=2, two_exponent=1, x=4, exponent=2),
    CheckResult: dict(name="other", bound="n <= 4", checked=5, passed=True, failures=[],
                      ms=2.5),
}
FIELDS = [(cls, kwargs, name, OTHER[cls][name])
          for cls, _, kwargs in CASES if cls in OTHER for name in kwargs]


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    assert cls.__slots__ == tuple(kwargs)
    for value in (cls(*args), cls(**kwargs)):
        assert tuple(getattr(value, name) for name in kwargs) == args
        assert not hasattr(value, "__dict__")  # slotted


@pytest.mark.parametrize("cls, kwargs, name, other", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name, _ in FIELDS])
def test_to_dict_reads_every_field(cls, kwargs, name, other):
    # the wall time a check took is not part of its result
    printed = cls(**kwargs).to_dict() != cls(**{**kwargs, name: other}).to_dict()
    assert printed is not (cls is CheckResult and name == "ms")


def test_defaults():
    assert SearchConfig(7).to_dict() == SearchConfig(7, 2, Parity.ANY, False, True).to_dict()
    a, b = CheckResult("demo", "n <= 3", 4, True), CheckResult("demo", "n <= 3", 4, True)
    assert a.to_dict() == CheckResult("demo", "n <= 3", 4, True, [], 0.0).to_dict()
    assert a.ms == 0.0
    assert a.failures == [] and a.failures is not b.failures


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_index=0), "max_index must be >= 1"),
    (dict(max_index=5, min_exponent=1), "min_exponent must be >= 2"),
])
def test_search_config_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kwargs)


def test_failed_reverification_prints_the_record():
    wrong = SolutionRecord(EquationTag.SUM_POWER, 4, 1, 203, 1, CFG)  # B_4 + B_1 = 205
    with pytest.raises(ArithmeticError, match=re.escape(str(wrong.to_dict()))):
        _verified([SolutionRecord(EquationTag.SUM_POWER, 4, 1, 205, 1, CFG), wrong])
