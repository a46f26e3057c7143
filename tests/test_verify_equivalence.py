"""The quadratic verify checks against their one-case-at-a-time references.

ballab.verify decides the symmetric checks once per unordered pair and keeps
only the keys of failing cases; refmath decides and describes every ordered
case in turn.  Under any corruption of the sequences they read, both must
give the same result dict: the same count, verdict and first five failures
in case order.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import ballab.verify  # noqa: E402
import refmath  # noqa: E402
from ballab.sequences import SequenceKind, values_up_to  # noqa: E402

CHECKS = ("check_half_index_sum", "check_half_index_diff", "check_addition_formula",
          "check_gcd_balancing", "check_gcd_lucas", "check_gcd_mixed")
B, C = SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING

# {kind: {index: offset}}; the checks read B up to 2 * 70 and C up to 70
corruptions = st.dictionaries(
    st.sampled_from([B, C]),
    st.dictionaries(st.integers(0, 140), st.integers(-3, 3).filter(bool), max_size=6),
    max_size=2)


HEAVY = {B: {3: 1, 8: -1, 40: 2}, C: {5: 1, 33: -3}}

# C_2 = 17 becomes 18 = 2 * 3**2, which shares 3 with C_1 = 3 (2-adic classes
# 1 and 0) and 2 with B_2 = 6 (class 1), so both class-product gcds of the
# C and mixed laws meet a prime and their classes are checked pair by pair.
SHARED = {C: {2: 1}}


def corrupted(corrupt):
    def corrupt_values(kind, hi):
        offsets = corrupt.get(kind, {})
        return [v + offsets.get(i, 0) for i, v in enumerate(values_up_to(kind, hi))]
    return corrupt_values


def results(module, max_n, corrupt):
    with mock.patch.object(module, "values_up_to", corrupted(corrupt)):
        return [getattr(module, name)(max_n).to_dict() for name in CHECKS]


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 70), corruptions)
@example(70, HEAVY)
@example(9, {B: {1: 1}})
@example(70, {C: {1: 2}})
@example(70, {})
@example(100, HEAVY)
def test_quadratic_checks_match_their_references(max_n, corrupt):
    assert results(ballab.verify, max_n, corrupt) == results(refmath, max_n, corrupt)


def test_classes_sharing_a_prime_fall_back_to_pairs():
    checks = ("check_gcd_lucas", "check_gcd_mixed")
    with mock.patch.object(ballab.verify, "values_up_to", corrupted(SHARED)):
        got = [getattr(ballab.verify, name)(64).to_dict() for name in checks]
    with mock.patch.object(refmath, "values_up_to", corrupted(SHARED)):
        want = [getattr(refmath, name)(64).to_dict() for name in checks]
    assert got == want
    assert "gcd(C_1, C_2) != expected" in got[0]["failures"]
    assert "gcd(B_2, C_2) != expected" in got[1]["failures"]


def test_heavy_example_has_more_than_five_failures_in_every_check():
    failed = []

    def count_failures(name, bound, cases):
        failed.append(sum(case is not None for case in cases))

    with mock.patch.object(refmath, "values_up_to", corrupted(HEAVY)), \
            mock.patch.object(refmath, "_run_check", count_failures):
        for name in CHECKS:
            getattr(refmath, name)(70)
    assert len(failed) == len(CHECKS) and min(failed) > 5
