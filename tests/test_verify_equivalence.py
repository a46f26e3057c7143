"""The quadratic verify checks against their one-case-at-a-time references.

ballab.verify decides the symmetric checks once per unordered pair, carries
the identities' right-hand-side rows along the recurrence and keeps only the
keys of failing cases; refmath decides and describes every ordered case in
turn.  Under any corruption of the sequences they read, both must
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
CARRIED = CHECKS[:3]  # right-hand-side rows carried along the recurrence
B, C = SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING

# {kind: {index: offset}}; the checks read B up to 2 * 70 and C up to 70
corruptions = st.dictionaries(
    st.sampled_from([B, C]),
    st.dictionaries(st.integers(0, 140), st.integers(-3, 3).filter(bool), max_size=6),
    max_size=2)

# {kind: (u, v)}: add u*B + v*C to the kind's values.  Any such sum obeys the
# recurrence at every index, so the identity checks carry every row from
# index 2 on and only their row comparisons can find the failures.
mixes = st.dictionaries(st.sampled_from([B, C]),
                        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=2)

HEAVY = {B: {3: 1, 8: -1, 40: 2}, C: {5: 1, 33: -3}}

# C_2 = 17 becomes 18 = 2 * 3**2, which shares 3 with C_1 = 3 (2-adic classes
# 1 and 0) and 2 with B_2 = 6 (class 1), so both class-product gcds of the
# C and mixed laws meet a prime and their classes are checked pair by pair.
SHARED = {C: {2: 1}}


def corrupted(corrupt, mix=None):
    def corrupt_values(kind, hi):
        offsets = corrupt.get(kind, {})
        u, v = (mix or {}).get(kind, (0, 0))
        return [x + u * bx + v * cx + offsets.get(i, 0) for i, (x, bx, cx)
                in enumerate(zip(values_up_to(kind, hi), values_up_to(B, hi), values_up_to(C, hi)))]
    return corrupt_values


def results(module, max_n, corrupt, mix=None, checks=CHECKS):
    with mock.patch.object(module, "values_up_to", corrupted(corrupt, mix)):
        return [getattr(module, name)(max_n).to_dict() for name in checks]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 70), corruptions, mixes)
@example(70, HEAVY, {})
@example(9, {B: {1: 1}}, {})
@example(70, {C: {1: 2}}, {})
@example(70, {}, {})
@example(100, HEAVY, {})
@example(70, {B: {0: 1}, C: {0: -1}}, {})  # rows start at indices 0, 1 and 2
@example(70, {B: {1: 2}}, {})
@example(70, {C: {2: 1}}, {})
@example(70, {B: {140: -1}}, {})  # B_{2*max_n}, the top term addition-formula reads
@example(70, {}, {C: (1, 0)})  # C + B
@example(70, {}, {B: (0, 1)})  # B + C
@example(70, {}, {B: (1, 0), C: (0, -2)})  # 2*B and -C
@example(70, {B: {0: 1}}, {C: (1, 0)})
@example(70, {C: {1: -1}}, {B: (0, 1)})
@example(70, {C: {2: 1}}, {C: (1, 0)})
@example(70, {B: {140: 1}}, {B: (0, -1)})
def test_quadratic_checks_match_their_references(max_n, corrupt, mix):
    want = results(refmath, max_n, corrupt, mix)
    assert results(ballab.verify, max_n, corrupt, mix) == want


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 70), corruptions, mixes)
@example(70, {}, {})
@example(70, {}, {C: (1, 0)})
@example(70, {C: {5: 1}}, {})  # B's recurrence holds at 5: only C's test sees it
@example(70, {B: {1: 1}, C: {0: -1, 2: 3}}, {})
def test_every_row_equals_its_products(max_n, corrupt, mix):
    """Each row _rows yields equals its by_products row; sound inputs need rows 0 and 1 only."""
    real_rows, built = ballab.verify._rows, []

    def rows_checked(stops, carried, by_products):
        built.append([])
        for j, row in real_rows(stops, carried, lambda j: built[-1].append(j) or by_products(j)):
            assert row == by_products(j), f"row {j}"
            yield j, row

    with mock.patch.object(ballab.verify, "_rows", rows_checked):
        results(ballab.verify, max_n, corrupt, mix, CARRIED)
    assert len(built) == len(CARRIED)
    if not corrupt:
        assert built == [[0, 1][:max_n // 2 + 1], [0, 1][:max_n // 2 + 1], [0, 1][:max_n + 1]]


def test_long_carried_rows_match_their_references():
    """Rows of up to 201 terms, beyond the cap of 70 above."""
    for corrupt, mix in (({}, {}), (HEAVY, {}), ({}, {C: (1, 0)})):
        got = results(ballab.verify, 200, corrupt, mix, CARRIED)
        assert got == results(refmath, 200, corrupt, mix, CARRIED)
        assert all(r["passed"] for r in got) == (not corrupt and not mix)


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
