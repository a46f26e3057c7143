"""The quadratic verify checks against their one-case-at-a-time references.

ballab.verify decides the symmetric checks once per unordered pair, carries
the identities' right-hand-side rows along the recurrence, settles a carried
row whose two predecessors matched without comparing it, and keeps only the
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


def rows_seen(max_n, corrupt, mix):
    """Per carried check: (rows, carried, built, compared, differ, truth).

    built are the rows by_products made, compared the rows _rows compared
    with their left sides, differ the rows it yielded, and truth[j] whether
    row j's products equal its left side.
    """
    real_rows, seen = ballab.verify._rows, []

    def rows_logged(stops, carried, s, obeys, by_products):
        stops, built, compared = list(stops), [], []

        class Left(list):  # a row's left side, logging each comparison
            def __eq__(self, row):
                compared.append(self.j)
                return list(self) == row

        class Seq(list):  # s, handing out its slices as Left
            def __getitem__(self, i):
                if not isinstance(i, slice):
                    return super().__getitem__(i)
                left = Left(super().__getitem__(i))
                left.j = i.start // 2
                return left

        differ = list(real_rows(stops, carried, Seq(s), obeys,
                                lambda j: built.append(j) or by_products(j)))
        truth = [by_products(j) == s[2 * j:j + stop] for j, stop in enumerate(stops)]
        seen.append((range(len(stops)), carried, built, compared, differ, truth))
        yield from differ

    with mock.patch.object(ballab.verify, "_rows", rows_logged):
        results(ballab.verify, max_n, corrupt, mix, CARRIED)
    assert len(seen) == len(CARRIED)
    return seen


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 70), corruptions, mixes)
@example(70, {}, {})
@example(200, {}, {})
@example(70, {}, {C: (1, 0)})
@example(70, {C: {5: 1}}, {})  # B's recurrence holds at 5: only C's test sees it
@example(70, {B: {1: 1}, C: {0: -1, 2: 3}}, {})
@example(70, {B: {100: 1}}, {})  # B's recurrence breaks only above max_n
def test_every_row_equals_its_products(max_n, corrupt, mix):
    """_rows yields the rows whose products differ from their left sides.

    A row it settles, neither built nor compared, equals both; sound inputs
    build and compare rows 0 and 1 only, and under C + B every row differs,
    so every carried row is built and compared.
    """
    sound = not any(corrupt.values()) and not any(u or v for u, v in mix.values())
    for rows, carried, built, compared, differ, truth in rows_seen(max_n, corrupt, mix):
        assert differ == [j for j in rows if not truth[j]]
        assert built == [j for j in rows if not carried[j]]
        settled = [j for j in rows if j not in compared]
        assert all(truth[j] and carried[j] and truth[j - 1] and truth[j - 2] for j in settled)
        if sound:
            assert built == compared == [0, 1][:len(rows)]
        if mix == {C: (1, 0)} and not corrupt:
            assert compared == list(rows)


def test_long_carried_rows_match_their_references():
    """Rows of up to 201 terms, beyond the cap of 70 above.

    B_250 and B_399 lie above max_n, where only addition-formula reads B:
    its rows whose left sides cover them are compared, and the rows around
    them stay settled.
    """
    for corrupt, mix in (({}, {}), (HEAVY, {}), ({}, {C: (1, 0)}),
                         ({B: {250: -1}}, {}), ({B: {399: 1}}, {})):
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
