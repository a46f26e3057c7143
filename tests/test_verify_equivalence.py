"""The premise-settled verify checks against their one-case-at-a-time references.

ballab.verify's identity and gcd suites each read B, C, P and Q once and
walk them once: where they are prefixes of the Pell walks (B, C) ->
(3B + C, 8B + 3C) and (P, Q) -> (P + Q, 2P + Q) from (0, 1) the suite's
checks are settled, else they run their literal loops, and they keep only
the keys of failing cases; refmath decides and describes every ordered case
in turn, each check reading its own terms.  Under any corruption of the
sequences they read, both must give the same result dict: the same count,
verdict and first five failures in case order.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import ballab.verify  # noqa: E402
import refmath  # noqa: E402
from ballab.sequences import SequenceKind, values_up_to  # noqa: E402

CHECKS = ("half-index-sum", "half-index-diff", "pell-product", "addition-formula",
          "index-doubling", "square-plus-one",
          "gcd-balancing", "gcd-lucas", "gcd-mixed", "pell-coprime")
IDENTITIES = CHECKS[:6]  # the identity suite's checks that multiply terms
SUITES = {name: "identity_suite" if name in IDENTITIES else "gcd_suite" for name in CHECKS}
B, C = SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING
P, Q = SequenceKind.PELL, SequenceKind.ASSOCIATED_PELL
# the pair whose recurrence a kind shares
PAIRS = {B: (B, C), C: (B, C), P: (P, Q), Q: (P, Q)}

# {kind: {index: offset}}; the suites read C, P and Q up to 70 and B up to
# 70, or up to 2 * 70 in the identity suite
corruptions = st.dictionaries(
    st.sampled_from([B, C, P, Q]),
    st.dictionaries(st.integers(0, 140), st.integers(-3, 3).filter(bool), max_size=6),
    max_size=4)

# {kind: (u, v)}: add u*B + v*C to B's or C's values, u*P + v*Q to P's or
# Q's.  Any such sum obeys the kind's recurrence, but a mix other than
# (0, 0) moves the kind's term at index 0 or 1 off its Pell walk, so the
# premise fails and the checks run their literal loops, where some
# identities may still hold.
mixes = st.dictionaries(st.sampled_from([B, C, P, Q]),
                        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4)

# Q_n + 1 and Q_n - 1 are even and so share 2 with P_n at even n
HEAVY = {B: {3: 1, 8: -1, 40: 2}, C: {5: 1, 33: -3, 64: 1}, P: {3: 1, 9: -1, 30: 2},
         Q: {2: 1, 4: -1, 8: 1, 20: 1, 44: -1, 60: 1}}

# C_2 = 17 becomes 18 = 2 * 3**2, which shares 3 with C_1 = 3 and 2 with
# B_2 = 6, where the C law (v_2(2) != v_2(1)) and the mixed law (v_2(2) =
# v_2(2)) both expect gcd 1.
SHARED = {C: {2: 1}}


def corrupted(corrupt, mix=None):
    def corrupt_values(kind, hi):
        offsets = corrupt.get(kind, {})
        u, v = (mix or {}).get(kind, (0, 0))
        first, second = (values_up_to(k, hi) for k in PAIRS[kind])
        return [x + u * fx + v * sx + offsets.get(i, 0) for i, (x, fx, sx)
                in enumerate(zip(values_up_to(kind, hi), first, second))]
    return corrupt_values


def reference(name):
    return getattr(refmath, "check_" + name.replace("-", "_"))


def results(module, max_n, corrupt, mix=None, checks=CHECKS):
    """Result dicts of checks under corruption: ballab's from its suites, refmath's one by one."""
    with mock.patch.object(module, "values_up_to", corrupted(corrupt, mix)):
        if module is refmath:
            return [reference(name)(max_n).to_dict() for name in checks]
        got = {r.name: r.to_dict() for suite in {SUITES[name] for name in checks}
               for r in getattr(module, suite)(max_n)}
    return [got[name] for name in checks]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 70), corruptions, mixes)
@example(70, HEAVY, {})
@example(9, {B: {1: 1}}, {})
@example(70, {C: {1: 2}}, {})
@example(70, {}, {})
@example(100, HEAVY, {})
@example(70, {B: {0: 1}, C: {0: -1}}, {})  # B_0 and C_0 both off the walk
@example(70, {B: {1: 2}}, {})
@example(70, {C: {2: 1}}, {})
@example(70, {B: {140: -1}}, {})  # B_{2*max_n}, the top term the identity suite reads
@example(70, {}, {C: (1, 0)})  # C + B
@example(70, {}, {B: (0, 1)})  # B + C
@example(70, {}, {B: (1, 0), C: (0, -2)})  # 2*B and -C
@example(70, {B: {0: 1}}, {C: (1, 0)})
@example(70, {C: {1: -1}}, {B: (0, 1)})
@example(70, {C: {2: 1}}, {C: (1, 0)})
@example(70, {B: {140: 1}}, {B: (0, -1)})
@example(70, {C: {5: 1}}, {})  # half-index-sum reads C_5 as its scale at d = 5 only
@example(70, {B: {100: 1}}, {})  # B above max_n: only addition-formula and doubling index it
# The gcd laws' premise, B_0 = 0, C_0 = 1 and the Pell step (B, C) -> (3B + C,
# 8B + 3C) up to max_n, broken one clause at a time where the others can hold
@example(70, {}, {B: (0, 1), C: (8, 0)})  # (B + C, C + 8B) steps from (1, 1): B_0 only
@example(70, {}, {B: (1, 0), C: (0, 1)})  # (2B, 2C) steps from (0, 2): C_0 only
@example(70, {}, {B: (-2, 0), C: (0, -2)})  # (-B, -C) steps from (0, -1): C_0 only
@example(70, {B: {70: 1}}, {})  # the B step into max_n only
@example(70, {C: {70: 1}}, {})  # the C step into max_n only
@example(70, {B: {0: 1}}, {})  # B_0 and the B step out of 0
@example(70, {C: {0: -1}}, {})  # C_0 and both steps out of 0
# The P/Q clauses, P_0 = 0, Q_0 = 1 and the step (P, Q) -> (P + Q, 2P + Q)
# up to max_n, broken one at a time while B and C keep theirs
@example(70, {}, {P: (0, 1), Q: (2, 0)})  # (P + Q, Q + 2P) steps from (1, 1): P_0 only
@example(70, {}, {P: (1, 0), Q: (0, 1)})  # (2P, 2Q) steps from (0, 2): Q_0 only
@example(70, {}, {P: (-2, 0), Q: (0, -2)})  # (-P, -Q): Q_0 only, and both laws hold
@example(70, {P: {70: 1}}, {})  # the P step into max_n only
@example(70, {Q: {70: 1}}, {})  # the Q step into max_n only
@example(70, {Q: {0: 2}}, {})  # Q_0 and both steps out of 0: both laws hold
# The premise fails but identities hold: only a correct literal loop passes them
@example(70, {}, {B: (-2, 0)})  # -B: the five B/C identities hold, gcd-balancing fails
@example(70, {C: {0: -2}}, {})  # C_0 = -1: square-plus-one, doubling and diff hold
def test_quadratic_checks_match_their_references(max_n, corrupt, mix):
    want = results(refmath, max_n, corrupt, mix)
    assert results(ballab.verify, max_n, corrupt, mix) == want


@pytest.mark.parametrize("max_n", [2, 3, 70, 200])
def test_sound_sequences_multiply_no_given_term(max_n):
    """The premise settles each identity check that multiplies terms.

    No B, C, P or Q is multiplied.
    """
    products = []

    class Logged(int):
        def __mul__(self, other):
            products.append((self, other))
            return int(self) * other

        __rmul__ = __mul__

    def values(kind, hi):
        terms = values_up_to(kind, hi)
        return [Logged(v) for v in terms] if kind in PAIRS else terms

    with mock.patch.object(ballab.verify, "values_up_to", values):
        passed = {r.name: r.passed for r in ballab.verify.identity_suite(max_n)}
    assert ([passed[name] for name in IDENTITIES], products) == ([True] * 6, [])


def test_identities_match_their_references_beyond_the_cap():
    """Rows of up to 201 terms, beyond the cap of 70 above.

    B_250 and B_399 lie above max_n, where only addition-formula and
    index-doubling index B: the suite's premise fails there, so every check
    runs every case, and index-doubling, which reads B at even indices
    only, passes with B_399 off, as do the checks that never read it.
    """
    for corrupt, mix in (({}, {}), (HEAVY, {}), ({}, {C: (1, 0)}),
                         ({B: {250: -1}}, {}), ({B: {399: 1}}, {})):
        got = results(ballab.verify, 200, corrupt, mix, IDENTITIES)
        assert got == results(refmath, 200, corrupt, mix, IDENTITIES)
        assert all(r["passed"] for r in got) == (not corrupt and not mix)


def test_a_shared_prime_fails_cases_that_expect_gcd_1():
    checks = ("gcd-lucas", "gcd-mixed")
    got = results(ballab.verify, 64, SHARED, checks=checks)
    assert got == results(refmath, 64, SHARED, checks=checks)
    assert "gcd(C_1, C_2) != expected" in got[0]["failures"]
    assert "gcd(B_2, C_2) != expected" in got[1]["failures"]


def test_heavy_example_has_more_than_five_failures_in_every_check():
    failed = []

    def count_failures(name, bound, cases):
        failed.append(sum(case is not None for case in cases))

    with mock.patch.object(refmath, "values_up_to", corrupted(HEAVY)), \
            mock.patch.object(refmath, "_run_check", count_failures):
        for name in CHECKS:
            reference(name)(70)
    assert len(failed) == len(CHECKS) and min(failed) > 5
