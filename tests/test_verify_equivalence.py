"""The premise-settled verify checks under corrupted sequences.

ballab.verify's identity and gcd suites each read B, C, P and Q once and
walk them once: where they are prefixes of the Pell walks (B, C) ->
(3B + C, 8B + 3C) and (P, Q) -> (P + Q, 2P + Q) from (0, 1), the suites'
eleven premise-settled checks pass, and otherwise each fails with the one
failure OFF_WALK; none of them reads a term.  Under any corruption of the
sequences, a check must pass exactly when every term its suite read equals
the true sequence's, an oracle that takes no Pell walk, and keep the bound
and count it has on the true terms.  tests/test_verify.py compares those
with refmath's one-case-at-a-time references.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import ballab.verify  # noqa: E402
from ballab.sequences import SequenceKind, values_up_to  # noqa: E402
from ballab.verify import OFF_WALK  # noqa: E402

CHECKS = ("half-index-sum", "half-index-diff", "pell-product", "addition-formula",
          "index-doubling", "square-plus-one", "lucas-odd",
          "gcd-balancing", "gcd-lucas", "gcd-mixed", "pell-coprime")
B, C = SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING
P, Q = SequenceKind.PELL, SequenceKind.ASSOCIATED_PELL
# the pair whose recurrence a kind shares
PAIRS = {B: (B, C), C: (B, C), P: (P, Q), Q: (P, Q)}
# each suite: its settled checks, and how far it reads B, C, P and Q, in max_n
SUITES = {"identity_suite": (CHECKS[:7], (2, 1, 1, 1)), "gcd_suite": (CHECKS[7:], (1, 1, 1, 1))}

# {kind: {index: offset}}; the suites read C, P and Q up to 70 and B up to
# 70, or up to 2 * 70 in the identity suite
corruptions = st.dictionaries(
    st.sampled_from([B, C, P, Q]),
    st.dictionaries(st.integers(0, 140), st.integers(-3, 3).filter(bool), max_size=6),
    max_size=4)

# {kind: (u, v)}: add u*B + v*C to B's or C's values, u*P + v*Q to P's or
# Q's.  Any such sum obeys the kind's recurrence, but a mix other than
# (0, 0) moves the kind's term at index 0 or 1 off its Pell walk, so the
# premise fails, though some identities may still hold on the mixed terms.
mixes = st.dictionaries(st.sampled_from([B, C, P, Q]),
                        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4)

# several offsets in every kind
HEAVY = {B: {3: 1, 8: -1, 40: 2}, C: {5: 1, 33: -3, 64: 1}, P: {3: 1, 9: -1, 30: 2},
         Q: {2: 1, 4: -1, 8: 1, 20: 1, 44: -1, 60: 1}}


def corrupted(corrupt, mix=None):
    def corrupt_values(kind, hi):
        offsets = corrupt.get(kind, {})
        u, v = (mix or {}).get(kind, (0, 0))
        first, second = (values_up_to(k, hi) for k in PAIRS[kind])
        return [x + u * fx + v * sx + offsets.get(i, 0) for i, (x, fx, sx)
                in enumerate(zip(values_up_to(kind, hi), first, second))]
    return corrupt_values


def settled(max_n, read=values_up_to):
    """{name: result dict} of the settled checks, each suite reading its terms through read."""
    with mock.patch.object(ballab.verify, "values_up_to", read):
        return {r.name: r.to_dict() for suite, (names, _) in SUITES.items()
                for r in getattr(ballab.verify, suite)(max_n) if r.name in names}


def expected(max_n, read):
    """settled(max_n, read) by the oracle: each suite's checks pass on its true terms only."""
    want = settled(max_n)
    for names, scales in SUITES.values():
        if any(read(kind, s * max_n) != values_up_to(kind, s * max_n)
               for kind, s in zip((B, C, P, Q), scales)):
            for name in names:
                want[name].update(passed=False, failures=[OFF_WALK])
    return want


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
@example(70, {C: {5: 1}}, {})  # half-index-sum would read C_5 at d = 5 only
@example(70, {B: {100: 1}}, {})  # B above max_n, which only two identities would read
# Rows of up to 201 terms, beyond the drawn cap of 70: B_250 and B_399 lie
# above max_n, where index-doubling would read B_250 but not B_399
@example(200, HEAVY, {})
@example(200, {}, {C: (1, 0)})
@example(200, {B: {250: -1}}, {})
@example(200, {B: {399: 1}}, {})
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
# The premise fails though identities hold on the terms read
@example(70, {}, {B: (-2, 0)})  # -B: the five B/C identities hold, gcd-balancing fails
@example(70, {C: {0: -2}}, {})  # C_0 = -1: square-plus-one, doubling and diff hold
def test_settled_checks_pass_exactly_on_the_true_terms(max_n, corrupt, mix):
    read = corrupted(corrupt, mix)
    assert settled(max_n, read) == expected(max_n, read)


@pytest.mark.parametrize("max_n", [2, 3, 70, 200])
def test_sound_sequences_multiply_no_given_term(max_n):
    """The identity suite passes and multiplies no B, C, P or Q it read.

    Its walk settles the six laws that relate products of terms and
    lucas-odd, and `_pell_steps` and closed-form-agreement only compare the
    terms they read, so a check that multiplied terms again shows here.
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
        passed = [r.passed for r in ballab.verify.identity_suite(max_n)]
    assert (passed, products) == ([True] * 9, [])
