"""Soundness of the index-space rejection in the pair and product searches.

Each rejection rule in diophantine rests on a balancing identity that splits
a pair's value into two terms of known index, and on a gcd law that names
the common factor of those terms.  These tests check every identity and law
the rules use, at bounds beyond the searches' default ones, and then check
the code that applies them (the rest tables, the splits and the index-space
coprime filter) against direct big-integer arithmetic.
"""

import math

import pytest

from ballab.bigmath import perfect_power_decompose, primes_up_to
from ballab.diophantine import (
    EquationTag,
    SearchConfig,
    _coprime_ok,
    _product_split,
    _RestExponents,
    _scan,
    _square_diff_split,
    _sum_split,
)
from ballab.sequences import SequenceKind, values_up_to

IDENTITY_MAX = 150
GCD_MAX = 300

B = values_up_to(SequenceKind.BALANCING, 2 * GCD_MAX)
C = values_up_to(SequenceKind.LUCAS_BALANCING, 2 * GCD_MAX)
P = values_up_to(SequenceKind.PELL, 2 * GCD_MAX)
Q = values_up_to(SequenceKind.ASSOCIATED_PELL, 2 * GCD_MAX)


def v2(k):
    return (k & -k).bit_length() - 1


def pairs(hi, strict=False):
    return [(n, m) for n in range(hi + 1) for m in range(n if strict else n + 1)]


# ---------------------------------------------------------------------------
# the identities that split a pair's value into two terms


def test_sum_and_difference_split_into_pell_factors():
    # Rule (sum-power, cube forms): B_n + B_m is P_{n+m} Q_{n-m} for even
    # n - m and Q_{n+m} P_{n-m} for odd n - m; B_n - B_m the other way round.
    for n, m in pairs(IDENTITY_MAX):
        s, t = n + m, n - m
        if t % 2 == 0:
            assert B[n] + B[m] == P[s] * Q[t], (n, m)
            assert B[n] - B[m] == Q[s] * P[t], (n, m)
        else:
            assert B[n] + B[m] == Q[s] * P[t], (n, m)
            assert B[n] - B[m] == P[s] * Q[t], (n, m)


def test_square_difference_splits_into_balancing_factors():
    # Rule (square-diff): B_n**2 - B_m**2 = B_{n+m} * B_{n-m}.
    for n, m in pairs(IDENTITY_MAX):
        assert B[n] ** 2 - B[m] ** 2 == B[n + m] * B[n - m], (n, m)


def test_half_index_factorization_of_the_sum():
    # B_n + B_m = 2 B_{(n+m)/2} C_{(n-m)/2} for even n - m; the sum-power
    # search once asserted this for every pair it scanned.
    for n, m in pairs(IDENTITY_MAX):
        if (n - m) % 2 == 0:
            assert B[n] + B[m] == 2 * B[(n + m) // 2] * C[(n - m) // 2], (n, m)


# ---------------------------------------------------------------------------
# the gcd laws that say when the two terms' rests share no prime


def test_gcd_of_balancing_terms():
    # Rules (square-diff split, coprime filter): gcd(B_a, B_b) = B_gcd(a,b).
    for a in range(1, GCD_MAX + 1):
        for b in range(1, GCD_MAX + 1):
            assert math.gcd(B[a], B[b]) == B[math.gcd(a, b)], (a, b)


def test_gcd_of_pell_and_associated_pell_terms():
    # Rule (sum-power and cube splits): gcd(P_a, Q_b) = Q_d when
    # v2(a) > v2(b), else 1, with d = gcd(a, b).
    for a in range(1, GCD_MAX + 1):
        for b in range(1, GCD_MAX + 1):
            expected = Q[math.gcd(a, b)] if v2(a) > v2(b) else 1
            assert math.gcd(P[a], Q[b]) == expected, (a, b)


def test_gcd_of_balancing_and_lucas_balancing_terms():
    # Rule (product-form split): gcd(B_N, C_M) = C_d when N/d is even,
    # else 1, with d = gcd(N, M).
    for n in range(1, GCD_MAX + 1):
        for m in range(1, GCD_MAX + 1):
            d = math.gcd(n, m)
            expected = C[d] if (n // d) % 2 == 0 else 1
            assert math.gcd(B[n], C[m]) == expected, (n, m)


@pytest.mark.parametrize("sign", [1, -1])
def test_cube_factors_of_coprime_terms_share_at_most_three(sign):
    # Rule (cube forms): B_n**3 +- B_m**3 = F1 * F2 with F1 = B_n +- B_m and
    # F2 = B_n**2 -+ B_n B_m + B_m**2; for coprime terms gcd(F1, F2) | 3, so
    # at primes >= 211 the value's valuation is F1's or F2's alone.
    checked = 0
    for n, m in pairs(IDENTITY_MAX, strict=True):
        if m == 0 or math.gcd(B[n], B[m]) != 1:
            continue
        f1 = B[n] + sign * B[m]
        f2 = B[n] ** 2 - sign * B[n] * B[m] + B[m] ** 2
        assert f1 * f2 == B[n] ** 3 + sign * B[m] ** 3
        assert 3 % math.gcd(f1, f2) == 0, (n, m)
        checked += 1
    assert checked > 5000


# ---------------------------------------------------------------------------
# the code that applies them

SMALL_PRIMES = primes_up_to(199)
SPLIT_MAX = 60


def rest_exponent(value):
    """Maximal exponent of value with the primes <= 199 divided out; 0 for rest 1."""
    for ell in SMALL_PRIMES:
        while value % ell == 0:
            value //= ell
    return 0 if value == 1 else perfect_power_decompose(value).exponent


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_rest_table_matches_direct_decomposition(kind):
    terms = values_up_to(kind, 2 * SPLIT_MAX)
    table = _RestExponents(kind, 2 * SPLIT_MAX)
    first = 1 if terms[0] == 0 else 0
    for k in range(first, 2 * SPLIT_MAX + 1):
        assert table[k] == rest_exponent(terms[k]), (kind, k)


def direct_split(x, y):
    return rest_exponent(x), rest_exponent(y), rest_exponent(math.gcd(x, y))


@pytest.mark.parametrize("tag", [EquationTag.SUM_POWER, EquationTag.CUBE_SUM_MINUS,
                                 EquationTag.SQUARE_DIFF], ids=lambda t: t.value)
def test_pair_split_matches_direct_factors(tag):
    # The split's third entry is the rest exponent of the two factors' gcd,
    # so 0 there means the factors' rests share no prime.
    if tag is EquationTag.SQUARE_DIFF:
        split = _square_diff_split(SPLIT_MAX)
    else:
        split = _sum_split(SPLIT_MAX, minus=tag is EquationTag.CUBE_SUM_MINUS)
    for n, m in pairs(SPLIT_MAX, strict=tag is not EquationTag.SUM_POWER):
        if m == 0:
            continue
        s, t = n + m, n - m
        if tag is EquationTag.SQUARE_DIFF:
            x, y = B[s], B[t]
        elif (t % 2 == 0) != (tag is EquationTag.CUBE_SUM_MINUS):
            x, y = P[s], Q[t]
        else:
            x, y = Q[s], P[t]
        assert split(n, m) == direct_split(x, y), (n, m)


def test_product_split_matches_direct_factors():
    split = _product_split(SPLIT_MAX)
    for n in range(1, SPLIT_MAX + 1):
        for m in range(1, SPLIT_MAX + 1):
            assert split(n, m) == direct_split(B[n], C[m]), (n, m)


class Hit:
    def __init__(self, pair):
        self.pair = pair

    def verify(self):
        return True


@pytest.mark.parametrize("split, solved", [
    # rests sharing no prime, exponents with gcd 1: no q >= 2 fits both
    ((1, 1, 0), [(0, 0)]),
    ((0, 3, 0), [(0, 0), (2, 1)]),  # rest 1 is a cube, like the other rest
    ((2, 4, 0), [(0, 0), (2, 1)]),
    # rests that may share a prime: 211 * 211 is a square although each
    # factor's rest exponent is 1, so the pair must reach the power test
    ((1, 1, 1), [(0, 0), (2, 1)]),
])
def test_scan_rejects_only_pairs_whose_rests_cannot_combine(split, solved):
    calls = []

    def solve(n, m):
        calls.append((n, m))
        return [Hit((n, m))]

    found = _scan([(0, 0), (2, 1)], lambda n, m: split, solve)
    # m = 0 is never split: it always reaches the power test
    assert calls == solved and [h.pair for h in found] == solved


@pytest.mark.parametrize("zero_exempt", [True, False])
def test_index_coprime_filter_matches_literal_gcd(zero_exempt):
    cfg = SearchConfig(max_index=IDENTITY_MAX, coprimality_required=True,
                       coprime_zero_exempt=zero_exempt)
    for n, m in pairs(IDENTITY_MAX):
        literal = math.gcd(B[n], B[m]) == 1
        exempt = zero_exempt and B[m] == 0 and B[n] == 6
        assert _coprime_ok(n, m, cfg) == (literal or exempt), (n, m)
