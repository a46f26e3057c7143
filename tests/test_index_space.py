"""Soundness of the index-space rejection in the pair and product searches.

Each rejection rule in diophantine rests on a balancing identity that splits
a pair's value into two terms of known index, and on a gcd law that names
the common factor of those terms.  These tests check every identity and law
the rules use, at bounds beyond the searches' default ones, and then check
the code that applies them (the term tables, the row visits, the scan's two
rules and the index-space coprime filter) against direct big-integer
arithmetic and the literal per-pair rule.
"""

import itertools
import math
from functools import lru_cache

import pytest

from ballab.bigmath import perfect_power_decompose, primes_up_to
from ballab.diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    _coprime_ok,
    _pair_visits,
    _product_visits,
    _scan,
    _Terms,
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
VISIT_MAX = 150


def strip_small(value):
    """(rest, valuations): value with the primes <= 199 divided out, and their exponents."""
    vals = {}
    for ell in SMALL_PRIMES:
        while value % ell == 0:
            value //= ell
            vals[ell] = vals.get(ell, 0) + 1
    return value, vals


@lru_cache(maxsize=None)
def rest_exponent(value):
    """Maximal exponent of value with the primes <= 199 divided out; 0 for rest 1."""
    rest = strip_small(value)[0]
    return 0 if rest == 1 else perfect_power_decompose(rest).exponent


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_rest_table_matches_direct_decomposition(kind):
    terms = values_up_to(kind, 2 * SPLIT_MAX)
    table = _Terms(kind, 2 * SPLIT_MAX)
    first = 1 if terms[0] == 0 else 0
    for k in range(first, 2 * SPLIT_MAX + 1):
        assert table[k] == (rest_exponent(terms[k]), strip_small(terms[k])[1]), (kind, k)


def test_term_table_keeps_only_the_valued_primes():
    table = _Terms(SequenceKind.BALANCING, 12, valued=(3,))
    assert table[12] == (rest_exponent(B[12]), {3: strip_small(B[12])[1][3]})
    assert _Terms(SequenceKind.BALANCING, 12, valued=())[12][1] == {}


def direct_split(x, y):
    return rest_exponent(x), rest_exponent(y), rest_exponent(math.gcd(x, y))


def factors(tag, n, m):
    """The two terms whose product is the pair's value, by the identities above."""
    if tag is None:
        return B[n], C[m]
    s, t = n + m, n - m
    if tag is EquationTag.SQUARE_DIFF:
        return B[s], B[t]
    if (t % 2 == 0) != (tag is EquationTag.CUBE_SUM_MINUS):
        return P[s], Q[t]
    return Q[s], P[t]


def visits(tag, cfg):
    return _product_visits(cfg.max_index) if tag is None else _pair_visits(tag, cfg)


@pytest.mark.parametrize("tag", [EquationTag.SUM_POWER, EquationTag.CUBE_SUM_MINUS,
                                 EquationTag.SQUARE_DIFF], ids=lambda t: t.value)
def test_pair_split_matches_direct_factors(tag):
    # Each visit carries the rest exponents of the pair's two factors and of
    # their gcd, so 0 in the last entry means the factors' rests share no
    # prime.  The cube forms keep no valuations.
    seen = 0
    for n, m, x, y, shared in _pair_visits(tag, SearchConfig(max_index=SPLIT_MAX)):
        if m == 0:
            assert x is None
            continue
        fx, fy = factors(tag, n, m)
        assert (x[0], y[0], shared) == direct_split(fx, fy), (n, m)
        if tag is EquationTag.CUBE_SUM_MINUS:
            assert x[1] == y[1] == {}, (n, m)
        else:
            assert (x[1], y[1]) == (strip_small(fx)[1], strip_small(fy)[1]), (n, m)
        seen += 1
    assert seen > 100


def test_product_split_matches_direct_factors():
    seen = 0
    for n, m, x, y, shared in _product_visits(SPLIT_MAX):
        assert (x[0], y[0], shared) == direct_split(B[n], C[m]), (n, m)
        odd = [{ell: e for ell, e in strip_small(v)[1].items() if ell != 2} for v in (B[n], C[m])]
        assert [x[1], y[1]] == odd, (n, m)
        seen += 1
    assert seen > 100


@lru_cache(maxsize=None)
def literal_rule_keeps(tag, n, m):
    """The per-pair exponent rule, on direct factors: False when it rejects (n, m)."""
    if m == 0:
        return True
    x, y, shared = direct_split(*factors(tag, n, m))
    return not (shared == 0 and math.gcd(x, y) == 1)


def literal_keeps(tag, cfg):
    """Every pair the per-pair parity, coprime and exponent rules keep."""
    if tag is None:
        indices = range(1, cfg.max_index + 1)
        return {(n, m) for n in indices for m in indices if literal_rule_keeps(None, n, m)}
    kept = set()
    for n in range(cfg.max_index + 1):
        for m in range(n + 1 if tag is EquationTag.SUM_POWER else n):
            if cfg.parity_filter is not Parity.ANY and \
                    ((n - m) % 2 == 0) != (cfg.parity_filter is Parity.SAME):
                continue
            if cfg.coprimality_required and math.gcd(B[n], B[m]) != 1 and \
                    not (cfg.coprime_zero_exempt and B[m] == 0 and B[n] == 6):
                continue
            if literal_rule_keeps(tag, n, m):
                kept.add((n, m))
    return kept


def every_visit_setting(tag):
    """Every parity, coprime, zero-exempt and min-exp setting at N <= 150.

    This includes settings the searches refuse, such as the cube forms
    without coprime terms: the rows must be right for any of them.
    """
    if tag is None:
        yield from (SearchConfig(max_index=n, min_exponent=e)
                    for n, e in itertools.product((1, 2, 13, VISIT_MAX), (2, 3, 4)))
        return
    for max_index, parity, coprime, zero_exempt, min_exp in itertools.product(
            (1, 2, 13, VISIT_MAX), Parity, (False, True), (False, True), (2, 3, 4)):
        yield SearchConfig(max_index=max_index, min_exponent=min_exp, parity_filter=parity,
                           coprimality_required=coprime, coprime_zero_exempt=zero_exempt)


@pytest.mark.parametrize("tag", [*EquationTag, None],
                         ids=[*(t.value for t in EquationTag), "product-form"])
def test_row_visits_cover_every_pair_the_literal_rule_keeps(tag):
    # The row and stride rules only skip pairs the exponent rule rejects:
    # the visited pairs include every pair the literal per-pair rule keeps,
    # and applying that rule to the visits leaves exactly those pairs.
    for cfg in every_visit_setting(tag):
        visited, kept = set(), set()
        for n, m, x, y, shared in visits(tag, cfg):
            visited.add((n, m))
            if m == 0 or not (shared == 0 and math.gcd(x[0], y[0]) == 1):
                kept.add((n, m))
        expected = literal_keeps(tag, cfg)
        assert expected <= visited, (cfg, sorted(expected - visited)[:5])
        assert kept == expected, cfg


@pytest.mark.parametrize("tag, coprime", [
    (EquationTag.SUM_POWER, False), (EquationTag.SUM_POWER, True),
    (EquationTag.SQUARE_DIFF, False), (EquationTag.SQUARE_DIFF, True), (None, False),
], ids=["sum-power", "sum-power-coprime", "square-diff-any", "square-diff", "product-form"])
def test_valuation_rule_rejects_only_small_prime_gcd_one(tag, coprime):
    # Every pair the scan drops after the exponent rule kept it was dropped by
    # the valuation rule; dividing its built value by the primes <= 199 must
    # give valuations with gcd 1 (product-form: of the odd part).
    cfg = SearchConfig(max_index=SPLIT_MAX, coprimality_required=coprime)
    passed, solved = [], []
    for visit in visits(tag, cfg):
        n, m, x, y, shared = visit
        if m and not (shared == 0 and math.gcd(x[0], y[0]) == 1):
            passed.append(visit)
    _scan(passed, lambda n, m: solved.append((n, m)) or [])
    rejected = {(n, m) for n, m, *_ in passed} - set(solved)
    for n, m in rejected:
        fx, fy = factors(tag, n, m)
        value = fx * fy
        if tag is None:
            value //= value & -value
        g = 0
        for e in strip_small(value)[1].values():
            g = math.gcd(g, e)
        assert g == 1, (n, m)
    assert rejected


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

    x, y, shared = split
    # listed out of order: survivors are solved in (n, m) order
    found = _scan([(2, 1, (x, {}), (y, {}), shared), (0, 0, None, None, None)], solve)
    # m = 0 is never split: it always reaches the power test
    assert calls == solved and [h.pair for h in found] == solved


@pytest.mark.parametrize("vx, vy, kept", [
    ({3: 1}, {3: 1}, True),            # 3**2: a square
    ({3: 1}, {5: 2}, False),           # 3 * 5**2: valuations 1 and 2
    ({3: 2}, {5: 4, 7: 2}, True),      # gcd 2
    ({}, {}, True),                    # no valued prime: no information
    ({3: 3}, {3: 1, 5: 4}, True),      # 3**4 * 5**4
    ({3: 3}, {5: 4}, False),
])
def test_scan_rejects_summed_valuations_with_gcd_one(vx, vy, kept):
    # the rests may share a prime (shared != 0), so only the valuations decide
    found = _scan([(2, 1, (1, vx), (1, vy), 1)], lambda n, m: [Hit((n, m))])
    assert bool(found) is kept


@pytest.mark.parametrize("zero_exempt", [True, False])
def test_index_coprime_filter_matches_literal_gcd(zero_exempt):
    cfg = SearchConfig(max_index=IDENTITY_MAX, coprimality_required=True,
                       coprime_zero_exempt=zero_exempt)
    for n, m in pairs(IDENTITY_MAX):
        literal = math.gcd(B[n], B[m]) == 1
        exempt = zero_exempt and B[m] == 0 and B[n] == 6
        assert _coprime_ok(n, m, cfg) == (literal or exempt), (n, m)
