"""Soundness of the index-space rejection in the pair and product searches.

Each rejection rule in diophantine rests on a balancing identity that splits
a pair's value into two terms of known index, and on a gcd law that names
the common factor of those terms.  These tests check every identity and law
the rules use, at bounds beyond the searches' default ones, and then check
the code that applies them (the term tables, the row visits with their
lone-prime rule, the scan's exponent rule and the index-space coprime
filter) against direct big-integer arithmetic and the literal per-pair rules.
"""

import itertools
import math
from functools import lru_cache

import pytest

from ballab.bigmath import primes_up_to
from ballab import diophantine
from ballab.diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    _divisor_table,
    _maybe_decompose,
    _pair_tables,
    _pair_visits,
    _product_visits,
    _root_out,
    _row_visits,
    _scan,
    _Entry,
    _Terms,
)
from ballab.sequences import SequenceKind, values_up_to
from refmath import perfect_power_decompose

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


@pytest.mark.parametrize("sign", [1, -1])
def test_cube_value_keeps_the_first_factors_primes_from_five(sign):
    # Rule (cube forms' lone primes): for coprime terms, and for the zero
    # exemption's (2, 0), each prime 5..199 dividing F1 = B_n +- B_m has the
    # same valuation in B_n**3 +- B_m**3 as in F1, so a lone one there
    # divides the value once.  (A prime 1 mod 3 may divide F2 alone.)
    checked = 0
    for n, m in [*pairs(IDENTITY_MAX, strict=True), (2, 0)]:
        if math.gcd(B[n], B[m]) != 1 and (n, m) != (2, 0):
            continue
        in_f1 = strip_small(B[n] + sign * B[m])[1]
        in_value = strip_small(B[n] ** 3 + sign * B[m] ** 3)[1]
        for ell in SMALL_PRIMES[2:]:
            if ell in in_f1:
                assert in_value[ell] == in_f1[ell], (n, m, ell)
                checked += 1
    assert checked > 5000
    assert math.gcd(B[2] + sign * B[0], math.prod(SMALL_PRIMES[2:])) == 1


# ---------------------------------------------------------------------------
# the code that applies them

SMALL_PRIMES = primes_up_to(199)
SPLIT_MAX = 60
VISIT_MAX = 150
STRIP_MAX = 2000


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
    return 0 if rest == 1 else perfect_power_decompose(rest)[1]


def assert_entry_matches(entry, value, valued=SMALL_PRIMES, stripped=None):
    """entry agrees with trial division: rest, support, lone part, exponent if known.

    stripped is strip_small(value), when the caller has it already.
    """
    rest, vals = stripped or strip_small(value)
    vals = {ell: e for ell, e in vals.items() if ell in valued}
    assert entry.rest == rest, value
    assert entry.support == math.prod(vals), value
    assert entry.lone == math.prod(ell for ell, e in vals.items() if e == 1), value
    if entry.exponent is not None:
        assert entry.exponent == rest_exponent(value), value


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_rest_table_matches_direct_decomposition(kind):
    terms = values_up_to(kind, 2 * SPLIT_MAX)
    table = _Terms(kind, 2 * SPLIT_MAX)
    first = 1 if terms[0] == 0 else 0
    for k in range(first, 2 * SPLIT_MAX + 1):
        assert table[k].full_exponent() == rest_exponent(terms[k]), (kind, k)
        assert_entry_matches(table[k], terms[k])


# the valued primes of the searches' tables: sum-power and square-diff
# (all), product-form (all but 2) and the cube forms (all but 2 and 3);
# hand-built entries value none
VALUED_SETS = {"all": SMALL_PRIMES, "odd": SMALL_PRIMES[1:], "from-5": SMALL_PRIMES[2:],
               "none": ()}


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_strip_by_gcd_matches_trial_division(kind):
    # one trial division per term, checked against the entry at each valued set
    terms = values_up_to(kind, STRIP_MAX)
    masks = [(math.prod(valued), valued) for valued in VALUED_SETS.values()]
    for k in range(1 if terms[0] == 0 else 0, STRIP_MAX + 1):
        stripped = strip_small(terms[k])
        for mask, valued in masks:
            assert_entry_matches(_Entry(terms[k], mask), terms[k], valued, stripped)


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_term_with_no_small_prime_is_its_own_rest(kind):
    # The entry keeps the table's own integer, not a copy made by dividing by 1.
    table = _Terms(kind, STRIP_MAX)
    bare = [k for k in range(1, STRIP_MAX + 1)
            if math.gcd(table.values[k], math.prod(SMALL_PRIMES)) == 1]
    assert len(bare) > STRIP_MAX // 10
    for k in bare:
        assert table[k].rest is table.values[k], (kind, k)
        assert (table[k].support, table[k].lone) == (1, 1), (kind, k)


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_exponent_one_by_inheritance_agrees_with_root_out(kind, monkeypatch):
    # Step 4 certifies exponent 1 without a root; every certificate must be
    # what _root_out(rest, 0) would have said.
    rooted = set()

    def recording_root_out(rest, g):
        rooted.add(rest)
        return _root_out(rest, g)

    monkeypatch.setattr(diophantine, "_root_out", recording_root_out)
    table = _Terms(kind, STRIP_MAX)
    inherited = 0
    for k in range(1, STRIP_MAX + 1):
        if table[k].full_exponent() == 1 and table[k].rest not in rooted:
            assert _root_out(table[k].rest, 0)[1] == 1, (kind, k)
            inherited += 1
    assert inherited > STRIP_MAX // 2


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_every_term_rest_has_exponent_zero_or_one(kind):
    # Rule 1 reads the row term's whole exponent e and, where e > 1, the
    # partner's whole exponent.  No term to STRIP_MAX has a rest that is a
    # proper power, so e is 0 or 1 and the partner's exponent is never read
    # for a row of these sequences.
    table = _Terms(kind, STRIP_MAX)
    for k in range(1, STRIP_MAX + 1):
        assert table[k].full_exponent() in (0, 1), (kind, k)


def reference_divisor(k, primes):
    """The least of primes dividing k, else the odd part of k: the scan the table replaced."""
    return next((ell for ell in primes if k % ell == 0), k // (k & -k) if k else 0)


@pytest.mark.parametrize("primes", [SMALL_PRIMES, SMALL_PRIMES[1:]], ids=["all", "odd"])
def test_divisor_table_matches_the_prime_scan(primes):
    for hi in (0, 1, 2, 3, 198, 199, 4000):
        assert _divisor_table(hi, primes) == [reference_divisor(k, primes)
                                              for k in range(hi + 1)], hi


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_prior_term_divides_the_term(kind):
    # step 4's prior: term k // p[k] divides term k wherever the table names one
    table = _Terms(kind, 400)
    priors = 0
    for k in range(401):
        p = table.divisor[k]
        if 1 < p < k:
            assert table.values[k] % table.values[k // p] == 0, (kind, k)
            priors += 1
    assert priors > 300


@pytest.mark.parametrize("rest, prior_rest, exponent", [
    (211 * 223, 211, 1),       # inherited: 211 has exponent 1, the quotient 223 is coprime
    (211, 211, 1),             # quotient 1
    (211 ** 2, 211, 2),        # quotient 211 shares the prior's prime: no inheritance
    (211 ** 3 * 223 ** 3, 211, 3),
    (223 ** 2, 211, 2),        # the prior does not divide
], ids=["coprime-quotient", "quotient-1", "shared-prime", "shared-cube", "no-division"])
def test_inheritance_needs_a_dividing_prior_and_a_coprime_quotient(rest, prior_rest, exponent):
    prior = _Entry(prior_rest, 1)
    assert _Entry(rest, 1, prior).full_exponent() == exponent


def test_term_table_keeps_only_the_valued_primes():
    # B_12 = 2**2 * 3**2 * 5 * 7 * 11 * 17 * 1153: of the valued 3 and 5 only
    # 5 is lone, and the unvalued 7 is left out although it divides once
    table = _Terms(SequenceKind.BALANCING, 12, valued=3 * 5)
    assert_entry_matches(table[12], B[12], valued=(3, 5))
    assert (table[12].support, table[12].lone) == (15, 5)
    unvalued = _Terms(SequenceKind.BALANCING, 12, valued=1)[12]
    assert (unvalued.support, unvalued.lone) == (1, 1)


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


def valued_primes(tag):
    """The primes the lone-prime rule reads."""
    if tag in (EquationTag.CUBE_SUM_PLUS, EquationTag.CUBE_SUM_MINUS):
        return SMALL_PRIMES[2:]
    return SMALL_PRIMES[1:] if tag is None else SMALL_PRIMES


def visits(tag, cfg):
    if tag is None:
        odd = math.prod(SMALL_PRIMES[1:])
        return _product_visits(_Terms(SequenceKind.BALANCING, cfg.max_index, odd),
                               _Terms(SequenceKind.LUCAS_BALANCING, cfg.max_index, odd))
    *tables, _ = _pair_tables(tag, cfg)
    return _pair_visits(tag, cfg, *tables)


def assert_visits_match_direct_factors(tag):
    # Each visit carries the entries of the pair's two factors, the row
    # term's exponent, and whether the factors' gcd has a rest other than 1;
    # a pair with m = 0 is split like every other.  The cube forms leave out
    # 2 and 3; product-form leaves out the 2.
    seen = zeros = 0
    for n, m, x, y, shared in visits(tag, SearchConfig(max_index=VISIT_MAX)):
        fx, fy = factors(tag, n, m)
        assert_entry_matches(x, fx, valued_primes(tag))
        assert_entry_matches(y, fy, valued_primes(tag))
        assert y.exponent == rest_exponent(fy), (n, m)
        assert shared == (strip_small(math.gcd(fx, fy))[0] != 1), (n, m)
        seen += 1
        zeros += m == 0
    assert seen > 25
    assert zeros > 1 or tag is None


@pytest.mark.parametrize("tag", list(EquationTag), ids=lambda t: t.value)
def test_pair_split_matches_direct_factors(tag):
    assert_visits_match_direct_factors(tag)


def test_product_split_matches_direct_factors():
    assert_visits_match_direct_factors(None)


def test_row_visits_name_the_common_factor_by_table():
    # Every entry of these hand-built tables but one has a rest of exponent 2
    # and no small prime, so no row is sparse, every partner passes the
    # lone-prime test and shared is the gcd law alone, read from the tables:
    # with the row term from common the factor is named when v2(a) > v2(b),
    # with the partner from common when v2(a) < v2(b), with both from common
    # always.  v2(0) is infinite, so row 0 names nothing when its term is
    # from common.  common[3] has rest 1, so it is never shared.
    common = {k: entry(211 ** 2) for k in range(33)}
    common[3] = entry(1)
    other = {k: entry(223 ** 2) for k in range(33)}
    span = range(1, 33)

    def v2_or_inf(k):
        return math.inf if k == 0 else v2(k)

    shapes = [(common, other, lambda a, b: v2_or_inf(a) > v2_or_inf(b)),
              (other, common, lambda a, b: v2_or_inf(a) < v2_or_inf(b)),
              (common, common, lambda a, b: True)]
    for shape, (ys, xs, named) in enumerate(shapes):
        for b in (0, 1, 2, 3, 4, 6, 8, 12):
            got = list(_row_visits([(b, ys, xs, span)], common))
            assert [visit[:4] for visit in got] == [(a, b, xs[a], ys[b]) for a in span], (shape, b)
            assert [visit[4] for visit in got] == [
                named(a, b) and math.gcd(a, b) != 3 for a in span], (shape, b)
            if b == 0 and shape == 0:
                assert not any(visit[4] for visit in got)


@lru_cache(maxsize=None)
def literal_exponent_rule_keeps(tag, n, m):
    """The per-pair exponent rule, on direct factors: False when it rejects (n, m)."""
    fx, fy = factors(tag, n, m)
    shared = strip_small(math.gcd(fx, fy))[0] != 1
    return shared or math.gcd(rest_exponent(fx), rest_exponent(fy)) != 1


@lru_cache(maxsize=None)
def literal_lone_prime_rule_keeps(tag, n, m):
    """The per-pair lone-prime rule on the built value: False when it rejects (n, m)."""
    fx, fy = factors(tag, n, m)
    vals = strip_small(fx * fy)[1]
    return all(vals.get(ell) != 1 for ell in valued_primes(tag))


def literal_rules_keep(tag, n, m):
    return literal_exponent_rule_keeps(tag, n, m) and literal_lone_prime_rule_keeps(tag, n, m)


def literal_keeps(tag, cfg):
    """Every pair the per-pair parity, coprime, exponent and lone-prime rules keep.

    Sum-power's n = m = 0 is left out: its value is 0, which no search reports.
    """
    indices = range(1, cfg.max_index + 1)
    if tag is None:
        return {(n, m) for n in indices for m in indices if literal_rules_keep(None, n, m)}
    kept = set()
    for n in indices:
        for m in range(n + 1 if tag is EquationTag.SUM_POWER else n):
            if cfg.parity_filter is not Parity.ANY and \
                    ((n - m) % 2 == 0) != (cfg.parity_filter is Parity.SAME):
                continue
            if cfg.coprimality_required and math.gcd(B[n], B[m]) != 1 and \
                    not (cfg.coprime_zero_exempt and B[m] == 0 and B[n] == 6):
                continue
            if literal_rules_keep(tag, n, m):
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


ALL_TAGS = pytest.mark.parametrize("tag", [*EquationTag, None],
                                   ids=[*(t.value for t in EquationTag), "product-form"])


@ALL_TAGS
def test_row_visits_cover_every_pair_the_literal_rule_keeps(tag):
    # The row and stride rules only skip pairs the exponent rule rejects, and
    # the rows' lone-prime test only pairs the literal lone-prime rule
    # rejects: the visited pairs include every pair the literal per-pair
    # rules keep, and applying those rules to the visits leaves exactly
    # those pairs.
    for cfg in every_visit_setting(tag):
        visited = {(n, m) for n, m, *_ in visits(tag, cfg)}
        expected = literal_keeps(tag, cfg)
        assert expected <= visited, (cfg, sorted(expected - visited)[:5])
        assert {pair for pair in visited if literal_rules_keep(tag, *pair)} == expected, cfg


@ALL_TAGS
def test_scan_solves_exactly_the_pairs_the_literal_rules_keep(tag):
    for cfg in every_visit_setting(tag):
        solved = []
        _scan(visits(tag, cfg), lambda n, m: solved.append((n, m)) or [])
        assert solved == sorted(literal_keeps(tag, cfg)), cfg


@pytest.mark.parametrize("tag", list(EquationTag), ids=lambda t: t.value)
def test_every_visited_pair_has_a_positive_value(tag):
    # A pair search hands each value it solves to the power test, which
    # refuses values below 1; no row reaches n = m = 0 or, in a difference
    # form, n <= m.
    b = values_up_to(SequenceKind.BALANCING, VISIT_MAX)
    for cfg in every_visit_setting(tag):
        if cfg.min_exponent == 2:  # the exponent bound shapes no row
            for n, m, *_ in visits(tag, cfg):
                assert diophantine._pair_value(tag, b[n], b[m]) > 0, (cfg, n, m)


def entry(value, valued=math.prod(SMALL_PRIMES)):
    """A table entry of value, its exponent known as for a row term."""
    e = _Entry(value, valued)
    e.exponent = rest_exponent(value)
    return e


class Hit:
    def __init__(self, pair):
        self.pair = pair

    def verify(self):
        return True


@pytest.mark.parametrize("split, solved", [
    # (x, y, shared): rests sharing no prime, exponents with gcd 1: no q >= 2 fits both
    ((211 * 223, 227 * 229, False), [(1, 0)]),
    ((1, 211 ** 3, False), [(1, 0), (2, 1)]),  # rest 1 is a cube, like the other rest
    ((211 ** 2, 223 ** 4, False), [(1, 0), (2, 1)]),
    # rests that may share a prime: 211 * 211 is a square although each
    # factor's rest exponent is 1, so the pair must reach the power test
    ((211, 211, True), [(1, 0), (2, 1)]),
])
def test_scan_rejects_only_pairs_whose_rests_cannot_combine(split, solved):
    calls = []

    def solve(n, m):
        calls.append((n, m))
        return [Hit((n, m))]

    x, y, shared = split
    # the partner's exponent is left for the scan to read
    x = _Entry(x, 1)
    # listed out of order: survivors are solved in (n, m) order.  The second
    # visit's rests may share a prime, so it is kept.
    kept = (1, 0, _Entry(211, 1), entry(211, 1), True)
    found = _scan([(2, 1, x, entry(y, 1), shared), kept], solve)
    assert calls == solved and [h.pair for h in found] == solved


@pytest.mark.parametrize("tag", [EquationTag.CUBE_SUM_PLUS, EquationTag.CUBE_SUM_MINUS],
                         ids=lambda t: t.value)
def test_cube_forms_split_m_zero_only_into_rest_one_factors(tag):
    # The cube forms are split by B_n +- B_m, on the grounds that its gcd with
    # the second factor F divides 3.  At m = 0 that fails: F = B_n**2, and at
    # (2, 0) the gcd is 6.  The rule stays sound only because the searches'
    # coprime terms keep just n = 1, 2 at m = 0, whose factors have rest 1.
    assert math.gcd(B[2], B[2] ** 2) == 6
    seen = set()
    for cfg in every_visit_setting(tag):
        if not cfg.coprimality_required or cfg.min_exponent < 3:
            continue  # settings search_cube_sum refuses
        for n, m, x, y, _ in visits(tag, cfg):
            if m == 0:
                assert x.rest == y.rest == 1, (cfg, n)
                seen.add(n)
    assert seen == {1, 2}


@pytest.mark.parametrize("vx, vy, power", [
    ({3: 1}, {3: 1}, True),            # 3**2: a square
    ({3: 1}, {5: 2}, False),           # 3 * 5**2: valuations 1 and 2
    ({3: 2}, {5: 4, 7: 2}, True),      # gcd 2
    ({}, {}, True),                    # no valued prime: no information
    ({3: 3}, {3: 1, 5: 4}, True),      # 3**4 * 5**4
    ({3: 3}, {5: 4}, False),
])
def test_scan_leaves_small_prime_valuations_to_the_power_test(vx, vy, power):
    # The rests may share a prime (shared is True), so the scan solves the
    # pair whatever its small primes are; the power test on the built value
    # 211**2 * 3**a * 5**b * ... rejects it exactly when their gcd is 1.
    x, y = (211 * math.prod(ell ** e for ell, e in v.items()) for v in (vx, vy))
    found = _scan([(2, 1, entry(x), entry(y), True)], lambda n, m: [Hit((n, m))])
    assert [h.pair for h in found] == [(2, 1)]
    assert (_maybe_decompose(x * y) is not None) is power


@pytest.mark.parametrize("zero_exempt", [True, False])
def test_index_coprime_filter_matches_literal_gcd(zero_exempt):
    # the pair search's row rule: coprime terms keep gcd(m, t) = 1, t = n - m,
    # and the zero exemption adds (n, m) = (2, 0)
    for n, m in pairs(IDENTITY_MAX):
        literal = math.gcd(B[n], B[m]) == 1
        exempt = zero_exempt and B[m] == 0 and B[n] == 6
        row_rule = math.gcd(m, n - m) == 1 or zero_exempt and (n, m) == (2, 0)
        assert row_rule == (literal or exempt), (n, m)
