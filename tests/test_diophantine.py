import itertools
import math
from enum import Enum

import pytest

from ballab import bigmath, diophantine, modular
from ballab.bigmath import integer_kth_root, is_prime, primes_up_to, strip_prime
from ballab.cli import canonical_json
from ballab.diophantine import (
    EquationTag,
    Parity,
    ProductFormRecord,
    SearchConfig,
    SolutionRecord,
    SpecialFormRecord,
    _maybe_decompose,
    _pair_value,
    _power_hits,
    _verified,
    oracle_search,
    search_cube_sum,
    search_product_form,
    search_special_form,
    search_square_diff,
    search_sum_power,
)
from ballab.modular import power_residue_sieve
from ballab.sequences import SequenceKind, values_up_to
from refmath import perfect_power_decompose


def solutions(records):
    """(n, m, x, q-or-None, family-min-or-None) projection, bounds dropped."""
    return [(r.n, r.m, r.x, r.exponent, r.family_min_exponent) for r in records]


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(max_index=10)
        assert cfg.min_exponent == 2
        assert cfg.parity_filter is Parity.ANY
        assert not cfg.coprimality_required
        assert cfg.coprime_zero_exempt
        assert cfg.to_dict()["sieve_enabled"] is True

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_index=0)
        with pytest.raises(ValueError):
            SearchConfig(max_index=5, min_exponent=1)


class TestSolutionRecord:
    def test_exactly_one_exponent_form(self):
        cfg = SearchConfig(max_index=5)
        with pytest.raises(ValueError):
            SolutionRecord(EquationTag.SUM_POWER, 3, 1, 6, 2, 2, cfg)
        with pytest.raises(ValueError):
            SolutionRecord(EquationTag.SUM_POWER, 3, 1, 6, None, None, cfg)

    def test_verify(self):
        cfg = SearchConfig(max_index=5)
        good = SolutionRecord(EquationTag.SUM_POWER, 3, 1, 6, 2, None, cfg)
        bad = SolutionRecord(EquationTag.SUM_POWER, 3, 1, 7, 2, None, cfg)
        assert good.verify() and not bad.verify()
        fam = SolutionRecord(EquationTag.CUBE_SUM_MINUS, 1, 0, 1, None, 3, cfg)
        assert fam.verify()


class TestSumPower:
    def test_same_parity_only_known_solution(self):
        cfg = SearchConfig(max_index=40, parity_filter=Parity.SAME)
        assert solutions(search_sum_power(cfg)) == [(3, 1, 6, 2, None)]

    def test_tiny_bound_is_empty(self):
        cfg = SearchConfig(max_index=1, parity_filter=Parity.SAME)
        assert search_sum_power(cfg) == []

    def test_opposite_parity_exploratory(self):
        cfg = SearchConfig(max_index=60, parity_filter=Parity.OPPOSITE)
        recs = search_sum_power(cfg)
        assert (1, 0, 1, None, 2) in solutions(recs)
        assert all(r.verify() for r in recs)

    def test_any_parity_includes_both_classes(self):
        cfg = SearchConfig(max_index=40)
        got = solutions(search_sum_power(cfg))
        assert (3, 1, 6, 2, None) in got and (1, 0, 1, None, 2) in got


class TestSquareDiff:
    def test_known_solutions(self):
        cfg = SearchConfig(max_index=40, coprimality_required=True)
        assert solutions(search_square_diff(cfg)) == [
            (1, 0, 1, None, 2),
            (2, 0, 6, 2, None),
        ]

    def test_strict_zero_convention_drops_the_six(self):
        cfg = SearchConfig(max_index=40, coprimality_required=True,
                           coprime_zero_exempt=False)
        assert solutions(search_square_diff(cfg)) == [(1, 0, 1, None, 2)]

    def test_requires_coprimality(self):
        with pytest.raises(ValueError):
            search_square_diff(SearchConfig(max_index=10))


class TestCubeSum:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_known_solutions(self, sign):
        cfg = SearchConfig(max_index=40, min_exponent=3, coprimality_required=True,
                           coprime_zero_exempt=False)
        assert solutions(search_cube_sum(cfg, sign)) == [(1, 0, 1, None, 3)]

    def test_rejects_small_exponent(self):
        cfg = SearchConfig(max_index=10, min_exponent=2, coprimality_required=True)
        with pytest.raises(ValueError):
            search_cube_sum(cfg, "+")

    def test_rejects_bad_sign(self):
        cfg = SearchConfig(max_index=10, min_exponent=3, coprimality_required=True)
        with pytest.raises(ValueError):
            search_cube_sum(cfg, "*")

    def test_requires_coprimality(self):
        cfg = SearchConfig(max_index=10, min_exponent=3)
        with pytest.raises(ValueError):
            search_cube_sum(cfg, "-")


class TestSpecialForm:
    def test_balancing_two(self):
        out = search_special_form(SequenceKind.BALANCING, 2, SearchConfig(max_index=60))
        assert [(r.n, r.prime_exponent, r.x, r.family_min_exponent) for r in out] == \
            [(1, 0, 1, 2)]

    def test_balancing_three(self):
        out = search_special_form(SequenceKind.BALANCING, 3, SearchConfig(max_index=60))
        assert [(r.n, r.prime_exponent, r.x, r.family_min_exponent) for r in out] == \
            [(1, 0, 1, 2)]

    def test_lucas_two_is_empty(self):
        assert search_special_form(SequenceKind.LUCAS_BALANCING, 2,
                                   SearchConfig(max_index=60)) == []

    def test_lucas_three(self):
        out = search_special_form(SequenceKind.LUCAS_BALANCING, 3, SearchConfig(max_index=60))
        assert [(r.n, r.prime_exponent, r.x, r.family_min_exponent) for r in out] == \
            [(1, 1, 1, 2)]

    # The only hits with x > 1 for the primes <= 300 and 2^31 - 1 up to N = 60:
    # B_7 = 40391 = 239 * 13**2, where 239 is no small prime, so only the
    # strip of p takes it out; and C_3 = 99 = 11 * 3**2.
    @pytest.mark.parametrize("kind, p, n, x, families", [
        (SequenceKind.BALANCING, 239, 7, 13, [(1, 0)]),
        (SequenceKind.LUCAS_BALANCING, 11, 3, 3, []),
    ], ids=["balancing-239", "lucas-balancing-11"])
    def test_prime_times_a_square(self, kind, p, n, x, families):
        out = search_special_form(kind, p, SearchConfig(max_index=60))
        hit = SpecialFormRecord(kind, p, n, 1, x=x, exponent=2, family_min_exponent=None)
        assert [(r.n, r.prime_exponent) for r in out if r.x == 1] == families
        assert [r for r in out if r.x > 1] == [hit]
        assert hit.verify()
        assert not SpecialFormRecord(kind, p, n, 1, x=x + 1, exponent=2,
                                     family_min_exponent=None).verify()
        assert hit.to_dict() == {"kind": kind.value, "prime": p, "n": n, "s": 1,
                                 "x": str(x), "b": 2}
        cubes = search_special_form(kind, p, SearchConfig(max_index=60, min_exponent=3))
        assert [(r.n, r.prime_exponent, r.x) for r in cubes] == [(*f, 1) for f in families]

    def test_exploratory_prime(self):
        # no completeness claim for other primes; records still verify
        out = search_special_form(SequenceKind.BALANCING, 5, SearchConfig(max_index=40))
        assert all(r.verify() for r in out)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            search_special_form(SequenceKind.PELL, 2, SearchConfig(max_index=10))
        with pytest.raises(ValueError):
            search_special_form(SequenceKind.BALANCING, 4, SearchConfig(max_index=10))


class TestProductForm:
    def test_known_solution(self):
        out = search_product_form(SearchConfig(max_index=40))
        assert [(r.n, r.m, r.two_exponent, r.x, r.exponent) for r in out] == \
            [(2, 1, 1, 3, 2)]

    def test_higher_min_exponent_is_empty(self):
        assert search_product_form(SearchConfig(max_index=40, min_exponent=3)) == []


class TestSearchMechanics:
    def test_sieve_transparency(self, monkeypatch):
        # the residue sieve only rejects non-powers: with it passing everything,
        # the exact roots alone give the same records
        configs = [
            (search_sum_power, SearchConfig(max_index=50)),
            (search_square_diff, SearchConfig(max_index=40, coprimality_required=True)),
        ]
        sieved = [solutions(fn(cfg)) for fn, cfg in configs]
        monkeypatch.setattr(diophantine, "power_residue_sieve", lambda value, q: True)
        assert [solutions(fn(cfg)) for fn, cfg in configs] == sieved

    def test_monotone_in_max_index(self):
        small = SearchConfig(max_index=20, parity_filter=Parity.SAME)
        large = SearchConfig(max_index=40, parity_filter=Parity.SAME)
        got_small = set(solutions(search_sum_power(small)))
        got_large = set(solutions(search_sum_power(large)))
        assert got_small <= got_large

    def test_monotone_in_min_exponent(self):
        lo = SearchConfig(max_index=30, coprimality_required=True, min_exponent=2)
        hi = SearchConfig(max_index=30, coprimality_required=True, min_exponent=3)
        lo_recs = search_square_diff(lo)
        for r in search_square_diff(hi):
            if r.is_family:
                # the family survives with a lower threshold
                assert any(s.is_family and (s.n, s.m, s.x) == (r.n, r.m, r.x)
                           and s.family_min_exponent <= r.family_min_exponent
                           for s in lo_recs)
            else:
                assert (r.n, r.m, r.x, r.exponent) in {(s.n, s.m, s.x, s.exponent)
                                                        for s in lo_recs}


def reference_power_test(value):
    """The searches' earlier power test, kept as the reference.

    The residue sieve over every prime exponent up to log2(value), then the
    unsieved maximal decomposition; (base, exponent), or None for a value
    that is no perfect power.
    """
    for p in primes_up_to(value.bit_length() - 1):
        if power_residue_sieve(value, p):
            break
    else:
        return None
    base, exponent = perfect_power_decompose(value)
    return (base, exponent) if exponent > 1 else None


# ---------------------------------------------------------------------------
# reference scans
#
# The pair and product searches as they were before index space: every pair
# builds its big integer, takes a big-integer gcd and meets the power test.
# Kept verbatim apart from the power_test parameter and the literal parity
# test, as the gate for the index-space searches.


def remembered(power_test):
    """power_test with its answers kept by value, for a run of reference scans
    that meets the same values in setting after setting."""
    answers = {}

    def answer(value):
        if value not in answers:
            answers[value] = power_test(value)
        return answers[value]

    return answer


def _reference_coprime_ok(bn, bm, cfg):
    if not cfg.coprimality_required:
        return True
    if bm == 0:
        return bn in (1, 6) if cfg.coprime_zero_exempt else bn == 1
    return math.gcd(bn, bm) == 1


def reference_pair_search(tag, cfg, power_test=_maybe_decompose):
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    c = None
    if tag is EquationTag.SUM_POWER:
        c = values_up_to(SequenceKind.LUCAS_BALANCING, cfg.max_index)
    include_diagonal = tag is EquationTag.SUM_POWER
    out = []
    for n in range(cfg.max_index + 1):
        top = n + 1 if include_diagonal else n
        for m in range(top):
            if cfg.parity_filter is not Parity.ANY and \
                    ((n - m) % 2 == 0) != (cfg.parity_filter is Parity.SAME):
                continue
            if not _reference_coprime_ok(b[n], b[m], cfg):
                continue
            value = _pair_value(tag, b[n], b[m])
            if value <= 0:
                continue
            if tag is EquationTag.SUM_POWER and (n - m) % 2 == 0:
                # cross-check the half-index factorization before any power test
                if value != 2 * b[(n + m) // 2] * c[(n - m) // 2]:
                    raise ArithmeticError(f"half-index factorization failed at ({n}, {m})")
            if value == 1:
                out.append(SolutionRecord(tag, n, m, x=1, exponent=None,
                                          family_min_exponent=cfg.min_exponent, bounds=cfg))
                continue
            for x, q in _power_hits(power_test(value), cfg.min_exponent):
                out.append(SolutionRecord(tag, n, m, x=x, exponent=q,
                                          family_min_exponent=None, bounds=cfg))
    return _verified(out)


def reference_product_search(cfg, power_test=_maybe_decompose):
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, cfg.max_index)
    out = []
    for n in range(1, cfg.max_index + 1):
        for m in range(1, cfg.max_index + 1):
            s, odd = strip_prime(2, b[n] * c[m])
            if odd == 1:
                # unreachable for m >= 1: the odd C_m >= 3 divides the odd part
                raise ArithmeticError(f"pure power of two at ({n}, {m})")
            for x, q in _power_hits(power_test(odd), cfg.min_exponent):
                out.append(ProductFormRecord(n=n, m=m, two_exponent=s, x=x, exponent=q))
    return _verified(out)


def as_json(records):
    return canonical_json([r.to_dict() for r in records])


def _cube_cfg(max_index):
    return SearchConfig(max_index=max_index, min_exponent=3, coprimality_required=True,
                        coprime_zero_exempt=False)


# tag -> the search for that equation
PAIR_SEARCHES = {
    EquationTag.SUM_POWER: search_sum_power,
    EquationTag.SQUARE_DIFF: search_square_diff,
    EquationTag.CUBE_SUM_PLUS: lambda cfg: search_cube_sum(cfg, "+"),
    EquationTag.CUBE_SUM_MINUS: lambda cfg: search_cube_sum(cfg, "-"),
}


def every_setting(tag, max_index):
    """Each parity x coprime x zero-exempt x min-exp in {2, 3, 4} the search accepts."""
    for parity, coprime, zero_exempt, min_exp in itertools.product(
            Parity, (False, True), (False, True), (2, 3, 4)):
        if tag is not EquationTag.SUM_POWER and not coprime:
            continue
        if tag in (EquationTag.CUBE_SUM_PLUS, EquationTag.CUBE_SUM_MINUS) and min_exp < 3:
            continue
        yield SearchConfig(max_index=max_index, min_exponent=min_exp, parity_filter=parity,
                           coprimality_required=coprime, coprime_zero_exempt=zero_exempt)


GATE_BOUNDS = (1, 2, 3, 13, 150)


@pytest.mark.parametrize("tag", list(PAIR_SEARCHES), ids=lambda t: t.value)
def test_pair_search_matches_reference_scan_in_every_setting(tag):
    search = PAIR_SEARCHES[tag]
    power_test = remembered(_maybe_decompose)
    for max_index in GATE_BOUNDS:
        for cfg in every_setting(tag, max_index):
            assert as_json(search(cfg)) == \
                as_json(reference_pair_search(tag, cfg, power_test)), cfg


def test_product_search_matches_reference_scan_in_every_setting():
    power_test = remembered(_maybe_decompose)
    for max_index in GATE_BOUNDS:
        for min_exp in (2, 3, 4):
            cfg = SearchConfig(max_index=max_index, min_exponent=min_exp)
            assert as_json(search_product_form(cfg)) == \
                as_json(reference_product_search(cfg, power_test)), cfg


# Opposite parity and coprime terms are the sum-power settings whose rows the
# index-space row rules skip wholesale (odd t, and every row whose term has
# rest exponent 1 under coprime terms).
@pytest.mark.parametrize("tag, cfg", [
    (EquationTag.SUM_POWER, SearchConfig(max_index=400)),
    (EquationTag.SUM_POWER, SearchConfig(max_index=400, parity_filter=Parity.OPPOSITE)),
    (EquationTag.SUM_POWER, SearchConfig(max_index=400, coprimality_required=True)),
    (EquationTag.SQUARE_DIFF, SearchConfig(max_index=400, coprimality_required=True)),
    (EquationTag.CUBE_SUM_PLUS, _cube_cfg(400)),
    (EquationTag.CUBE_SUM_MINUS, _cube_cfg(400)),
    (None, SearchConfig(max_index=320)),
], ids=["sum-power", "sum-power-opposite", "sum-power-coprime", "square-diff",
        "cube-sum-plus", "cube-sum-minus", "product-form"])
def test_search_matches_reference_scan_at_large_bound(tag, cfg):
    if tag is None:
        assert as_json(search_product_form(cfg)) == as_json(reference_product_search(cfg))
    else:
        assert as_json(PAIR_SEARCHES[tag](cfg)) == as_json(reference_pair_search(tag, cfg))


def _against_reference_scan(search, tag, cfg):
    if tag is None:
        return lambda: search(cfg), lambda: reference_product_search(cfg, reference_power_test)
    return lambda: search(cfg), lambda: reference_pair_search(tag, cfg, reference_power_test)


# name -> (search, the reference scan running the earlier power test, or None)
POWER_TEST_SEARCHES = {
    "sum-power-any-150": _against_reference_scan(
        search_sum_power, EquationTag.SUM_POWER, SearchConfig(max_index=150)),
    "square-diff-100": _against_reference_scan(
        search_square_diff, EquationTag.SQUARE_DIFF,
        SearchConfig(max_index=100, coprimality_required=True)),
    "cube-sum-plus-100": _against_reference_scan(
        PAIR_SEARCHES[EquationTag.CUBE_SUM_PLUS], EquationTag.CUBE_SUM_PLUS, _cube_cfg(100)),
    "cube-sum-minus-100": _against_reference_scan(
        PAIR_SEARCHES[EquationTag.CUBE_SUM_MINUS], EquationTag.CUBE_SUM_MINUS, _cube_cfg(100)),
    "product-form-100": _against_reference_scan(
        search_product_form, None, SearchConfig(max_index=100)),
    **{f"special-form-{kind.value}-{p}-600":
       (lambda kind=kind, p=p: search_special_form(kind, p, SearchConfig(max_index=600)), None)
       for kind in (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING) for p in (2, 3)},
}


@pytest.mark.parametrize("search, reference", POWER_TEST_SEARCHES.values(),
                         ids=POWER_TEST_SEARCHES.keys())
def test_power_test_matches_sieve_then_decompose(monkeypatch, search, reference):
    """Each search agrees with the earlier power test: the sieve, then decomposition.

    Index space hands the power test only the pairs it cannot reject, so the
    pair and product searches are compared whole against the reference scans
    running the earlier test.  The special-form scans hand it every value,
    and each value gets the reference's answer.
    """
    if reference is not None:
        assert as_json(search()) == as_json(reference())
        return
    seen = []

    def recording_power_test(value):
        seen.append(value)
        return _maybe_decompose(value)

    monkeypatch.setattr(diophantine, "_maybe_decompose", recording_power_test)
    search()
    assert seen
    for value in seen:
        assert _maybe_decompose(value) == reference_power_test(value), value


def _count_is_prime(monkeypatch) -> list[int]:
    """Record every trial-division primality test, from a fresh moduli cache."""
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    for module in (bigmath, modular, diophantine):
        monkeypatch.setattr(module, "is_prime", counting_is_prime, raising=False)
    modular.default_sieve_moduli.cache_clear()
    return calls


@pytest.mark.parametrize("kind", [SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING],
                         ids=lambda k: k.value)
def test_special_form_tests_the_prime_once(monkeypatch, kind):
    # strip_prime splits any p >= 2 exactly, so the scan tests p's primality
    # once and not once per index
    calls = _count_is_prime(monkeypatch)
    search_special_form(kind, 2147483647, SearchConfig(max_index=390))
    assert calls == [2147483647]


def test_searches_read_their_sieve_moduli_off_the_prime_sieve(monkeypatch):
    # the power test's moduli come from bigmath.prime_flags, not from trial
    # division of q + 1, 2q + 1, ...
    calls = _count_is_prime(monkeypatch)
    assert search_product_form(SearchConfig(max_index=98))
    assert search_sum_power(SearchConfig(max_index=150))
    assert calls == []


def test_sum_power_search_strips_no_prime_one_at_a_time(monkeypatch):
    # the power test reads every small valuation off _strip_small's gcd
    # levels; strip_prime is left to the special-form and product-form splits
    calls = []

    def counting_strip_prime(p, n):
        calls.append(p)
        return strip_prime(p, n)

    monkeypatch.setattr(diophantine, "strip_prime", counting_strip_prime)
    assert search_sum_power(SearchConfig(max_index=150))
    assert calls == []


class TestOracle:
    def test_guard(self):
        with pytest.raises(ValueError):
            oracle_search(EquationTag.SUM_POWER, SearchConfig(max_index=41))

    @pytest.mark.parametrize("max_index", [5, 25])
    def test_equivalence_all_tags(self, max_index):
        setups = [
            (EquationTag.SUM_POWER, search_sum_power,
             SearchConfig(max_index=max_index, parity_filter=Parity.SAME)),
            (EquationTag.SUM_POWER, search_sum_power,
             SearchConfig(max_index=max_index)),
            (EquationTag.SQUARE_DIFF, search_square_diff,
             SearchConfig(max_index=max_index, coprimality_required=True)),
            (EquationTag.CUBE_SUM_PLUS, lambda c: search_cube_sum(c, "+"),
             SearchConfig(max_index=max_index, min_exponent=3,
                          coprimality_required=True, coprime_zero_exempt=False)),
            (EquationTag.CUBE_SUM_MINUS, lambda c: search_cube_sum(c, "-"),
             SearchConfig(max_index=max_index, min_exponent=3,
                          coprimality_required=True, coprime_zero_exempt=False)),
        ]
        for tag, fn, cfg in setups:
            fast = canonical_json([r.to_dict() for r in fn(cfg)])
            slow = canonical_json([r.to_dict() for r in oracle_search(tag, cfg)])
            assert fast == slow, f"{tag} diverges at max_index={max_index}"


# ---------------------------------------------------------------------------
# structure checks for coprime power sums
#
# Desk-scale checks of classical facts about x**p + y**p = z**k, independent
# of the balancing searches; the exhaustive enumeration is the oracle and the
# classifier the code under test.


class FermatSumForm(Enum):
    FORM_CK = "c^k"
    FORM_P_CK = "p^(k-1)*c^k"
    VIOLATION = "violation"


def _exact_kth_root_signed(v, k):
    """The integer c with c**k = v, or None; negative c allowed for odd k."""
    if v == 0:
        return 0
    if v < 0:
        if k % 2 == 0:
            return None
        r = integer_kth_root(-v, k)
        return -r if r ** k == -v else None
    r = integer_kth_root(v, k)
    return r if r ** k == v else None


def check_fermat_sum_structure(x, y, p, z, k):
    """Classify x + y for coprime x, y with x**p + y**p = z**k.

    p must be an odd prime and k >= 2; the hypotheses are re-verified and
    rejected with ValueError when they fail.  x + y must come out as c**k or
    as p**(k-1) * c**k; anything else is reported as a violation (meaning a
    bug on one side of the check, never a valid outcome).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if math.gcd(x, y) != 1:
        raise ValueError("x and y must be coprime")
    if x ** p + y ** p != z ** k:
        raise ValueError("x**p + y**p must equal z**k")
    s = x + y
    if _exact_kth_root_signed(s, k) is not None:
        return FermatSumForm.FORM_CK
    lead = p ** (k - 1)
    if s % lead == 0 and _exact_kth_root_signed(s // lead, k) is not None:
        return FermatSumForm.FORM_P_CK
    return FermatSumForm.VIOLATION


def scan_fermat_sum_structure(bound, primes=(3, 5), exponents=(2, 3)):
    """Classifier violations over coprime |x|, |y| <= bound (expected empty)."""
    violations = []
    for p in primes:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                v = x ** p + y ** p
                for k in exponents:
                    z = _exact_kth_root_signed(v, k)
                    if z is None:
                        continue
                    if check_fermat_sum_structure(x, y, p, z, k) is FermatSumForm.VIOLATION:
                        violations.append((x, y, p, z, k))
    return violations


def scan_cube_power_structure(bound=30, exponents=(3, 5, 7)):
    """Solutions of x**3 + y**3 = z**p that break the parity/divisibility constraints.

    Collects solutions with gcd(x, y) = 1, xyz != 0 and 2 | xz inside the box
    that break (3 | z, 2 | x, 4 does not divide x).  Expected empty.
    """
    violations = []
    for p in exponents:
        for z in range(-bound, bound + 1):
            if z == 0:
                continue
            v = z ** p
            for x in range(-bound, bound + 1):
                if x == 0:
                    continue
                y = _exact_kth_root_signed(v - x ** 3, 3)
                if y is None or y == 0 or abs(y) > bound:
                    continue
                if math.gcd(x, y) != 1 or (x * z) % 2:
                    continue
                if not (z % 3 == 0 and x % 2 == 0 and x % 4 != 0):
                    violations.append((x, y, z, p))
    return violations


class TestFermatSumStructure:
    def test_trivial_ck(self):
        assert check_fermat_sum_structure(1, 0, 3, 1, 5) is FermatSumForm.FORM_CK

    def test_p_ck_instance(self):
        # 2**3 + 1**3 = 9 = 3**2 and 2 + 1 = 3 = 3**(2-1) * 1**2
        assert check_fermat_sum_structure(2, 1, 3, 3, 2) is FermatSumForm.FORM_P_CK

    def test_rejects_bad_hypotheses(self):
        with pytest.raises(ValueError):
            check_fermat_sum_structure(2, -1, 3, 7, 1)  # k too small
        with pytest.raises(ValueError):
            check_fermat_sum_structure(2, 1, 4, 3, 2)  # p not an odd prime
        with pytest.raises(ValueError):
            check_fermat_sum_structure(2, 4, 3, 2, 3)  # not coprime
        with pytest.raises(ValueError):
            check_fermat_sum_structure(2, 1, 3, 5, 2)  # equation does not hold

    def test_exhaustive_scan_has_no_violations(self):
        assert scan_fermat_sum_structure(50, primes=(3, 5), exponents=(2, 3)) == []

    def test_scan_is_not_vacuous(self):
        # count the instances the scan classifies; the box must contain some
        count = 0
        for p in (3, 5):
            for x in range(-50, 51):
                for y in range(-50, 51):
                    if math.gcd(x, y) != 1:
                        continue
                    v = x ** p + y ** p
                    for k in (2, 3):
                        if _exact_kth_root_signed(v, k) is not None:
                            count += 1
        assert count >= 20


def test_cube_power_structure_scan_is_clean():
    assert scan_cube_power_structure(30) == []
