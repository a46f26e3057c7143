import math
from enum import Enum

import pytest

from ballab import diophantine
from ballab.bigmath import integer_kth_root, is_prime, perfect_power_decompose, primes_up_to
from ballab.cli import canonical_json
from ballab.diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    SolutionRecord,
    _maybe_decompose,
    oracle_search,
    search_cube_sum,
    search_product_form,
    search_special_form,
    search_square_diff,
    search_sum_power,
)
from ballab.modular import power_residue_sieve
from ballab.sequences import SequenceKind


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
                assert r.solution_tuple() in {s.solution_tuple() for s in lo_recs}


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
    d = perfect_power_decompose(value)
    return (d.base, d.exponent) if d.exponent > 1 else None


def _cube_cfg(max_index):
    return SearchConfig(max_index=max_index, min_exponent=3, coprimality_required=True,
                        coprime_zero_exempt=False)


POWER_TEST_SEARCHES = {
    "sum-power-any-150": lambda: search_sum_power(SearchConfig(max_index=150)),
    "square-diff-100": lambda: search_square_diff(
        SearchConfig(max_index=100, coprimality_required=True)),
    "cube-sum-plus-100": lambda: search_cube_sum(_cube_cfg(100), "+"),
    "cube-sum-minus-100": lambda: search_cube_sum(_cube_cfg(100), "-"),
    "product-form-100": lambda: search_product_form(SearchConfig(max_index=100)),
    **{f"special-form-{kind.value}-{p}-600":
       (lambda kind=kind, p=p: search_special_form(kind, p, SearchConfig(max_index=600)))
       for kind in (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING) for p in (2, 3)},
}


@pytest.mark.parametrize("search", POWER_TEST_SEARCHES.values(), ids=POWER_TEST_SEARCHES.keys())
def test_power_test_matches_sieve_then_decompose(monkeypatch, search):
    """Every value a search hands to the power test gets the reference's answer."""
    seen = []

    def recording_power_test(value):
        seen.append(value)
        return _maybe_decompose(value)

    monkeypatch.setattr(diophantine, "_maybe_decompose", recording_power_test)
    search()
    assert seen
    for value in seen:
        d = _maybe_decompose(value)
        assert (None if d is None else (d.base, d.exponent)) == reference_power_test(value), value


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
