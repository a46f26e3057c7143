from math import gcd

import pytest

import ballab.verify
from ballab.modular import residue_range
from ballab.sequences import SequenceKind
from ballab.verify import (
    CheckResult,
    check_period_consistency,
    check_sieve_soundness,
    check_two_adic,
    gcd_suite,
    identity_suite,
    modular_suite,
    run_suite,
)
from refmath import term_mod


def assert_all_green(results):
    for r in results:
        assert r.passed, f"{r.name} failed over {r.bound}: {r.failures}"
        assert r.checked > 0
        assert r.failures == []


def test_identity_suite():
    assert_all_green(identity_suite(80))


def test_gcd_suite():
    assert_all_green(gcd_suite(60))


def test_modular_suite():
    assert_all_green(modular_suite(120))


def test_run_suite_all():
    results = run_suite("all", 40)
    assert_all_green(results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("everything", 10)


def test_period_consistency_counts_multiple_pairs():
    r = check_period_consistency(30)
    # 29 moduli plus one divisibility case per (mu, multiple) pair
    assert r.checked > 29
    assert r.passed


def test_sieve_soundness_is_seeded():
    a = check_sieve_soundness()
    b = check_sieve_soundness()
    assert a == b


def test_check_result_dict_shape():
    r = CheckResult(name="demo", bound="n <= 3", checked=4, passed=True)
    assert r.to_dict() == {"name": "demo", "bound": "n <= 3", "checked": 4,
                           "passed": True, "failures": []}


def two_adic_reference(max_n):
    """check_two_adic by the per-case rule: one term_mod(B, n, 2**k) per (n, k)."""
    failures = [f"2^{k} | B_{n} does not match 2^{k} | {n}"
                for n in range(1, max_n + 1) for k in range(1, 9)
                if (term_mod(SequenceKind.BALANCING, n, 1 << k) == 0) != (n % (1 << k) == 0)]
    return CheckResult("two-adic-law", f"1 <= n <= {max_n}, 1 <= k <= 8", 8 * max_n,
                       passed=not failures, failures=failures[:5])


@pytest.mark.parametrize("max_n", [0, 1, 2, 255, 256, 257, 3000])
def test_two_adic_matches_per_case_rule(max_n):
    assert check_two_adic(max_n).to_dict() == two_adic_reference(max_n).to_dict()


def test_two_adic_reports_a_wrong_residue(monkeypatch):
    # 2**5 exactly divides both 96 and B_96 (B_96 is 32 mod 2**8); adding 1
    # to that residue makes it odd, which breaks exactly the cases k = 1..5.
    def corrupt_residues(kind, hi, modulus):
        out = residue_range(kind, hi, modulus)
        out[96] = (out[96] + 1) % modulus
        return out

    monkeypatch.setattr(ballab.verify, "residue_range", corrupt_residues)
    got = check_two_adic(200).to_dict()
    assert got == {"name": "two-adic-law", "bound": "1 <= n <= 200, 1 <= k <= 8",
                   "checked": 1600, "passed": False,
                   "failures": [f"2^{k} | B_96 does not match 2^{k} | 96" for k in range(1, 6)]}


# Indices whose values are corrupted (by +1) in every sequence and residue
# stream the suites read, so that each check meets failing cases.
CORRUPT = {7, 9, 12, 13, 20, 21, 30}

# run_suite("all", 60) under that corruption: (name, checked, passed, failures)
CORRUPTED_RESULTS = [
    ("half-index-sum", 961, False,
     ["B_7 + B_1 != 2*B_4*C_3", "B_7 + B_3 != 2*B_5*C_2", "B_7 + B_5 != 2*B_6*C_1",
      "B_8 + B_6 != 2*B_7*C_1", "B_9 + B_1 != 2*B_5*C_4"]),
    ("half-index-diff", 961, False,
     ["B_7 - B_1 != 2*B_3*C_4", "B_7 - B_3 != 2*B_2*C_5", "B_7 - B_5 != 2*B_1*C_6",
      "B_8 - B_6 != 2*B_1*C_7", "B_9 - B_1 != 2*B_4*C_5"]),
    ("pell-product", 61, False,
     ["B_7 != P_7*Q_7", "B_9 != P_9*Q_9", "B_12 != P_12*Q_12", "B_13 != P_13*Q_13",
      "B_20 != P_20*Q_20"]),
    ("index-doubling", 61, False,
     ["B_12 != 2*B_6*C_6", "B_14 != 2*B_7*C_7", "B_18 != 2*B_9*C_9", "B_20 != 2*B_10*C_10",
      "B_24 != 2*B_12*C_12"]),
    ("square-plus-one", 61, False,
     ["8*B_7^2 + 1 != C_7^2", "8*B_9^2 + 1 != C_9^2", "8*B_12^2 + 1 != C_12^2",
      "8*B_13^2 + 1 != C_13^2", "8*B_20^2 + 1 != C_20^2"]),
    ("addition-formula", 3721, False,
     ["B_7 != B_1*C_6 + C_1*B_6", "B_8 != B_1*C_7 + C_1*B_7", "B_9 != B_1*C_8 + C_1*B_8",
      "B_10 != B_1*C_9 + C_1*B_9", "B_12 != B_1*C_11 + C_1*B_11"]),
    ("lucas-odd", 61, False,
     ["C_7 is even", "C_9 is even", "C_12 is even", "C_13 is even", "C_20 is even"]),
    ("closed-form-agreement", 61, False,
     ["closed form disagrees at n=7", "closed form disagrees at n=9",
      "closed form disagrees at n=12", "closed form disagrees at n=13",
      "closed form disagrees at n=20"]),
    ("unit-norm", 61, True, []),
    ("gcd-balancing", 3600, False,
     ["gcd(B_2, B_7) != B_gcd(2,7)", "gcd(B_2, B_9) != B_gcd(2,9)",
      "gcd(B_2, B_12) != B_gcd(2,12)", "gcd(B_2, B_13) != B_gcd(2,13)",
      "gcd(B_2, B_20) != B_gcd(2,20)"]),
    ("gcd-lucas", 3600, False,
     ["gcd(C_1, C_7) != expected", "gcd(C_1, C_9) != expected", "gcd(C_1, C_13) != expected",
      "gcd(C_1, C_21) != expected", "gcd(C_1, C_30) != expected"]),
    ("gcd-mixed", 3600, False,
     ["gcd(B_2, C_7) != expected", "gcd(B_2, C_9) != expected", "gcd(B_2, C_12) != expected",
      "gcd(B_2, C_13) != expected", "gcd(B_2, C_20) != expected"]),
    ("pell-coprime", 60, False,
     ["gcd(P_7, Q_7) != 1", "gcd(P_9, Q_9) != 1", "gcd(P_13, Q_13) != 1",
      "gcd(P_21, Q_21) != 1"]),
    ("mod9-table", 61, False,
     ["mod-9 table wrong at n=7", "mod-9 table wrong at n=9", "mod-9 table wrong at n=12",
      "mod-9 table wrong at n=13", "mod-9 table wrong at n=20"]),
    ("two-adic-law", 480, False,
     ["2^1 | B_7 does not match 2^1 | 7", "2^2 | B_7 does not match 2^2 | 7",
      "2^3 | B_7 does not match 2^3 | 7", "2^1 | B_9 does not match 2^1 | 9",
      "2^1 | B_12 does not match 2^1 | 12"]),
    ("period-consistency", 201, False,
     ["period 4 does not reproduce the residues mod 3",
      "period 4 does not reproduce the residues mod 4",
      "period 6 does not reproduce the residues mod 5",
      "period 4 does not reproduce the residues mod 6",
      "period 8 does not reproduce the residues mod 8"]),
    ("sieve-soundness", 600, True, []),
]


def test_failures_are_counted_and_reported(monkeypatch):
    values_up_to = ballab.verify.values_up_to
    residue_range = ballab.verify.residue_range

    def corrupt_values(kind, hi):
        return [v + 1 if i in CORRUPT else v for i, v in enumerate(values_up_to(kind, hi))]

    def corrupt_residues(kind, hi, modulus):
        return [(v + 1) % modulus if i in CORRUPT else v
                for i, v in enumerate(residue_range(kind, hi, modulus))]

    monkeypatch.setattr(ballab.verify, "values_up_to", corrupt_values)
    monkeypatch.setattr(ballab.verify, "residue_range", corrupt_residues)
    got = [(r.name, r.checked, r.passed, r.failures) for r in run_suite("all", 60)]
    assert got == CORRUPTED_RESULTS


def test_gcd_laws_decide_coprime_cases_by_class(monkeypatch):
    # On the true sequences every class product gcd is 1, so the only other
    # gcd calls are the pair-by-pair cases whose expected gcd is C_gcd(n, m):
    # two calls each, one for the values and one for their indices.
    calls = []

    def counted_gcd(x, y):
        calls.append((x, y))
        return gcd(x, y)

    monkeypatch.setattr(ballab.verify, "gcd", counted_gcd)
    max_n = 64
    classes = max_n.bit_length()  # v_2(n) = 0..6 for 1 <= n <= 64
    v2 = {n: (n & -n).bit_length() - 1 for n in range(1, max_n + 1)}
    lower = sum(v2[n] > v2[m] for n in v2 for m in v2)
    same = sum(v2[n] == v2[m] for n in v2 for m in v2 if n <= m)
    for check, per_pair in ((ballab.verify.check_gcd_mixed, lower),
                            (ballab.verify.check_gcd_lucas, same)):
        calls.clear()
        assert check(max_n).passed
        assert len(calls) == classes + 2 * per_pair, check.__name__
