from math import gcd, lcm

import pytest

import ballab.verify
import refmath
from ballab import cli
from ballab.modular import PeriodResult, period, residue_range
from ballab.sequences import SequenceKind, values_up_to
from ballab.verify import (
    MOD9_TABLE,
    OFF_WALK,
    CheckResult,
    check_mod9_table,
    check_period_consistency,
    check_sieve_soundness,
    check_two_adic,
    check_unit_norm,
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


def _zero_not_restart(max_mu):
    # B_2 = 6 is 0 mod 3 but B_3 = 35 is 2 mod 3: a zero that is no restart
    return lambda mu: PeriodResult(3, 2, 4) if mu == 3 else period(mu), residue_range


def _period_plus_one(max_mu):
    def later_period(mu):
        t = period(mu).period + 1
        return PeriodResult(mu, t, 2 * t)

    return later_period, residue_range


def _stream_off_at_top(max_mu):
    # B_{2T} one off, T the largest period: every (B_t, B_{t+1}) stays intact
    top = 2 * max((period(mu).period for mu in range(2, max_mu + 1)), default=0)

    def corrupt_residues(kind, hi, modulus):
        out = residue_range(kind, hi, modulus)
        if hi >= top:
            out[top] = (out[top] + 1) % modulus
        return out

    return period, corrupt_residues


# fault -> (max_mu -> the period and residue_range both sides read), and the
# least max_mu at which the check fails
PERIOD_FAULTS = {
    "sound": (lambda max_mu: (period, residue_range), None),
    "zero-not-restart": (_zero_not_restart, 3),
    "period-plus-one": (_period_plus_one, 2),
    "stream-off-at-top": (_stream_off_at_top, 2),
}


@pytest.mark.parametrize("max_mu", [1, 2, 3, 30, 200, 1000])
@pytest.mark.parametrize("fault", PERIOD_FAULTS)
def test_period_consistency_matches_per_modulus_walks(monkeypatch, fault, max_mu):
    # the one walk mod the lcm, settled by its premise where that holds,
    # against one walk to 2t per modulus, under the same period and stream
    faults, fails_from = PERIOD_FAULTS[fault]
    period_of, residues = faults(max_mu)
    monkeypatch.setattr(ballab.verify, "period", period_of)
    monkeypatch.setattr(ballab.verify, "residue_range", residues)
    got = check_period_consistency(max_mu)
    assert got.to_dict() == refmath.check_period_consistency(max_mu, period_of, residues).to_dict()
    assert got.passed is (fails_from is None or max_mu < fails_from)


def test_period_consistency_walks_once(monkeypatch):
    calls = []

    def counted_residues(kind, hi, modulus):
        calls.append((kind, hi, modulus))
        return residue_range(kind, hi, modulus)

    monkeypatch.setattr(ballab.verify, "residue_range", counted_residues)
    assert check_period_consistency(200).passed
    # 182 = period(181), the largest period of a modulus up to 200
    assert calls == [(SequenceKind.BALANCING, 2 * 182, lcm(*range(2, 201)))]


def test_sieve_soundness_is_seeded():
    assert check_sieve_soundness().to_dict() == check_sieve_soundness().to_dict()


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


@pytest.mark.parametrize("r", [0, 5, 11])
def test_mod9_table_reports_a_wrong_entry(monkeypatch, r):
    table = list(MOD9_TABLE)
    table[r] = (table[r] + 1) % 9
    monkeypatch.setattr(ballab.verify, "MOD9_TABLE", tuple(table))
    got = check_mod9_table(61)
    assert (got.passed, got.checked) == (False, 62)
    assert got.failures == [f"mod-9 table wrong at n={n}" for n in range(r, r + 60, 12)]


@pytest.mark.parametrize("n, residue", [
    (3, 0), (7, 2), (96, 0), (96, 64), (128, 0), (256, 128), (256, 1), (512, 0), (768, 2)])
def test_two_adic_decides_a_corrupted_index_case_by_case(monkeypatch, n, residue):
    # B_n mod 2**8 replaced by residue; the result must be the per-case
    # loop's over the same residues, including where v_2 differs only at 2**8
    def corrupt_residues(kind, hi, modulus):
        out = residue_range(kind, hi, modulus)
        out[n] = residue
        return out

    b = corrupt_residues(SequenceKind.BALANCING, 1000, 1 << 8)
    failures = [f"2^{k} | B_{i} does not match 2^{k} | {i}"
                for i in range(1, 1001) for k in range(1, 9)
                if (b[i] % (1 << k) == 0) != (i % (1 << k) == 0)]
    monkeypatch.setattr(ballab.verify, "residue_range", corrupt_residues)
    got = check_two_adic(1000)
    assert (got.passed, got.failures) == (not failures, failures[:5])


# Indices whose values are corrupted (by +1) in every sequence and residue
# stream the suites read, so that each check meets failing cases.
CORRUPT = {7, 9, 12, 13, 20, 21, 30}

# run_suite("all", 60) under that corruption: (name, checked, passed,
# failures); the premise-settled checks fail with OFF_WALK alone
CORRUPTED_RESULTS = [
    ("half-index-sum", 961, False, [OFF_WALK]),
    ("half-index-diff", 961, False, [OFF_WALK]),
    ("pell-product", 61, False, [OFF_WALK]),
    ("index-doubling", 61, False, [OFF_WALK]),
    ("square-plus-one", 61, False, [OFF_WALK]),
    ("addition-formula", 3721, False, [OFF_WALK]),
    ("lucas-odd", 61, False, [OFF_WALK]),
    ("closed-form-agreement", 61, False,
     ["closed form disagrees at n=7", "closed form disagrees at n=9",
      "closed form disagrees at n=12", "closed form disagrees at n=13",
      "closed form disagrees at n=20"]),
    ("unit-norm", 61, True, []),
    ("gcd-balancing", 3600, False, [OFF_WALK]),
    ("gcd-lucas", 3600, False, [OFF_WALK]),
    ("gcd-mixed", 3600, False, [OFF_WALK]),
    ("pell-coprime", 60, False, [OFF_WALK]),
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


def test_unit_norm_reports_a_non_unit(monkeypatch):
    # 3 + sqrt(2) has norm 7, so every power past the zeroth fails
    monkeypatch.setattr(ballab.verify, "ALPHA", (3, 1))
    result = check_unit_norm(30)
    assert (result.checked, result.passed) == (31, False)
    assert result.failures == [f"norm(alpha^{n}) != 1" for n in range(1, 6)]


KINDS = (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING, SequenceKind.PELL,
         SequenceKind.ASSOCIATED_PELL)


@pytest.mark.parametrize("suite, b_hi", [(identity_suite, 2 * 40), (gcd_suite, 40)])
def test_each_suite_reads_each_sequence_once_and_walks_them_once(monkeypatch, suite, b_hi):
    reads, walks = [], []
    pell_steps = ballab.verify._pell_steps

    def counted_values(kind, hi):
        reads.append((kind, hi))
        return values_up_to(kind, hi)

    def counted_walk(*terms):
        walks.append(tuple(map(len, terms)))
        return pell_steps(*terms)

    monkeypatch.setattr(ballab.verify, "values_up_to", counted_values)
    monkeypatch.setattr(ballab.verify, "_pell_steps", counted_walk)
    assert_all_green(suite(40))
    assert reads == list(zip(KINDS, (b_hi, 40, 40, 40)))
    assert walks == [(b_hi + 1, 41, 41, 41)]


# each suite's checks that read no term: its walk settles them
SETTLED = {identity_suite: ("half-index-sum", "half-index-diff", "pell-product", "index-doubling",
                            "square-plus-one", "addition-formula", "lucas-odd"),
           gcd_suite: ("gcd-balancing", "gcd-lucas", "gcd-mixed", "pell-coprime")}


@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 70, 200])
@pytest.mark.parametrize("suite", SETTLED, ids=lambda suite: suite.__name__)
def test_settled_checks_match_their_references(suite, max_n):
    # each settled check's bound and arithmetic count, and its pass, against
    # refmath's sweep of every case on the true terms, one at a time
    got = {r.name: r.to_dict() for r in suite(max_n)}
    for name in SETTLED[suite]:
        want = getattr(refmath, "check_" + name.replace("-", "_"))(max_n).to_dict()
        assert got[name] == want, name


def test_the_walk_holds_at_the_ceiling():
    # every accepted --max-n reads a prefix of these terms, so no accepted
    # verify run meets OFF_WALK
    n = cli.MAX_VERIFY_N
    b = values_up_to(SequenceKind.BALANCING, 2 * n)
    assert ballab.verify._pell_steps(b, *(values_up_to(kind, n) for kind in KINDS[1:]))


def euclid_end(x, n, y, m):
    """Where the index walk of the verify docstring takes gcd(x_n, y_m): (kind, g) or 1.

    x and y are "B" or "C".  The larger index is reduced by the smaller one,
    the term at the larger index changing kind as the four steps say, until
    one index is 0: B_0 = 0 leaves the other term, C_0 = 1 leaves 1.
    """
    while n and m:
        if n < m:
            x, n, y, m = y, m, x, n
        # gcd(B_{d+b}, B_b) -> (B_d, B_b); (C_{d+b}, C_b) -> (B_d, C_b);
        # (B_{d+b}, C_b) -> (C_d, C_b); (C_{d+b}, B_b) -> (C_d, B_b)
        x, n = "B" if x == y else "C", n - m
    if n:
        x, n, y, m = y, m, x, n
    return (y, m) if x == "B" else 1


def test_euclid_walk_on_indices_gives_the_three_gcd_laws():
    v2 = {n: (n & -n).bit_length() - 1 for n in range(1, 301)}
    for n in v2:
        for m in v2:
            g = gcd(n, m)
            assert euclid_end("B", n, "B", m) == ("B", g), (n, m)
            assert euclid_end("C", n, "C", m) == (("C", g) if v2[n] == v2[m] else 1), (n, m)
            assert euclid_end("B", n, "C", m) == (("C", g) if v2[n] > v2[m] else 1), (n, m)
