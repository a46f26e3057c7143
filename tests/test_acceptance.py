"""Acceptance gate: every criterion at its stated bound, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; each test asserts the exact expected outcome (zero tolerance on the
solution sets) and the stated time budget where one is given.
"""

import json
import random
import time

import pytest

from ballab.bigmath import integer_kth_root
from ballab.cli import canonical_json, main as cli_main
from ballab.diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    _maybe_decompose,
    oracle_search,
    search_cube_sum,
    search_product_form,
    search_special_form,
    search_square_diff,
    search_sum_power,
)
from ballab.sequences import SequenceKind, values_up_to
from ballab.verify import check_closed_form, check_mod9_table, check_two_adic, identity_suite


def report(criterion, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def solutions(records):
    return [(r.n, r.m, r.x, r.exponent, r.family_min_exponent) for r in records]


def test_01_sum_power_reproduction(capsys):
    started = time.perf_counter()
    cfg = SearchConfig(max_index=150, min_exponent=2, parity_filter=Parity.SAME)
    records = search_sum_power(cfg)
    elapsed = time.perf_counter() - started
    assert solutions(records) == [(3, 1, 6, 2, None)]
    assert elapsed < 10.0
    # the CLI gate agrees and reports the bound in its claims block
    code = cli_main(["search", "sum-power", "--parity", "same",
                     "--max-index", "150", "--min-exp", "2"])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["claims"]["verdict"] == "MATCH"
    assert "indices <= 150" in summary["claims"]["bound"]
    report("01 sum-power = x^q, same parity, n <= 150", elapsed)


def test_02_square_diff_reproduction():
    started = time.perf_counter()
    cfg = SearchConfig(max_index=120, coprimality_required=True, coprime_zero_exempt=True)
    records = search_square_diff(cfg)
    elapsed = time.perf_counter() - started
    assert solutions(records) == [(1, 0, 1, None, 2), (2, 0, 6, 2, None)]
    assert elapsed < 10.0
    report("02 square-diff = x^q, n <= 120", elapsed)


def test_03_cube_sum_reproduction():
    started = time.perf_counter()
    cfg = SearchConfig(max_index=100, min_exponent=3, coprimality_required=True,
                       coprime_zero_exempt=False)
    plus = search_cube_sum(cfg, "+")
    minus = search_cube_sum(cfg, "-")
    elapsed = time.perf_counter() - started
    assert solutions(plus) == [(1, 0, 1, None, 3)]
    assert solutions(minus) == [(1, 0, 1, None, 3)]
    assert elapsed < 10.0
    report("03 cube-sum +/- = x^q, n <= 100", elapsed)


def test_04_product_form_reproduction():
    started = time.perf_counter()
    records = search_product_form(SearchConfig(max_index=80))
    elapsed = time.perf_counter() - started
    assert [(r.n, r.m, r.two_exponent, r.x, r.exponent) for r in records] == \
        [(2, 1, 1, 3, 2)]
    assert 2 ** 1 * 3 ** 2 == 18  # the lone hit is B_2 * C_1 = 18
    report("04 product form B_N*C_M = 2^p x^q, N, M <= 80", elapsed)


def test_05_special_form_scans():
    started = time.perf_counter()
    cfg = SearchConfig(max_index=120)
    b2 = search_special_form(SequenceKind.BALANCING, 2, cfg)
    b3 = search_special_form(SequenceKind.BALANCING, 3, cfg)
    c2 = search_special_form(SequenceKind.LUCAS_BALANCING, 2, cfg)
    c3 = search_special_form(SequenceKind.LUCAS_BALANCING, 3, cfg)
    elapsed = time.perf_counter() - started
    assert [r.n for r in b2] == [1]
    assert [r.n for r in b3] == [1]
    assert c2 == []
    assert all(r.n < 2 for r in c3) and [r.n for r in c3] == [1]
    report("05 special forms 2^s x^b / 3^s x^b, n <= 120", elapsed)


def test_06_identity_suite():
    started = time.perf_counter()
    checks = identity_suite(200)
    elapsed = time.perf_counter() - started
    for c in checks:
        assert c.passed and c.checked > 0, f"{c.name}: {c.failures}"
    report("06 identity suite, n, m <= 200", elapsed)


def test_07_closed_form_agreement():
    started = time.perf_counter()
    b = values_up_to(SequenceKind.BALANCING, 500)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, 500)
    result = check_closed_form(500, b, c)
    elapsed = time.perf_counter() - started
    assert result.passed and result.checked == 501
    assert elapsed < 5.0
    report("07 closed form vs recurrence, n <= 500", elapsed)


def test_08_modular_laws():
    started = time.perf_counter()
    mod9 = check_mod9_table(600)
    adic = check_two_adic(256)
    elapsed = time.perf_counter() - started
    assert mod9.passed and mod9.checked == 601
    assert adic.passed and adic.checked == 256 * 8
    report("08 mod-9 table to 600 and 2-adic law to 256", elapsed)


def test_09_oracle_equivalence():
    started = time.perf_counter()
    setups = [
        (EquationTag.SUM_POWER, search_sum_power,
         SearchConfig(max_index=40, parity_filter=Parity.SAME)),
        (EquationTag.SUM_POWER, search_sum_power, SearchConfig(max_index=40)),
        (EquationTag.SQUARE_DIFF, search_square_diff,
         SearchConfig(max_index=40, coprimality_required=True)),
        (EquationTag.CUBE_SUM_PLUS, lambda c: search_cube_sum(c, "+"),
         SearchConfig(max_index=40, min_exponent=3, coprimality_required=True,
                      coprime_zero_exempt=False)),
        (EquationTag.CUBE_SUM_MINUS, lambda c: search_cube_sum(c, "-"),
         SearchConfig(max_index=40, min_exponent=3, coprimality_required=True,
                      coprime_zero_exempt=False)),
    ]
    for tag, fn, cfg in setups:
        fast = canonical_json([r.to_dict() for r in fn(cfg)])
        slow = canonical_json([r.to_dict() for r in oracle_search(tag, cfg)])
        assert fast == slow, f"{tag.value} diverges from the oracle"
    elapsed = time.perf_counter() - started
    report("09 oracle equivalence, every tag, max index 40", elapsed)


def brute_power_decompose(n):
    base, exponent = n, 1
    for q in range(2, n.bit_length()):
        r = integer_kth_root(n, q)
        if r ** q == n:
            base, exponent = r, q
    return base, exponent


def test_10_perfect_power_engine():
    # the searches' power test; None reads as exponent 1
    started = time.perf_counter()
    disagreements = 0
    for n in range(2, 10_001):
        if (_maybe_decompose(n) or (n, 1)) != brute_power_decompose(n):
            disagreements += 1
    rng = random.Random(20260809)
    samples = [rng.randrange(10_001, 10 ** 6 + 1) for _ in range(3000)]
    # make sure actual powers above the dense range are represented
    for q in range(2, 20):
        x = 2
        while x ** q <= 10 ** 6:
            if x ** q > 10_000:
                samples.append(x ** q)
            x += 1
    for n in samples:
        if (_maybe_decompose(n) or (n, 1)) != brute_power_decompose(n):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    report("10 perfect-power engine vs brute force to 10^6", elapsed)

