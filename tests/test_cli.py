import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from unittest import mock

import pytest

import ballab
import refmath
from ballab import cli
from ballab.modular import PeriodResult
from ballab.sequences import values_up_to


def run_cli(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def last_json_line(out):
    return json.loads(out.strip().splitlines()[-1])


# argparse's usage line at COLUMNS=80, which opens each usage error's stderr
USAGE = "usage: ballab [-h] {seq,term,verify,period,search,balancer} ...\n"


class TestSeq:
    def test_balancing_prefix(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "0", "--to", "5"])
        assert code == 0
        report = json.loads(out)
        assert [r["value"] for r in report["results"]] == ["0", "1", "6", "35", "204", "1189"]
        assert report["schema_version"] == 1

    def test_mod_nine_residues(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "0",
                                     "--to", "12", "--mod", "9"])
        assert code == 0
        values = [r["value"] for r in json.loads(out)["results"]]
        assert values == ["0", "1", "6", "8", "6", "1", "0", "8", "3", "1", "3", "8", "0"]

    def test_pell(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "pell", "--from", "0", "--to", "3"])
        assert code == 0
        assert [r["value"] for r in json.loads(out)["results"]] == ["0", "1", "2", "5"]

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "0",
                                     "--to", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["kind,index,value", "balancing,0,0",
                                    "balancing,1,1", "balancing,2,6"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLAB_FORMAT", "csv")
        code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "0",
                                     "--to", "1", "--format", "json"])
        assert code == 0
        assert out.startswith("{")

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["seq", "--kind", "pell", "--from", "5", "--to", "2"])
        assert code == 2

    def test_range_from_above_zero(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "pell", "--from", "2", "--to", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["results"] == [{"kind": "pell", "index": i, "value": v}
                                     for i, v in ((2, "2"), (3, "5"), (4, "12"))]
        assert report["config"] == {"kind": "pell", "from": 2, "to": 4, "mod": None}
        code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "2", "--to", "2",
                                     "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["kind,index,value", "balancing,2,6"]

    def test_bad_ranges_are_usage_errors(self, capsys):
        for lo, hi in (("3", "2"), ("-1", "2"), ("-3", "-5")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["seq", "--kind", "pell", "--from", lo, "--to", hi])
            assert exc.value.code == 2
            assert f"invalid range [{lo}, {hi}]" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["balancing", "lucas-balancing", "pell", "associated-pell"])
    def test_mod_reads_residues_equal_to_reduced_terms(self, capsys, kind):
        # seq --mod walks residues; each value must be the big term reduced
        terms = values_up_to(cli._KINDS[kind], 60)
        for mod in (1, 2, 7, 10 ** 9 + 7, 10 ** 30):
            for lo in (0, 1, 13, 60):
                code, out = run_cli(capsys, ["seq", "--kind", kind, "--from", str(lo),
                                             "--to", "60", "--mod", str(mod)])
                assert code == 0
                assert ([r["value"] for r in json.loads(out)["results"]]
                        == [str(v % mod) for v in terms[lo:]])

    @pytest.mark.parametrize("mod, ceiling, mode", [
        ([], 11_000, "without"), (["--mod", "7"], 10 ** 5, "with")])
    @pytest.mark.parametrize("over", [1, 10 ** 9])
    def test_to_above_ceiling_is_refused_up_front(self, capsys, mod, ceiling, mode, over):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["seq", "--kind", "pell", "--from", "0", "--to", str(ceiling + over), *mod])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert (f"--to must be <= {ceiling} {mode} --mod, got {ceiling + over}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mod, ceiling", [([], 11_000), (["--mod", "7"], 10 ** 5)])
    def test_to_at_ceiling_is_accepted(self, capsys, monkeypatch, mod, ceiling):
        # the sequences are stubbed: only the bound check runs
        monkeypatch.setattr(cli, "values_up_to", lambda kind, hi: [7] * (hi + 1))
        monkeypatch.setattr(cli, "residue_range", lambda kind, hi, m: [7] * (hi + 1))
        code, out = run_cli(capsys, ["seq", "--kind", "pell", "--from", str(ceiling),
                                     "--to", str(ceiling), *mod])
        assert code == 0
        assert json.loads(out)["results"] == [
            {"kind": "pell", "index": ceiling, "value": "7"}]

    @pytest.mark.parametrize("mod", [cli.MAX_SEQ_MOD + 1, 10 ** 1000])
    def test_mod_above_ceiling_is_refused_up_front(self, capsys, monkeypatch, mod):
        def unreachable(*args):
            raise AssertionError("residues computed past the --mod ceiling")

        monkeypatch.setattr(cli, "residue_range", unreachable)
        with pytest.raises(SystemExit) as exc:
            cli.main(["seq", "--kind", "balancing", "--from", "0", "--to", "10",
                      "--mod", str(mod)])
        assert exc.value.code == 2
        assert f"--mod must be <= {cli.MAX_SEQ_MOD}, got {mod}" in capsys.readouterr().err

    def test_mod_at_ceiling_is_accepted(self, capsys):
        code, out = run_cli(capsys, ["seq", "--kind", "pell", "--from", "0", "--to", "60",
                                     "--mod", str(cli.MAX_SEQ_MOD)])
        assert code == 0
        p, q = 0, 1
        for r in json.loads(out)["results"]:
            assert int(r["value"]) == p % cli.MAX_SEQ_MOD, r
            p, q = q, 2 * q + p

    def test_rows_are_the_bytes_of_one_dict_per_term(self, capsys):
        # seq formats its rows itself; refmath.seq_output builds one dict per
        # term and one json.dumps, as seq did before, and the two must agree
        # byte for byte on drawn ranges, moduli and formats
        rng = random.Random(41)
        draws = [("balancing", 0, 0, 1, "json"), ("pell", 7, 7, None, "json"),
                 ("lucas-balancing", 300, 300, 1, "csv"), ("associated-pell", 0, 0, None, "csv")]
        for _ in range(60):
            lo = rng.randrange(400)
            hi = lo + rng.choice((0, rng.randrange(400)))
            mod = rng.choice((None, 1, 2, 9, 1000003, 10 ** 30, rng.randrange(1, 10 ** 30)))
            draws.append((rng.choice(sorted(cli._KINDS)), lo, hi, mod, rng.choice(("json", "csv"))))
        for kind, lo, hi, mod, fmt in draws:
            argv = ["seq", "--kind", kind, "--from", str(lo), "--to", str(hi), "--format", fmt]
            code, out = run_cli(capsys, argv + ([] if mod is None else ["--mod", str(mod)]))
            assert code == 0
            out = re.sub(r'"runtime_ms":\d+', '"runtime_ms":0', out)
            assert out == refmath.seq_output(kind, lo, hi, mod, fmt), argv


class TestTerm:
    def test_large_index_uses_closed_form(self, capsys):
        code, out = run_cli(capsys, ["term", "--kind", "balancing", "--index", "100"])
        assert code == 0
        value = int(json.loads(out)["results"][0]["value"])
        # cross-check with plain iteration
        a, b = 0, 1
        for _ in range(99):
            a, b = b, 6 * b - a
        assert value == b

    @pytest.mark.parametrize("index", [cli.MAX_TERM_INDEX + 1, 10 ** 9])
    def test_index_above_ceiling_is_refused_up_front(self, capsys, index):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["term", "--kind", "balancing", "--index", str(index)])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert (f"--index must be <= {cli.MAX_TERM_INDEX}, got {index}"
                in capsys.readouterr().err)

    def test_index_at_ceiling_is_accepted(self, capsys, monkeypatch):
        # the closed form itself is stubbed: only the bound check runs
        monkeypatch.setattr(cli, "term", lambda kind, n: 7)
        code, out = run_cli(capsys, ["term", "--kind", "pell", "--index",
                                     str(cli.MAX_TERM_INDEX)])
        assert code == 0
        assert json.loads(out)["results"] == [
            {"kind": "pell", "index": cli.MAX_TERM_INDEX, "value": "7"}]


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "identities", "--max-n", "50"])
        assert code == 0
        report = json.loads(out)
        assert all(r["passed"] for r in report["results"])

    def test_gcd_pass(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "gcd", "--max-n", "40"])
        assert code == 0

    def test_modular_pass(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "modular", "--max-n", "60"])
        assert code == 0

    @pytest.mark.parametrize("suite", ["identities", "gcd", "modular", "all"])
    def test_timings_have_one_key_per_result(self, capsys, suite):
        code, out = run_cli(capsys, ["verify", "--suite", suite, "--max-n", "12"])
        assert code == 0
        report = json.loads(out)
        names = [r["name"] for r in report["results"]]
        # canonical JSON sorts object keys, so the map reads in name order
        assert list(report["timings_ms"]) == sorted(names)
        assert len(names) == len(set(names))
        assert all(isinstance(ms, (int, float)) and ms >= 0
                   for ms in report["timings_ms"].values())
        assert "timings_ms" not in report["results"][0]

    def test_bad_suite_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["verify", "--suite", "bogus", "--max-n", "10"])
        assert code == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from ballab.verify import CheckResult

        def broken_suite(name, max_n):
            return [CheckResult(name="forced", bound="n/a", checked=1,
                                passed=False, failures=["forced failure"])]

        monkeypatch.setattr(cli, "run_suite", broken_suite)
        code, out = run_cli(capsys, ["verify", "--suite", "gcd", "--max-n", "5"])
        assert code == 1
        assert json.loads(out)["results"][0]["passed"] is False

    @pytest.mark.parametrize("suite, ceiling", [
        ("identities", 5000), ("gcd", 5000), ("all", 5000), ("modular", 10 ** 6)])
    def test_max_n_above_ceiling_is_refused_up_front(self, capsys, suite, ceiling):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", suite, "--max-n", str(ceiling + 1)])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert (f"--max-n must be <= {ceiling} for --suite {suite}, got {ceiling + 1}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("suite, ceiling", [
        ("identities", 5000), ("gcd", 5000), ("all", 5000), ("modular", 10 ** 6)])
    def test_max_n_at_ceiling_is_accepted(self, capsys, monkeypatch, suite, ceiling):
        # the suites themselves are stubbed: only the bound check runs
        monkeypatch.setattr(cli, "run_suite", lambda name, max_n: [])
        code, out = run_cli(capsys, ["verify", "--suite", suite, "--max-n", str(ceiling)])
        assert code == 0
        assert json.loads(out)["config"] == {"suite": suite, "max_n": ceiling}


class TestPeriod:
    def test_mod_nine(self, capsys):
        code, out = run_cli(capsys, ["period", "--mod", "9"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["modulus"] == 9 and result["period"] == 12

    def test_mod_above_ceiling_is_refused_up_front(self, capsys):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["period", "--mod", str(cli.MAX_PERIOD_MOD + 1)])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert (f"--mod must be <= {cli.MAX_PERIOD_MOD}, got {cli.MAX_PERIOD_MOD + 1}"
                in capsys.readouterr().err)

    def test_mod_at_ceiling_is_accepted(self, capsys, monkeypatch):
        # the walk itself is stubbed: only the bound check runs
        monkeypatch.setattr(cli, "period", lambda mod: PeriodResult(mod, 1, 2))
        code, out = run_cli(capsys, ["period", "--mod", str(cli.MAX_PERIOD_MOD)])
        assert code == 0
        assert json.loads(out)["config"] == {"modulus": cli.MAX_PERIOD_MOD}


class TestBalancer:
    def test_balancing_number(self, capsys):
        code, out = run_cli(capsys, ["balancer", "--value", "6"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result == {"value": "6", "is_balancing": True, "balancer": "2"}

    def test_non_balancing_number(self, capsys):
        code, out = run_cli(capsys, ["balancer", "--value", "5"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["is_balancing"] is False and result["balancer"] is None


# Each published solution set: the flags its hypotheses need beyond the
# defaults, and its least --max-index, the largest n among its records.
PUBLISHED = {
    "sum-power": (["--parity", "same"], 3),
    "square-diff": ([], 2),
    "cube-sum-plus": ([], 1),
    "cube-sum-minus": ([], 1),
    "product-form": ([], 2),
}


class TestSearch:
    @pytest.mark.parametrize("eq, max_index", [
        ("sum-power", 40), ("square-diff", 30), ("cube-sum-plus", 25), ("cube-sum-minus", 25),
        ("product-form", 30), *((eq, least) for eq, (_, least) in PUBLISHED.items()),
    ])
    def test_claims_match(self, capsys, eq, max_index):
        flags, _ = PUBLISHED[eq]
        code, out = run_cli(capsys, ["search", eq, "--max-index", str(max_index), *flags])
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["exploratory"] is False
        claims = summary["claims"]
        assert claims["verdict"] == "MATCH"
        # the record lines, less their equation and bounds, are the published records
        records = [json.loads(l) for l in lines[:-1]]
        assert [{k: v for k, v in r.items() if k not in ("equation", "bounds")}
                for r in records] == claims["expected"]
        assert f"indices <= {max_index};" in claims["bound"]
        assert summary["config"]["min_exponent"] == (3 if eq.startswith("cube") else 2)
        assert ("note" in summary) is (eq == "square-diff")  # zero-exemption convention

    @pytest.mark.parametrize("eq", [eq for eq, (_, least) in PUBLISHED.items() if least > 1])
    def test_below_least_bound_is_exploratory(self, capsys, eq):
        flags, least = PUBLISHED[eq]
        code, out = run_cli(capsys, ["search", eq, "--max-index", str(least - 1), *flags])
        assert code == 0
        summary = last_json_line(out)
        assert summary["claims"] is None and summary["exploratory"] is True

    def test_special_form_has_no_claims(self, capsys):
        code, out = run_cli(capsys, ["search", "special-form", "--max-index", "30",
                                     "--kind", "lucas-balancing", "--prime", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["claims"] is None and summary["exploratory"] is True
        record = json.loads(lines[0])
        assert record == {"kind": "lucas-balancing", "prime": 3, "n": 1, "s": 1,
                          "x": "1", "b_family_min": 2}

    @pytest.mark.parametrize("kind, prime, lines", [
        ("balancing", "239",
         ['{"b_family_min":2,"kind":"balancing","n":1,"prime":239,"s":0,"x":"1"}',
          '{"b":2,"kind":"balancing","n":7,"prime":239,"s":1,"x":"13"}']),
        ("lucas-balancing", "11",
         ['{"b":2,"kind":"lucas-balancing","n":3,"prime":11,"s":1,"x":"3"}']),
    ], ids=["balancing-239", "lucas-balancing-11"])
    def test_special_form_prints_exponent_records(self, capsys, kind, prime, lines):
        # B_7 = 239 * 13**2 and C_3 = 11 * 3**2: records with x > 1 carry b
        code, out = run_cli(capsys, ["search", "special-form", "--max-index", "60",
                                     "--kind", kind, "--prime", prime])
        assert code == 0
        assert out.splitlines()[:-1] == lines
        assert last_json_line(out)["result_count"] == len(lines)

    def test_claims_mismatch_exits_one(self, capsys, monkeypatch):
        # a search that misses the published solution: the verdict says so
        monkeypatch.setattr(cli, "search_pair", lambda tag, cfg: [])
        code, out = run_cli(capsys, ["search", "sum-power", "--parity", "same",
                                     "--max-index", "5"])
        assert code == 1
        assert len(out.splitlines()) == 1
        claims = last_json_line(out)["claims"]
        assert claims["verdict"] == "MISMATCH" and claims["found"] == []
        assert claims["expected"] == [{"n": 3, "m": 1, "x": "6", "q": 2}]

    @pytest.mark.parametrize("argv", [
        ["sum-power", "--parity", "opposite"], ["sum-power"],
        ["sum-power", "--parity", "same", "--coprime"],
        ["sum-power", "--parity", "same", "--min-exp", "3"],
        ["square-diff", "--no-coprime-zero-exempt"], ["square-diff", "--min-exp", "3"],
        ["square-diff", "--parity", "same"], ["cube-sum-plus", "--coprime-zero-exempt"],
        ["cube-sum-minus", "--min-exp", "4"], ["product-form", "--min-exp", "3"],
    ], ids=" ".join)
    def test_off_hypothesis_is_exploratory(self, capsys, argv):
        # one value off the published statement: a filtered grid or another
        # exponent cannot be compared against the full solution list
        code, out = run_cli(capsys, ["search", *argv, "--max-index", "30"])
        assert code == 0
        summary = last_json_line(out)
        assert summary["claims"] is None and summary["exploratory"] is True

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["search", "square-diff", "--max-index", "25"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        records1 = out1.strip().splitlines()[:-1]
        records2 = out2.strip().splitlines()[:-1]
        assert records1 == records2

    def test_workers_flag(self, capsys):
        # --workers is still parsed but has no effect: every search runs serially
        argv = ["search", "product-form", "--max-index", "25"]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv + ["--workers", "2"])
        assert code1 == code2 == 0
        records = out1.strip().splitlines()[:-1]
        assert records and out2.strip().splitlines()[:-1] == records
        assert "workers" not in last_json_line(out2)["config"]

    def test_cube_with_small_exponent_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["search", "cube-sum-plus", "--max-index", "20",
                                   "--min-exp", "2"])
        assert code == 2

    def test_no_coprime_on_square_diff_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["search", "square-diff", "--max-index", "20",
                                   "--no-coprime"])
        assert code == 2

    def test_special_form_requires_kind(self, capsys):
        code, _ = run_cli(capsys, ["search", "special-form", "--max-index", "20"])
        assert code == 2

    def test_kind_rejected_elsewhere(self, capsys):
        code, _ = run_cli(capsys, ["search", "sum-power", "--max-index", "20",
                                   "--kind", "balancing"])
        assert code == 2

    def test_composite_prime_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["search", "special-form", "--max-index", "20",
                                   "--kind", "balancing", "--prime", "6"])
        assert code == 2

    def test_prime_above_ceiling_is_refused_up_front(self, capsys):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "special-form", "--max-index", "5",
                      "--kind", "balancing", "--prime", str((1 << 61) - 1)])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert "--prime must be <= 2147483647" in capsys.readouterr().err

    def test_prime_at_ceiling_is_accepted(self, capsys):
        code, out = run_cli(capsys, ["search", "special-form", "--max-index", "5",
                                     "--kind", "balancing", "--prime", str(cli.MAX_PRIME)])
        assert code == 0
        assert last_json_line(out)["config"]["prime"] == cli.MAX_PRIME

    @pytest.mark.parametrize("eq", cli._SEARCH_EQUATIONS)
    def test_max_index_above_ceiling_is_refused_up_front(self, capsys, monkeypatch, eq):
        monkeypatch.setenv("COLUMNS", "80")
        over = cli.MAX_SEARCH_INDEX[eq] + 1
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", eq, "--max-index", str(over)])
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            USAGE + f"ballab: error: --max-index must be <= {over - 1} for {eq}, got {over}\n")

    @pytest.mark.parametrize("eq, flags", [
        ("sum-power", []), ("square-diff", ["--parity", "same"]),
        ("cube-sum-plus", ["--parity", "same"]), ("cube-sum-minus", ["--parity", "same"]),
        ("product-form", ["--min-exp", "3"]), ("special-form", ["--kind", "balancing"]),
    ], ids=["sum-power", "square-diff", "cube-sum-plus", "cube-sum-minus", "product-form",
            "special-form"])
    def test_max_index_at_ceiling_is_accepted(self, capsys, monkeypatch, eq, flags):
        # the searches are stubbed: only the bound check runs (flags that
        # attach no claims block, which an empty result would not match)
        for name in ("search_pair", "search_product_form", "search_special_form"):
            monkeypatch.setattr(cli, name, lambda *args: [])
        ceiling = cli.MAX_SEARCH_INDEX[eq]
        code, out = run_cli(capsys, ["search", eq, "--max-index", str(ceiling), *flags])
        assert code == 0
        assert last_json_line(out)["config"]["max_index"] == ceiling

    def test_csv_not_available_for_search(self, capsys):
        code, _ = run_cli(capsys, ["search", "sum-power", "--max-index", "20",
                                   "--format", "csv"])
        assert code == 2

    def test_parity_rejected_for_product_form(self, capsys):
        code, _ = run_cli(capsys, ["search", "product-form", "--max-index", "20",
                                   "--parity", "same"])
        assert code == 2


@pytest.mark.parametrize("argv, flag, lo", [
    (["seq", "--kind", "pell", "--from", "0", "--to", "2", "--mod", "0"], "--mod", 1),
    (["term", "--kind", "pell", "--index", "-1"], "--index", 0),
    (["verify", "--suite", "gcd", "--max-n", "0"], "--max-n", 1),
    (["period", "--mod", "1"], "--mod", 2),
    (["balancer", "--value", "0"], "--value", 1),
    (["search", "sum-power", "--max-index", "0"], "--max-index", 1),
    (["search", "sum-power", "--max-index", "5", "--min-exp", "1"], "--min-exp", 2),
], ids=["seq-mod", "term-index", "verify-max-n", "period-mod", "balancer-value",
        "search-max-index", "search-min-exp"])
def test_below_floor_is_usage_error(capsys, argv, flag, lo):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"\nballab: error: {flag} must be >= {lo}\n")


def test_output_contract_without_sieve_switch_or_format_env(capsys, monkeypatch):
    # The residue sieve always runs and record bounds and summary configs
    # report sieve_enabled: true; --no-sieve is a usage error, and
    # BALLAB_FORMAT is not read, so --format alone picks the output format.
    searches = (["sum-power", "--max-index", "20", "--parity", "same"],
                ["square-diff", "--max-index", "20"],
                ["cube-sum-plus", "--max-index", "10"],
                ["product-form", "--max-index", "10"],
                ["special-form", "--kind", "balancing", "--max-index", "20"])
    for argv in searches:
        code, out = run_cli(capsys, ["search", *argv])
        assert code == 0
        *records, summary = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        assert all(r["bounds"]["sieve_enabled"] is True for r in records if "bounds" in r)
        assert summary["config"]["sieve_enabled"] is True
        code, _ = run_cli(capsys, ["search", *argv, "--no-sieve"])
        assert code == 2
    monkeypatch.setenv("BALLAB_FORMAT", "csv")
    code, out = run_cli(capsys, ["seq", "--kind", "balancing", "--from", "0", "--to", "1"])
    assert code == 0
    assert json.loads(out)["command"] == "seq"


CLI_SURFACE = {
    "seq": ["--format", "--from", "--kind", "--mod", "--to"],
    "term": ["--index", "--kind"],
    "verify": ["--max-n", "--suite"],
    "period": ["--mod"],
    "search": ["--coprime", "--coprime-zero-exempt", "--kind", "--max-index", "--min-exp",
               "--no-coprime", "--no-coprime-zero-exempt", "--parity", "--prime", "--workers",
               "equation"],
    "balancer": ["--value"],
}


def test_cli_surface():
    # Every subcommand's exact options (positionals by name); a new knob has
    # to be added here on purpose.
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, subparser in sub.choices.items():
        names = []
        for action in subparser._actions:
            if not isinstance(action, argparse._HelpAction):
                names += action.option_strings or [action.dest]
        surface[name] = sorted(names)
    assert surface == CLI_SURFACE


# Lines main() parses without argparse: valid calls and handler-level usage
# errors.
FAST_PATH_CORPUS = (
    ["seq", "--kind", "balancing", "--from", "0", "--to", "5"],
    ["seq", "--kind", "pell", "--from", "2", "--to", "4", "--mod", "9", "--format", "csv"],
    ["term", "--kind", "lucas-balancing", "--index", "10"],
    ["verify", "--suite", "modular", "--max-n", "5"],
    ["period", "--mod", "10"],
    ["search", "sum-power", "--max-index", "10", "--parity", "same"],
    ["search", "cube-sum-minus", "--max-index", "8", "--no-coprime-zero-exempt"],
    ["search", "product-form", "--max-index", "8", "--workers", "2"],
    ["search", "special-form", "--kind", "balancing", "--prime", "3", "--max-index", "20"],
    ["balancer", "--value", "35"],
    ["search", "--max-index", "6", "--coprime", "sum-power", "--no-coprime", "--max-index", "7"],
    ["seq", "--kind", "pell", "--from", "5", "--to", "2"],
    ["term", "--kind", "pell", "--index", " -1"],
    ["verify", "--suite", "gcd", "--max-n", "0"],
    ["verify", "--suite", "gcd", "--max-n", "5001"],
    ["verify", "--suite", "modular", "--max-n", "1000001"],
    ["period", "--mod", "1"],
    ["period", "--mod", "10000001"],
    ["balancer", "--value", "0"],
    ["search", "sum-power", "--max-index", "0"],
    ["search", "cube-sum-plus", "--max-index", "5", "--min-exp", "2"],
    ["search", "square-diff", "--max-index", "5", "--no-coprime"],
    ["search", "special-form", "--max-index", "5"],
    ["search", "special-form", "--kind", "balancing", "--prime", "4", "--max-index", "5"],
    ["search", "product-form", "--max-index", "5", "--parity", "same"],
    ["search", "sum-power", "--max-index", "5", "--kind", "balancing"],
)

# The fast path's lines, each subcommand's -h, argparse errors, unrecognized
# extras, abbreviated options and the other forms only argparse parses.
PARSER_CORPUS = (
    [], ["-h"], ["bogus"],
    *FAST_PATH_CORPUS,
    *([command, "-h"] for command in CLI_SURFACE),
    ["term", "--kind", "pell", "--index", "-1"],
    ["seq", "--kind", "pell", "--from", "0"],
    ["seq", "--kind", "fib", "--from", "0", "--to", "1"],
    ["term", "--kind", "pell", "--index", "3", "extra"],
    ["period", "--mod", "ten"],
    ["search"],
    ["search", "bogus", "--max-index", "3"],
    ["search", "sum-power", "square-diff", "--max-index", "3"],
    ["search", "sum-power", "--max-index", "5", "--bogus", "1"],
    ["search", "sum-power", "--max", "5"],
    ["search", "sum-power", "--max-index=5"],
    ["search", "sum-power", "--", "--max-index", "5"],
    ["search", "square-diff", "--max-index", "5", "--copr"],
    ["search", "square-diff", "--max-index", "5", "--no-copr"],
    ["verify", "--suite", "gcd", "--max", "3"],
)


def _without_runtime(out):
    """Output without runtime_ms or verify's timings_ms, the two fields that vary by run."""
    return re.sub(r'"runtime_ms":\d+|"timings_ms":\{[^}]*\}', "", out)


def _parse_and_run(parser, argv):
    """(namespace or None, exit code, stdout without runtime_ms, stderr), by argparse alone."""
    out, err = io.StringIO(), io.StringIO()
    namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
            namespace = vars(args)
            try:
                code = cli._COMMANDS[args.command].run(args)
            except cli.UsageError as exc:
                parser.error(str(exc))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, _without_runtime(out.getvalue()), err.getvalue()


def _run_main(argv):
    """(exit code, stdout without runtime_ms, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _without_runtime(out.getvalue()), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_fast_path_parses_exactly_its_corpus_as_argparse_does(argv, monkeypatch):
    # The fast path takes the FAST_PATH_CORPUS lines, to argparse's namespace,
    # and leaves every other line to argparse; main() answers each line as
    # argparse alone does.
    monkeypatch.setenv("COLUMNS", "80")
    namespace, *answer = _parse_and_run(cli.build_parser(), argv)
    fast = cli._fast_parse(argv)
    if argv in FAST_PATH_CORPUS:
        assert vars(fast) == namespace
    else:
        assert fast is None
    assert _run_main(argv) == tuple(answer)


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_main_builds_the_full_parser_only_for_lines_the_fast_path_cannot_answer(
        argv, monkeypatch):
    # An accepted fast-path line runs without argparse; every other line
    # (argparse's forms and the handlers' usage errors) builds the one full
    # parser, with every subcommand, to parse or to report.
    monkeypatch.setenv("COLUMNS", "80")
    built, build_parser = [], cli.build_parser

    def recording_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    code, _, _ = _run_main(argv)
    assert (built == []) == (argv in FAST_PATH_CORPUS and code == 0), code
    for parser in built:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(CLI_SURFACE)


def _argparse_vocabulary():
    """Each subcommand's argparse actions, help excluded."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
            for name, subparser in sub.choices.items()}


def test_fast_path_agrees_with_argparse_on_drawn_command_lines():
    # Command lines drawn from argparse's own vocabulary: well-formed lines
    # with small bounds, plus prefixes, = forms, signed, underscored and junk
    # ints, bad choices, stray positionals, -h and --.  Where the fast path
    # accepts a line its namespace is argparse's, and main() always gives
    # argparse's exit code, stdout and stderr.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vocabulary = _argparse_vocabulary()
    small = st.integers(0, 12).map(str)
    ints = st.one_of(small, small, small,
                     st.sampled_from(["-1", "-0", "+3", "1_0", "007", " 4", "x", "", "2.5",
                                      "0x10", "\u0663"]))

    def values(action):
        if action.choices is None:
            return ints
        return st.sampled_from([*action.choices] * 2 + ["bogus", action.choices[0][:3]])

    @st.composite
    def option(draw, action, noisy=False):
        # noisy: maybe a prefix of the name, maybe the --name=value form
        name = draw(st.sampled_from(action.option_strings))
        if noisy and draw(st.booleans()):
            name = name[:draw(st.integers(3, len(name) - 1))]
        if action.nargs == 0:
            return [name]
        value = draw(values(action))
        if noisy and draw(st.booleans()):
            return [f"{name}={value}"]
        return [name, value]

    @st.composite
    def command_lines(draw):
        command = draw(st.sampled_from(sorted(vocabulary)))
        actions = vocabulary[command]
        items = []
        for action in actions:
            # a required action is mostly given once; any action may be
            # missing or repeated
            times = [0, 1, 1, 1, 1, 1, 1, 2] if action.required else [0, 0, 0, 1, 1, 2]
            for _ in range(draw(st.sampled_from(times))):
                items.append(draw(option(action)) if action.option_strings
                             else [draw(values(action))])
        flagged = [a for a in actions if a.option_strings]
        noise = st.one_of(
            st.sampled_from(["-h", "--help", "--", "--bogus", "extra", "sum-power", "-1"])
            .map(lambda token: [token]),
            st.sampled_from(flagged).flatmap(lambda action: option(action, noisy=True)))
        items += [draw(noise) for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
        items = draw(st.permutations(items))
        return [command] + [token for item in items for token in item]

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(command_lines())
    def check(argv):
        namespace, *answer = _parse_and_run(cli.build_parser(), argv)
        fast = cli._fast_parse(argv)
        if fast is not None:
            assert vars(fast) == namespace
        assert _run_main(argv) == tuple(answer)

    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        check()


def test_full_parser_names_the_subcommand_argument_command(capsys):
    # The subcommand argument has no metavar, which some Python versions
    # would print in place of "command".
    for argv, message in (([], "required: command\n"),
                          (["bogus"], "argument command: invalid choice")):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["square-diff"],
    ["cube-sum-minus"],
    ["special-form", "--kind", "balancing", "--prime", "2"],
    ["product-form"],
], ids=lambda argv: argv[0])
def test_records_verify_round_trip(capsys, argv):
    # every record line re-parses and re-verifies against direct evaluation;
    # a record with x = 1 is the exponent family, keyed q_family_min (b_family_min)
    code, out = run_cli(capsys, ["search", *argv, "--max-index", "30"])
    assert code == 0
    from ballab.sequences import SequenceKind, term
    lines = out.strip().splitlines()[:-1]
    assert lines
    for line in lines:
        rec = json.loads(line)
        x = int(rec["x"])
        if "equation" in rec:
            bn = term(SequenceKind.BALANCING, rec["n"])
            bm = term(SequenceKind.BALANCING, rec["m"])
            value = bn * bn - bm * bm if rec["equation"] == "square-diff" else bn ** 3 - bm ** 3
            key, lead = "q", 1
        elif "kind" in rec:
            value = term(SequenceKind(rec["kind"]), rec["n"])
            key, lead = "b", rec["prime"] ** rec["s"]
        else:
            value = (term(SequenceKind.BALANCING, rec["n"])
                     * term(SequenceKind.LUCAS_BALANCING, rec["m"]))
            key, lead = "q", 2 ** rec["two_exponent"]
        family = key + "_family_min"
        assert (family in rec) == (x == 1)
        assert (key in rec) == (x != 1)
        assert lead * x ** rec.get(key, rec.get(family)) == value


IMPORT_PROBE = """
import contextlib, io, json, sys
import ballab.cli
pool = sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules)
before = set(sys.modules)
for argv in (["search", "sum-power", "--max-index", "12", "--workers", "1"],
             ["search", "product-form", "--max-index", "12", "--workers", "2"],
             ["search", "special-form", "--kind", "balancing", "--max-index", "40"]):
    with contextlib.redirect_stdout(io.StringIO()):
        ballab.cli.main(argv)
new = sorted(set(sys.modules) - before)
parsers = sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        ballab.cli.main(["search", "sum-power", "--max-index", "0"])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"pool": pool, "new": new, "parsers": parsers, "usage": [code, err.getvalue()]}))
"""


def test_import_hygiene():
    # A fresh interpreter: the CLI loads no process-pool machinery, a search
    # imports nothing the CLI's own import did not (so no module load lands
    # inside the timed main()), and an accepted command line never loads
    # argparse or what it pulls in.  A usage error still gets argparse's text.
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(ballab.__file__)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "pool": [], "new": [], "parsers": [],
        "usage": [2, USAGE + "ballab: error: --max-index must be >= 1\n"]}


def test_import_freezes_what_it_allocated():
    # A fresh interpreter: importing the CLI leaves its objects in the
    # permanent generation, so a call's collections do not depend on them.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ballab.__file__)))
    probe = "import gc, ballab.cli; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) > 0


def test_import_loads_no_dataclasses_inspect_or_typing():
    # A fresh interpreter without site, which could import typing itself:
    # every call pays for what importing the CLI loads, and dataclasses
    # (with the inspect it pulls in) and typing cost milliseconds each.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ballab.__file__)))
    probe = ("import json, sys, ballab.cli; print(json.dumps("
             "[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv, code, stderr", [
    ([], 2, USAGE + "ballab: error: the following arguments are required: command\n"),
    (["search", "sum-power", "--max-index", "0"], 2,
     USAGE + "ballab: error: --max-index must be >= 1\n"),
    (["--help"], 0, ""),
    (["balancer", "--value", "204"], 0, ""),
    (["search", "sum-power", "--max-index=5"], 0, ""),
], ids=["no-command", "handler-usage-error", "help", "fast-path", "argparse-route"])
def test_console_entry_exit_codes(argv, code, stderr):
    # A child process through console_main, whose sys.exit turns main's
    # result into the exit code: argparse's own error and a handler's usage
    # error exit 2 with argparse's text; help, and a run on the fast path
    # and on the argparse route, exit 0.
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(ballab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "ballab.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)
