import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import ballab
from ballab import cli


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

    def test_bad_mod_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["seq", "--kind", "pell", "--from", "0", "--to", "2",
                                   "--mod", "0"])
        assert code == 2


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

    def test_negative_index_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["term", "--kind", "pell", "--index", "-1"])
        assert code == 2


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


class TestPeriod:
    def test_mod_nine(self, capsys):
        code, out = run_cli(capsys, ["period", "--mod", "9"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["modulus"] == 9 and result["period"] == 12

    def test_small_mod_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["period", "--mod", "1"])
        assert code == 2


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


class TestSearch:
    def test_sum_power_claims_match(self, capsys):
        code, out = run_cli(capsys, ["search", "sum-power", "--max-index", "40",
                                     "--parity", "same"])
        assert code == 0
        lines = out.strip().splitlines()
        records = [json.loads(l) for l in lines[:-1]]
        summary = json.loads(lines[-1])
        assert [(r["n"], r["m"], r["x"], r["q"]) for r in records] == [(3, 1, "6", 2)]
        assert summary["claims"]["verdict"] == "MATCH"
        assert summary["exploratory"] is False
        assert "indices <= 40" in summary["claims"]["bound"]

    def test_square_diff_claims_match(self, capsys):
        code, out = run_cli(capsys, ["search", "square-diff", "--max-index", "30"])
        assert code == 0
        summary = last_json_line(out)
        assert summary["claims"]["verdict"] == "MATCH"
        assert "note" in summary  # zero-exemption convention is reported

    @pytest.mark.parametrize("eq", ["cube-sum-plus", "cube-sum-minus"])
    def test_cube_sum_claims_match(self, capsys, eq):
        code, out = run_cli(capsys, ["search", eq, "--max-index", "25"])
        assert code == 0
        summary = last_json_line(out)
        assert summary["claims"]["verdict"] == "MATCH"
        assert summary["config"]["min_exponent"] == 3

    def test_product_form_claims_match(self, capsys):
        code, out = run_cli(capsys, ["search", "product-form", "--max-index", "30"])
        assert code == 0
        summary = last_json_line(out)
        assert summary["claims"]["verdict"] == "MATCH"

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

    def test_opposite_parity_is_exploratory(self, capsys):
        code, out = run_cli(capsys, ["search", "sum-power", "--max-index", "30",
                                     "--parity", "opposite"])
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

    def test_csv_not_available_for_search(self, capsys):
        code, _ = run_cli(capsys, ["search", "sum-power", "--max-index", "20",
                                   "--format", "csv"])
        assert code == 2

    def test_parity_rejected_for_product_form(self, capsys):
        code, _ = run_cli(capsys, ["search", "product-form", "--max-index", "20",
                                   "--parity", "same"])
        assert code == 2

    def test_restricted_parity_square_diff_is_exploratory(self, capsys):
        # a filtered grid cannot be compared against the full solution list
        code, out = run_cli(capsys, ["search", "square-diff", "--max-index", "20",
                                     "--parity", "same"])
        assert code == 0
        assert last_json_line(out)["claims"] is None


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


# Valid calls, each subcommand's -h, handler-level usage errors, argparse
# errors, unrecognized extras and abbreviated options.
PARSER_CORPUS = (
    [], ["-h"], ["bogus"],
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
    *([command, "-h"] for command in CLI_SURFACE),
    ["seq", "--kind", "pell", "--from", "5", "--to", "2"],
    ["term", "--kind", "pell", "--index", "-1"],
    ["verify", "--suite", "gcd", "--max-n", "0"],
    ["period", "--mod", "1"],
    ["balancer", "--value", "0"],
    ["search", "sum-power", "--max-index", "0"],
    ["search", "cube-sum-plus", "--max-index", "5", "--min-exp", "2"],
    ["search", "square-diff", "--max-index", "5", "--no-coprime"],
    ["search", "special-form", "--max-index", "5"],
    ["search", "special-form", "--kind", "balancing", "--prime", "4", "--max-index", "5"],
    ["search", "product-form", "--max-index", "5", "--parity", "same"],
    ["search", "sum-power", "--max-index", "5", "--kind", "balancing"],
    ["seq", "--kind", "pell", "--from", "0"],
    ["seq", "--kind", "fib", "--from", "0", "--to", "1"],
    ["term", "--kind", "pell", "--index", "3", "extra"],
    ["period", "--mod", "ten"],
    ["search"],
    ["search", "bogus", "--max-index", "3"],
    ["search", "sum-power", "--max-index", "5", "--bogus", "1"],
    ["search", "sum-power", "--max", "5"],
    ["search", "square-diff", "--max-index", "5", "--copr"],
    ["search", "square-diff", "--max-index", "5", "--no-copr"],
    ["verify", "--suite", "gcd", "--max", "3"],
)


def _parse_and_run(parser, argv):
    """(namespace or None, exit code, stdout without runtime_ms, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
            namespace = vars(args)
            code = cli._COMMANDS[args.command][1](parser, args)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, re.sub(r'"runtime_ms":\d+', "", out.getvalue()), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv, monkeypatch):
    # main() builds only argv[0]'s subparser; it must parse, run and fail
    # exactly as the full parser does.
    monkeypatch.setenv("COLUMNS", "80")
    command = argv[0] if argv else None
    assert (_parse_and_run(cli.build_parser(command), argv)
            == _parse_and_run(cli.build_parser(), argv))


def test_one_command_parser_registers_one_subcommand():
    full = cli.build_parser()
    (full_sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    for command in CLI_SURFACE:
        parser = cli.build_parser(command)
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == [command]
        assert parser.format_usage() == full.format_usage()
        assert sub.choices[command].format_usage() == full_sub.choices[command].format_usage()
        assert sub.choices[command].format_help() == full_sub.choices[command].format_help()


def test_full_parser_names_the_subcommand_argument_command(capsys):
    # The one-command parser's metavar must not reach the full parser, where
    # some Python versions would print it in place of "command".
    for argv, message in (([], "required: command\n"),
                          (["bogus"], "argument command: invalid choice")):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert message in capsys.readouterr().err


def test_records_verify_round_trip(capsys):
    # every record line re-parses and re-verifies against direct evaluation
    code, out = run_cli(capsys, ["search", "square-diff", "--max-index", "30"])
    assert code == 0
    from ballab.sequences import SequenceKind, term
    for line in out.strip().splitlines()[:-1]:
        rec = json.loads(line)
        bn = term(SequenceKind.BALANCING, rec["n"])
        bm = term(SequenceKind.BALANCING, rec["m"])
        value = bn * bn - bm * bm
        if "q" in rec:
            assert int(rec["x"]) ** rec["q"] == value
        else:
            assert value == 1 and rec["x"] == "1"


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
print(json.dumps({"pool": pool, "new": sorted(set(sys.modules) - before)}))
"""


def test_import_hygiene():
    # A fresh interpreter: the CLI loads no process-pool machinery, and a
    # search imports nothing the CLI's own import did not, so no module load
    # lands inside the timed main().
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ballab.__file__)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"pool": [], "new": []}
