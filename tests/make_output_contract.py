"""Write the output contract: digests of the CLI's output over two fixed corpora.

    python tests/make_output_contract.py [DIR]

Runs each command line of ``corpus()`` and of ``ci_corpus()`` in process
through ``ballab.cli.main`` with COLUMNS=80, since argparse wraps its usage
and help text to the terminal width, and writes one JSON line per command
line: its argv, its exit code, and the sha256 of its normalized stdout and of
its stderr.  Normalized means the ``runtime_ms`` and ``timings_ms`` fields,
the only ones that vary between runs, are cut out.

The contract has two tiers.  ``corpus()`` goes to output_contract.jsonl,
which tier-1 replays; ``ci_corpus()``, lines too slow for tier-1, goes to
output_contract_ci.jsonl, which only ``python tests/test_output_contract.py``
replays, with the first file.  DIR defaults to this directory; give another
directory to compare two interpreters.

Regenerate the files only in a change that means to alter output, and list
each changed line with the change.  Never regenerate them to make the test
pass.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
CONTRACT_PATH = TESTS_DIR / "output_contract.jsonl"
CI_CONTRACT_PATH = TESTS_DIR / "output_contract_ci.jsonl"
sys.path.insert(0, str(TESTS_DIR.parent / "src"))

import ballab.cli  # noqa: E402

# canonical_json sorts keys, so each field is followed by its comma
_VARYING = re.compile(r'"runtime_ms":\d+,?|"timings_ms":\{[^{}]*\},?')


def replay(argv: list[str]) -> dict:
    """argv's exit code and output digests, run in process (COLUMNS must be 80)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ballab.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stdout = _VARYING.sub("", out.getvalue())
    return {"argv": list(argv), "exit": code,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _search(equation: str, n: int, *options: str) -> list[str]:
    return ["search", equation, "--max-index", str(n), *options]


def corpus() -> list[list[str]]:
    lines = []
    # every pair equation under each hypothesis, valid or refused
    for eq in ("sum-power", "square-diff", "cube-sum-plus", "cube-sum-minus"):
        for n in (1, 2, 3, 7, 40, 150):
            lines.append(_search(eq, n))
            for parity in ("same", "opposite", "any"):
                for coprime in ("--coprime", "--no-coprime"):
                    for exempt in ("--coprime-zero-exempt", "--no-coprime-zero-exempt"):
                        for min_exp in ("2", "3", "4"):
                            lines.append(_search(eq, n, "--parity", parity, coprime, exempt,
                                                 "--min-exp", min_exp))
    for n in (1, 2, 3, 7, 40, 150, 400):
        lines.append(_search("product-form", n))
        lines.append(_search("product-form", n, "--min-exp", "3"))
    for kind in ("balancing", "lucas-balancing"):
        for prime in ("2", "3", "5", "7", "211", str((1 << 31) - 1)):
            for n in (1, 7, 40, 390):
                lines.append(_search("special-form", n, "--kind", kind, "--prime", prime))
    # each equation with a published solution set at its acceptance bound and
    # at N = 1000, the exploratory parities at N = 1000, the special-form
    # hits with x > 1 (B_7 = 239 * 13**2, C_3 = 11 * 3**2) and one line of
    # each other subcommand; 9999973 is the largest prime below period's
    # ceiling that is +-3 mod 8, so its period is the full p + 1
    lines += [
        _search("sum-power", 150, "--parity", "same"),
        _search("square-diff", 120),
        _search("cube-sum-plus", 100),
        _search("cube-sum-minus", 100),
        _search("product-form", 80),
        _search("sum-power", 1000, "--parity", "same"),
        _search("square-diff", 1000),
        _search("cube-sum-plus", 1000),
        _search("cube-sum-minus", 1000),
        _search("product-form", 1000),
        _search("sum-power", 1000, "--parity", "any"),
        _search("sum-power", 1000, "--parity", "opposite"),
        _search("special-form", 390, "--kind", "balancing", "--prime", "239"),
        _search("special-form", 390, "--kind", "lucas-balancing", "--prime", "11"),
        ["seq", "--kind", "balancing", "--from", "3", "--to", "40", "--mod", "1000"],
        ["seq", "--kind", "pell", "--from", "0", "--to", "12", "--format", "csv"],
        ["term", "--kind", "balancing", "--index", "5500"],
        ["period", "--mod", "1000"],
        ["period", "--mod", "9999973"],
        ["balancer", "--value", "204"],
        [],
        ["--help"],
        ["search", "--help"],
        ["search", "sum-power", "--max", "5"],
        ["search", "sum-power", "--max-index=5"],
        ["term", "--kind", "pell", "--index", "-1"],
    ]
    # every verify suite up to 1000, gcd at 600 and modular at 3000
    for suite in ("identities", "gcd", "modular", "all"):
        for n in (1, 2, 3, 7, 40, 120, 250, 400, 1000):
            lines.append(["verify", "--suite", suite, "--max-n", str(n)])
    lines += [["verify", "--suite", "gcd", "--max-n", "600"],
              ["verify", "--suite", "modular", "--max-n", "3000"]]
    # the other subcommands
    for kind in ("balancing", "lucas-balancing", "pell", "associated-pell"):
        lines += [
            ["seq", "--kind", kind, "--from", "0", "--to", "30"],
            ["seq", "--kind", kind, "--from", "5", "--to", "25", "--format", "csv"],
            ["seq", "--kind", kind, "--from", "0", "--to", "50", "--mod", "7"],
            ["seq", "--kind", kind, "--from", "0", "--to", "0", "--mod", "1"],
            ["term", "--kind", kind, "--index", "0"],
            ["term", "--kind", kind, "--index", "1"],
            ["term", "--kind", kind, "--index", "97"],
            ["term", "--kind", kind, "--index", "2000"],
        ]
    for mod in (2, 3, 8, 9, 12, 97, 239, 1024, 1000003, 5 ** 10, 10 ** 7):
        lines.append(["period", "--mod", str(mod)])
    for value in (1, 2, 6, 35, 36, 1189, 6930, 40391, 8 * 10 ** 40, 10 ** 50):
        lines.append(["balancer", "--value", str(value)])
    # refusals at each floor and ceiling, and argparse's own errors
    max_index = ballab.cli.MAX_SEARCH_INDEX
    for eq in ("sum-power", "square-diff", "cube-sum-plus", "cube-sum-minus",
               "product-form", "special-form"):
        lines.append(_search(eq, max_index[eq] + 1, "--kind", "balancing")
                     if eq == "special-form" else _search(eq, max_index[eq] + 1))
        lines.append(_search(eq, 0))
    for suite in ("identities", "gcd", "all"):
        lines.append(["verify", "--suite", suite, "--max-n", str(ballab.cli.MAX_VERIFY_N + 1)])
    lines += [
        ["verify", "--suite", "modular", "--max-n", str(ballab.cli.MAX_VERIFY_N_MODULAR + 1)],
        ["verify", "--suite", "gcd", "--max-n", "0"],
        ["verify", "--suite", "everything", "--max-n", "5"],
        ["verify", "--suite", "gcd"],
        ["period", "--mod", str(ballab.cli.MAX_PERIOD_MOD + 1)],
        ["period", "--mod", "1"],
        ["balancer", "--value", "0"],
        ["seq", "--kind", "balancing", "--from", "5", "--to", "4"],
        ["seq", "--kind", "balancing", "--from", "-1", "--to", "4"],
        ["seq", "--kind", "balancing", "--from", "0", "--to", "4", "--mod", "0"],
        ["seq", "--kind", "fibonacci", "--from", "0", "--to", "4"],
        ["term", "--kind", "balancing"],
        _search("special-form", 40),
        _search("special-form", 40, "--kind", "balancing", "--prime", str(1 << 31)),
        _search("special-form", 40, "--kind", "balancing", "--prime", "4"),
        _search("sum-power", 40, "--kind", "balancing"),
        _search("sum-power", 40, "--min-exp", "1"),
        _search("product-form", 40, "--parity", "same"),
        _search("product-form", 40, "--coprime"),
        _search("square-diff", 40, "--workers", "2"),
        _search("square-diff", 40, "--max-index", "7"),
        ["search", "fermat", "--max-index", "5"],
        ["search", "sum-power", "--max-index", "five"],
        ["search", "sum-power", "--max-index", "-5"],
        ["frobnicate"],
        ["--version"],
        ["verify", "--help"],
        ["seq", "--help"],
    ]
    # term at both sides of a power of two (the bit patterns of the closed
    # form's loop) and at the benchmark's top indices, odd and even; every
    # value stays below the 4300-digit int-to-str limit
    for kind, top in (("balancing", 5500), ("lucas-balancing", 5500),
                      ("pell", 11000), ("associated-pell", 11000)):
        for n in (4095, 4096, 4097, top - 1, top):
            lines.append(["term", "--kind", kind, "--index", str(n)])
    for kind in ("balancing", "lucas-balancing", "pell", "associated-pell"):
        lines.append(["term", "--kind", kind, "--index", str(ballab.cli.MAX_TERM_INDEX + 1)])
    for kind in ("balancing", "lucas-balancing", "pell", "associated-pell"):
        lines += [
            ["seq", "--kind", kind, "--from", "0", "--to", str(ballab.cli.MAX_SEQ_TO + 1)],
            ["seq", "--kind", kind, "--from", "0", "--to", str(ballab.cli.MAX_SEQ_TO_MOD + 1),
             "--mod", "7"],
        ]
    for kind in ("balancing", "lucas-balancing", "pell", "associated-pell"):
        lines.append(["seq", "--kind", kind, "--from", "0", "--to", "10",
                      "--mod", str(ballab.cli.MAX_SEQ_MOD + 1)])
    return lines


def ci_corpus() -> list[list[str]]:
    lines = []
    # each equation with a published solution set at N = 4000, where
    # cube-sum-minus is the one search whose even-t rows take the common
    # factor from the partner's table; the claims verdict is in the digest
    lines.append(_search("sum-power", 4000, "--parity", "same"))
    for eq in ("square-diff", "cube-sum-plus", "cube-sum-minus", "product-form"):
        lines.append(_search(eq, 4000))
    # the row rules for parity and coprimality past the first tier's N = 150
    lines += [
        _search("cube-sum-plus", 1000, "--parity", "same"),
        _search("sum-power", 1000, "--parity", "same", "--coprime"),
        _search("square-diff", 1000, "--parity", "same"),
        _search("sum-power", 1000, "--parity", "opposite", "--coprime",
                "--no-coprime-zero-exempt"),
        _search("square-diff", 1000, "--parity", "opposite"),
        _search("cube-sum-minus", 1000, "--parity", "opposite"),
    ]
    # each suite's one read of B, C, P and Q at the ceiling
    for suite in ("identities", "gcd", "all"):
        lines.append(["verify", "--suite", suite, "--max-n", "5000"])
    # seq at the first tier's top term indices, odd and even
    for kind, top in (("balancing", 5500), ("lucas-balancing", 5500),
                      ("pell", 11000), ("associated-pell", 11000)):
        for n in (top - 1, top):
            lines.append(["seq", "--kind", kind, "--from", str(n), "--to", str(n)])
    return lines


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else TESTS_DIR
    os.environ["COLUMNS"] = "80"
    for path, lines in ((CONTRACT_PATH, corpus()), (CI_CONTRACT_PATH, ci_corpus())):
        with open(out_dir / path.name, "w") as f:
            for argv in lines:
                f.write(json.dumps(replay(argv)) + "\n")


if __name__ == "__main__":
    main()
