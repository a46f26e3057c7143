"""The CLI's output contract: every command line of its two files replays the same.

Each line holds an argv, its exit code and the sha256 of its normalized
stdout and of its stderr (make_output_contract.py writes both files and says
how to regenerate them).  Replayed in process, every line must give the same
record.  Tier-1 replays output_contract.jsonl.  The command lines of
output_contract_ci.jsonl take about 7 s in all, most of it the searches at
N = 4000, so only running this file as a script replays them, with the
first file's:

    python tests/test_output_contract.py

It needs only the standard library, exits 1 if any line differs and names
each one.
"""

import json
import os
import sys

from make_output_contract import CI_CONTRACT_PATH, CONTRACT_PATH, ci_corpus, corpus, replay


def _read(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def differing_lines(path) -> list[str]:
    """One message per line of the contract file at path that replays differently."""
    differing = []
    for want in _read(path):
        try:
            got = replay(want["argv"])
        except Exception as exc:  # a traceback differs from every pinned line
            differing.append(f"ballab {' '.join(want['argv'])}: raised {exc!r}")
            continue
        if got != want:
            fields = [k for k in ("exit", "stdout", "stderr") if got[k] != want[k]]
            differing.append(f"ballab {' '.join(want['argv'])}: {', '.join(fields)} differ")
    return differing


def test_every_command_line_replays_its_exit_code_and_digests(monkeypatch):
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    differing = differing_lines(CONTRACT_PATH)
    assert len(_read(CONTRACT_PATH)) > 1000
    assert not differing, "\n".join(differing)


def test_contract_files_hold_their_corpora_and_pin_no_failure():
    # replays nothing: each file is its corpus in order, no command line is
    # in both tiers, and none exits 1 (a property failure or a claims
    # MISMATCH), so a regenerated file can never quietly pin one
    first, second = _read(CONTRACT_PATH), _read(CI_CONTRACT_PATH)
    assert [line["argv"] for line in first] == corpus()
    assert [line["argv"] for line in second] == ci_corpus()
    assert not {tuple(line["argv"]) for line in first} & {tuple(line["argv"]) for line in second}
    assert [line["argv"] for line in first + second if line["exit"] == 1] == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    paths = (CONTRACT_PATH, CI_CONTRACT_PATH)
    differing = [message for path in paths for message in differing_lines(path)]
    print("\n".join(differing) if differing else
          f"{sum(len(_read(path)) for path in paths)} command lines replay the same")
    sys.exit(1 if differing else 0)
