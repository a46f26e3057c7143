"""The CLI's output contract: every command line of output_contract.jsonl replays the same.

Each line holds an argv, its exit code and the sha256 of its normalized
stdout and of its stderr (make_output_contract.py writes it and says how to
regenerate it).  Replayed in process, every line must give the same record.
"""

import json

from make_output_contract import CONTRACT_PATH, replay


def test_every_command_line_replays_its_exit_code_and_digests(monkeypatch):
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with open(CONTRACT_PATH) as f:
        contract = [json.loads(line) for line in f]
    differing = []
    for want in contract:
        got = replay(want["argv"])
        if got != want:
            fields = [k for k in ("exit", "stdout", "stderr") if got[k] != want[k]]
            differing.append(f"ballab {' '.join(want['argv'])}: {', '.join(fields)} differ")
    assert len(contract) > 1000
    assert not differing, "\n".join(differing)
