"""Time fixed ballab command lines in fresh processes and write the runs as JSON.

    python tools/bench.py OUT.json [--against DIR]
    python tools/bench.py --summary FILE...

Each command line runs as its own ``python -m ballab.cli`` process, from
this checkout's ``src/`` and, with ``--against``, alternately from the
``src/`` of a second checkout DIR (say, a parent commit), so that a drift of
the machine's speed hits both sides alike.  Per run it records

- ``wall_s``: wall time of the child, start to exit;
- ``cpu_s``: user plus system CPU time of that one child, from ``os.wait4``;
- ``vmhwm_kb``: the child's peak resident set, ``VmHWM`` read by the child
  itself at exit (``ru_maxrss`` would carry the parent's peak across exec),
  or null if the child wrote none (killed before its exit);
- ``runtime_ms``: the command's own time, from ``runtime_ms`` in the JSON
  object on the child's last stdout line, or null if that line holds none:
  the search time without the interpreter's start-up, which ``wall_s``
  includes;
- ``exit`` and ``digest_match``: whether stdout without ``runtime_ms`` and
  ``timings_ms`` and stderr hash as the output contract
  (``tests/output_contract*.jsonl``) pins that line, or null for a line the
  contract does not hold.

Every line of ``CI`` (every line of ``tests/output_contract_ci.jsonl``:
its searches, ``verify`` at N = 5000 and one-index ``seq`` at the ceilings;
plus special-form, balancing, p = 2 at N = 12,000) and then of ``RENDER``
(``seq`` at its ceilings, where the time goes into building and printing
the values) runs ``RUNS`` times per tree, after one untimed run of
``WARM_UP`` per tree writes its bytecode; ``TINY`` holds two lines of the
first contract tier, for the script's own test.  The file holds the
provenance and every run, and the exit status is 1 if a run exited nonzero
or missed its pinned digest (the ``RENDER`` lines have none).  Standard library
only; the output also names the machine, the Python and each tree's commit
(``-dirty`` for uncommitted changes) and ``src/ballab`` digest, but no path.

``--summary`` reads run files written so (the committed ``BENCH_*.json``
among them) and prints a Markdown table with one row per command line: the
median and the minimum ``wall_s`` of each file's runs of it on each tree,
and, where a file holds two trees, the ratio of their medians, this over
against.  Files given oldest first show the trajectory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from make_output_contract import CI_CONTRACT_PATH, CONTRACT_PATH, digests  # noqa: E402

# The child runs the CLI as ``python -m ballab.cli`` would, then writes its
# VmHWM to the file named by its first argument, never to stdout or stderr.
_CHILD = """\
import runpy, sys
hwm = sys.argv.pop(1)
try:
    runpy.run_module("ballab.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(hwm, "w") as out:
        out.write(next((line.split()[1] for line in status if line.startswith("VmHWM:")), ""))
"""


def contract() -> dict[tuple[str, ...], dict]:
    """argv -> pinned line, over both contract tiers."""
    lines = [json.loads(line) for path in (CONTRACT_PATH, CI_CONTRACT_PATH)
             for line in path.read_text().splitlines()]
    return {tuple(line["argv"]): line for line in lines}


RUNS = 3
CI = [line["argv"] for line in map(json.loads, CI_CONTRACT_PATH.read_text().splitlines())] + [
    ["search", "special-form", "--max-index", "12000", "--kind", "balancing", "--prime", "2"]]
RENDER = [["seq", "--kind", "pell", "--from", "0", "--to", "11000"],
          ["seq", "--kind", "balancing", "--from", "0", "--to", "5500"],
          ["seq", "--kind", "balancing", "--from", "0", "--to", "100000", "--mod", "1000003"]]
# an accepted command line that imports every module a search does
WARM_UP = ["search", "sum-power", "--max-index", "1"]
TINY = [["search", "sum-power", "--max-index", "7"],
        ["search", "special-form", "--max-index", "40", "--kind", "balancing", "--prime", "2"]]


def run_once(tree: Path, argv: list[str], pinned: dict | None, workdir: Path) -> dict:
    """One timed child process of ballab argv from tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
    hwm = workdir / "vmhwm"
    hwm.unlink(missing_ok=True)  # a killed child must not report an earlier run's peak
    with open(workdir / "out", "w+b") as out, open(workdir / "err", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _CHILD, str(hwm), *argv],
                                 stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    match = None if pinned is None else digests(code, stdout, stderr).items() <= pinned.items()
    peak = hwm.read_text() if hwm.exists() else ""
    return {"argv": argv, "wall_s": round(wall, 4),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "vmhwm_kb": int(peak) if peak else None, "runtime_ms": _runtime_ms(stdout),
            "exit": code, "digest_match": match}


def _runtime_ms(stdout: str) -> int | None:
    """runtime_ms of the JSON object on stdout's last line, or None."""
    try:
        summary = json.loads(stdout.rstrip("\n").rpartition("\n")[2])
    except ValueError:
        return None
    return summary.get("runtime_ms") if isinstance(summary, dict) else None


def _git_commit(tree: Path) -> str | None:
    """tree's commit, with a -dirty suffix if its work tree differs from it."""
    try:
        return subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty",
                               "--abbrev=40"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "ballab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), None)
    except OSError:
        return None


def bench(trees: dict[str, Path], lines: list[list[str]], runs: int) -> dict:
    """Each of lines runs ``runs`` times on each tree, the trees' order swapped on each run."""
    pinned = contract()
    sides = {label: {"commit": _git_commit(tree),
                     "src_digest": _src_digest(tree),
                     "pycache_existed": (tree / "src" / "ballab" / "__pycache__").is_dir()}
             for label, tree in trees.items()}
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for tree in trees.values():  # writes each tree's bytecode, untimed
            run_once(tree, WARM_UP, None, Path(workdir))
        for r in range(runs):
            for argv in lines:
                for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    record = run_once(trees[label], argv, pinned.get(tuple(argv)), Path(workdir))
                    records.append({"tree": label, "run": r, **record})
    return {"provenance": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                           "python": platform.python_version(),
                           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                           "runs": runs, "trees": sides},
            "runs": records}


def summary(paths: list[Path]) -> list[str]:
    """The rows of --summary's table for these run files, header first."""
    files = []  # (file name, its trees, (tree, line) -> wall_s of each run)
    lines: dict[str, None] = {}  # each command line, in the order first met
    for path in paths:
        document = json.loads(path.read_text())
        walls: dict[tuple[str, str], list[float]] = {}
        for record in document["runs"]:
            line = " ".join(record["argv"])
            lines.setdefault(line)
            walls.setdefault((record["tree"], line), []).append(record["wall_s"])
        files.append((path.name, list(document["provenance"]["trees"]), walls))
    header = ["line"]
    for name, trees, _ in files:
        header += [f"{name} {tree} median/min (s)" for tree in trees]
        header += [f"{name} {trees[0]}/{trees[1]}"] if len(trees) == 2 else []
    rows = [header, ["---"] * len(header)]
    for line in lines:
        row = [f"`{line}`"]
        for _, trees, walls in files:
            runs = [walls.get((tree, line)) for tree in trees]
            row += [f"{statistics.median(r):.4f}/{min(r):.4f}" if r else "-" for r in runs]
            if len(trees) == 2:
                row.append(f"{statistics.median(runs[0]) / statistics.median(runs[1]):.3f}"
                           if all(runs) else "-")
        rows.append(row)
    return ["| " + " | ".join(row) + " |" for row in rows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--against", type=Path, help="a second checkout, run alternately")
    parser.add_argument("--summary", type=Path, nargs="+", metavar="FILE",
                        help="print the wall times of run files as a table, and run nothing")
    args = parser.parse_args(argv)
    if args.summary is not None:
        if args.out is not None or args.against is not None:
            parser.error("--summary takes neither OUT nor --against")
        print("\n".join(summary(args.summary)))
        return 0
    if args.out is None:
        parser.error("OUT is required")
    trees = {"this": ROOT}
    if args.against is not None:
        trees["against"] = args.against.resolve()
    result = bench(trees, CI + RENDER, RUNS)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(rec["exit"] == 0 and rec["digest_match"] is not False
                    for rec in result["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
