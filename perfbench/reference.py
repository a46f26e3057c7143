"""Expected outputs for benchmark jobs, and the check of each job's output.

Nothing here imports ballab.  Sequence terms come from this module's own
recurrences, verify ``checked`` counts from closed formulas for the sweep
sizes, periods from a direct walk of the recurrence mod m.  Search hits come
from ``search_refs.json``: one hit set per search configuration at the
largest bound that configuration draws, written by ``make_refs.py`` and
cross-checked against ``oracle_search`` by the self-tests.  A search job at
bound N must print exactly the reference hits that lie inside its domain.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

SEARCH_REFS_PATH = Path(__file__).resolve().parent / "search_refs.json"

# kind -> (c1, c2, s0, s1) with s_n = c1 * s_{n-1} + c2 * s_{n-2}
RECURRENCES = {
    "balancing": (6, -1, 0, 1),
    "lucas-balancing": (6, -1, 1, 3),
    "pell": (2, 1, 0, 1),
    "associated-pell": (2, 1, 1, 1),
}

_values: dict[str, list[int]] = {}


def values(kind: str, hi: int) -> list[int]:
    """Terms 0..hi of the sequence (a shared list; do not modify it)."""
    c1, c2, s0, s1 = RECURRENCES[kind]
    out = _values.setdefault(kind, [s0, s1])
    while len(out) <= hi:
        out.append(c1 * out[-1] + c2 * out[-2])
    return out


def term(kind: str, n: int) -> int:
    return values(kind, n)[n]


def period(modulus: int) -> int:
    """Least t >= 1 with (B_t, B_{t+1}) = (0, 1) mod modulus."""
    start = (0, 1 % modulus)
    prev, cur = start
    t = 0
    while True:
        prev, cur = cur, (6 * cur - prev) % modulus
        t += 1
        if (prev, cur) == start:
            return t


def balancer(value: int) -> int | None:
    """R with 1 + ... + (B-1) = (B+1) + ... + (B+R), found through the C_n list."""
    n = 0
    while term("balancing", n) < value:
        n += 1
    if term("balancing", n) != value:
        return None
    # R is the root of R**2 + (2B+1)R - (B**2 - B) = 0, and 8B**2 + 1 = C**2
    return (term("lucas-balancing", n) - 2 * value - 1) // 2


def expected_checks(suite: str, max_n: int) -> list[tuple[str, int]]:
    """(check name, cases checked) of ``verify --suite <suite> --max-n <max_n>``."""
    n = max_n
    if suite == "identities":
        half = sum(k // 2 + 1 for k in range(n + 1))
        return [("half-index-sum", half), ("half-index-diff", half), ("pell-product", n + 1),
                ("index-doubling", n + 1), ("square-plus-one", n + 1),
                ("addition-formula", (n + 1) ** 2), ("lucas-odd", n + 1),
                ("closed-form-agreement", n + 1), ("unit-norm", min(n, 200) + 1)]
    if suite == "gcd":
        return [("gcd-balancing", n * n), ("gcd-lucas", n * n), ("gcd-mixed", n * n),
                ("pell-coprime", n)]
    if suite == "modular":
        mu = min(n, 200)
        multiples = sum(max(0, mu // k - 1) for k in range(2, mu + 1))
        return [("mod9-table", n + 1), ("two-adic-law", 8 * n),
                ("period-consistency", mu - 1 + multiples), ("sieve-soundness", 600)]
    raise ValueError(f"unknown suite {suite!r}")


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def pairs(job: dict) -> int:
    """Index pairs in the domain a pair or product search job covers; 0 otherwise."""
    argv, n = job["argv"], job["bound"]
    if argv[0] != "search":
        return 0
    equation = argv[1]
    if equation == "sum-power":  # 0 <= m <= n <= N
        parity = _flag(argv, "--parity", "any")
        if parity == "same":
            return sum(k // 2 + 1 for k in range(n + 1))
        if parity == "opposite":
            return sum(k - k // 2 for k in range(n + 1))
        return (n + 1) * (n + 2) // 2
    if equation == "product-form":  # 1 <= N, M <= max_index
        return n * n
    if equation == "special-form":
        return 0
    return n * (n + 1) // 2  # 0 <= m < n <= N


def cases(job: dict) -> int:
    """Cases a verify job checks; 0 for other jobs."""
    argv = job["argv"]
    if argv[0] != "verify":
        return 0
    return sum(count for _, count in expected_checks(argv[2], job["bound"]))


@functools.cache
def search_refs() -> dict:
    with open(SEARCH_REFS_PATH) as f:
        return json.load(f)


def _without_workers(argv: list[str]) -> list[str]:
    """The worker count never changes a search's output."""
    if "--workers" not in argv:
        return argv
    i = argv.index("--workers")
    return argv[:i] + argv[i + 2:]


def _in_domain(record: dict, equation: str, bound: int) -> bool:
    if equation == "product-form":
        return record["n"] <= bound and record["m"] <= bound
    return record["n"] <= bound


def _check_search(job: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    try:
        records = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
    except ValueError:
        return "output is not JSON Lines"
    bound = job["bound"]
    ref = search_refs().get(job["config"])
    if (ref is None or bound > ref["max_index"]
            or _without_workers(ref["argv"]) != _without_workers(job["argv"][:-2])):
        return "no reference covers this job"
    equation = job["argv"][1]
    want = [r for r in ref["records"] if _in_domain(r, equation, bound)]
    got = [{k: v for k, v in r.items() if k != "bounds"} for r in records]
    if got != want:
        return f"records differ from the reference ({len(got)} printed, {len(want)} expected)"
    if any(r.get("bounds", {}).get("max_index", bound) != bound for r in records):
        return "a record carries the wrong bound"
    if summary.get("result_count") != len(records):
        return "summary result_count differs from the records printed"
    if summary.get("config", {}).get("max_index") != bound:
        return "summary config carries the wrong bound"
    claims = summary.get("claims")
    if claims is not None and claims.get("verdict") != "MATCH":
        return f"claims verdict {claims.get('verdict')}"
    return None


def _expected_results(job: dict) -> list:
    argv = job["argv"]
    command = argv[0]
    if command == "term":
        kind, index = _flag(argv, "--kind"), int(_flag(argv, "--index"))
        return [{"kind": kind, "index": index, "value": str(term(kind, index))}]
    if command == "seq":
        kind, lo, hi = _flag(argv, "--kind"), int(_flag(argv, "--from")), int(_flag(argv, "--to"))
        mod = _flag(argv, "--mod")
        terms = values(kind, hi)
        return [{"kind": kind, "index": i,
                 "value": str(terms[i] % int(mod) if mod else terms[i])}
                for i in range(lo, hi + 1)]
    if command == "period":
        modulus = int(_flag(argv, "--mod"))
        t = period(modulus)
        return [{"modulus": modulus, "period": t, "prefix_checked": 2 * t}]
    if command == "balancer":
        value = int(_flag(argv, "--value"))
        r = balancer(value)
        return [{"value": str(value), "is_balancing": r is not None,
                 "balancer": None if r is None else str(r)}]
    raise ValueError(f"no reference for command {command!r}")


def check(job: dict, outcome: dict) -> str | None:
    """Why the job failed, or None when it passed.

    A job fails on a timeout, a traceback, an exit code other than 0, or
    output that differs from the reference (a claims MISMATCH included).
    """
    if outcome.get("timeout"):
        return "timeout"
    if outcome.get("error"):
        return "traceback: " + outcome["error"].strip().splitlines()[-1]
    if outcome["exit"] != 0:
        return f"exit code {outcome['exit']}"
    if job["argv"][0] == "search":
        return _check_search(job, outcome["stdout"])
    try:
        report = json.loads(outcome["stdout"])
    except ValueError:
        return "output is not JSON"
    results = report.get("results")
    if job["argv"][0] == "verify":
        if not all(r.get("passed") for r in results):
            return "a verify check failed"
        got = [(r.get("name"), r.get("checked")) for r in results]
        if got != expected_checks(_flag(job["argv"], "--suite"), job["bound"]):
            return "verify checks or checked counts differ from the reference"
        return None
    if results != _expected_results(job):
        return "results differ from the reference"
    return None
