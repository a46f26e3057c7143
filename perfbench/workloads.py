"""Workload definitions and the seeded job lists the benchmark runs.

Each workload is a fixed mix of job configurations.  A configuration is one
``ballab`` command line whose size bound (``--max-index``, ``--max-n``,
``--index``, ``--to`` or ``--mod``) the seed draws log-uniformly from
[lo, hi].  The draws are stratified: configuration c with k jobs puts its
i-th bound in the middle fifth of the i-th of k equal slices of the log
range.  The seed therefore changes every bound, the flag values and the job
order, while two seeds ask for nearly the same amount of work, which is what
lets runs on different seeds be compared.  ``hi`` is set so that the largest
search or verify job of each configuration takes about 0.5 s on a 2-core x86
machine with Python 3.11 at the commit that defined the benchmark; search
cost grows about as N**3 there, so the log-uniform draws put most jobs near
the small end, where the per-process start-up and cache fills weigh most.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import reference


@dataclass(frozen=True)
class Config:
    name: str
    argv: tuple[str, ...]  # command line up to the bound flag
    bound_flag: str
    lo: int
    hi: int
    count: int


def _search(name: str, *argv: str, lo: int, hi: int, count: int) -> Config:
    return Config(name, ("search", *argv), "--max-index", lo, hi, count)


WORKLOADS: dict[str, list[Config]] = {
    # Serial pair searches: every _run_pair_search path, dominated by the
    # residue sieve plus perfect-power decomposition.
    "pair-sweep": [
        _search("sum-power/same", "sum-power", "--parity", "same", "--workers", "1",
                lo=20, hi=158, count=17),
        _search("sum-power/any", "sum-power", "--parity", "any", "--workers", "1",
                lo=17, hi=138, count=17),
        _search("sum-power/opposite", "sum-power", "--parity", "opposite", "--workers", "1",
                lo=22, hi=172, count=17),
        _search("square-diff", "square-diff", "--workers", "1", lo=13, hi=106, count=17),
        _search("cube-sum-plus", "cube-sum-plus", "--workers", "1", lo=11, hi=88, count=17),
        _search("cube-sum-minus", "cube-sum-minus", "--workers", "1", lo=12, hi=93, count=17),
    ],
    # The process pool (product-form with two workers, on both sides of the
    # size where the pool starts to pay) and strip_prime (both searches).
    "product-pool": [
        _search("product-form", "product-form", "--workers", "2", lo=12, hi=98, count=60),
        _search("special-form/balancing/2", "special-form", "--kind", "balancing",
                "--prime", "2", "--workers", "1", lo=49, hi=390, count=10),
        _search("special-form/balancing/3", "special-form", "--kind", "balancing",
                "--prime", "3", "--workers", "1", lo=49, hi=390, count=10),
        _search("special-form/lucas-balancing/2", "special-form", "--kind", "lucas-balancing",
                "--prime", "2", "--workers", "1", lo=49, hi=390, count=10),
        _search("special-form/lucas-balancing/3", "special-form", "--kind", "lucas-balancing",
                "--prime", "3", "--workers", "1", lo=49, hi=390, count=10),
    ],
    # No power test at all: sequences, quadring, gcd, modular and the CLI's
    # big-int rendering.  Bypasses every search optimisation.  term indices
    # stay below the 4300-digit int-to-str limit (B_n and C_n cross it near
    # n = 5600, P_n and Q_n near n = 11200); the crash above it is probed
    # separately, see run.py.
    "verify-sweep": [
        Config("verify/identities", ("verify", "--suite", "identities"), "--max-n", 40, 400, 12),
        Config("verify/gcd", ("verify", "--suite", "gcd"), "--max-n", 30, 250, 12),
        Config("verify/modular", ("verify", "--suite", "modular"), "--max-n", 100, 3000, 12),
        Config("term/balancing", ("term", "--kind", "balancing"), "--index", 100, 5500, 8),
        Config("term/lucas-balancing", ("term", "--kind", "lucas-balancing"), "--index",
               100, 5500, 8),
        Config("term/pell", ("term", "--kind", "pell"), "--index", 200, 11000, 8),
        Config("term/associated-pell", ("term", "--kind", "associated-pell"), "--index",
               200, 11000, 8),
        Config("seq/balancing", ("seq", "--kind", "balancing", "--from", "0"), "--to",
               100, 2000, 8),
        Config("seq/lucas-balancing", ("seq", "--kind", "lucas-balancing", "--from", "0"),
               "--to", 100, 2000, 8),
        Config("seq/pell", ("seq", "--kind", "pell", "--from", "0"), "--to", 100, 2000, 8),
        Config("seq/associated-pell", ("seq", "--kind", "associated-pell", "--from", "0"),
               "--to", 100, 2000, 8),
        Config("period", ("period",), "--mod", 1000, 100000, 12),
        # the bound is the index n; the value passed is B_n or B_n + 1
        Config("balancer", ("balancer",), "--value", 10, 2000, 12),
    ],
}


# Moduli 2**a * 5**b with a, b >= 1: the period of B_n mod such m is 3m/5,
# so a period job's cost follows its drawn bound; for other moduli the
# period, and with it the cost, varies widely with the factors of m.
_SMOOTH_MODULI = sorted(2 ** a * 5 ** b for a in range(1, 20) for b in range(1, 9))


def _bound(config: Config, quantile: float) -> int:
    bound = config.lo * (config.hi / config.lo) ** quantile
    if config.name == "period":
        return min(_SMOOTH_MODULI, key=lambda m: abs(math.log(m / bound)))
    return round(bound)


def _argv(config: Config, bound: int, slot: int, rng: random.Random) -> list[str]:
    argv = list(config.argv)
    if config.name == "balancer":
        value = reference.term("balancing", bound) + slot % 2
        return argv + ["--value", str(value)]
    argv += [config.bound_flag, str(bound)]
    if config.name.startswith("seq/") and slot % 2:
        argv += ["--mod", str(rng.randrange(2, 10 ** 9))]
    return argv


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list for (workload, seed): same seed, same list."""
    rng = random.Random(f"ballab-perfbench/{workload}/{seed}")
    jobs = []
    for config in WORKLOADS[workload]:
        for slot in range(config.count):
            bound = _bound(config, (slot + 0.4 + 0.2 * rng.random()) / config.count)
            jobs.append({"config": config.name, "bound": bound,
                         "argv": _argv(config, bound, slot, rng)})
    rng.shuffle(jobs)
    for number, job in enumerate(jobs):
        job["id"] = f"{workload}/{seed}/{number:03d}"
    return jobs


def digest(jobs: list[dict]) -> str:
    text = json.dumps([job["argv"] for job in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
