"""The ballab benchmark: seeded batches of CLI jobs, run and checked one at a time.

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 30 --trace 0

One client runs the workload's job list in a closed loop: each job starts
only after the previous one ended, in a fresh interpreter (perfbench/job.py),
as a user's ``ballab ...`` call would, so imports and per-process cache fills
count.  Every job's output is checked against references that do not come
from the program under test (reference.py).  With ``--trace 0`` the list is
run in whole passes for about ``--seconds`` (at least one pass) and the
end-to-end metrics are printed.  With ``--trace 1`` each job runs once
untraced and once traced, the process-pool jobs once more serially and
traced, and the per-layer metrics are printed together with the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-job timings and the
traced spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOB_RUNNER = BENCH_DIR / "job.py"
OUT_DIR = ROOT / ".perfbench_out"

# Every job time is scaled to a core of a steady speed.  On a shared host
# the core's speed drifts by up to half within seconds, and job.py's
# calibration, timed in the job's own process, tracks it.  On the 2-core
# machine that defined the benchmark its loop took about 2.4 ms in the
# host's fast state and 3.8 ms in the slow one, its compile 3.4 and 6 ms.
# Interpreter start and import slowed down most like the loop, searches and
# verify suites most like the compile, so set-up is scaled by the loop and
# run and CPU times by the compile.  The unscaled figures are printed and
# stored too, as "raw".
LOOP_REF_NS = 3_000_000
COMPILE_REF_NS = 5_000_000

JOB_TIMEOUT_S = 60.0
# No job starts after RUN_CAP_S and none runs past RUN_END_S; jobs cut off
# count as failed, so even a pathologically slow program ends every run
# within 180 s.
RUN_CAP_S = 150.0
RUN_END_S = 170.0

# Known defect, run once per run outside the measured jobs: B_6000 has more
# than 4300 digits and rendering it crashes (ROADMAP item 4).
PROBE_ARGV = ["term", "--kind", "balancing", "--index", "6000"]

END_TO_END = [  # name, unit, better
    ("wall_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("work_per_s", "items/s", "higher"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# name, unit, better, traced layer whose calls the metric needs (None: always present)
PER_LAYER = [
    ("cli.import_s", "s", "lower", None),
    ("cli.main_s", "s", "lower", "cli.main"),
    ("cli.serialize_s", "s", "lower", "cli.serialize"),
    ("cli.serialize_bytes", "bytes", "lower", "cli.serialize"),
    ("diophantine.search_s", "s", "lower", "diophantine.search"),
    ("diophantine.self_s", "s", "lower", "diophantine.search"),
    ("diophantine.pairs", "count", "higher", "diophantine.search"),
    ("diophantine.values_tested", "count", "lower", "diophantine.power_test"),
    ("diophantine.records", "count", "higher", "diophantine.reverify"),
    ("diophantine.reverify_s", "s", "lower", "diophantine.reverify"),
    ("diophantine.pool_startup_s", "s", "lower", "pool"),
    ("diophantine.pool_wall_s", "s", "lower", "pool"),
    ("diophantine.pool_bytes", "bytes", "lower", "pool"),
    ("diophantine.pool_worker_cpu_s", "s", "lower", "pool"),
    ("diophantine.pool_efficiency", "ratio", "higher", "pool"),
    ("modular.sieve_calls", "count", "lower", "modular.sieve"),
    ("modular.sieve_s", "s", "lower", "modular.sieve"),
    ("modular.sieve_reject_frac", "ratio", "higher", "diophantine.power_test"),
    ("modular.moduli_fill_calls", "count", "lower", "modular.moduli_fill"),
    ("modular.moduli_fill_s", "s", "lower", "modular.moduli_fill"),
    ("modular.period_s", "s", "lower", "modular.period"),
    ("modular.term_mod_s", "s", "lower", "modular.term_mod"),
    ("bigmath.decompose_calls", "count", "lower", "bigmath.decompose"),
    ("bigmath.decompose_s", "s", "lower", "bigmath.decompose"),
    ("bigmath.decompose_hit_frac", "ratio", "higher", "bigmath.decompose"),
    ("bigmath.kth_root_calls", "count", "lower", "bigmath.kth_root"),
    ("bigmath.kth_root_s", "s", "lower", "bigmath.kth_root"),
    ("bigmath.strip_calls", "count", "lower", "bigmath.strip"),
    ("bigmath.strip_s", "s", "lower", "bigmath.strip"),
    ("bigmath.gcd_calls", "count", "lower", "bigmath.gcd"),
    ("bigmath.gcd_s", "s", "lower", "bigmath.gcd"),
    ("bigmath.primes_fill_s", "s", "lower", "bigmath.primes_fill"),
    ("sequences.values_s", "s", "lower", "sequences.values"),
    ("sequences.values_terms", "count", "lower", "sequences.values"),
    ("sequences.term_calls", "count", "lower", "sequences.term"),
    ("sequences.term_s", "s", "lower", "sequences.term"),
    ("quadring.binet_calls", "count", "lower", "quadring.binet"),
    ("quadring.binet_s", "s", "lower", "quadring.binet"),
    ("quadring.qpow_s", "s", "lower", "quadring.qpow"),
    ("verify.identities_s", "s", "lower", "verify.identities"),
    ("verify.gcd_s", "s", "lower", "verify.gcd"),
    ("verify.modular_s", "s", "lower", "verify.modular"),
    ("verify.cases", "count", "higher", "verify.run_suite"),
    ("trace.overhead_frac", "ratio", "lower", None),
]


# ---------------------------------------------------------------------------
# running jobs


def job_env() -> dict:
    env = dict(os.environ)
    for name in ("BALLAB_WORKERS", "BALLAB_FORMAT"):
        env.pop(name, None)
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a job's process group (pool workers included)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def execute(job: dict, mode: str, timeout: float, env: dict) -> dict:
    """Run one job; returns the job runner's report plus timings and the check."""
    cmd = [sys.executable, str(JOB_RUNNER), mode, job["id"], "--", *job["argv"]]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        outcome = {"timeout": True, "run_s": timeout}
    else:
        _stop_group(proc.pid)
        try:
            outcome = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            outcome = {"exit": proc.returncode, "stdout": "",
                       "run_s": (time.monotonic_ns() - spawn_ns) / 1e9,
                       "error": f"job runner exited {proc.returncode} without a report: "
                                f"{err.strip()[-300:]}"}
        else:
            calibration = outcome["calibration_ns"]
            compile_ns = [c[1] for c in calibration["before"] + calibration["after"]]
            outcome["scale"] = COMPILE_REF_NS / statistics.mean(compile_ns)
            start_scale = LOOP_REF_NS / calibration["start"][0]
            outcome["raw"] = {
                "setup_s": (outcome["import_end_ns"] - spawn_ns) / 1e9,
                "import_s": (outcome["import_end_ns"] - outcome["import_start_ns"]) / 1e9,
                "run_s": (outcome["main_end_ns"] - outcome["main_start_ns"]) / 1e9,
                "cpu_s": outcome["cpu_s"],
            }
            outcome["setup_s"] = outcome["raw"]["setup_s"] * start_scale
            outcome["import_s"] = outcome["raw"]["import_s"] * start_scale
            outcome["run_s"] = outcome["raw"]["run_s"] * outcome["scale"]
            outcome["cpu_s"] = outcome["raw"]["cpu_s"] * outcome["scale"]
    outcome["failure"] = reference.check(job, outcome)
    outcome["job"] = job
    outcome["mode"] = mode
    return outcome


class Runner:
    """Runs jobs until the run cap, after which jobs are marked failed unrun."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.env = job_env()
        self.outcomes: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, job: dict, mode: str) -> dict:
        if self.elapsed() >= RUN_CAP_S:
            outcome = {"job": job, "mode": mode, "failure": "not run: run time cap reached",
                       "run_s": 0.0}
        else:
            timeout = min(JOB_TIMEOUT_S, RUN_END_S - self.elapsed())
            outcome = execute(job, mode, timeout, self.env)
        self.outcomes.append(outcome)
        return outcome


def serial_variant(job: dict) -> dict | None:
    """The same job with --workers 1, for jobs that use the process pool."""
    argv = job["argv"]
    i = argv.index("--workers") + 1 if "--workers" in argv else None
    if i is None or argv[i] == "1":
        return None
    return dict(job, id=job["id"] + "/serial", argv=[*argv[:i], "1", *argv[i + 1:]])


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  Job
    sizes are spread log-uniformly, so neighbouring order statistics differ
    by several percent, and a single one jumps when two jobs swap places;
    the weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8  # Simpson's rule on each order statistic's interval [i/n, (i+1)/n]
    h = 1 / (n * steps)
    weights = [sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end_metrics(passes: list[list[dict]], raw: bool = False) -> dict:
    """End-to-end metrics of untraced passes over one job list.

    Times are scaled by each job's calibration unless raw is set.
    """
    def field(o, name):
        return (o.get("raw") or o).get(name, 0.0) if raw else o.get(name, 0.0)

    runs = [o for p in passes for o in p if "setup_s" in o]
    times = [field(o, "run_s") for p in passes for o in p]
    worked = [(reference.pairs(o["job"]) + reference.cases(o["job"]), field(o, "run_s"))
              for p in passes for o in p]
    work = sum(w for w, _ in worked)
    work_time = sum(t for w, t in worked if w)
    return {
        "wall_s": statistics.median(sum(field(o, "run_s") for o in p) for p in passes),
        "job_p50_s": quantile(times, 0.5),
        "job_p90_s": quantile(times, 0.9),
        "work_per_s": work / work_time if work_time else 0.0,
        "setup_s": statistics.median(field(o, "setup_s") for o in runs) if runs else 0.0,
        "cpu_s": statistics.median(sum(field(o, "cpu_s") for o in p) for p in passes),
        "peak_rss_mb": max((o["maxrss_kb"] for o in runs), default=0) / 1024,
    }


# trace counters that are times, scaled like the job's other times
_TIMED_COUNTS = ("pool.startup_ns", "pool.wall_ns", "pool.worker_cpu_s", "pool.capacity_s")


def _sum_traces(outcomes: list[dict]) -> tuple[dict, dict]:
    agg: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for o in outcomes:
        trace = o.get("trace") or {}
        scale = o.get("scale", 1.0)
        for layer, (calls, total_ns, self_ns) in trace.get("agg", {}).items():
            into = agg.setdefault(layer, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total_ns * scale
            into[2] += self_ns * scale
        for name, v in trace.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + (v * scale if name in _TIMED_COUNTS else v)
    return agg, counts


def per_layer_metrics(full: list[dict], pooled: list[dict], imports: list[float],
                      overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of traced jobs, and the calls each traced layer saw."""
    agg, counts = _sum_traces(full)
    _, pool = _sum_traces(pooled)

    def calls(layer):
        return agg.get(layer, [0, 0, 0])[0]

    def total_s(layer):
        return agg.get(layer, [0, 0, 0])[1] / 1e9

    tested = calls("diophantine.power_test")
    decomposed = calls("bigmath.decompose")
    values = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.main_s": total_s("cli.main"),
        "cli.serialize_s": total_s("cli.serialize"),
        "cli.serialize_bytes": counts.get("cli.serialize_bytes", 0),
        "diophantine.search_s": total_s("diophantine.search"),
        "diophantine.self_s": agg.get("diophantine.search", [0, 0, 0])[2] / 1e9,
        "diophantine.pairs": sum(reference.pairs(o["job"]) for o in full),
        "diophantine.values_tested": tested,
        "diophantine.records": calls("diophantine.reverify"),
        "diophantine.reverify_s": total_s("diophantine.reverify"),
        "diophantine.pool_startup_s": pool.get("pool.startup_ns", 0) / 1e9,
        "diophantine.pool_wall_s": pool.get("pool.wall_ns", 0) / 1e9,
        "diophantine.pool_bytes": pool.get("pool.bytes", 0),
        "diophantine.pool_worker_cpu_s": pool.get("pool.worker_cpu_s", 0.0),
        "diophantine.pool_efficiency": (pool["pool.worker_cpu_s"] / pool["pool.capacity_s"]
                                        if pool.get("pool.capacity_s") else 0.0),
        "modular.sieve_calls": calls("modular.sieve"),
        "modular.sieve_s": total_s("modular.sieve"),
        "modular.sieve_reject_frac": (tested - decomposed) / tested if tested else 0.0,
        "modular.moduli_fill_calls": calls("modular.moduli_fill"),
        "modular.moduli_fill_s": total_s("modular.moduli_fill"),
        "modular.period_s": total_s("modular.period"),
        "modular.term_mod_s": total_s("modular.term_mod"),
        "bigmath.decompose_calls": decomposed,
        "bigmath.decompose_s": total_s("bigmath.decompose"),
        "bigmath.decompose_hit_frac": (counts.get("bigmath.decompose_hits", 0) / decomposed
                                       if decomposed else 0.0),
        "bigmath.kth_root_calls": calls("bigmath.kth_root"),
        "bigmath.kth_root_s": total_s("bigmath.kth_root"),
        "bigmath.strip_calls": calls("bigmath.strip"),
        "bigmath.strip_s": total_s("bigmath.strip"),
        "bigmath.gcd_calls": calls("bigmath.gcd"),
        "bigmath.gcd_s": total_s("bigmath.gcd"),
        "bigmath.primes_fill_s": total_s("bigmath.primes_fill"),
        "sequences.values_s": total_s("sequences.values"),
        "sequences.values_terms": counts.get("sequences.values_terms", 0),
        "sequences.term_calls": calls("sequences.term"),
        "sequences.term_s": total_s("sequences.term"),
        "quadring.binet_calls": calls("quadring.binet"),
        "quadring.binet_s": total_s("quadring.binet"),
        "quadring.qpow_s": total_s("quadring.qpow"),
        "verify.identities_s": total_s("verify.identities"),
        "verify.gcd_s": total_s("verify.gcd"),
        "verify.modular_s": total_s("verify.modular"),
        "verify.cases": counts.get("verify.cases", 0),
        "trace.overhead_frac": overhead,
    }
    seen = {layer: v[0] for layer, v in agg.items()}
    seen["pool"] = len([o for o in pooled if (o.get("trace") or {}).get("counts")])
    return values, seen


# ---------------------------------------------------------------------------
# provenance and the known-defect probe


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ballab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, jobs: list[dict], trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": len(jobs),
        "jobs_digest": workloads.digest(jobs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def probe_known_defect(runner: Runner) -> tuple[str, bool]:
    """(report line, output correct) for the ROADMAP item 4 digit-limit probe."""
    job = {"id": "probe", "config": "probe", "bound": 6000, "argv": PROBE_ARGV}
    o = execute(job, "off", JOB_TIMEOUT_S, runner.env)
    cmd = "ballab " + " ".join(PROBE_ARGV)
    if o.get("error") and "Exceeds the limit" in o["error"]:
        return (f"known defect (ROADMAP item 4): {cmd} still crashes on the "
                "4300-digit int-to-str limit; kept out of the measured jobs", True)
    if o["failure"] is None:
        return f"known defect (ROADMAP item 4) fixed: {cmd} prints the right value", True
    if o.get("exit") == 0 and not o.get("error"):
        return f"{cmd} prints a wrong value: {o['failure']}", False
    return f"{cmd} ends with {o['failure']}", True


# ---------------------------------------------------------------------------
# the run


def run_untraced(runner: Runner, jobs: list[dict], seconds: float) -> list[list[dict]]:
    passes = []
    while True:
        passes.append([runner.run(job, "off") for job in jobs])
        per_pass = runner.elapsed() / len(passes)
        if runner.elapsed() + per_pass > seconds:
            return passes


def run_traced(runner: Runner, jobs: list[dict]) -> tuple[list, list, float]:
    """Each job untraced then traced; pool jobs also serially traced."""
    full, pooled = [], []
    plain_s = traced_s = 0.0
    for job in jobs:
        serial = serial_variant(job)
        plain = runner.run(job, "off")
        traced = runner.run(job, "pool" if serial else "full")
        plain_s += plain["run_s"]
        traced_s += traced["run_s"]
        if serial:
            pooled.append(traced)
            full.append(runner.run(serial, "full"))
        else:
            full.append(traced)
    return full, pooled, (traced_s / plain_s - 1 if plain_s else 0.0)


def _job_record(o: dict) -> dict:
    keys = ("mode", "setup_s", "import_s", "run_s", "cpu_s", "maxrss_kb", "scale", "raw",
            "failure")
    return {k: o.get(k) for k in keys} | {"id": o["job"]["id"], "argv": o["job"]["argv"]}


def write_out(name: str, document: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w") as f:
        json.dump(document, f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ballab" / "cli.py").is_file():
        print(f"ballab sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # this process only: the probe's value has 4600 digits

    jobs = workloads.make_jobs(args.workload, args.seed)
    prov = provenance(args.workload, args.seed, jobs, bool(args.trace))
    print("provenance " + json.dumps(prov, sort_keys=True))
    runner = Runner()
    probe_line, probe_ok = probe_known_defect(runner)
    if args.trace:
        full, pooled, overhead = run_traced(runner, jobs)
        imports = [o["import_s"] for o in runner.outcomes if "import_s" in o]
        values, seen = per_layer_metrics(full, pooled, imports, overhead)
        table = [(name, unit) for name, unit, _, _ in PER_LAYER]
        notes = [f"absent on {args.workload}: {name} (no call reached {layer})"
                 for name, _, _, layer in PER_LAYER if layer and not seen.get(layer)]
        missing = sorted({m for o in full + pooled for m in (o.get("trace") or {}).get("missing", [])})
        notes += [f"trace point missing from the program: {m}" for m in missing]
        write_out(f"trace-{args.workload}-{args.seed}.json", {
            "provenance": prov, "metrics": values,
            "jobs": [_job_record(o) | {"trace": o.get("trace")} for o in runner.outcomes]})
    else:
        passes = run_untraced(runner, jobs, args.seconds)
        values = end_to_end_metrics(passes)
        raw = end_to_end_metrics(passes, raw=True)
        table = [(name, unit) for name, unit, _ in END_TO_END]
        outcomes = runner.outcomes
        work_name, work_unit = (("cases_per_s", "cases/s") if args.workload == "verify-sweep"
                                else ("pairs_per_s", "pairs/s"))
        notes = [f"passes {len(passes)} of {len(jobs)} jobs",
                 f"{work_name} {values['work_per_s']} {work_unit} (as work_per_s)",
                 "failed_frac "
                 f"{sum(1 for o in outcomes if o['failure']) / len(outcomes)} ratio"]
        notes += [f"raw {name} {raw[name]} {unit} (unscaled)" for name, unit in table]
        write_out(f"run-{args.workload}-{args.seed}.json", {
            "provenance": prov, "metrics": values, "raw_metrics": raw,
            "jobs": [_job_record(o) for o in outcomes]})

    failures = [o for o in runner.outcomes if o["failure"]]
    for o in failures[:10]:
        print(f"FAILED {o['job']['id']} ({' '.join(o['job']['argv'])}): {o['failure']}")
    for note in notes + [probe_line]:
        print(note)
    for name, unit in table:
        print(f"{name} {values[name]} {unit}")
    print(json.dumps({
        "correct": not failures and probe_ok,
        "attempted": len(runner.outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
