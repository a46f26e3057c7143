"""Self-tests of the benchmark: job lists, references, checker, tracer, metric names.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import ballab.cli  # noqa: E402
from ballab.diophantine import EquationTag, Parity, SearchConfig, oracle_search  # noqa: E402
from ballab.modular import period as ballab_period  # noqa: E402
from ballab.verify import run_suite  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ballab.cli.main(argv)
    return code, out.getvalue()


def search_configs():
    return [c for configs in workloads.WORKLOADS.values() for c in configs
            if c.argv[0] == "search"]


# ---------------------------------------------------------------------------
# job lists


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    first = workloads.make_jobs(workload, 7)
    assert workloads.make_jobs(workload, 7) == first
    assert workloads.digest(workloads.make_jobs(workload, 8)) != workloads.digest(first)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bounds_stay_in_range_and_ids_are_unique(workload):
    configs = {c.name: c for c in workloads.WORKLOADS[workload]}
    jobs = workloads.make_jobs(workload, 3)
    assert len({job["id"] for job in jobs}) == len(jobs) >= 100
    for job in jobs:
        config = configs[job["config"]]
        assert config.lo <= job["bound"] <= config.hi


def test_term_and_seq_jobs_stay_below_the_digit_limit():
    for seed in range(5):
        for job in workloads.make_jobs("verify-sweep", seed):
            if job["argv"][0] in ("term", "seq", "balancer"):
                kind = reference._flag(job["argv"], "--kind", "balancing")
                assert len(str(reference.term(kind, job["bound"]))) < 4300


# ---------------------------------------------------------------------------
# references


@pytest.mark.parametrize("config", search_configs(), ids=lambda c: c.name)
def test_reference_covers_the_largest_bound(config):
    ref = reference.search_refs()[config.name]
    assert ref["argv"] == list(config.argv)
    assert ref["max_index"] == config.hi


@pytest.mark.parametrize("config", [c for c in search_configs()
                                    if c.argv[1] not in ("product-form", "special-form")],
                         ids=lambda c: c.name)
def test_pair_reference_equals_oracle(config):
    bound = 40
    code, out = cli_output([*config.argv, "--max-index", str(bound)])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])["config"]
    cfg = SearchConfig(max_index=bound, min_exponent=summary["min_exponent"],
                       parity_filter=Parity(summary["parity_filter"]),
                       coprimality_required=summary["coprimality_required"],
                       coprime_zero_exempt=summary["coprime_zero_exempt"])
    oracle = [{k: v for k, v in r.to_dict().items() if k != "bounds"}
              for r in oracle_search(EquationTag(config.argv[1]), cfg)]
    ref = [r for r in reference.search_refs()[config.name]["records"] if r["n"] <= bound]
    assert ref == oracle


def test_references_hold_the_published_solutions():
    refs = {name: [(r["n"], r["m"], r["x"], r.get("q")) for r in ref["records"]]
            for name, ref in reference.search_refs().items()
            if not name.startswith("special-form/")}
    assert refs["sum-power/same"] == [(3, 1, "6", 2)]
    assert refs["square-diff"] == [(1, 0, "1", None), (2, 0, "6", 2)]
    assert refs["cube-sum-plus"] == refs["cube-sum-minus"] == [(1, 0, "1", None)]
    assert refs["product-form"] == [(2, 1, "3", 2)]


def test_own_sequences_match_known_terms():
    assert reference.values("balancing", 5)[:6] == [0, 1, 6, 35, 204, 1189]
    assert reference.values("lucas-balancing", 4)[:5] == [1, 3, 17, 99, 577]
    assert reference.values("pell", 5)[:6] == [0, 1, 2, 5, 12, 29]
    assert reference.values("associated-pell", 5)[:6] == [1, 1, 3, 7, 17, 41]
    assert reference.balancer(35) == 14 and reference.balancer(36) is None


@pytest.mark.parametrize("modulus", [2, 9, 10, 97, 1000, 4096])
def test_own_period_matches_ballab(modulus):
    assert reference.period(modulus) == ballab_period(modulus).period


@pytest.mark.parametrize("suite", ["identities", "gcd", "modular"])
@pytest.mark.parametrize("max_n", [1, 2, 7, 30])
def test_checked_count_formulas_match_ballab(suite, max_n):
    got = [(c.name, c.checked) for c in run_suite(suite, max_n)]
    assert got == reference.expected_checks(suite, max_n)


# ---------------------------------------------------------------------------
# the checker


def search_job(config_name, bound):
    config = next(c for c in search_configs() if c.name == config_name)
    argv = [*config.argv, "--max-index", str(bound)]
    return {"id": "t", "config": config_name, "bound": bound, "argv": argv}


def passing_outcome(job):
    code, out = cli_output(job["argv"])
    return {"exit": code, "stdout": out, "error": None}


def doctor(outcome, line_no, edit):
    lines = outcome["stdout"].splitlines()
    record = json.loads(lines[line_no])
    edit(record)
    lines[line_no] = json.dumps(record)
    return dict(outcome, stdout="\n".join(lines) + "\n")


def test_checker_passes_real_output():
    for name in ("sum-power/same", "square-diff", "product-form", "special-form/balancing/3"):
        job = search_job(name, 30)
        assert reference.check(job, passing_outcome(job)) is None


def test_checker_flags_a_doctored_record_line():
    job = search_job("square-diff", 30)
    good = passing_outcome(job)
    assert reference.check(job, doctor(good, 1, lambda r: r.update(x="7"))) is not None
    assert reference.check(job, doctor(good, 0, lambda r: r.update(n=4))) is not None
    assert reference.check(job, doctor(good, 0, lambda r: r["bounds"].update(max_index=31)))
    dropped = dict(good, stdout="\n".join(good["stdout"].splitlines()[1:]))
    assert reference.check(job, dropped) is not None


def test_checker_flags_mismatch_exit_traceback_and_timeout():
    job = search_job("sum-power/same", 30)
    good = passing_outcome(job)
    mismatch = doctor(good, -1, lambda s: s["claims"].update(verdict="MISMATCH"))
    assert "MISMATCH" in reference.check(job, mismatch)
    assert reference.check(job, dict(good, exit=1)) == "exit code 1"
    assert reference.check(job, dict(good, error="Traceback\nValueError: boom")).startswith(
        "traceback")
    assert reference.check(job, {"timeout": True}) == "timeout"


def test_checker_flags_wrong_terms_and_verify_counts():
    job = {"id": "t", "config": "term/pell", "bound": 12, "argv": ["term", "--kind", "pell",
                                                                    "--index", "12"]}
    good = passing_outcome(job)
    assert reference.check(job, good) is None
    assert reference.check(job, dict(good, stdout=good["stdout"].replace('"13860"', '"13861"')))
    job = {"id": "t", "config": "verify/gcd", "bound": 9,
           "argv": ["verify", "--suite", "gcd", "--max-n", "9"]}
    good = passing_outcome(job)
    assert reference.check(job, good) is None
    assert reference.check(job, dict(good, stdout=good["stdout"].replace('"checked":81',
                                                                         '"checked":80')))


# ---------------------------------------------------------------------------
# job runner and tracer


def run_job_runner(mode, argv):
    out = subprocess.run([sys.executable, str(BENCH_DIR / "job.py"), mode, "t", "--", *argv],
                         capture_output=True, text=True, timeout=60, env=run.job_env())
    return json.loads(out.stdout.splitlines()[-1])


def test_job_runner_keeps_the_digit_limit_crash():
    report = run_job_runner("off", run.PROBE_ARGV)
    assert report["exit"] == 1
    assert "Exceeds the limit" in report["error"]


def test_full_trace_reaches_every_layer_of_a_search():
    report = run_job_runner("full", ["search", "special-form", "--kind", "balancing",
                                     "--prime", "3", "--max-index", "80"])
    trace = report["trace"]
    assert trace["missing"] == []
    for layer in ("diophantine.search", "diophantine.power_test", "modular.sieve",
                  "bigmath.decompose", "bigmath.strip", "modular.moduli_fill",
                  "bigmath.primes_fill", "sequences.values", "cli.serialize"):
        assert trace["agg"][layer][0] > 0, layer
    names = {span[3] for span in trace["spans"]}
    assert {"job", "cli.main", "diophantine.search"} <= names


def test_pool_trace_measures_the_pool():
    report = run_job_runner("pool", ["search", "product-form", "--workers", "2",
                                     "--max-index", "20"])
    counts = report["trace"]["counts"]
    assert counts["pool.bytes"] > 0 and counts["pool.wall_ns"] > counts["pool.startup_ns"] > 0


# ---------------------------------------------------------------------------
# metric names and the failure directory


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [row[:3] for row in run.PER_LAYER])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_metric_functions_produce_exactly_the_named_metrics():
    job = search_job("square-diff", 20)
    outcome = {"job": job, "run_s": 0.5, "setup_s": 0.1, "cpu_s": 0.7, "maxrss_kb": 20000,
               "failure": None}
    e2e = run.end_to_end_metrics([[outcome, outcome]])
    assert list(e2e) == [name for name, _, _ in run.END_TO_END]
    layers, _ = run.per_layer_metrics([outcome], [], [0.1], 0.2)
    assert list(layers) == [row[0] for row in run.PER_LAYER]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
