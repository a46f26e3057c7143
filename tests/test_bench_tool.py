"""tools/bench.py on its tiny tier: the run file's fields and correctness flags."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_tiny_tier_alternates_two_trees_and_matches_the_contract():
    # this checkout against itself: two sides, each line once per side
    result = bench.bench({"this": ROOT, "against": ROOT}, bench.TINY, 1)
    provenance = result["provenance"]
    assert provenance["runs"] == 1 and provenance["nproc"] >= 1 and provenance["python"]
    assert set(provenance["trees"]) == {"this", "against"}
    for side in provenance["trees"].values():
        assert len(side["src_digest"]) == 64 and "pycache_existed" in side
    lines = bench.TINY
    assert [(rec["tree"], rec["argv"]) for rec in result["runs"]] == \
        [(label, argv) for argv in lines for label in ("this", "against")]
    for rec in result["runs"]:
        assert rec["exit"] == 0 and rec["digest_match"] is True, rec
        assert rec["wall_s"] > 0 and rec["cpu_s"] > 0 and rec["vmhwm_kb"] > 1000, rec
        assert type(rec["runtime_ms"]) is int and rec["runtime_ms"] >= 0, rec


def test_ci_tier_is_the_contracts_ci_lines_and_the_large_special_form():
    lines = bench.CI
    ci_tier = [json.loads(line)["argv"] for line in bench.CI_CONTRACT_PATH.read_text().splitlines()]
    assert len(ci_tier) == 26
    assert lines == ci_tier + [["search", "special-form", "--max-index", "12000", "--kind",
                                "balancing", "--prime", "2"]]
    assert tuple(lines[-1]) not in bench.contract()


def test_the_warm_up_is_an_accepted_command_line(tmp_path):
    record = bench.run_once(ROOT, bench.WARM_UP, None, tmp_path)
    assert record["exit"] == 0 and record["digest_match"] is None, record


def test_a_wrong_output_reads_as_a_mismatch(tmp_path):
    # the pinned digests of another line cannot match this line's output
    argv = ["search", "sum-power", "--max-index", "7"]
    other = bench.contract()[("search", "sum-power", "--max-index", "3")]
    record = bench.run_once(ROOT, argv, other, tmp_path)
    assert record["exit"] == 0 and record["digest_match"] is False


def test_a_killed_child_records_no_peak(tmp_path, monkeypatch):
    # an earlier run's file must not stand in for the peak of a child killed before its exit
    (tmp_path / "vmhwm").write_text("123456")
    monkeypatch.setattr(bench, "_CHILD", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
    record = bench.run_once(ROOT, ["--version"], None, tmp_path)
    assert record["exit"] == -9 and record["vmhwm_kb"] is None and record["runtime_ms"] is None
