"""tools/bench.py on its tiny tier: the run file's fields and correctness flags,
and --summary on that file and on the committed run files."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_tiny_tier_alternates_two_trees_and_matches_the_contract(tmp_path, capsys):
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
    # the file's summary: one row per line, whose median and minimum are its one run per tree
    out = tmp_path / "tiny.json"
    out.write_text(json.dumps(result))
    assert bench.main(["--summary", str(out)]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header == ("| line | tiny.json this median/min (s) | tiny.json against median/min (s)"
                      " | tiny.json this/against |")
    assert rule == "| --- | --- | --- | --- |"
    walls = [rec["wall_s"] for rec in result["runs"]]
    assert rows == [f"| `{' '.join(argv)}` | {this:.4f}/{this:.4f} | {other:.4f}/{other:.4f}"
                    f" | {this / other:.3f} |"
                    for argv, this, other in zip(lines, walls[::2], walls[1::2])]


def test_summary_of_the_committed_run_files(capsys):
    paths = [ROOT / "BENCH_37.json", ROOT / "BENCH_41.json"]
    assert bench.main(["--summary", *map(str, paths)]) == 0
    header, _, *rows = capsys.readouterr().out.splitlines()
    assert header.count("|") == 8  # the line, then per file two trees and their ratio
    documents = [json.loads(path.read_text()) for path in paths]
    lines = list(dict.fromkeys(" ".join(rec["argv"]) for doc in documents for rec in doc["runs"]))
    assert len(rows) == len(lines) == 19 and len(documents[0]["runs"] + documents[1]["runs"]) == 210
    for line, row in zip(lines, rows):
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[0] == f"`{line}`"
        for doc, (this, other, ratio) in zip(documents, (cells[1:4], cells[4:7])):
            walls = {tree: [rec["wall_s"] for rec in doc["runs"]
                            if rec["tree"] == tree and " ".join(rec["argv"]) == line]
                     for tree in ("this", "against")}
            if not walls["this"]:
                assert (this, other, ratio) == ("-", "-", "-"), line
                continue
            assert this == f"{statistics.median(walls['this']):.4f}/{min(walls['this']):.4f}"
            assert other == f"{statistics.median(walls['against']):.4f}/{min(walls['against']):.4f}"
            assert float(ratio) == pytest.approx(
                statistics.median(walls["this"]) / statistics.median(walls["against"]), abs=1e-3)


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
