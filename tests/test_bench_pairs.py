"""Tests for scripts/bench_pairs.py's summary, on canned perfbench results,
its line count, on a temporary tree, and its export of both sides, on a
temporary git repository: no perfbench runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(wall, rss=54.0, correct=True, failed=0):
    """A perfbench result line: its correctness, counts and metrics."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }


PARENT = [result(w) for w in (0.100, 0.101, 0.099, 0.102, 0.100, 0.103, 0.098, 0.100, 0.101, 0.100)]
CHANGE = [result(w) for w in (0.090, 0.091, 0.089, 0.092, 0.090, 0.093, 0.088, 0.090, 0.091, 0.101)]


def test_last_json_reads_only_the_last_line():
    out = 'wall_s 0.1 s\nmetadata {"seed": 1}\n{"correct": true, "metrics": {}}\n\n'
    assert bench_pairs.last_json(out) == {"correct": True, "metrics": {}}
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n")


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3301-3304") == [3301, 3302, 3303, 3304]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]


def test_summary_of_canned_pairs():
    seeds = list(range(1, 11))
    s = bench_pairs.summarize(PARENT, CHANGE, seeds)
    wall = s["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"]["runs"] == [r["metrics"]["wall_s"]["value"] for r in PARENT]
    assert wall["parent"]["median"] == pytest.approx(0.100)
    assert wall["change"]["median"] == pytest.approx(0.0905)
    # inclusive quartiles of the parent's sorted runs 0.098 .. 0.103
    assert wall["parent"]["q1"] == pytest.approx(0.1)
    assert wall["parent"]["q3"] == pytest.approx(0.101)
    assert wall["parent_iqr"] == pytest.approx(0.001)
    assert wall["pairs"] == 10
    assert wall["pairs_change_lower"] == 9  # the last pair reads 0.100 -> 0.101
    assert wall["median_change"] == pytest.approx(-0.095)
    assert s["peak_rss_mb"]["pairs_change_lower"] == 0  # equal is not lower
    assert s["runs_correct"] is True
    assert s["failed"] == {"parent": 0, "change": 0}
    assert s["attempted"] == {"parent": 100, "change": 100}
    assert s["seeds"] == seeds


def test_claim_needs_nine_pairs_in_ten_and_a_drop_past_the_iqr():
    seeds = list(range(10))
    held = bench_pairs.claim({"w": bench_pairs.summarize(PARENT, CHANGE, seeds)}, "w", "wall_s")
    assert held["held"] and held["workload"] == "w" and held["metric"] == "wall_s"
    assert held["result"].startswith("9/10 pairs")
    # eight pairs in ten lower: not held, whatever the medians
    worse = CHANGE[:8] + [result(0.2), result(0.2)]
    assert not bench_pairs.claim({"w": bench_pairs.summarize(PARENT, worse, seeds)}, "w", "wall_s")["held"]
    # every pair lower, but by less than the parent's IQR (0.001 s)
    close = [result(r["metrics"]["wall_s"]["value"] - 0.0004) for r in PARENT]
    assert not bench_pairs.claim({"w": bench_pairs.summarize(PARENT, close, seeds)}, "w", "wall_s")["held"]


def test_summary_keeps_a_wrong_run_and_refuses_unpaired_runs():
    s = bench_pairs.summarize(PARENT[:2], [result(0.09), result(0.09, correct=False, failed=1)], [1, 2])
    assert s["runs_correct"] is False
    assert s["failed"] == {"parent": 0, "change": 1}
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT[:2], CHANGE[:1], [1, 2])


def test_src_lines_counts_newlines_of_the_package_sources(tmp_path):
    pkg = tmp_path / "src" / "rank3"
    (pkg / "data").mkdir(parents=True)
    (pkg / "a.py").write_text("one\ntwo\n")
    (pkg / "b.py").write_text("three\nno final newline")  # wc -l counts 1
    (pkg / "notes.txt").write_text("x\n" * 5)
    (pkg / "data" / "c.py").write_text("x\n" * 7)
    assert bench_pairs.src_lines(tmp_path) == 3


def test_export_holds_the_working_tree_on_the_change_side_only(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("built/\n")
    (repo / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("deleted in the working tree\n")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "parent")
    (repo / "kept.py").write_text("edited, not committed\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "gone.py").unlink()
    (repo / "built").mkdir()
    (repo / "built" / "out.txt").write_text("ignored\n")

    parent = bench_pairs.export(repo, "HEAD", tmp_path / "parent")
    change = bench_pairs.export(repo, bench_pairs.working_tree(repo, tmp_path), tmp_path / "change")
    files = {side: sorted(p.name for p in tree.rglob("*") if p.is_file())
             for side, tree in (("parent", parent), ("change", change))}
    assert files == {"parent": [".gitignore", "gone.py", "kept.py"], "change": [".gitignore", "kept.py", "new.py"]}
    assert (parent / "kept.py").read_text() == "committed\n"
    assert (change / "kept.py").read_text() == "edited, not committed\n"
    assert git("diff", "--cached", "--name-only") == ""  # the checkout's own index is untouched
