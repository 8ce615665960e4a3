#!/usr/bin/env python3
"""Paired perfbench runs of a parent commit and the working tree, summarized
into BENCH_<label>.json.

    python3 scripts/bench_pairs.py --label LABEL --parent HEAD \\
        --workload verify_slow:3301-3310 --workload params_large:3401-3410 \\
        --seconds 8 --claim verify_slow:wall_s --change "..." --layer "..."

Both sides are exported the same way, as ``git archive`` of a tree
unpacked into sibling directories of one temporary directory: the parent is
--parent's tree; the change is this checkout's working tree as ``git add
-A`` would stage it (tracked files with their uncommitted edits, untracked
files that are not ignored, no deleted files), written through a scratch
index so the checkout's own index is left alone.  Each side runs its own,
unedited ``perfbench/run.py`` from its own root, so each imports its own
``src/``.  For every seed of a workload the two sides run back to back, the
parent first on the 1st, 3rd, ... seed and the change first on the others,
so a drift in the host's load falls on both sides alike.  Only the last line
of each run's standard output is read: perfbench's one JSON object.

A ``--workload`` is ``NAME:SEEDS``, SEEDS a range ``A-B`` or a comma list;
``--traced NAME:SEEDS`` adds pairs of ``--trace 1`` runs (4 s) under
``per_layer_traced``.  For each metric the file holds both sides' runs, their
median and quartiles (inclusive method), the number of pairs, in how many the
change read lower, the median's relative change and the parent's
interquartile range.  The claim holds when the change read lower in at least
nine pairs in ten and its median is lower than the parent's by more than the
parent's interquartile range.  Every perfbench metric is better lower.  The
file also holds ``src_lines``, each exported side's ``wc -l`` total of
``src/rank3/*.py``, so a change's net line count is on record.  Without
--claim no claim is made and the file's ``claim`` is null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SECONDS = 4
CLAIM_RULE = "change lower in >= 9/10 of pairs and |median change| > parent IQR"


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    """'3301-3310' or '3301,3305' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def src_lines(tree: Path) -> int:
    """The ``wc -l`` total of tree's src/rank3/*.py: its newline count."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "rank3").glob("*.py"))


def git(root: Path, *args: str, **kw) -> subprocess.CompletedProcess:
    """``git args`` run in root, its output captured; raises on failure."""
    return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True, **kw)


def working_tree(root: Path, scratch: Path) -> str:
    """The id of a git tree of root's working tree as ``git add -A`` stages
    it, written through an index file in scratch."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git(root, "add", "-A", env=env)
    return git(root, "write-tree", env=env, text=True).stdout.strip()


def export(root: Path, tree: str, dest: Path) -> Path:
    """``git archive`` of root's tree-ish unpacked into a new directory dest."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", dest], input=git(root, "archive", tree).stdout, check=True)
    return dest


def side_stats(runs: list[float]) -> dict:
    """Median, inclusive quartiles and the runs of one side."""
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def summarize(parent: list[dict], change: list[dict], seeds: list[int]) -> dict:
    """One workload's pairs, each side a list of perfbench results (the last
    JSON line of each run) in seed order, as BENCH_*.json holds them."""
    if len(parent) != len(change) or len(parent) != len(seeds):
        raise ValueError("every seed needs one run of each side")
    out = {}
    for name, m in parent[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ps, cs = side_stats(p), side_stats(c)
        out[name] = {
            "unit": m["unit"],
            "parent": ps,
            "change": cs,
            "pairs": len(p),
            "pairs_change_lower": sum(b < a for a, b in zip(p, c)),
            "median_change": cs["median"] / ps["median"] - 1 if ps["median"] else 0.0,
            "parent_iqr": ps["q3"] - ps["q1"],
        }
    out["runs_correct"] = all(r["correct"] for r in parent + change)
    for key in ("failed", "attempted"):
        out[key] = {side: sum(r[key] for r in runs) for side, runs in (("parent", parent), ("change", change))}
    out["seeds"] = list(seeds)
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """Whether a workload's metric fell past the bar of CLAIM_RULE."""
    s = summary[workload][metric]
    drop = s["parent"]["median"] - s["change"]["median"]
    held = s["pairs_change_lower"] >= math.ceil(0.9 * s["pairs"]) and drop > s["parent_iqr"]
    result = (
        f"{s['pairs_change_lower']}/{s['pairs']} pairs; median {s['parent']['median']:.4g} -> "
        f"{s['change']['median']:.4g} {s['unit']} ({100 * s['median_change']:+.1f}%), "
        f"parent IQR {s['parent_iqr']:.3g} {s['unit']}"
    )
    return {"workload": workload, "metric": metric, "held": held, "rule": CLAIM_RULE, "result": result}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of tree's perfbench/run.py; its last JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a wrong output, kept as correct=False
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr}")
    return last_json(proc.stdout)


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    """Each side's results in seed order, alternating which side runs first."""
    runs: dict = {"seeds": seeds, "parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_perfbench(trees[side], workload, seed, seconds, trace))
            value = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} trace {trace} {side}: wall_s {value}", file=sys.stderr)
    return runs


def parse_workloads(specs: list[str]) -> list[tuple[str, list[int]]]:
    out = []
    for spec in specs:
        name, _, seeds = spec.partition(":")
        out.append((name, parse_seeds(seeds)))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--workload", action="append", default=[], help="NAME:SEEDS, end-to-end pairs")
    ap.add_argument("--traced", action="append", default=[], help="NAME:SEEDS, traced pairs")
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--claim", help="WORKLOAD:METRIC, an end-to-end metric; none if left out")
    ap.add_argument("--change", required=True, help="what the change does")
    ap.add_argument("--layer", required=True, help="the layer it moves")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)

    parent = git(ROOT, "rev-parse", args.parent, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        sources = {"parent": parent, "change": working_tree(ROOT, tmp)}
        trees = {side: export(ROOT, tree, tmp / side) for side, tree in sources.items()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        end_to_end = {w: run_pairs(trees, w, s, args.seconds, 0) for w, s in parse_workloads(args.workload)}
        traced = {w: run_pairs(trees, w, s, TRACED_SECONDS, 1) for w, s in parse_workloads(args.traced)}
    end_to_end = {w: summarize(r["parent"], r["change"], r["seeds"]) for w, r in end_to_end.items()}
    traced = {w: summarize(r["parent"], r["change"], r["seeds"]) for w, r in traced.items()}

    out = {
        "change": args.change,
        "layer": args.layer,
        "parent": parent,
        "harness": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds} --trace 0 "
        f"(traced: --seconds {TRACED_SECONDS} --trace 1), each side from its own exported tree, "
        "unedited perfbench/; written by scripts/bench_pairs.py",
        "pairing": "alternating pairs: parent first on the 1st, 3rd, ... seed, change first on the "
        "others; medians and quartiles (inclusive method) over the runs of each side",
        "machine": {
            "cores": len(os.sched_getaffinity(0)),
            "versions": {"python": platform.python_version(), "numpy": version("numpy")},
            "note": "shared host; both sides measured in the same interleaved session",
        },
        "src_lines": lines,
        "end_to_end": end_to_end,
        "per_layer_traced": traced,
        "notes": args.note,
        "claim": claim(end_to_end, *args.claim.split(":", 1)) if args.claim else None,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}: claim {out['claim']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
