"""Benchmark of the rank3 package, end to end and layer by layer.

    python3 perfbench/run.py --workload verify_slow|params_large|solver_relabel
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports rank3 from ./src and
nothing else.  Every pass of a workload runs in a fresh single-threaded
interpreter (perfbench/worker.py), the way `rank3 verify` runs.

--trace 0 prints the end-to-end metrics.  It first starts SETUP_PROBES
workers that only set up, then runs passes while the next is expected to end
within --seconds (at least one).  setup_s and wall_s are medians over the
processes and passes of this run; task_p90_ms pools the per-call times of
every pass.  Percentiles are Harrell-Davis estimates, which weigh every
order statistic: a pass has only 5 to 22 calls, and on a shared machine one
call's time moves with the host's load.

--trace 1 prints the per-layer metrics.  It runs one plain pass and one
traced pass, each in its own worker.  The traced pass re-implements
verify_entry with a span around each rank3 call, and every row's verdict,
stage statuses and subdegrees must equal verify_entry's from the plain pass
(the drift guard).  It also times `python -m rank3.cli catalog list`.
task_p50_ms, fail_frac and undecided_frac are reported here, where no bound
applies: the first spreads too widely between runs for one, the others are
0 when all is well.

Each run prints every metric with its unit, then its metadata, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
full result, with every call, goes to .perfbench_out/; traced runs also write
their spans there.  The exit code is 1 if any output is wrong, an iso mapping
fails its re-check, or the drift guard trips; 2 if ./src/rank3 is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import self_times  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 2
CLI_STARTS = 3
WORKLOADS = ("verify_slow", "params_large", "solver_relabel")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
STAGES = ("construct", "srg", "subdegrees", "aut", "iso")
SPAN_METRICS = {
    "families.construct_s": "families.construct",
    "families.group_s": "families.group",
    "families.spec_s": "families.spec",
    "graphs.srg_s": "graphs.srg",
    "permgrp.subdegrees_s": "permgrp.subdegrees",
    "permgrp.orbits_s": "permgrp.orbits",
    "autsolve.aut_s": "autsolve.aut",
    "autsolve.iso_s": "autsolve.iso",
    "autsolve.noniso_s": "autsolve.noniso",
    "catalog.self_s": "catalog.row",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "autsolve.nodes": "count",
    "autsolve.refinements": "count",
    "autsolve.generators": "count",
    "autsolve.us_per_refinement": "us",
    "autsolve.nodes_per_generator": "ratio",
    **{f"catalog.reported_{s}_ms": "ms" for s in STAGES},
    "catalog.unreported_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_frac": "fraction",
    "task_p50_ms": "ms",
    "fail_frac": "fraction",
    "undecided_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Launcher:
    """Starts workers and subprocesses under the run's deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _run(self, argv: list[str], **kw) -> None:
        try:
            subprocess.run(
                argv, env=self.env, cwd=ROOT, timeout=max(self.remaining(), 1.0),
                check=True, **kw,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:4]} did not end within the run limit") from exc
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"{argv[1:4]} exited with {exc.returncode}") from exc

    def worker(self, mode: str) -> dict:
        self.count += 1
        out = OUT / f"worker-{os.getpid()}-{self.count}.json"
        t0 = time.monotonic()
        self._run(
            [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--mode", mode, "--t0", repr(t0),
             "--out", str(out)],
            stdout=sys.stderr,
        )
        try:
            result = json.loads(out.read_text(encoding="utf-8"))
        finally:
            out.unlink(missing_ok=True)
        loaded = Path(result["rank3_file"]).resolve()
        if SRC.resolve() not in loaded.parents:
            raise BenchError(f"rank3 was imported from {loaded}, not from {SRC}")
        return result

    def cli_startup(self) -> float:
        t = time.perf_counter()
        self._run(
            [sys.executable, "-m", "rank3.cli", "catalog", "list"],
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - t


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each 1/n slice."""
    n = len(xs)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(xs)))


def task_ms(calls: list[dict]) -> list[float]:
    return [c["seconds"] * 1000.0 for c in calls]


def tally(calls: list[dict]) -> dict:
    wrong = [c for c in calls if c["outcome"] == "wrong"]
    undecided = [c for c in calls if c["outcome"] == "undecided"]
    return {
        "attempted": len(calls),
        "wrong": wrong,
        "failed": len(wrong) + len(undecided),
        "fail_frac": len(wrong) / len(calls),
        "undecided_frac": len(undecided) / len(calls),
    }


def end_to_end(launch: Launcher, seconds: int) -> tuple[dict, list[dict], dict, dict]:
    """End-to-end metrics from SETUP_PROBES set-up-only workers, then plain
    passes while the next one is expected to end within `seconds`."""
    setups = [launch.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        r = launch.worker("plain")
        passes.append(r)
        setups.append(r["setup_s"])
        spent = time.monotonic() - start
        expected = r["setup_s"] + r["pass_s"]
        if spent + expected > seconds or expected * 1.5 > launch.remaining():
            break
    calls = [c for p in passes for c in p["calls"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["pass_s"] for p in passes),
        "task_p90_ms": quantile(task_ms(calls), 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setups": len(setups), "passes": len(passes), "calls": len(calls)}
    return metrics, calls, passes[0], samples


def per_layer(launch: Launcher) -> tuple[dict, list[dict], dict, list[str]]:
    """Per-layer metrics from a plain and a traced pass, and the rows on
    which the traced pass drifted from verify_entry."""
    plain = launch.worker("plain")
    traced = launch.worker("traced")
    drifted = []
    for p, t in zip(plain["calls"], traced["calls"], strict=True):
        if p["kind"] == "row":
            why = drift(p, t)
            if why is not None:
                drifted.append(f"{p['name']}: {why}")
    spent = self_times(traced["spans"])
    metrics = {name: spent.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    count = {
        key: sum(c.get("counters", {}).get(key, 0) for c in traced["calls"])
        for key in ("nodes", "refinements", "generators")
    }
    metrics.update({f"autsolve.{k}": v for k, v in count.items()})
    metrics["autsolve.us_per_refinement"] = (
        metrics["autsolve.aut_s"] * 1e6 / count["refinements"] if count["refinements"] else 0.0
    )
    metrics["autsolve.nodes_per_generator"] = (
        count["nodes"] / count["generators"] if count["generators"] else 0.0
    )
    rows = [c for c in plain["calls"] if c["kind"] == "row"]
    reported = {
        s: sum((c.get("timings_ms", {}).get(s, 0.0) for c in rows), 0.0) for s in STAGES
    }
    metrics.update({f"catalog.reported_{s}_ms": v for s, v in reported.items()})
    metrics["catalog.unreported_s"] = (
        sum(c["seconds"] for c in rows) - sum(reported.values()) / 1000.0
    )
    metrics["cli.startup_s"] = statistics.median(
        launch.cli_startup() for _ in range(CLI_STARTS)
    )
    metrics["trace.overhead_frac"] = traced["pass_s"] / plain["pass_s"] - 1.0
    metrics["task_p50_ms"] = quantile(task_ms(plain["calls"]), 0.5)
    calls = plain["calls"] + traced["calls"]
    counted = tally(calls)
    metrics["fail_frac"] = counted["fail_frac"]
    metrics["undecided_frac"] = counted["undecided_frac"]
    OUT.joinpath(f"spans-{launch.workload}-seed{launch.seed}.json").write_text(
        json.dumps(traced["spans"]), encoding="utf-8"
    )
    return metrics, calls, plain, drifted


def drift(plain: dict, traced: dict) -> str | None:
    """How a traced row disagrees with verify_entry's report, or None.  A row
    that raised has no verdict, so it agrees only with another raise."""
    for key in ("verdict", "stages", "subdegrees"):
        if plain.get(key) != traced.get(key):
            return f"{key}: verify_entry {plain.get(key)!r}, traced {traced.get(key)!r}"
    return None


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "rank3" / "__init__.py").is_file():
        print(f"error: no rank3 package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    launch = Launcher(args.workload, args.seed)
    drifted: list[str] = []
    samples = None
    try:
        if args.trace:
            metrics, calls, first, drifted = per_layer(launch)
            units = PER_LAYER
        else:
            metrics, calls, first, samples = end_to_end(launch, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counted = tally(calls)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "versions": first["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "budget_s": first["budget_s"],
        "rows": first["calls_planned"],
        "samples": samples,
    }
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]!r} {unit}")
    if not args.trace:
        print(f"{'task_p50_ms':32s} {quantile(task_ms(calls), 0.5)!r} ms")
        print(f"{'fail_frac':32s} {counted['fail_frac']!r} fraction")
        print(f"{'undecided_frac':32s} {counted['undecided_frac']!r} fraction")
    for c in counted["wrong"]:
        print(f"WRONG {c['name']}: {c['detail']}", file=sys.stderr)
    for d in drifted:
        print(f"DRIFT {d}", file=sys.stderr)
    correct = not counted["wrong"] and not drifted
    print("metadata", json.dumps(meta))
    OUT.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "drift": drifted, "calls": calls}, default=str),
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": correct,
        "attempted": counted["attempted"],
        "failed": counted["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
